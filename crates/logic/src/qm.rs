//! Exact prime implicant generation and two-level cover selection.
//!
//! The short-path SPCF recursion (paper Eqn. 1) needs *all prime
//! implicants* of the on-set and off-set of every gate function, and the
//! masking synthesis (§4.1) needs minimized SOP covers of
//! technology-independent nodes. Functions here are exact for tables up to
//! [`crate::tt::MAX_TT_VARS`] inputs; the synthesis flow keeps node
//! arities at 10–15 inputs.
//!
//! # Prime generation
//!
//! [`prime_implicants`] walks free sets over bitset tables. For a set `S`
//! of free variables, `B_S` is the table whose bit `m` says that the cube
//! fixing every variable outside `S` to its value in `m` lies inside
//! `on ∪ dc`. `B_∅ = on ∪ dc`, and `B_S = B_{S∖x} ∧ swap_x(B_{S∖x})` for
//! `x` the lowest variable of `S`, where `swap_x` exchanges the minterms
//! that differ in `x`. The cube `(S, m)` is prime iff `B_S[m]` holds and
//! `B_S[m ⊕ y]` fails for every `y ∉ S`: no one-step enlargement is an
//! implicant. Each `S` is derived from its parent `S ∖ x` in a
//! depth-first walk that skips the subtree under an empty `B_S`. The
//! walk holds one table per depth, `(n + 1) · 2^n` bits, and builds each
//! nonempty `B_S` once: at most `2^n · 2^n` table bits in all (0.26 M
//! words at 12 inputs), plus one swap per bound variable and word for the
//! prime test.
//!
//! Tables wider than 12 inputs are first split on their top variable `x`:
//! `P(f) = P(f₀ ∧ f₁) ∪ {x′p : p ∈ P(f₀), p ⊄ f₁} ∪ {x·p : p ∈ P(f₁), p ⊄ f₀}`.
//! Each level of the split holds three half-width tables, so memory stays
//! within a few times the input table, and a table of `n > 12` inputs
//! makes at most `3^(n − 12)` walks of 12 inputs.
//!
//! # Cover selection
//!
//! [`select_cover`] keeps, for each prime, the on-set minterms it covers
//! as a bitset row: the nonzero words of `prime ∩ on`, built from the
//! cube's in-word pattern and matching word indices. Every step is then
//! a pass over words:
//! - **Essential primes.** One pass over all rows accumulates `once`
//!   (covered at least once) and `twice` (at least twice); a prime is
//!   essential iff its row meets `once ∧ ¬twice`.
//! - **Greedy steps.** A max-heap holds each unselected prime under the
//!   key `(gain, Reverse((literal_count, index)))`, where the gain is the
//!   number of uncovered minterms its row covers. Gains only shrink as
//!   minterms get covered, so every stored gain bounds the current one
//!   from above. The popped prime's gain is recounted: if it is
//!   unchanged, no other prime can beat it or tie it with a smaller
//!   `(literal_count, index)`, since such a prime would be stored at
//!   least as high and popped first. It is therefore exactly the eager
//!   argmax, with the same tie-break; otherwise it goes back with the
//!   fresh gain.
//! - **Irredundancy.** In ascending index order, a chosen prime is
//!   dropped when its row lies inside the `twice` set of the chosen
//!   rows, that is inside the OR of the others.

use crate::cube::Cube;
use crate::sop::Sop;
use crate::tt::{cube_words, TruthTable, LOW};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Widest table the free-set walk takes directly; wider ones are split
/// first. Extraction's default node support is 12 inputs.
const LEAF_VARS: usize = 12;

/// Computes all prime implicants of the incompletely specified function
/// with the given on-set and don't-care set.
///
/// A prime implicant is a cube contained in `on ∪ dc` that is not
/// contained in any larger such cube. A function has exactly one prime
/// set; the result lists it sorted by ascending literal count, then
/// mask, then value (the order the essential-weight selection expects).
///
/// # Panics
///
/// Panics if the two tables have different arities.
///
/// # Examples
///
/// ```
/// use tm_logic::{qm::prime_implicants, tt::TruthTable};
///
/// // f = majority of 3 inputs: primes are the three 2-literal cubes.
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
/// let primes = prime_implicants(&f, &TruthTable::zero(3));
/// assert_eq!(primes.len(), 3);
/// assert!(primes.iter().all(|p| p.literal_count() == 2));
/// ```
pub fn prime_implicants(on: &TruthTable, dc: &TruthTable) -> Vec<Cube> {
    assert_eq!(on.num_vars(), dc.num_vars(), "on/dc arity mismatch");
    let care_or_dc = on | dc;
    let mut primes = shannon_primes(&care_or_dc);
    primes.sort_unstable_by_key(|c| (c.literal_count(), c.mask(), c.value()));
    primes
}

/// Primes of `f` by the free-set walk (unsorted).
fn free_set_primes(f: &TruthTable) -> Vec<Cube> {
    let n = f.num_vars();
    // levels[d] holds B_S for the free set S of size d on the walk.
    let mut levels = vec![f.words().to_vec(); n + 1];
    let mut primes = Vec::new();
    walk(&mut levels, 0, 0, n, &mut primes);
    primes
}

/// Emits the primes of free set `s`, whose table is `levels[depth]`,
/// then visits `s ∪ {y}` for every `y` below `limit`, the lowest
/// variable of `s`. Every free set is thus visited once, from the set
/// without its lowest variable, and only when its table is nonempty.
fn walk(levels: &mut [Vec<u64>], depth: usize, s: u64, limit: usize, out: &mut Vec<Cube>) {
    let n = levels.len() - 1;
    emit_primes(&levels[depth], s, n, out);
    for y in 0..limit {
        let (done, rest) = levels.split_at_mut(depth + 1);
        let (b, child) = (&done[depth], &mut rest[0]);
        let mut any = 0;
        if y < 6 {
            for (c, &w) in child.iter_mut().zip(b) {
                *c = w & swap_in_word(w, y);
                any |= *c;
            }
        } else {
            let stride = 1 << (y - 6);
            for (i, c) in child.iter_mut().enumerate() {
                *c = b[i] & b[i ^ stride];
                any |= *c;
            }
        }
        if any != 0 {
            walk(levels, depth + 1, s | 1 << y, y, out);
        }
    }
}

/// Exchanges the bit positions of a word that differ in bit `y < 6`.
fn swap_in_word(w: u64, y: usize) -> u64 {
    let k = 1 << y;
    ((w >> k) & LOW[y]) | ((w & LOW[y]) << k)
}

/// Pushes every prime `(s, m)` of the table `b = B_s` of free set `s`:
/// `m` has no bit of `s` set, `b[m]` holds and `b[m ⊕ y]` fails for
/// every variable `y ∉ s`.
fn emit_primes(b: &[u64], s: u64, n: usize, out: &mut Vec<Cube>) {
    let bound = ((1u64 << n) - 1) & !s;
    let rep_low = (0..6).filter(|&x| s >> x & 1 == 1).fold(u64::MAX, |m, x| m & LOW[x]);
    let s_high = (s >> 6) as usize;
    for (i, &word) in b.iter().enumerate() {
        if i & s_high != 0 {
            continue;
        }
        let mut w = word & rep_low;
        let mut y = 0;
        while w != 0 && y < n {
            if s >> y & 1 == 0 {
                let partner = if y < 6 { swap_in_word(word, y) } else { b[i ^ 1 << (y - 6)] };
                w &= !partner;
            }
            y += 1;
        }
        while w != 0 {
            let bit = u64::from(w.trailing_zeros());
            w &= w - 1;
            out.push(Cube::from_masks(bound, (i as u64) << 6 | bit));
        }
    }
}

/// Primes of `f` by Shannon splits on the top variable down to
/// [`LEAF_VARS`] inputs (unsorted).
fn shannon_primes(f: &TruthTable) -> Vec<Cube> {
    let n = f.num_vars();
    if n <= LEAF_VARS {
        return free_set_primes(f);
    }
    let (lo, hi) = f.words().split_at(f.words().len() / 2);
    let f0 = TruthTable::from_words(n - 1, lo.to_vec());
    let f1 = TruthTable::from_words(n - 1, hi.to_vec());
    let x = 1u64 << (n - 1);
    let mut primes = shannon_primes(&(&f0 & &f1));
    for p in shannon_primes(&f0) {
        if !f1.covers_cube(&p) {
            primes.push(Cube::from_masks(p.mask() | x, p.value()));
        }
    }
    for p in shannon_primes(&f1) {
        if !f0.covers_cube(&p) {
            primes.push(Cube::from_masks(p.mask() | x, p.value() | x));
        }
    }
    primes
}

/// Prime implicants of both the on-set and off-set of a completely
/// specified function.
///
/// This is the set `P` of Eqn. 1: "the set of all prime implicants in the
/// on-set and off-set of f". Returned as `(on_primes, off_primes)`.
pub fn on_off_primes(f: &TruthTable) -> (Vec<Cube>, Vec<Cube>) {
    let dc = TruthTable::zero(f.num_vars());
    (prime_implicants(f, &dc), prime_implicants(&!f, &dc))
}

/// Selects an irredundant cover of the on-set from a set of prime
/// implicants using essential primes plus greedy set covering.
///
/// Every on-set minterm ends up covered; don't-care minterms may or may
/// not be. The selection is heuristic (greedy), as in classical two-level
/// minimizers; the result is irredundant with respect to single-cube
/// removal. See the module docs for how it runs on bitsets.
///
/// # Panics
///
/// Panics if the primes do not jointly cover the on-set (they always do
/// when produced by [`prime_implicants`] of the same function).
pub fn select_cover(on: &TruthTable, primes: &[Cube]) -> Sop {
    let n = on.num_vars();
    if on.is_zero() {
        return Sop::zero(n);
    }
    let rows = Rows::new(on, primes);

    // Essential primes first: those covering a minterm no other prime
    // covers.
    let (once, twice) = rows.coverage(0..primes.len());
    let missed = on.words().iter().zip(&once).enumerate().find_map(|(i, (&w, &o))| {
        let miss = w & !o;
        (miss != 0).then(|| (i as u64) << 6 | u64::from(miss.trailing_zeros()))
    });
    assert!(missed.is_none(), "prime set does not cover on-set minterm {missed:?}");
    let mut selected: Vec<bool> = (0..primes.len())
        .map(|p| rows.row(p).iter().any(|&(i, w)| w & once[i] & !twice[i] != 0))
        .collect();
    let mut uncovered = on.words().to_vec();
    for p in (0..primes.len()).filter(|&p| selected[p]) {
        rows.clear(p, &mut uncovered);
    }

    // Greedy set cover for the rest: the prime covering the most
    // uncovered minterms, ties to fewer literals, then to the lower
    // index. Stored gains only overestimate, so a popped prime whose gain
    // is still current is that argmax.
    let mut remaining: u64 = uncovered.iter().map(|w| u64::from(w.count_ones())).sum();
    let mut heap: BinaryHeap<(u64, Reverse<(u32, usize)>)> = (0..primes.len())
        .filter(|&p| !selected[p])
        .map(|p| (rows.gain(p, &uncovered), Reverse((primes[p].literal_count(), p))))
        .filter(|&(gain, _)| gain > 0)
        .collect();
    while remaining > 0 {
        let Some((gain, Reverse((literals, p)))) = heap.pop() else { break };
        let fresh = rows.gain(p, &uncovered);
        if fresh == gain {
            selected[p] = true;
            rows.clear(p, &mut uncovered);
            remaining -= gain;
        } else if fresh > 0 {
            heap.push((fresh, Reverse((literals, p))));
        }
    }

    // Irredundancy pass, in ascending index order: drop any selected
    // prime whose on-set minterms are all covered by the others, i.e.
    // covered at least twice.
    let mut chosen: Vec<usize> = (0..primes.len()).filter(|&p| selected[p]).collect();
    let mut twice = rows.coverage(chosen.iter().copied()).1;
    let mut i = 0;
    while i < chosen.len() {
        if rows.row(chosen[i]).iter().all(|&(j, w)| w & !twice[j] == 0) {
            chosen.remove(i);
            twice = rows.coverage(chosen.iter().copied()).1;
        } else {
            i += 1;
        }
    }

    let mut sop = Sop::from_cubes(n, chosen.into_iter().map(|p| primes[p]).collect());
    sop.sort_by_literal_count();
    sop
}

/// The on-set minterms each prime covers, as sparse bitset rows over the
/// on-set's words: row `p` lists `(word index, bits)` for the nonzero
/// words of `p ∩ on`, in ascending word order.
struct Rows {
    entries: Vec<(usize, u64)>,
    start: Vec<usize>,
    words: usize,
}

impl Rows {
    fn new(on: &TruthTable, primes: &[Cube]) -> Self {
        let n = on.num_vars();
        let mut entries = Vec::new();
        let mut start = Vec::with_capacity(primes.len() + 1);
        start.push(0);
        for p in primes {
            // As in `Cube::eval`, a positive literal on a variable past
            // the table holds on no minterm; a negative one always holds.
            if p.value() >> n == 0 {
                entries.extend(cube_words(n, p).filter_map(|(i, pattern)| {
                    let w = pattern & on.words()[i];
                    (w != 0).then_some((i, w))
                }));
            }
            start.push(entries.len());
        }
        Rows { entries, start, words: on.words().len() }
    }

    fn row(&self, p: usize) -> &[(usize, u64)] {
        &self.entries[self.start[p]..self.start[p + 1]]
    }

    /// Number of `uncovered` minterms row `p` covers.
    fn gain(&self, p: usize, uncovered: &[u64]) -> u64 {
        self.row(p).iter().map(|&(i, w)| u64::from((w & uncovered[i]).count_ones())).sum()
    }

    /// Removes row `p`'s minterms from `uncovered`.
    fn clear(&self, p: usize, uncovered: &mut [u64]) {
        for &(i, w) in self.row(p) {
            uncovered[i] &= !w;
        }
    }

    /// The minterms the given rows cover at least once and at least
    /// twice.
    fn coverage(&self, rows: impl Iterator<Item = usize>) -> (Vec<u64>, Vec<u64>) {
        let (mut once, mut twice) = (vec![0; self.words], vec![0; self.words]);
        for p in rows {
            for &(i, w) in self.row(p) {
                twice[i] |= once[i] & w;
                once[i] |= w;
            }
        }
        (once, twice)
    }
}

/// Exact-prime, greedy-cover two-level minimization of an incompletely
/// specified function.
///
/// Returns a sum-of-products whose on-set contains `on` and is contained
/// in `on ∪ dc`.
///
/// # Examples
///
/// ```
/// use tm_logic::{qm::minimize, tt::TruthTable};
///
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
/// let sop = minimize(&f, &TruthTable::zero(3));
/// assert_eq!(sop.len(), 3); // the three majority cubes
/// ```
pub fn minimize(on: &TruthTable, dc: &TruthTable) -> Sop {
    let primes = prime_implicants(on, dc);
    select_cover(on, &primes)
}

/// Minimized covers of the on-set and off-set of a completely specified
/// function: `(on_cover, off_cover)`.
pub fn minimize_both_phases(f: &TruthTable) -> (Sop, Sop) {
    let dc = TruthTable::zero(f.num_vars());
    (minimize(f, &dc), minimize(&!f, &dc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover_correct(on: &TruthTable, dc: &TruthTable, sop: &Sop) {
        for m in 0..on.num_minterms() {
            let v = sop.eval(m);
            if on.eval(m) {
                assert!(v, "on-set minterm {m} not covered");
            } else if !dc.eval(m) {
                assert!(!v, "off-set minterm {m} wrongly covered");
            }
        }
    }

    #[test]
    fn primes_of_constants() {
        assert!(prime_implicants(&TruthTable::zero(3), &TruthTable::zero(3)).is_empty());
        let p = prime_implicants(&TruthTable::one(3), &TruthTable::zero(3));
        assert_eq!(p, vec![Cube::universe()]);
    }

    #[test]
    fn primes_of_single_variable() {
        let f = TruthTable::var(3, 1);
        let p = prime_implicants(&f, &TruthTable::zero(3));
        assert_eq!(p, vec![Cube::from_literals(3, &[(1, true)])]);
    }

    #[test]
    fn xor_has_only_minterm_primes() {
        let f = &TruthTable::var(2, 0) ^ &TruthTable::var(2, 1);
        let p = prime_implicants(&f, &TruthTable::zero(2));
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|c| c.literal_count() == 2));
    }

    #[test]
    fn dont_cares_enlarge_primes() {
        // on = {3}, dc = {1, 2}: the single prime would be x0&x1 without
        // dc, but with dc the function can expand.
        let mut on = TruthTable::zero(2);
        on.set(0b11, true);
        let mut dc = TruthTable::zero(2);
        dc.set(0b01, true);
        dc.set(0b10, true);
        let p = prime_implicants(&on, &dc);
        // Primes: x0 (covers {1,3}) and x1 (covers {2,3}).
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|c| c.literal_count() == 1));
    }

    #[test]
    fn minimize_majority() {
        let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sop = minimize(&f, &TruthTable::zero(3));
        check_cover_correct(&f, &TruthTable::zero(3), &sop);
        assert_eq!(sop.len(), 3);
    }

    #[test]
    fn minimize_with_dc_uses_dc() {
        let mut on = TruthTable::zero(3);
        on.set(0b111, true);
        let dc = TruthTable::from_fn(3, |m| m != 0b111 && m != 0b000);
        let sop = minimize(&on, &dc);
        check_cover_correct(&on, &dc, &sop);
        // With everything but 000 allowed, a single 1-literal cube suffices.
        assert_eq!(sop.len(), 1);
        assert_eq!(sop.cubes()[0].literal_count(), 1);
    }

    #[test]
    fn both_phases_partition() {
        let f = TruthTable::from_fn(4, |m| (m * 7 + 3) % 5 < 2);
        let (on, off) = minimize_both_phases(&f);
        for m in 0..16u64 {
            assert_eq!(on.eval(m), f.eval(m));
            assert_eq!(off.eval(m), !f.eval(m));
        }
    }

    #[test]
    fn random_functions_minimize_correctly() {
        // Deterministic pseudo-random functions over 5 vars.
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..25 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = seed;
            let f = TruthTable::from_fn(5, |m| (s >> (m % 64)) & 1 == 1);
            let sop = minimize(&f, &TruthTable::zero(5));
            check_cover_correct(&f, &TruthTable::zero(5), &sop);
        }
    }

    #[test]
    fn primes_are_maximal() {
        let f = TruthTable::from_fn(4, |m| m % 3 == 0);
        let primes = prime_implicants(&f, &TruthTable::zero(4));
        for p in &primes {
            assert!(f.covers_cube(p), "prime not an implicant");
            // Freeing any bound variable must leave the on-set.
            for (var, _) in p.literals() {
                let bigger = Cube::from_masks(p.mask() & !(1 << var), p.value() & !(1 << var));
                assert!(!f.covers_cube(&bigger), "prime {p:?} not maximal at var {var}");
            }
        }
    }
}
