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

use crate::cube::Cube;
use crate::sop::Sop;
use crate::tt::TruthTable;
use std::collections::{HashMap, HashSet};

/// Widest table the free-set walk takes directly; wider ones are split
/// first. Extraction's default node support is 12 inputs.
const LEAF_VARS: usize = 12;

/// `LOW[x]` marks the bit positions `b` of a word whose bit `x` is 0.
const LOW: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

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
/// removal.
///
/// # Panics
///
/// Panics if the primes do not jointly cover the on-set (they always do
/// when produced by [`prime_implicants`] of the same function).
pub fn select_cover(on: &TruthTable, primes: &[Cube]) -> Sop {
    let n = on.num_vars();
    let minterms: Vec<u64> = on.minterms().collect();
    if minterms.is_empty() {
        return Sop::zero(n);
    }

    // Coverage matrix: for each on-set minterm, which primes cover it.
    let mut covering: Vec<Vec<usize>> = vec![Vec::new(); minterms.len()];
    for (pi, p) in primes.iter().enumerate() {
        for (mi, &m) in minterms.iter().enumerate() {
            if p.eval(m) {
                covering[mi].push(pi);
            }
        }
    }
    for (mi, cov) in covering.iter().enumerate() {
        assert!(
            !cov.is_empty(),
            "prime set does not cover on-set minterm {}",
            minterms[mi]
        );
    }

    let mut selected: HashSet<usize> = HashSet::new();
    let mut uncovered: HashSet<usize> = (0..minterms.len()).collect();

    // Essential primes first: minterms covered by exactly one prime.
    for cov in &covering {
        if cov.len() == 1 {
            selected.insert(cov[0]);
        }
    }
    uncovered.retain(|&mi| !covering[mi].iter().any(|pi| selected.contains(pi)));

    // Greedy set cover for the rest.
    while !uncovered.is_empty() {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut gains: HashMap<usize, usize> = HashMap::new();
        for &mi in &uncovered {
            for &pi in &covering[mi] {
                *gains.entry(pi).or_insert(0) += 1;
            }
        }
        for (&pi, &gain) in &gains {
            // Tie-break toward fewer literals, then stable by index.
            if gain > best_gain
                || (gain == best_gain
                    && best != usize::MAX
                    && (primes[pi].literal_count(), pi)
                        < (primes[best].literal_count(), best))
            {
                best = pi;
                best_gain = gain;
            }
        }
        selected.insert(best);
        uncovered.retain(|&mi| !covering[mi].contains(&best));
    }

    // Irredundancy pass: drop any selected prime whose on-set minterms are
    // all covered by the others.
    let mut chosen: Vec<usize> = selected.into_iter().collect();
    chosen.sort_unstable();
    let mut i = 0;
    while i < chosen.len() {
        let pi = chosen[i];
        let redundant = minterms.iter().enumerate().all(|(mi, _)| {
            !covering[mi].contains(&pi)
                || covering[mi].iter().any(|&qj| qj != pi && chosen.contains(&qj))
        });
        if redundant {
            chosen.remove(i);
        } else {
            i += 1;
        }
    }

    let mut sop = Sop::from_cubes(n, chosen.into_iter().map(|pi| primes[pi]).collect());
    sop.sort_by_literal_count();
    sop
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
