//! Dense truth tables for Boolean functions of a small number of inputs.
//!
//! Technology-independent nodes in the paper have 10–15 inputs (§4.1) and
//! mapped library cells have at most a handful, so an explicit truth table
//! (one bit per minterm, packed into `u64` words) is an exact and fast
//! function representation for everything that happens *locally* at a
//! node. Global functions over all primary inputs use BDDs instead
//! ([`crate::bdd`]).
//!
//! # Word-parallel operations
//!
//! Every operation works on whole `u64` words. Variables `0..6` index
//! the bits inside a word, so their operations are shifts under the
//! fixed masks `LOW[x]` (positions whose bit `x` is 0); variables from 6
//! up index words, so theirs move or compare whole words at a stride of
//! `2^(x − 6)`. A cube is an in-word literal pattern plus the word
//! indices that match its high literals ([`TruthTable::or_cube`],
//! [`TruthTable::covers_cube`]); [`TruthTable::minterms`] walks the set
//! bits of each word.
//!
//! Three operations move a table between variable spaces:
//! - [`TruthTable::swap_vars`] exchanges two variables: a delta swap
//!   inside each word when both are below 6, a trade between word pairs
//!   when one is, and a swap of whole words when neither is.
//! - [`TruthTable::embed`] places a table into a wider space: it repeats
//!   the table across the new variables, then moves each variable into
//!   place with at most one swap.
//! - [`TruthTable::project`] is the inverse for a table whose support
//!   lies inside the kept variables: each dropped variable is packed out
//!   in one pass that halves the table, then the kept ones are put in
//!   order with at most one swap each.

use crate::cube::Cube;
use crate::sop::Sop;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum supported input count for a dense truth table.
///
/// 2^20 bits = 128 KiB per table; enough for the 10–15-input nodes the
/// synthesis flow manipulates, with headroom.
pub const MAX_TT_VARS: usize = 20;

/// A dense truth table over `num_vars` inputs.
///
/// Bit `m` of the table is the function value on the minterm whose
/// assignment bits are `m` (variable `i` = bit `i` of `m`).
///
/// # Examples
///
/// ```
/// use tm_logic::tt::TruthTable;
///
/// let a = TruthTable::var(2, 0);
/// let b = TruthTable::var(2, 1);
/// let and = &a & &b;
/// assert!(and.eval(0b11));
/// assert!(!and.eval(0b01));
/// assert_eq!(and.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

fn word_count(num_vars: usize) -> usize {
    if num_vars >= 6 {
        1 << (num_vars - 6)
    } else {
        1
    }
}

/// `LOW[x]` marks the bit positions `b` of a word whose bit `x` is 0.
pub(crate) const LOW: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// The minterms of `cube` in a table of `num_vars ≤ MAX_TT_VARS` inputs,
/// a word at a time: `(word index, in-word pattern)` pairs in ascending
/// word order. The pattern is the AND of the cube's literals on the low
/// six variables; the words are those whose index matches the literals
/// on the others. Literals on variables at or past `num_vars` are
/// ignored.
pub(crate) fn cube_words(num_vars: usize, cube: &Cube) -> impl Iterator<Item = (usize, u64)> {
    let mask = cube.mask() & ((1u64 << num_vars) - 1);
    let value = cube.value() & mask;
    let pattern = (0..num_vars.min(6))
        .filter(|&x| mask >> x & 1 == 1)
        .fold(tail_mask(num_vars), |p, x| p & if value >> x & 1 == 1 { !LOW[x] } else { LOW[x] });
    let (high_value, free) = ((value >> 6) as usize, !(mask >> 6) as usize & (word_count(num_vars) - 1));
    // Walk the subsets of the free word-index bits in ascending order.
    let mut next = Some(0usize);
    std::iter::from_fn(move || {
        let sub = next?;
        next = (sub != free).then(|| sub.wrapping_sub(free) & free);
        Some((high_value | sub, pattern))
    })
}

/// Mask of valid bits in the (single) word of a table with fewer than six
/// variables.
fn tail_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

impl TruthTable {
    /// The constant-false function of `num_vars` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_TT_VARS`.
    pub fn zero(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_TT_VARS, "truth table limited to {MAX_TT_VARS} vars");
        TruthTable { num_vars, words: vec![0; word_count(num_vars)] }
    }

    /// The constant-true function of `num_vars` inputs.
    pub fn one(num_vars: usize) -> Self {
        let mut t = Self::zero(num_vars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.canonicalize();
        t
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable {var} out of range {num_vars}");
        let mut t = Self::zero(num_vars);
        if var < 6 {
            // Pattern within each word.
            let stride = 1u32 << var;
            let mut pattern = 0u64;
            let mut bit = 0u32;
            while bit < 64 {
                if (bit / stride) & 1 == 1 {
                    pattern |= 1u64 << bit;
                }
                bit += 1;
            }
            for w in &mut t.words {
                *w = pattern;
            }
        } else {
            // Whole words alternate.
            let stride = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / stride) & 1 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t.canonicalize();
        t
    }

    /// Builds a table from a predicate over minterm assignments.
    pub fn from_fn(num_vars: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut t = Self::zero(num_vars);
        for m in 0..(1u64 << num_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table as the union of an SOP's cubes.
    ///
    /// # Panics
    ///
    /// Panics if the SOP's variable count differs from `num_vars`.
    pub fn from_sop(num_vars: usize, sop: &Sop) -> Self {
        assert_eq!(sop.num_vars(), num_vars, "SOP arity mismatch");
        let mut t = Self::zero(num_vars);
        for cube in sop.cubes() {
            t.or_cube(cube);
        }
        t
    }

    /// Builds a table from its packed words (bit `m & 63` of word
    /// `m >> 6` is minterm `m`).
    pub(crate) fn from_words(num_vars: usize, words: Vec<u64>) -> Self {
        assert!(num_vars <= MAX_TT_VARS, "truth table limited to {MAX_TT_VARS} vars");
        assert_eq!(words.len(), word_count(num_vars), "word count mismatch");
        let mut t = TruthTable { num_vars, words };
        t.canonicalize();
        t
    }

    /// The packed words: bit `m & 63` of word `m >> 6` is minterm `m`.
    /// Bits past `2^num_vars` in a single-word table are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms (2^num_vars).
    pub fn num_minterms(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// Evaluates the function on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        let word = (minterm >> 6) as usize;
        let bit = minterm & 63;
        (self.words.get(word).copied().unwrap_or(0) >> bit) & 1 == 1
    }

    /// Sets the function value on one minterm.
    ///
    /// # Panics
    ///
    /// Panics if the minterm is out of range.
    pub fn set(&mut self, minterm: u64, value: bool) {
        assert!(minterm < self.num_minterms(), "minterm out of range");
        let word = (minterm >> 6) as usize;
        let bit = minterm & 63;
        if value {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// ORs all minterms of a cube into the table. Literals on variables
    /// at or past `num_vars` are ignored.
    pub fn or_cube(&mut self, cube: &Cube) {
        for (i, pattern) in cube_words(self.num_vars, cube) {
            self.words[i] |= pattern;
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant true.
    pub fn is_one(&self) -> bool {
        self.count_ones() == self.num_minterms()
    }

    /// Whether the cube lies entirely inside the on-set. Literals on
    /// variables at or past `num_vars` are ignored.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        cube_words(self.num_vars, cube).all(|(i, pattern)| self.words[i] & pattern == pattern)
    }

    /// Iterates the on-set minterms in ascending order.
    pub fn minterms(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let base = (i as u64) << 6;
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = u64::from(w.trailing_zeros());
                w &= w - 1;
                Some(base | bit)
            })
        })
    }

    /// The cofactor with `var` fixed to `value`: a function of the same
    /// arity that no longer depends on `var`. A variable at or past
    /// `num_vars` is not an input, so its cofactors are the table itself.
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        let mut out = self.clone();
        if var >= self.num_vars {
            return out;
        }
        if var < 6 {
            let k = 1 << var;
            for w in &mut out.words {
                *w = if value {
                    let hi = *w & !LOW[var];
                    hi | hi >> k
                } else {
                    let lo = *w & LOW[var];
                    lo | lo << k
                };
            }
        } else {
            let stride = 1 << (var - 6);
            for block in out.words.chunks_exact_mut(2 * stride) {
                let (lo, hi) = block.split_at_mut(stride);
                if value {
                    lo.copy_from_slice(hi);
                } else {
                    hi.copy_from_slice(lo);
                }
            }
        }
        out
    }

    /// Whether the function actually depends on `var` (false for a
    /// variable at or past `num_vars`).
    pub fn depends_on(&self, var: usize) -> bool {
        if var >= self.num_vars {
            false
        } else if var < 6 {
            let k = 1 << var;
            self.words.iter().any(|&w| (w ^ w >> k) & LOW[var] != 0)
        } else {
            let stride = 1 << (var - 6);
            self.words.chunks_exact(2 * stride).any(|block| block[..stride] != block[stride..])
        }
    }

    /// The support: variables the function depends on, ascending.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Exchanges variables `i` and `j`: the result `g` satisfies
    /// `g(x) = f(x')`, where `x'` is `x` with bits `i` and `j` swapped.
    ///
    /// # Panics
    ///
    /// Panics if either variable is out of range.
    pub fn swap_vars(&mut self, i: usize, j: usize) {
        assert!(i < self.num_vars && j < self.num_vars, "swap of ({i}, {j}) out of range");
        let (i, j) = (i.min(j), i.max(j));
        if i == j {
            return;
        }
        if j < 6 {
            // Delta swap inside each word: a position with bit i set and
            // bit j clear trades places with the one `shift` above it.
            let shift = (1 << j) - (1 << i);
            let m = !LOW[i] & LOW[j];
            for w in &mut self.words {
                let t = (*w ^ *w >> shift) & m;
                *w ^= t | t << shift;
            }
        } else if i < 6 {
            // Word pairs (a, b) that differ in bit j: the positions of `a`
            // with bit i set trade with the positions of `b` with it clear.
            let k = 1 << i;
            let stride = 1 << (j - 6);
            for block in self.words.chunks_exact_mut(2 * stride) {
                let (lo, hi) = block.split_at_mut(stride);
                for (a, b) in lo.iter_mut().zip(hi) {
                    let (wa, wb) = (*a, *b);
                    *a = (wa & LOW[i]) | (wb & LOW[i]) << k;
                    *b = (wa & !LOW[i]) >> k | (wb & !LOW[i]);
                }
            }
        } else {
            // Whole runs of words trade places: inside each block, the
            // run with bit i set and bit j clear goes to the run with
            // bit i clear and bit j set.
            let (si, sj) = (1 << (i - 6), 1 << (j - 6));
            for block in self.words.chunks_exact_mut(2 * sj) {
                let (lo, hi) = block.split_at_mut(sj);
                for (l, h) in lo.chunks_exact_mut(2 * si).zip(hi.chunks_exact_mut(2 * si)) {
                    l[si..].swap_with_slice(&mut h[..si]);
                }
            }
        }
    }

    /// Places this table into a space of `num_vars` variables: variable
    /// `v` becomes variable `map[v]`, and the result does not depend on
    /// the variables no `v` maps to. The table is extended to the wider
    /// space, then each variable is moved by at most one
    /// [`swap_vars`](Self::swap_vars).
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have one entry per variable, if an entry
    /// is out of range, or if two variables map to the same place.
    pub fn embed(&self, num_vars: usize, map: &[usize]) -> Self {
        let r = self.num_vars;
        assert_eq!(map.len(), r, "embedding map arity mismatch");
        assert!(r <= num_vars && num_vars <= MAX_TT_VARS, "cannot embed {r} vars into {num_vars}");
        let mut out = self.extend(num_vars);
        // at[p]: the variable of `self` now at position p (`r` for none);
        // pos[v]: the position of variable v.
        let (mut at, mut pos) = ([r; MAX_TT_VARS], [0; MAX_TT_VARS]);
        for v in 0..r {
            (at[v], pos[v]) = (v, v);
        }
        for (v, &target) in map.iter().enumerate() {
            assert!(target < num_vars && at[target] >= v, "embedding map not injective");
            if pos[v] != target {
                out.swap_vars(pos[v], target);
                let displaced = at[target];
                at[pos[v]] = displaced;
                if displaced < r {
                    pos[displaced] = pos[v];
                }
                at[target] = v;
                pos[v] = target;
            }
        }
        out
    }

    /// The table over the variables `keep`: variable `k` of the result is
    /// variable `keep[k]` of this table. Meant for tables whose support
    /// lies inside `keep`; a variable outside `keep` is fixed to 0. Each
    /// dropped variable costs one pass that halves the table; the kept
    /// ones are then put in `keep`'s order with at most one swap each.
    ///
    /// # Panics
    ///
    /// Panics if an entry of `keep` is out of range or repeated.
    pub fn project(&self, keep: &[usize]) -> Self {
        let n = self.num_vars;
        let mut kept = 0u32;
        for &v in keep {
            assert!(v < n && kept >> v & 1 == 0, "projection keeps variable {v} twice or out of range");
            kept |= 1 << v;
        }
        let mut out = self.clone();
        for x in (0..n).rev().filter(|&x| kept >> x & 1 == 0) {
            out.drop_var(x);
        }
        // at[p]: the variable of `self` now at position p (ascending).
        let mut at = [0; MAX_TT_VARS];
        for (p, x) in (0..n).filter(|&x| kept >> x & 1 == 1).enumerate() {
            at[p] = x;
        }
        for (k, &v) in keep.iter().enumerate() {
            if let Some(p) = at[k..keep.len()].iter().position(|&u| u == v).filter(|&p| p > 0) {
                out.swap_vars(k, k + p);
                at.swap(k, k + p);
            }
        }
        out
    }

    /// Removes variable `x < num_vars`, keeping the minterms where it is
    /// 0; the variables above `x` move down by one.
    fn drop_var(&mut self, x: usize) {
        if x >= 6 {
            // Keep the first run of `stride` words of each block.
            let stride = 1 << (x - 6);
            for (k, block) in (0..self.words.len()).step_by(2 * stride).enumerate() {
                self.words.copy_within(block..block + stride, k * stride);
            }
            self.words.truncate(self.words.len() / 2);
        } else {
            // Pack the 2^x-bit runs where bit x is 0 into the low half.
            let compress = |w: u64| (x..5).fold(w & LOW[x], |t, y| (t | t >> (1 << y)) & LOW[y + 1]);
            if self.num_vars > 6 {
                for j in 0..self.words.len() / 2 {
                    self.words[j] = compress(self.words[2 * j]) | compress(self.words[2 * j + 1]) << 32;
                }
                self.words.truncate(self.words.len() / 2);
            } else {
                self.words[0] = compress(self.words[0]);
            }
        }
        self.num_vars -= 1;
        self.canonicalize();
    }

    /// The same function over `num_vars ≥ self.num_vars` variables (the
    /// new variables are irrelevant).
    fn extend(&self, num_vars: usize) -> Self {
        let mut words = Vec::with_capacity(word_count(num_vars));
        if self.num_vars < 6 {
            // Repeat the 2^r-bit block across the word, then the word.
            let mut w = self.words[0];
            for x in self.num_vars..num_vars.min(6) {
                w |= w << (1 << x);
            }
            words.resize(word_count(num_vars), w);
        } else {
            for _ in 0..word_count(num_vars) / self.words.len() {
                words.extend_from_slice(&self.words);
            }
        }
        let mut out = TruthTable { num_vars, words };
        out.canonicalize();
        out
    }

    fn canonicalize(&mut self) {
        let m = tail_mask(self.num_vars);
        if let Some(last) = self.words.last_mut() {
            if self.num_vars < 6 {
                *last &= m;
            }
        }
    }
}

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let mut out = TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.canonicalize();
        out
    }
}

impl BitAnd for &TruthTable {
    type Output = TruthTable;
    fn bitand(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a & b).collect(),
        }
    }
}

impl BitOr for &TruthTable {
    type Output = TruthTable;
    fn bitor(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a | b).collect(),
        }
    }
}

impl BitXor for &TruthTable {
    type Output = TruthTable;
    fn bitxor(self, rhs: &TruthTable) -> TruthTable {
        assert_eq!(self.num_vars, rhs.num_vars, "truth table arity mismatch");
        TruthTable {
            num_vars: self.num_vars,
            words: self.words.iter().zip(&rhs.words).map(|(a, b)| a ^ b).collect(),
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {} ones)", self.num_vars, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::zero(3);
        let o = TruthTable::one(3);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 8);
        assert_eq!((!&o).count_ones(), 0);
    }

    #[test]
    fn variable_projection_small_and_large() {
        for n in [1usize, 3, 6, 7, 9] {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for m in 0..(1u64 << n) {
                    assert_eq!(t.eval(m), (m >> v) & 1 == 1, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn boolean_ops_match_bitwise_semantics() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 3);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        for m in 0..16u64 {
            let av = m & 1 == 1;
            let bv = (m >> 3) & 1 == 1;
            assert_eq!(and.eval(m), av && bv);
            assert_eq!(or.eval(m), av || bv);
            assert_eq!(xor.eval(m), av ^ bv);
        }
    }

    #[test]
    fn cube_union() {
        let mut t = TruthTable::zero(3);
        t.or_cube(&Cube::from_literals(3, &[(0, true)]));
        assert_eq!(t.count_ones(), 4);
        t.or_cube(&Cube::from_literals(3, &[(2, false)]));
        // x0 | !x2 has 4 + 4 - 2 = 6 minterms
        assert_eq!(t.count_ones(), 6);
        assert!(t.covers_cube(&Cube::from_literals(3, &[(0, true), (2, true)])));
        assert!(!t.covers_cube(&Cube::universe()));
    }

    #[test]
    fn cofactor_and_support() {
        // f = x0 & x2 over 3 vars
        let f = &TruthTable::var(3, 0) & &TruthTable::var(3, 2);
        assert_eq!(f.support(), vec![0, 2]);
        let f_x2 = f.cofactor(2, true);
        // cofactor is x0 (independent of x2)
        for m in 0..8u64 {
            assert_eq!(f_x2.eval(m), m & 1 == 1);
        }
        assert!(f.cofactor(2, false).is_zero());
        assert!(!f.depends_on(1));
    }

    #[test]
    fn from_fn_roundtrip() {
        let maj = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert_eq!(maj.count_ones(), 4);
        assert!(maj.eval(0b110));
        assert!(!maj.eval(0b100));
        assert_eq!(maj.minterms().collect::<Vec<_>>(), vec![0b011, 0b101, 0b110, 0b111]);
    }
}
