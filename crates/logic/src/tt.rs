//! Dense truth tables for Boolean functions of a small number of inputs.
//!
//! Technology-independent nodes in the paper have 10–15 inputs (§4.1) and
//! mapped library cells have at most a handful, so an explicit truth table
//! (one bit per minterm, packed into `u64` words) is an exact and fast
//! function representation for everything that happens *locally* at a
//! node. Global functions over all primary inputs use BDDs instead
//! ([`crate::bdd`]).

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

    /// ORs all minterms of a cube into the table.
    pub fn or_cube(&mut self, cube: &Cube) {
        // Enumerate the cube's minterms by iterating assignments of free
        // variables. Fast path for small tables.
        let n = self.num_vars;
        let free_mask = !cube.mask() & ((1u64 << n) - 1);
        let base = cube.value() & ((1u64 << n) - 1);
        // Iterate subsets of free_mask via the standard subset-walk trick.
        let mut sub = 0u64;
        loop {
            self.set(base | sub, true);
            if sub == free_mask {
                break;
            }
            sub = (sub.wrapping_sub(free_mask)) & free_mask;
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

    /// Whether the cube lies entirely inside the on-set.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        let n = self.num_vars;
        let free_mask = !cube.mask() & ((1u64 << n) - 1);
        let base = cube.value() & ((1u64 << n) - 1);
        let mut sub = 0u64;
        loop {
            if !self.eval(base | sub) {
                return false;
            }
            if sub == free_mask {
                return true;
            }
            sub = (sub.wrapping_sub(free_mask)) & free_mask;
        }
    }

    /// Iterates the on-set minterms in ascending order.
    pub fn minterms(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_minterms()).filter(move |&m| self.eval(m))
    }

    /// The positive cofactor with respect to `var` (a function of the same
    /// arity; `var` becomes irrelevant).
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        let mut out = Self::zero(self.num_vars);
        let bit = 1u64 << var;
        for m in 0..self.num_minterms() {
            let src = if value { m | bit } else { m & !bit };
            if self.eval(src) {
                out.set(m, true);
            }
        }
        out
    }

    /// Whether the function actually depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// The support: variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
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
