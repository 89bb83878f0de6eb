//! Cubes (product terms) over a small variable set.
//!
//! A [`Cube`] is a conjunction of literals over at most 64 variables. The
//! representation is a pair of bit masks: `mask` marks the bound variables
//! and `value` gives the polarity of each bound variable. Unbound variables
//! are free (the cube does not constrain them).
//!
//! Cubes are the unit of the paper's essential-weight cover selection
//! (§4.1): sum-of-product expressions of technology-independent nodes are
//! lists of cubes, sorted by ascending literal count, and pruned against
//! the speed-path characteristic function.

use std::fmt;

/// Maximum number of variables a [`Cube`] can range over.
pub const MAX_CUBE_VARS: usize = 64;

/// A product term (conjunction of literals) over up to 64 variables.
///
/// # Examples
///
/// ```
/// use tm_logic::cube::Cube;
///
/// // x0 & !x2  over 3 variables
/// let c = Cube::from_literals(3, &[(0, true), (2, false)]);
/// assert!(c.eval(0b001)); // x0=1, x1=0, x2=0
/// assert!(!c.eval(0b101)); // x2=1 violates !x2
/// assert_eq!(c.literal_count(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    /// Bit i set iff variable i is bound by this cube.
    mask: u64,
    /// For bound variables, bit i gives the required value. Bits outside
    /// `mask` are zero (canonical form).
    value: u64,
}

impl Cube {
    /// The universal cube (no literals; covers every minterm).
    pub const fn universe() -> Self {
        Cube { mask: 0, value: 0 }
    }

    /// Builds a cube from `(variable, polarity)` literal pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is `>= num_vars`, if `num_vars >
    /// MAX_CUBE_VARS`, or if the same variable appears with both
    /// polarities (an empty product is not a valid cube; represent empty
    /// covers as an SOP with no cubes instead).
    pub fn from_literals(num_vars: usize, literals: &[(usize, bool)]) -> Self {
        assert!(num_vars <= MAX_CUBE_VARS, "cube supports at most 64 variables");
        let mut mask = 0u64;
        let mut value = 0u64;
        for &(var, pol) in literals {
            assert!(var < num_vars, "literal variable {var} out of range {num_vars}");
            let bit = 1u64 << var;
            if mask & bit != 0 {
                assert_eq!(
                    value & bit != 0,
                    pol,
                    "variable {var} bound with both polarities"
                );
            }
            mask |= bit;
            if pol {
                value |= bit;
            }
        }
        Cube { mask, value }
    }

    /// Builds a cube directly from bit masks.
    ///
    /// `mask` marks bound variables; `value` gives their polarities. Bits
    /// of `value` outside `mask` are cleared.
    pub fn from_masks(mask: u64, value: u64) -> Self {
        Cube { mask, value: value & mask }
    }

    /// The minterm cube binding every one of `num_vars` variables to the
    /// bits of `assignment`.
    pub fn minterm(num_vars: usize, assignment: u64) -> Self {
        assert!(num_vars <= MAX_CUBE_VARS);
        let mask = if num_vars == 64 { u64::MAX } else { (1u64 << num_vars) - 1 };
        Cube { mask, value: assignment & mask }
    }

    /// Bit mask of bound variables.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Polarity bits of bound variables.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of literals in the cube.
    pub fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Whether variable `var` is bound, and if so with which polarity.
    pub fn literal(&self, var: usize) -> Option<bool> {
        let bit = 1u64 << var;
        if self.mask & bit != 0 {
            Some(self.value & bit != 0)
        } else {
            None
        }
    }

    /// Iterates over `(variable, polarity)` literals in ascending variable
    /// order.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let mask = self.mask;
        let value = self.value;
        (0..MAX_CUBE_VARS).filter_map(move |v| {
            let bit = 1u64 << v;
            if mask & bit != 0 {
                Some((v, value & bit != 0))
            } else {
                None
            }
        })
    }

    /// Evaluates the cube on a minterm given as an assignment bit vector.
    pub fn eval(&self, assignment: u64) -> bool {
        (assignment ^ self.value) & self.mask == 0
    }

    /// Whether `self` covers every minterm that `other` covers
    /// (containment: `other ⊆ self` as sets of minterms).
    pub fn contains(&self, other: &Cube) -> bool {
        // self's literals must be a subset of other's, with equal polarity.
        self.mask & !other.mask == 0 && (self.value ^ other.value) & self.mask == 0
    }

    /// Intersection of two cubes, or `None` if they conflict on some
    /// variable (empty intersection).
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let common = self.mask & other.mask;
        if (self.value ^ other.value) & common != 0 {
            return None;
        }
        Some(Cube {
            mask: self.mask | other.mask,
            value: self.value | other.value,
        })
    }

    /// Whether the two cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        let common = self.mask & other.mask;
        (self.value ^ other.value) & common == 0
    }

    /// Number of minterms covered over a space of `num_vars` variables.
    pub fn minterm_count(&self, num_vars: usize) -> f64 {
        let free = num_vars as u32 - self.literal_count();
        (free as f64).exp2()
    }

    /// Renames variables through `map` (old index → new index).
    ///
    /// # Panics
    ///
    /// Panics if two bound variables map to the same new index.
    pub fn permute(&self, map: &[usize]) -> Cube {
        let mut mask = 0u64;
        let mut value = 0u64;
        for (var, pol) in self.literals() {
            let nv = map[var];
            let bit = 1u64 << nv;
            assert!(mask & bit == 0, "permutation collides on variable {nv}");
            mask |= bit;
            if pol {
                value |= bit;
            }
        }
        Cube { mask, value }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return write!(f, "1");
        }
        let mut first = true;
        for (var, pol) in self.literals() {
            if !first {
                write!(f, "·")?;
            }
            first = false;
            if pol {
                write!(f, "x{var}")?;
            } else {
                write!(f, "x{var}'")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_covers_everything() {
        let u = Cube::universe();
        for m in 0..16u64 {
            assert!(u.eval(m));
        }
        assert_eq!(u.literal_count(), 0);
        assert_eq!(u.minterm_count(4), 16.0);
    }

    #[test]
    fn literal_eval() {
        let c = Cube::from_literals(4, &[(1, true), (3, false)]);
        assert!(c.eval(0b0010));
        assert!(c.eval(0b0110));
        assert!(!c.eval(0b1010)); // x3 = 1
        assert!(!c.eval(0b0000)); // x1 = 0
        assert_eq!(c.minterm_count(4), 4.0);
    }

    #[test]
    fn containment() {
        let big = Cube::from_literals(4, &[(0, true)]);
        let small = Cube::from_literals(4, &[(0, true), (2, false)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn intersection() {
        let a = Cube::from_literals(4, &[(0, true)]);
        let b = Cube::from_literals(4, &[(1, false)]);
        let c = a.intersect(&b).expect("compatible cubes");
        assert_eq!(c, Cube::from_literals(4, &[(0, true), (1, false)]));
        let conflicting = Cube::from_literals(4, &[(0, false)]);
        assert!(a.intersect(&conflicting).is_none());
        assert!(!a.intersects(&conflicting));
        assert!(a.intersects(&b));
    }

    #[test]
    fn minterm_cube() {
        let m = Cube::minterm(3, 0b101);
        assert!(m.eval(0b101));
        assert!(!m.eval(0b100));
        assert_eq!(m.literal_count(), 3);
    }

    #[test]
    fn permutation() {
        let c = Cube::from_literals(3, &[(0, true), (2, false)]);
        let p = c.permute(&[2, 1, 0]);
        assert_eq!(p, Cube::from_literals(3, &[(2, true), (0, false)]));
    }

    #[test]
    fn display_formats() {
        let c = Cube::from_literals(3, &[(0, true), (2, false)]);
        assert_eq!(format!("{c}"), "x0·x2'");
        assert_eq!(format!("{}", Cube::universe()), "1");
    }

    #[test]
    #[should_panic(expected = "both polarities")]
    fn conflicting_literals_panic() {
        let _ = Cube::from_literals(2, &[(0, true), (0, false)]);
    }
}
