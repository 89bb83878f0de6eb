//! Boolean function infrastructure for the `timemask` workspace.
//!
//! This crate provides the exact Boolean machinery that the speed-path
//! analysis and error-masking synthesis of Choudhury & Mohanram (DATE
//! 2009) are built on:
//!
//! - [`cube`]: product terms over ≤ 64 variables — the unit of the
//!   paper's essential-weight cover selection.
//! - [`sop`]: ordered sum-of-products covers.
//! - [`tt`]: dense truth tables for node-local functions (≤ 20 inputs),
//!   operated on a word at a time, with variable swap, embedding and
//!   projection.
//! - [`qm`]: exact prime implicant generation (a free-set walk over
//!   bitset truth tables, `(n + 1) · 2^n` bits of memory up to 12
//!   inputs, Shannon splits above) and two-level cover minimization
//!   (exact primes, greedy covering over bitset rows).
//! - [`bdd`]: an ROBDD manager for global functions over all primary
//!   inputs — speed-path characteristic functions routinely have 10¹⁰⁰⁺
//!   satisfying patterns, which BDDs represent and count exactly.
//!
//! # Example: from truth table to minimized cover to BDD
//!
//! ```
//! use tm_logic::{bdd::Bdd, qm, tt::TruthTable};
//!
//! // Majority-of-3, minimized to its three 2-literal primes.
//! let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
//! let sop = qm::minimize(&f, &TruthTable::zero(3));
//! assert_eq!(sop.len(), 3);
//!
//! // Lift the cover into a BDD over a wider space.
//! let mut bdd = Bdd::new(8);
//! let lifted = sop
//!     .cubes()
//!     .iter()
//!     .map(|c| {
//!         let lits: Vec<_> = c.literals().collect();
//!         bdd.cube(&lits)
//!     })
//!     .collect::<Vec<_>>();
//! let g = bdd.or_all(lifted);
//! assert_eq!(bdd.sat_count(g), 4.0 * 32.0); // 4 of 8 minterms × 2^5 free vars
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bdd;
pub mod cube;
pub mod qm;
pub mod sop;
pub mod tt;

pub use bdd::{Bdd, BddRef, BddStats, PortableBdd};
pub use cube::Cube;
pub use sop::Sop;
pub use tt::TruthTable;
