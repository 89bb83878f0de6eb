//! Speed-path characteristic function (SPCF) engines — §3 of Choudhury &
//! Mohanram, DATE 2009.
//!
//! For a primary output `y` and a target arrival time `Δ_y`, the SPCF
//! `Σ_y(Δ_y)` is the characteristic function of all *speed-path
//! activation patterns*: input patterns whose stabilization delay at `y`
//! exceeds `Δ_y`. Three engines compute it, mirroring Table 1 of the
//! paper:
//!
//! | [`Algorithm`] | engine | accuracy | cost |
//! |---|---|---|---|
//! | `NodeBased` | [`NodeBasedEngine`] | over-approximation | one topological pass (fastest) |
//! | `PathBased` | [`PathBasedEngine`] | exact | full timed waveform per net (slowest) |
//! | `ShortPath` | [`ShortPathEngine`] | exact | memoized single-time queries (the paper's proposal) |
//!
//! All three return BDDs over the primary-input space, so exactness and
//! containment are *checked*, not assumed: tests assert
//! `short_path == path_based ⊆ node_based` on every circuit. A fourth
//! rung, `Conservative` ([`ConservativeEngine`]), guards every pattern
//! of every critical output.
//!
//! Two entry points run them. [`spcf_with`] / [`try_spcf_with`] is one
//! cold run of one algorithm. [`WarmState`] (held by [`WarmSession`] or
//! the server's session pool) evaluates a Δ_y ladder and owns the one
//! degradation ladder, [`WarmState::point_with_fallback`]: a rung that
//! exhausts its budget steps down [`Algorithm::fallback`]
//! (exact → node-based → conservative), each rung a superset of the one
//! above, so the landed SPCF stays sound.
//!
//! # Example: the paper's worked comparator
//!
//! ```
//! use std::sync::Arc;
//! use tm_logic::Bdd;
//! use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
//! use tm_spcf::{spcf_with, Algorithm};
//! use tm_sta::Sta;
//!
//! let nl = comparator2(Arc::new(lsi10k_like()));
//! let sta = Sta::new(&nl);
//! let delta = sta.critical_path_delay();       // 7 units
//! let target = delta * 0.9;                    // Δ_y = 6.3
//! let mut bdd = Bdd::new(nl.inputs().len());
//! let spcf = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
//! assert_eq!(spcf.critical_pattern_count(&bdd), 10.0); // ā1 + ā0·b1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod conservative;
pub mod engine;
pub mod node_based;
pub mod path_based;
pub mod short_path;

pub use common::{net_global_bdds, Algorithm, GatePrimes, LazyGlobals, OutputSpcf, SpcfSet};
pub use conservative::ConservativeEngine;
pub use engine::{
    critical_outputs, engine_for, spcf_with, try_spcf_with, EngineCx, SpcfEngine, WarmSession,
    WarmState,
};
pub use node_based::NodeBasedEngine;
pub use path_based::{exact_output_delays, PathBasedEngine};
pub use short_path::ShortPathEngine;
