//! Speed-path characteristic function (SPCF) engines — §3 of Choudhury &
//! Mohanram, DATE 2009.
//!
//! For a primary output `y` and a target arrival time `Δ_y`, the SPCF
//! `Σ_y(Δ_y)` is the characteristic function of all *speed-path
//! activation patterns*: input patterns whose stabilization delay at `y`
//! exceeds `Δ_y`. Three engines compute it, mirroring Table 1 of the
//! paper:
//!
//! | engine | accuracy | cost |
//! |---|---|---|
//! | [`node_based_spcf`] | over-approximation | one topological pass (fastest) |
//! | [`path_based_spcf`] | exact | full timed waveform per net (slowest) |
//! | [`short_path_spcf`] | exact | memoized single-time queries (the paper's proposal) |
//!
//! All three return BDDs over the primary-input space, so exactness and
//! containment are *checked*, not assumed: tests assert
//! `short_path == path_based ⊆ node_based` on every circuit.
//!
//! # Example: the paper's worked comparator
//!
//! ```
//! use std::sync::Arc;
//! use tm_logic::Bdd;
//! use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
//! use tm_spcf::short_path_spcf;
//! use tm_sta::Sta;
//!
//! let nl = comparator2(Arc::new(lsi10k_like()));
//! let sta = Sta::new(&nl);
//! let delta = sta.critical_path_delay();       // 7 units
//! let target = delta * 0.9;                    // Δ_y = 6.3
//! let mut bdd = Bdd::new(nl.inputs().len());
//! let spcf = short_path_spcf(&nl, &sta, &mut bdd, target);
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
pub use conservative::{conservative_spcf, ConservativeEngine};
pub use engine::{
    critical_outputs, engine_for, spcf_with, try_spcf_with, EngineCx, EngineSession,
    SpcfEngine, WarmSession, WarmState,
};
pub use node_based::{node_based_spcf, try_node_based_spcf, NodeBasedEngine};
pub use path_based::{
    exact_output_delays, path_based_spcf, try_path_based_spcf, PathBasedEngine,
};
pub use short_path::{
    short_path_spcf, short_path_spcf_of_net, try_short_path_spcf, ShortPathEngine,
};
