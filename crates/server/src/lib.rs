//! `tm-server` — masking-as-a-service for the `timemask` workspace.
//!
//! A long-running TCP daemon that accepts BLIF netlists plus `Δ_y`
//! target ladders and streams back SPCF / masking reports, keeping a
//! pool of warm per-circuit sessions so repeated analyses of the same
//! design reuse BDD managers and memo tables instead of rebuilding
//! them (DESIGN.md §10). Std-only, like the rest of the workspace:
//! the server is a hand-rolled thread pool over `std::net`, the wire
//! format is length-prefixed JSON rendered by `tm_testkit::json`.
//!
//! Layering, bottom up:
//!
//! - [`protocol`]: the frame codec (u32 big-endian length prefix +
//!   UTF-8 JSON payload) and typed request parsing. Malformed input of
//!   every kind maps to a typed error frame, never a panic.
//! - [`pool`]: [`pool::PooledSession`] (a circuit's netlist, BDD
//!   manager, and warm SPCF state) and [`pool::SessionPool`] (strict
//!   LRU keyed by an FNV-1a hash of the canonicalized BLIF).
//! - [`serve`]: [`serve::ServeCore`], the transport-free request
//!   engine — verb dispatch, the degradation ladder as graceful
//!   load-shedding, and the `STATS` aggregate.
//! - [`net`]: the TCP front — acceptor, admission gate, worker pool,
//!   per-connection framing loop, and clean shutdown.
//! - [`gen`]: a deterministic synthetic-BLIF generator shared by the
//!   load generator and the serving test battery.
//!
//! Start a daemon in-process with [`net::serve`]; the `tm-server`
//! binary wraps it with flag parsing for the CLI (see the README
//! quickstart).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod serve;

pub use net::{serve, DrainReport, ServerHandle};
pub use pool::{PoolStats, PooledSession, SessionPool};
pub use protocol::{read_frame, write_frame, FrameError, Request, DEFAULT_MAX_FRAME};
pub use serve::{ServeConfig, ServeCore};
