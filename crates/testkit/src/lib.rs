//! Hermetic test substrate for the `timemask` workspace.
//!
//! The build environment has no network and no registry access, so the
//! workspace carries its own miniature replacements for the external
//! crates a Rust project would normally reach for:
//!
//! | external crate | replacement | module |
//! |---|---|---|
//! | `rand` | seedable xoshiro256\*\* PRNG with the small API the repo uses | [`rng`] |
//! | `proptest` | property runner: case counts, failure seeds, choice-tape shrinking | [`prop`] |
//! | `serde`/`serde_json` | tiny hand-rolled JSON value writer | [`json`] |
//!
//! Everything is deterministic: the PRNG is seeded explicitly, and the
//! property runner derives one seed per case from a base seed and
//! prints the failing case's seed (reproduce with
//! `TM_PROP_SEED=<seed>`).
//!
//! The hermetic-build policy (see `DESIGN.md`): dev-dependencies are
//! never added to the workspace — missing test functionality is grown
//! here instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod prop;
pub mod rng;

pub use json::Json;
pub use prop::{check, Config, Gen};
pub use rng::Rng;
