//! Error-masking circuit synthesis for timing errors on speed-paths —
//! the primary contribution of Choudhury & Mohanram, *"Masking timing
//! errors on speed-paths in logic circuits"*, DATE 2009.
//!
//! Given a technology-mapped combinational circuit, [`synthesize`]
//! builds a **non-intrusive error-masking circuit**: a side circuit that
//! (i) predicts the value of every critical output whenever a
//! speed-path is sensitized, (ii) raises an indicator `e` on exactly
//! those patterns, and (iii) has at least 20 % timing slack over the
//! original, making it immune to the very timing errors it masks. A
//! 2-to-1 MUX per critical output (with `e` on select) splices the
//! prediction in at the output — the original circuit is not modified.
//!
//! - [`synthesize`] — the §4 synthesis flow (SPCF → technology-
//!   independent simplification by essential-weight cube selection →
//!   mapping with slack enforcement → MUX integration).
//! - [`verify()`](fn@verify) — exact BDD verification: `Σ_y ⇒ e`, `e ⇒ (ỹ ≡ y)`,
//!   and functional transparency of the combined design (the paper's
//!   100 % masking coverage).
//! - [`inject`] — dynamic demonstration: age the gates, clock at the
//!   original period, and watch raw errors appear while masked outputs
//!   stay clean.
//! - [`replay`] — the one replay of the masked design every dynamic
//!   experiment shares: the MUX capture rule, the per-cycle probe
//!   classifier and the speed-path stress map.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tm_masking::{synthesize, verify, MaskingOptions};
//! use tm_netlist::{circuits::comparator2, library::lsi10k_like};
//!
//! let nl = comparator2(Arc::new(lsi10k_like()));
//! let mut result = synthesize(&nl, MaskingOptions::default());
//! assert_eq!(result.report.critical_outputs, 1);
//! assert!(result.report.slack_percent >= 20.0);
//! assert!(verify(&mut result).all_ok()); // 100% masking, exactly
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod design;
pub mod inject;
pub mod options;
pub mod replay;
pub mod report;
pub mod synth;
pub mod verify;

pub use ablation::duplication_masking;
pub use design::{MaskedDesign, ProbeTriple, ProtectedOutput};
pub use inject::{inject_and_measure, original_only_aging, speedpath_patterns, uniform_aging, InjectionOutcome};
pub use options::{CubeSelection, MaskingOptions};
pub use replay::{check_stress_ramp, ramp_stress, speedpath_stress_map, CaptureModel, ProbeWords};
pub use report::MaskingReport;
pub use synth::{synthesize, synthesize_sweep, DegradationLevel, MaskingResult, SweepPoint};
pub use verify::{verify, OutputVerdict, VerificationReport};
