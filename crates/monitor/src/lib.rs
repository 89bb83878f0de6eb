//! Runtime applications of error-masking circuits (paper §2.1):
//! wearout prediction and trace-buffer-based silicon debug.
//!
//! The masking circuit's indicator outputs are runtime sensors for
//! free: `e_i` says "a speed-path is being exercised right now" and
//! `e_i ∧ (y_i ⊕ ỹ_i)` says "a timing error just occurred (and was
//! masked)". This crate turns those signals into the paper's two
//! applications:
//!
//! - [`wearout`]: epoch-based masked-error logging over an aging sweep
//!   plus an offline predictor of wearout onset.
//! - [`trace`]: selective trace-buffer capture gated on `e_i`,
//!   measuring how much the debug observation window expands.
//!
//! The paper's §6 future-work directions and §2 alternatives are also
//! implemented here:
//!
//! - [`dvs`]: aggressive dynamic voltage scaling under masking — how
//!   much lower the supply can go when speed-path errors are masked.
//! - [`bias`]: adaptive body-bias speed-up of critical gates, driven in
//!   closed loop by the wearout log.
//! - [`razor`]: a Razor-style double-sampling detect-and-rollback
//!   baseline, including its bounded detection window and throughput
//!   cost.
//! - [`telescopic`]: variable-latency (telescopic-unit) operation —
//!   the SPCF's original application (refs \[27, 28\]) driven by the
//!   masking circuit's indicators.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tm_masking::{synthesize, MaskingOptions};
//! use tm_monitor::wearout::{run_lifetime, LifetimeConfig, WearoutPredictor};
//! use tm_netlist::{circuits::comparator2, library::lsi10k_like};
//!
//! let nl = comparator2(Arc::new(lsi10k_like()));
//! let design = synthesize(&nl, MaskingOptions::default()).design;
//! let stats = run_lifetime(&design, &LifetimeConfig {
//!     epochs: 4,
//!     max_stress: 0.9,
//!     ..Default::default()
//! }).expect("valid lifetime config");
//! let assessment = WearoutPredictor::default().assess(&stats);
//! // Aged silicon shows masked errors; fresh silicon shows none.
//! assert_eq!(stats[0].detected_errors, 0);
//! assert!(stats.last().unwrap().detected_errors > 0);
//! assert!(assessment.onset_epoch.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod dvs;
pub mod razor;
pub mod telescopic;
pub mod trace;
pub mod wearout;

pub use bias::{unadapted_run, AdaptiveBiasController, BiasEpoch, BiasRun};
pub use dvs::{
    DvsAnalyticPoint, DvsAnalyticSweep, DvsExplorer, DvsPoint, DvsSweep, VoltageModel,
};
pub use razor::{RazorModel, RazorOutcome};
pub use telescopic::{evaluate_telescopic, TelescopicOutcome};
pub use trace::{CapturePolicy, DebugSession, SessionResult, TraceBuffer, TraceEntry};
pub use wearout::{
    run_lifetime, EpochStats, LifetimeConfig, WearoutAssessment, WearoutPredictor,
};
