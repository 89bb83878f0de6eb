//! Dynamic timing-error injection experiments.
//!
//! Exact verification shows masking is *logically* sound; this module
//! shows it *dynamically* works on the simulated silicon: age the
//! circuit's gates, clock it at the original period, replay a workload
//! through the timing simulator, and count (i) raw timing errors on the
//! unprotected outputs and (ii) errors that survive masking. With the
//! paper's guarantees, the masked error count is zero whenever aging
//! stays within the protected band (speed-paths within
//! `1 − target_fraction` of `Δ` cover slowdowns up to
//! `1/target_fraction − 1` ≈ 11 %).
//!
//! The replay, its capture rule and its per-cycle classification live
//! in [`crate::replay`]; [`inject_and_measure`] is one call into it.

use crate::design::MaskedDesign;
use crate::replay::{check_scale_factor, CaptureModel};
use tm_netlist::{Delay, Netlist};
use tm_resilience::TmResult;

/// Counters from one injection run (one replay of the masked design).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// Number of simulated clock cycles (vector transitions).
    pub cycles: usize,
    /// Cycles where at least one *raw* protected output mis-sampled.
    pub raw_errors: usize,
    /// Cycles where at least one *masked* output mis-sampled — the
    /// errors that escaped masking.
    pub masked_errors: usize,
    /// Cycles where at least one indicator `e` sampled 1 (speed-path
    /// activity).
    pub activations: usize,
    /// Cycles where the wearout log `e ∧ (y ⊕ ỹ)` fired on at least one
    /// output (paper §2.1).
    pub detected_errors: usize,
}

impl InjectionOutcome {
    /// Fraction of raw errors hidden by masking, in `[0, 1]`.
    ///
    /// A run with no raw errors (including a zero-cycle run) reports
    /// 1.0 — nothing escaped. More masked than raw errors (possible
    /// when masking hardware itself mis-samples on cycles whose raw
    /// outputs were clean) clamps to 0.0 rather than going negative.
    pub fn masking_effectiveness(&self) -> f64 {
        if self.raw_errors == 0 {
            1.0
        } else {
            (1.0 - self.masked_errors as f64 / self.raw_errors as f64).clamp(0.0, 1.0)
        }
    }
}

/// Builds per-gate delay scale factors for the *combined* netlist that
/// age every gate of the design by `factor` (original, masking and MUX
/// gates alike — the masking circuit's ≥ 20 % slack is what lets it ride
/// out the same wearout).
///
/// # Errors
///
/// Returns [`TmError`](tm_resilience::TmError) when `factor` is
/// non-finite (NaN, ±∞) or not positive.
pub fn uniform_aging(design: &MaskedDesign, factor: f64) -> TmResult<Vec<f64>> {
    check_scale_factor(factor)?;
    Ok(vec![factor; design.combined.num_gates()])
}

/// Ages only the original logic (e.g. to model speed-path-local NBTI),
/// leaving the masking circuit and MUXes fresh.
///
/// # Errors
///
/// Returns [`TmError`](tm_resilience::TmError) when `factor` is
/// non-finite (NaN, ±∞) or not positive.
pub fn original_only_aging(design: &MaskedDesign, factor: f64) -> TmResult<Vec<f64>> {
    check_scale_factor(factor)?;
    let (orig, _mask, _mux) = design.combined_partition();
    Ok((0..design.combined.num_gates())
        .map(|g| if orig.contains(&g) { factor } else { 1.0 })
        .collect())
}

/// Replays `vectors` as consecutive clock cycles of period `clock`
/// through the aged combined netlist and counts raw vs masked timing
/// errors ([`CaptureModel::replay`]). Fewer than two vectors means zero
/// cycles: the outcome is all-zero counters (and
/// `masking_effectiveness()` of 1.0), not an error.
///
/// # Errors
///
/// Returns [`TmError`](tm_resilience::TmError) when `scale` does not
/// have one finite positive entry per combined-netlist gate, or a
/// vector's arity differs from the input count.
pub fn inject_and_measure(
    design: &MaskedDesign,
    scale: &[f64],
    clock: Delay,
    vectors: &[Vec<bool>],
) -> TmResult<InjectionOutcome> {
    CaptureModel::new(design).replay(scale, clock, vectors)
}

/// Convenience: the instrumented netlist used by
/// [`inject_and_measure`], exposed for custom experiments.
pub fn instrumented_netlist(design: &MaskedDesign) -> Netlist {
    design.instrumented().0
}

/// Draws input vectors (approximately uniformly) from the SPCFs of a
/// synthesis result — patterns guaranteed to sensitize speed-paths.
///
/// Useful for building stress workloads: on deep circuits the SPCF is a
/// thin slice of the input space, so uniform random workloads rarely
/// exercise the speed-paths; realistic wearout and debug experiments mix
/// these patterns in. Outputs cycle round-robin over the critical
/// outputs; deterministic in `seed`.
pub fn speedpath_patterns(
    result: &crate::synth::MaskingResult,
    count: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    use tm_testkit::rng::Rng;
    let mut rng = Rng::seed_from_u64(seed);
    let zero = result.bdd.zero();
    let spcfs: Vec<_> = result
        .spcf
        .outputs
        .iter()
        .filter(|o| o.spcf != zero)
        .map(|o| o.spcf)
        .collect();
    if spcfs.is_empty() {
        return Vec::new();
    }
    (0..count)
        .filter_map(|k| {
            let f = spcfs[k % spcfs.len()];
            result.bdd.sample_sat(f, || rng.next_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::MaskingOptions;
    use crate::synth::synthesize;
    use std::sync::Arc;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_sim::patterns::random_vectors;
    use tm_sta::Sta;

    #[test]
    fn aged_comparator_errors_are_fully_masked() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay(); // 7 units
        // 8% aging: the 7-unit speed-paths slip past the clock (7.56),
        // everything at ≤ 6.3 stays inside (6.8).
        let scale = uniform_aging(&r.design, 1.08).expect("valid factor");
        let vectors = random_vectors(4, 400, 11);
        let outcome = inject_and_measure(&r.design, &scale, clock, &vectors).expect("valid run");
        assert!(outcome.raw_errors > 0, "aging should produce raw errors");
        assert_eq!(outcome.masked_errors, 0, "{outcome:?}");
        assert!(outcome.activations >= outcome.raw_errors);
        assert_eq!(outcome.masking_effectiveness(), 1.0);
    }

    #[test]
    fn fresh_silicon_has_no_errors_anywhere() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay();
        let scale = uniform_aging(&r.design, 1.0).expect("valid factor");
        let vectors = random_vectors(4, 200, 3);
        let outcome = inject_and_measure(&r.design, &scale, clock, &vectors).expect("valid run");
        assert_eq!(outcome.raw_errors, 0);
        assert_eq!(outcome.masked_errors, 0);
    }

    #[test]
    fn original_only_aging_also_masked() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay();
        let scale = original_only_aging(&r.design, 1.09).expect("valid factor");
        let vectors = random_vectors(4, 400, 23);
        let outcome = inject_and_measure(&r.design, &scale, clock, &vectors).expect("valid run");
        assert!(outcome.raw_errors > 0);
        assert_eq!(outcome.masked_errors, 0, "{outcome:?}");
    }

    #[test]
    fn non_finite_and_non_positive_factors_rejected() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert!(uniform_aging(&r.design, bad).is_err(), "factor {bad} accepted");
            assert!(original_only_aging(&r.design, bad).is_err(), "factor {bad} accepted");
        }
        // A poisoned entry inside an otherwise fine scale vector is
        // caught too, not just the convenience constructors.
        let mut scale = uniform_aging(&r.design, 1.0).unwrap();
        scale[0] = f64::NAN;
        let clock = Sta::new(&nl).critical_path_delay();
        let err = inject_and_measure(&r.design, &scale, clock, &[]).expect_err("NaN scale");
        assert!(err.to_string().contains("finite"));
    }

    #[test]
    fn zero_cycle_run_reports_cleanly() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay();
        let scale = uniform_aging(&r.design, 1.08).unwrap();
        // Zero and one vector both mean zero transitions.
        for vectors in [Vec::new(), vec![vec![false; 4]]] {
            let outcome = inject_and_measure(&r.design, &scale, clock, &vectors).unwrap();
            assert_eq!(outcome, InjectionOutcome::default());
            assert_eq!(outcome.cycles, 0);
            assert_eq!(outcome.masking_effectiveness(), 1.0);
        }
    }

    #[test]
    fn mismatched_arity_is_an_error_not_a_panic() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let r = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay();
        let scale = uniform_aging(&r.design, 1.0).unwrap();
        // Short scale vector.
        let err = inject_and_measure(&r.design, &scale[..1], clock, &[]).expect_err("short scale");
        assert!(err.to_string().contains("scale factor"));
        // Wrong vector arity.
        let vectors = vec![vec![false; 3], vec![true; 3]];
        let err = inject_and_measure(&r.design, &scale, clock, &vectors).expect_err("bad arity");
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn effectiveness_clamps_to_unit_interval() {
        let more_masked = InjectionOutcome {
            cycles: 10,
            raw_errors: 1,
            masked_errors: 3,
            activations: 3,
            detected_errors: 0,
        };
        assert_eq!(more_masked.masking_effectiveness(), 0.0);
        let clean = InjectionOutcome::default();
        assert_eq!(clean.masking_effectiveness(), 1.0);
    }
}
