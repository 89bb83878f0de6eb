//! Wearout detection through masked-error logging (paper §2.1).
//!
//! "As speed-paths slow down due to wearout and aging, timing errors at
//! the critical outputs start to increase. With the proposed
//! error-masking circuit in place, these timing errors will be masked.
//! However, the information that a timing error occurred, indicated by
//! `e_i(y_i ⊕ ỹ_i)`, can be recorded and analyzed offline periodically."
//!
//! [`run_lifetime`] plays a workload through the aged masked design
//! epoch by epoch, logging exactly that hardware-observable signal, and
//! [`WearoutPredictor`] does the offline analysis: detecting rate
//! crossings and extrapolating the onset of wearout. Each epoch is one
//! [`CaptureModel::replay`]: the capture rule, the log and the
//! speed-path stress map are `tm_masking::replay`'s.

use tm_masking::{check_stress_ramp, ramp_stress, speedpath_stress_map, CaptureModel, MaskedDesign};
use tm_netlist::Delay;
use tm_resilience::{TmError, TmResult};
use tm_sim::aging::AgingModel;
use tm_testkit::rng::fnv1a64;

/// Counters logged during one lifetime epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0 = fresh silicon).
    pub epoch: usize,
    /// Aging stress level applied during this epoch (0..=1).
    pub stress: f64,
    /// Clock cycles simulated.
    pub cycles: usize,
    /// Cycles where any indicator `e` sampled 1 (speed-path activity).
    pub activations: usize,
    /// Cycles where the hardware log `e ∧ (y ⊕ ỹ)` fired — masked
    /// timing errors.
    pub detected_errors: usize,
    /// Cycles where a masked output itself mis-sampled (escapes; 0 while
    /// aging stays inside the protected band).
    pub escapes: usize,
}

impl EpochStats {
    /// Masked-error rate: detected errors per cycle.
    pub fn error_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.detected_errors as f64 / self.cycles as f64
        }
    }
}

/// Configuration of a lifetime simulation.
#[derive(Clone, Debug)]
pub struct LifetimeConfig {
    /// Number of epochs simulated, stress swept linearly 0 → `max_stress`.
    pub epochs: usize,
    /// Final stress level (1.0 = the aging model's full degradation; at
    /// most 2.0, the end of the model's domain).
    pub max_stress: f64,
    /// Clock period; defaults to the original circuit's `Δ` when `None`.
    pub clock: Option<Delay>,
    /// Workload vectors per epoch.
    pub vectors_per_epoch: usize,
    /// Workload seed (each epoch derives its own).
    pub seed: u64,
    /// The delay-degradation model.
    pub model: AgingModel,
    /// Optional pool of speed-path-sensitizing vectors (e.g. from
    /// `tm_masking::inject::speedpath_patterns`) mixed into the random
    /// workload. On deep circuits the SPCF is a thin slice of the input
    /// space, so purely random workloads rarely exercise speed-paths.
    pub stress_pool: Vec<Vec<bool>>,
    /// Probability a workload vector is drawn from `stress_pool`.
    pub pool_bias: f64,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            epochs: 12,
            max_stress: 1.0,
            clock: None,
            vectors_per_epoch: 300,
            seed: 0x11FE,
            model: AgingModel { jitter: 0.0, ..AgingModel::default() },
            stress_pool: Vec::new(),
            pool_bias: 0.25,
        }
    }
}

/// Builds epoch `epoch`'s workload: the seeded random stream, with
/// stress-pool vectors substituted at pool-biased positions.
///
/// The pool-mixing PRNG is a *dedicated stream* derived as
/// `seed ^ fnv1a64("epoch") ^ epoch` — domain-separated from the
/// random-workload stream, so adding or growing `stress_pool` never
/// perturbs which base vectors are generated, and substitution
/// positions depend only on `(seed, epoch, pool_bias)`.
fn epoch_workload(config: &LifetimeConfig, num_inputs: usize, epoch: usize) -> Vec<Vec<bool>> {
    let epoch_seed = config.seed ^ (epoch as u64).wrapping_mul(0x9E3779B97F4A7C15);
    let mut vectors =
        tm_sim::patterns::random_vectors(num_inputs, config.vectors_per_epoch, epoch_seed);
    if !config.stress_pool.is_empty() && config.pool_bias > 0.0 {
        use tm_testkit::rng::Rng;
        let mut rng = Rng::seed_from_u64(config.seed ^ fnv1a64(b"epoch") ^ epoch as u64);
        for v in vectors.iter_mut() {
            if rng.gen_bool(config.pool_bias.clamp(0.0, 1.0)) {
                *v = config.stress_pool[rng.gen_range(0..config.stress_pool.len())].clone();
            }
        }
    }
    vectors
}

/// Simulates the masked design across its lifetime, logging the
/// hardware-observable wearout signal per epoch.
///
/// Gates of the original circuit that lie on speed-paths age at the
/// model's speed-path rate; all other gates (including the masking
/// circuit, which rides on its ≥ 20 % slack) age at the base rate
/// ([`speedpath_stress_map`]).
///
/// # Errors
///
/// Returns [`TmError`] when the design has no protected outputs
/// (nothing to monitor) or the config is degenerate (zero epochs,
/// fewer than two vectors per epoch, or a stress level outside the
/// aging model's `[0, 2]`).
pub fn run_lifetime(design: &MaskedDesign, config: &LifetimeConfig) -> TmResult<Vec<EpochStats>> {
    if !design.is_protected() {
        return Err(TmError::invalid_input("wearout monitoring needs protected outputs"));
    }
    if config.epochs < 1 || config.vectors_per_epoch < 2 {
        return Err(TmError::invalid_input(format!(
            "degenerate lifetime config: {} epochs, {} vectors per epoch (need >= 1 and >= 2)",
            config.epochs, config.vectors_per_epoch
        )));
    }
    check_stress_ramp(config.max_stress)?;

    let (delta, stressed) = speedpath_stress_map(design);
    let clock = config.clock.unwrap_or(delta);
    let capture = CaptureModel::new(design);
    (0..config.epochs)
        .map(|epoch| {
            let stress = ramp_stress(config.max_stress, epoch, config.epochs);
            let scale = config.model.scale_factors(capture.netlist(), &stressed, stress);
            let vectors = epoch_workload(config, capture.netlist().inputs().len(), epoch);
            let o = capture.replay(&scale, clock, &vectors)?;
            Ok(EpochStats {
                epoch,
                stress,
                cycles: o.cycles,
                activations: o.activations,
                detected_errors: o.detected_errors,
                escapes: o.masked_errors,
            })
        })
        .collect()
}

/// Offline analyzer of epoch logs: detects the onset of wearout and
/// extrapolates when the error rate will cross a failure threshold.
#[derive(Clone, Copy, Debug)]
pub struct WearoutPredictor {
    /// Error rate above which wearout is considered to have set on.
    pub onset_threshold: f64,
    /// Error rate considered end-of-life for extrapolation.
    pub failure_threshold: f64,
}

impl Default for WearoutPredictor {
    fn default() -> Self {
        WearoutPredictor { onset_threshold: 0.005, failure_threshold: 0.10 }
    }
}

/// Result of offline wearout analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WearoutAssessment {
    /// First epoch whose error rate crossed the onset threshold.
    pub onset_epoch: Option<usize>,
    /// Linear-regression slope of the error rate per epoch.
    pub rate_slope: f64,
    /// Extrapolated epoch where the failure threshold will be crossed.
    pub predicted_failure_epoch: Option<usize>,
}

impl WearoutPredictor {
    /// Analyzes an epoch log.
    pub fn assess(&self, stats: &[EpochStats]) -> WearoutAssessment {
        let onset_epoch = stats
            .iter()
            .find(|s| s.error_rate() > self.onset_threshold)
            .map(|s| s.epoch);

        // Least-squares slope of error rate over epoch index.
        let n = stats.len() as f64;
        let slope = if stats.len() >= 2 {
            let mean_x = stats.iter().map(|s| s.epoch as f64).sum::<f64>() / n;
            let mean_y = stats.iter().map(|s| s.error_rate()).sum::<f64>() / n;
            let num: f64 = stats
                .iter()
                .map(|s| (s.epoch as f64 - mean_x) * (s.error_rate() - mean_y))
                .sum();
            let den: f64 = stats.iter().map(|s| (s.epoch as f64 - mean_x).powi(2)).sum();
            if den > 0.0 {
                num / den
            } else {
                0.0
            }
        } else {
            0.0
        };

        let predicted_failure_epoch = if slope > 0.0 {
            let last = stats.last().expect("nonempty");
            let remaining = self.failure_threshold - last.error_rate();
            if remaining <= 0.0 {
                Some(last.epoch)
            } else {
                Some(last.epoch + (remaining / slope).ceil() as usize)
            }
        } else {
            None
        };

        WearoutAssessment { onset_epoch, rate_slope: slope, predicted_failure_epoch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_masking::{synthesize, MaskingOptions};
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;

    fn masked_comparator() -> MaskedDesign {
        let nl = comparator2(Arc::new(lsi10k_like()));
        synthesize(&nl, MaskingOptions::default()).design
    }

    #[test]
    fn error_rate_grows_with_age_and_nothing_escapes() {
        let design = masked_comparator();
        let config = LifetimeConfig {
            epochs: 6,
            // Stay within the protected band: speed-path degradation
            // 12% × 0.9 stress ≈ 10.8% ≤ 1/0.9 − 1.
            max_stress: 0.9,
            vectors_per_epoch: 250,
            ..Default::default()
        };
        let stats = run_lifetime(&design, &config).unwrap();
        assert_eq!(stats.len(), 6);
        // Fresh silicon: no detected errors.
        assert_eq!(stats[0].detected_errors, 0);
        // Aged silicon: errors detected, none escape masking.
        let last = stats.last().unwrap();
        assert!(last.detected_errors > 0, "{stats:?}");
        for s in &stats {
            assert_eq!(s.escapes, 0, "epoch {} leaked", s.epoch);
            assert!(s.activations >= s.detected_errors);
        }
    }

    #[test]
    fn predictor_finds_onset_and_extrapolates() {
        let design = masked_comparator();
        let config = LifetimeConfig { epochs: 8, max_stress: 0.9, ..Default::default() };
        let stats = run_lifetime(&design, &config).unwrap();
        let predictor = WearoutPredictor::default();
        let a = predictor.assess(&stats);
        assert!(a.onset_epoch.is_some(), "{stats:?}");
        assert!(a.rate_slope > 0.0);
        let f = a.predicted_failure_epoch.expect("positive slope extrapolates");
        assert!(f >= a.onset_epoch.unwrap());
    }

    #[test]
    fn predictor_quiet_on_fresh_silicon() {
        let design = masked_comparator();
        let config = LifetimeConfig { epochs: 3, max_stress: 0.0, ..Default::default() };
        let stats = run_lifetime(&design, &config).unwrap();
        let a = WearoutPredictor::default().assess(&stats);
        assert_eq!(a.onset_epoch, None);
        assert_eq!(a.predicted_failure_epoch, None);
    }

    #[test]
    fn pool_sampling_is_an_isolated_stream() {
        // Regression for the stress-pool PRNG fix: pool mixing draws
        // from a dedicated `seed ^ fnv1a64("epoch") ^ epoch` stream, so
        // (a) un-replaced positions carry exactly the base random
        // workload, and (b) growing the pool never changes *which*
        // positions are replaced (`gen_range` is a single fixed-size
        // draw regardless of pool size).
        let base = LifetimeConfig { vectors_per_epoch: 40, ..Default::default() };
        let plain = super::epoch_workload(&base, 5, 3);

        let marker = vec![true; 5];
        let mut pooled = base.clone();
        pooled.stress_pool = vec![marker.clone()];
        pooled.pool_bias = 0.5;
        let one = super::epoch_workload(&pooled, 5, 3);
        let replaced: Vec<usize> =
            (0..one.len()).filter(|&i| one[i] != plain[i]).collect();
        assert!(!replaced.is_empty(), "bias 0.5 over 40 vectors must hit");
        for (i, v) in one.iter().enumerate() {
            if replaced.contains(&i) {
                assert_eq!(*v, marker);
            } else {
                assert_eq!(*v, plain[i], "base workload perturbed at {i}");
            }
        }

        // Same marker duplicated: a bigger pool, same replacement sites.
        pooled.stress_pool = vec![marker.clone(); 7];
        let seven = super::epoch_workload(&pooled, 5, 3);
        assert_eq!(one, seven, "pool growth moved the substitution sites");
    }

    #[test]
    fn deterministic_runs() {
        let design = masked_comparator();
        let config = LifetimeConfig { epochs: 3, max_stress: 0.5, ..Default::default() };
        assert_eq!(
            run_lifetime(&design, &config).unwrap(),
            run_lifetime(&design, &config).unwrap()
        );
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        let design = masked_comparator();
        let bad_epochs = LifetimeConfig { epochs: 0, ..Default::default() };
        assert!(run_lifetime(&design, &bad_epochs).is_err());
        let bad_vectors = LifetimeConfig { vectors_per_epoch: 1, ..Default::default() };
        assert!(run_lifetime(&design, &bad_vectors).is_err());
        for max_stress in [f64::NAN, -0.1, 2.5] {
            let bad_stress = LifetimeConfig { max_stress, ..Default::default() };
            assert!(run_lifetime(&design, &bad_stress).is_err(), "max_stress {max_stress}");
        }
        let unprotected = MaskedDesign::unprotected(design.original.clone());
        let err = run_lifetime(&unprotected, &LifetimeConfig::default()).expect_err("unprotected");
        assert!(err.to_string().contains("protected"));
    }
}
