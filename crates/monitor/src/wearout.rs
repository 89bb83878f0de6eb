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
//! crossings and extrapolating the onset of wearout.

use tm_masking::MaskedDesign;
use tm_netlist::Delay;
use tm_resilience::{TmError, TmResult};
use tm_sim::aging::AgingModel;
use tm_sim::func::PatternBlock;
use tm_sim::packed::PackedTimingSim;
use tm_sim::timing::TimingSim;
use tm_sta::Sta;
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
    /// Final stress level (1.0 = the aging model's full degradation).
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

/// Which timed-simulation kernel drives the lifetime epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LifetimeKernel {
    /// The 64-lane packed kernel ([`PackedTimingSim`]): 64 consecutive
    /// workload transitions advance per word op.
    Packed,
    /// The original per-vector event-driven loop ([`TimingSim`]) — the
    /// bit-identity oracle for the packed kernel, selected only by the
    /// packed-vs-scalar differential test.
    #[cfg_attr(not(test), allow(dead_code))]
    Scalar,
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
/// circuit, which rides on its ≥ 20 % slack) age at the base rate.
///
/// Runs on the packed 64-lane kernel, which is bit-identical to the
/// scalar event-driven [`TimingSim`] loop (a differential test pins
/// this).
///
/// # Errors
///
/// Returns [`TmError`] when the design has no protected outputs
/// (nothing to monitor) or the config is degenerate (zero epochs,
/// fewer than two vectors per epoch, or a non-finite stress level).
pub fn run_lifetime(design: &MaskedDesign, config: &LifetimeConfig) -> TmResult<Vec<EpochStats>> {
    run_lifetime_with(design, config, LifetimeKernel::Packed)
}

/// [`run_lifetime`] with an explicit kernel choice. Both kernels
/// produce bit-identical epoch logs.
fn run_lifetime_with(
    design: &MaskedDesign,
    config: &LifetimeConfig,
    kernel: LifetimeKernel,
) -> TmResult<Vec<EpochStats>> {
    if !design.is_protected() {
        return Err(TmError::invalid_input("wearout monitoring needs protected outputs"));
    }
    if config.epochs < 1 || config.vectors_per_epoch < 2 {
        return Err(TmError::invalid_input(format!(
            "degenerate lifetime config: {} epochs, {} vectors per epoch (need >= 1 and >= 2)",
            config.epochs, config.vectors_per_epoch
        )));
    }
    if !config.max_stress.is_finite() || config.max_stress < 0.0 {
        return Err(TmError::invalid_input(format!(
            "max_stress must be finite and non-negative, got {}",
            config.max_stress
        )));
    }

    let sta = Sta::new(&design.original);
    let delta = sta.critical_path_delay();
    let clock = config.clock.unwrap_or(delta);
    let target = delta * 0.9;
    let orig_critical = sta.critical_gates(target);

    let (instrumented, probes) = design.instrumented();
    // Stress map over the combined gate space: original speed-path gates
    // marked, everything else base-rate.
    let (orig_range, _, _) = design.combined_partition();
    let stressed: Vec<bool> = (0..instrumented.num_gates())
        .map(|g| orig_range.contains(&g) && orig_critical.get(g).copied().unwrap_or(false))
        .collect();

    let lib = instrumented.library().clone();
    let mut stats = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let stress = if config.epochs == 1 {
            config.max_stress
        } else {
            config.max_stress * epoch as f64 / (config.epochs - 1) as f64
        };
        let scale = config.model.scale_factors(&instrumented, &stressed, stress);

        // Per-output sample times: MUXed outputs capture one aged MUX
        // delay after the edge (see `tm_masking::inject`).
        let mut sample_times = vec![clock; instrumented.outputs().len()];
        for p in &design.protected {
            if let tm_netlist::Driver::Gate(mux) = instrumented.driver(p.masked) {
                let d = lib.cell(instrumented.gate(mux).cell()).max_delay() * scale[mux.index()];
                sample_times[p.position] = clock + d;
            }
        }

        let vectors = epoch_workload(config, instrumented.inputs().len(), epoch);
        let mut s = EpochStats {
            epoch,
            stress,
            cycles: 0,
            activations: 0,
            detected_errors: 0,
            escapes: 0,
        };
        match kernel {
            LifetimeKernel::Packed => {
                let sim = PackedTimingSim::with_scale(&instrumented, &scale);
                let n = vectors.len();
                let mut i = 0;
                while i + 1 < n {
                    let c = (n - 1 - i).min(64);
                    let prev = PatternBlock::from_patterns(&vectors[i..i + c]);
                    let next = PatternBlock::from_patterns(&vectors[i + 1..i + 1 + c]);
                    let r = sim.transition_block(&prev, &next, &sample_times);
                    let mut activated = 0u64;
                    let mut detected = 0u64;
                    let mut escaped = 0u64;
                    for p in &probes {
                        let e = r.sampled[p.e_position];
                        let raw = r.sampled[p.raw_position];
                        let yt = r.sampled[p.ytilde_position];
                        activated |= e;
                        detected |= e & (raw ^ yt); // the hardware log: e ∧ (y ⊕ ỹ)
                        escaped |= r.sampled[p.masked_position] ^ r.settled[p.masked_position];
                    }
                    s.cycles += c;
                    s.activations += activated.count_ones() as usize;
                    s.detected_errors += detected.count_ones() as usize;
                    s.escapes += escaped.count_ones() as usize;
                    i += c;
                }
            }
            LifetimeKernel::Scalar => {
                let sim = TimingSim::with_scale(&instrumented, scale.clone());
                for pair in vectors.windows(2) {
                    let r = sim.transition_with_sample_times(&pair[0], &pair[1], &sample_times);
                    s.cycles += 1;
                    let mut activated = false;
                    let mut detected = false;
                    let mut escaped = false;
                    for p in &probes {
                        let e = r.sampled[p.e_position];
                        let raw = r.sampled[p.raw_position];
                        let yt = r.sampled[p.ytilde_position];
                        if e {
                            activated = true;
                            if raw != yt {
                                detected = true; // the hardware log: e ∧ (y ⊕ ỹ)
                            }
                        }
                        if r.sampled[p.masked_position] != r.settled[p.masked_position] {
                            escaped = true;
                        }
                    }
                    if activated {
                        s.activations += 1;
                    }
                    if detected {
                        s.detected_errors += 1;
                    }
                    if escaped {
                        s.escapes += 1;
                    }
                }
            }
        }
        stats.push(s);
    }
    Ok(stats)
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
    fn packed_and_scalar_kernels_agree() {
        // The differential gate for the packed-kernel adoption: both
        // kernels must produce bit-identical epoch logs, including
        // under stress-pool mixing and a tight clock.
        let nl = comparator2(Arc::new(lsi10k_like()));
        let result = synthesize(&nl, MaskingOptions::default());
        let mut config = LifetimeConfig {
            epochs: 5,
            max_stress: 0.9,
            vectors_per_epoch: 131, // not a multiple of 64: ragged tail block
            ..Default::default()
        };
        config.stress_pool = tm_masking::inject::speedpath_patterns(&result, 6, 0xB00);
        config.pool_bias = 0.4;
        let design = result.design;
        let packed = run_lifetime_with(&design, &config, LifetimeKernel::Packed).unwrap();
        let scalar = run_lifetime_with(&design, &config, LifetimeKernel::Scalar).unwrap();
        assert_eq!(packed, scalar);
        assert!(packed.last().unwrap().detected_errors > 0, "{packed:?}");
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
        let bad_stress = LifetimeConfig { max_stress: f64::NAN, ..Default::default() };
        assert!(run_lifetime(&design, &bad_stress).is_err());
        let unprotected = MaskedDesign::unprotected(design.original.clone());
        let err = run_lifetime(&unprotected, &LifetimeConfig::default()).expect_err("unprotected");
        assert!(err.to_string().contains("protected"));
    }
}
