//! Adaptive speed-up of critical gates using body bias — the second of
//! the paper's §6 future-research directions, implemented.
//!
//! The wearout log (`e ∧ (y ⊕ ỹ)`, §2.1) tells the system *when*
//! speed-paths have degraded; forward body bias tells it what to do
//! about it: lower the threshold voltage of the speed-path gates,
//! buying delay back at a leakage cost. [`AdaptiveBiasController`]
//! closes the loop: it watches the masked-error rate epoch by epoch and
//! applies one bias step whenever the rate crosses a threshold — while
//! the masking circuit guarantees nothing escapes in the meantime.
//! Each epoch is one [`CaptureModel::replay`] of the biased design.

use tm_masking::{check_stress_ramp, ramp_stress, speedpath_stress_map, CaptureModel, MaskedDesign};
use tm_resilience::{TmError, TmResult};
use tm_sim::aging::AgingModel;

/// Configuration of the closed-loop bias controller.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveBiasController {
    /// Masked-error rate that triggers a bias step.
    pub trigger_rate: f64,
    /// Per-step delay speed-up of the biased (speed-path) gates, as a
    /// multiplier < 1 (e.g. 0.95 = 5 % faster).
    pub speedup_per_step: f64,
    /// Maximum number of bias steps the hardware supports.
    pub max_steps: usize,
    /// Relative leakage-power cost per bias step (reported, not
    /// simulated).
    pub leakage_per_step: f64,
}

impl Default for AdaptiveBiasController {
    fn default() -> Self {
        AdaptiveBiasController {
            trigger_rate: 0.01,
            speedup_per_step: 0.94,
            max_steps: 3,
            leakage_per_step: 0.05,
        }
    }
}

/// One epoch of a closed-loop run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BiasEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Aging stress during the epoch.
    pub stress: f64,
    /// Bias steps active during the epoch.
    pub bias_steps: usize,
    /// Cycles simulated.
    pub cycles: usize,
    /// Masked-error log events (`e ∧ (y ⊕ ỹ)`).
    pub detected_errors: usize,
    /// Errors that escaped masking (must stay 0 inside the protected
    /// band).
    pub escapes: usize,
}

impl BiasEpoch {
    /// Masked-error rate of the epoch.
    pub fn error_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.detected_errors as f64 / self.cycles as f64
        }
    }
}

/// Result of a closed-loop lifetime run.
#[derive(Clone, Debug)]
pub struct BiasRun {
    /// Per-epoch log.
    pub epochs: Vec<BiasEpoch>,
    /// Bias steps applied by the end of the run.
    pub final_bias_steps: usize,
    /// Total relative leakage cost at the end of the run.
    pub leakage_cost: f64,
}

impl AdaptiveBiasController {
    /// Runs a closed-loop lifetime simulation: aging stress sweeps
    /// linearly to `max_stress` across `epochs`; after each epoch whose
    /// masked-error rate exceeds the trigger, one bias step is applied
    /// to the speed-path gates of the original circuit.
    ///
    /// `workload` supplies the vectors replayed each epoch (the same
    /// workload each epoch, so rate changes reflect aging and bias, not
    /// input drift).
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when the design is unprotected, the workload
    /// has fewer than two vectors or the wrong arity, `epochs == 0`, or
    /// `max_stress` is outside the aging model's `[0, 2]`.
    pub fn run(
        &self,
        design: &MaskedDesign,
        model: &AgingModel,
        epochs: usize,
        max_stress: f64,
        workload: &[Vec<bool>],
    ) -> TmResult<BiasRun> {
        if !design.is_protected() {
            return Err(TmError::invalid_input("bias control needs protected outputs"));
        }
        if workload.len() < 2 || epochs < 1 {
            return Err(TmError::invalid_input(format!(
                "degenerate bias run: {epochs} epochs, {} workload vectors (need >= 1 and >= 2)",
                workload.len()
            )));
        }
        check_stress_ramp(max_stress)?;

        let (clock, stressed) = speedpath_stress_map(design);
        let capture = CaptureModel::new(design);
        let mut bias_steps = 0usize;
        let mut log = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let stress = ramp_stress(max_stress, epoch, epochs);
            let mut scale = model.scale_factors(capture.netlist(), &stressed, stress);
            // Forward body bias speeds up exactly the stressed gates.
            let bias = self.speedup_per_step.powi(bias_steps as i32);
            for (s, &hot) in scale.iter_mut().zip(&stressed) {
                if hot {
                    *s = (*s * bias).max(0.4);
                }
            }
            let o = capture.replay(&scale, clock, workload)?;
            let stat = BiasEpoch {
                epoch,
                stress,
                bias_steps,
                cycles: o.cycles,
                detected_errors: o.detected_errors,
                escapes: o.masked_errors,
            };
            let rate = stat.error_rate();
            log.push(stat);
            if rate > self.trigger_rate && bias_steps < self.max_steps {
                bias_steps += 1;
            }
        }

        Ok(BiasRun {
            epochs: log,
            final_bias_steps: bias_steps,
            leakage_cost: bias_steps as f64 * self.leakage_per_step,
        })
    }
}

/// Reference run with adaptation disabled (max_steps = 0), for
/// comparisons.
///
/// # Errors
///
/// Same contract as [`AdaptiveBiasController::run`].
pub fn unadapted_run(
    design: &MaskedDesign,
    model: &AgingModel,
    epochs: usize,
    max_stress: f64,
    workload: &[Vec<bool>],
) -> TmResult<BiasRun> {
    let controller = AdaptiveBiasController { max_steps: 0, ..Default::default() };
    controller.run(design, model, epochs, max_stress, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_masking::{speedpath_patterns, synthesize, MaskingOptions};
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_sim::patterns::random_vectors;

    fn setup() -> (tm_masking::MaskingResult, Vec<Vec<bool>>) {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let result = synthesize(&nl, MaskingOptions::default());
        let mut workload = random_vectors(4, 400, 77);
        for (k, s) in speedpath_patterns(&result, 100, 3).into_iter().enumerate() {
            workload.insert((k * 3 + 1) % workload.len(), s);
        }
        (result, workload)
    }

    #[test]
    fn adaptation_reduces_error_rate() {
        let (result, workload) = setup();
        let model = AgingModel { jitter: 0.0, ..AgingModel::default() };
        let controller = AdaptiveBiasController::default();
        let adapted = controller.run(&result.design, &model, 8, 0.9, &workload).unwrap();
        let frozen = unadapted_run(&result.design, &model, 8, 0.9, &workload).unwrap();

        assert!(adapted.final_bias_steps > 0, "controller never triggered: {adapted:?}");
        // No escapes in either mode while inside the protected band.
        assert!(adapted.epochs.iter().all(|e| e.escapes == 0));
        assert!(frozen.epochs.iter().all(|e| e.escapes == 0));
        // Total masked errors drop with adaptation.
        let total = |r: &BiasRun| r.epochs.iter().map(|e| e.detected_errors).sum::<usize>();
        assert!(
            total(&adapted) < total(&frozen),
            "adaptation did not help: {} vs {}",
            total(&adapted),
            total(&frozen)
        );
        assert!(adapted.leakage_cost > 0.0);
    }

    #[test]
    fn fresh_silicon_never_triggers() {
        let (result, workload) = setup();
        let model = AgingModel { jitter: 0.0, ..AgingModel::default() };
        let run =
            AdaptiveBiasController::default().run(&result.design, &model, 3, 0.0, &workload).unwrap();
        assert_eq!(run.final_bias_steps, 0);
        assert_eq!(run.leakage_cost, 0.0);
        assert!(run.epochs.iter().all(|e| e.detected_errors == 0));
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        let (result, workload) = setup();
        let design = &result.design;
        let model = AgingModel::default();
        let controller = AdaptiveBiasController::default();
        assert!(controller.run(design, &model, 0, 0.9, &workload).is_err());
        assert!(controller.run(design, &model, 4, 0.9, &workload[..1]).is_err());
        for max_stress in [f64::NAN, -0.1, 2.5] {
            assert!(controller.run(design, &model, 4, max_stress, &workload).is_err());
            assert!(unadapted_run(design, &model, 4, max_stress, &workload).is_err());
        }
        let bad_arity = vec![vec![false; 3], vec![true; 3]];
        assert!(controller.run(design, &model, 2, 0.5, &bad_arity).is_err());
        let unprotected = MaskedDesign::unprotected(design.original.clone());
        let err = controller.run(&unprotected, &model, 4, 0.9, &workload).expect_err("unprotected");
        assert!(err.to_string().contains("protected"));
    }
}
