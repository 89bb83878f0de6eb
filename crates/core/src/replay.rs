//! One replay of the masked design: the capture model that every
//! dynamic experiment on it shares.
//!
//! The instrumented design ([`MaskedDesign::instrumented`]) exposes,
//! per protected output, the masked output `y'`, the raw original
//! output `y`, the prediction `ỹ` and the indicator `e`. Each clock
//! cycle a dynamic experiment asks four questions of them, and
//! [`CaptureModel::classify`] answers all four at once over 64 lanes:
//!
//! - **raw error** — some raw `y` mis-sampled (`y` sampled ≠ settled);
//! - **escape** — some masked output mis-sampled: the error got past
//!   masking;
//! - **activation** — some `e` sampled 1 (a speed-path was sensitized);
//! - **detection** — the wearout log `e ∧ (y ⊕ ỹ)` of §2.1 fired on
//!   some output.
//!
//! **The capture rule.** A protected output is sampled one *aged* MUX
//! delay after the clock edge: the MUX sits inside the capture stage,
//! the "marginal, quantifiable impact" the paper compensates during
//! synthesis. Every other output, probes included, samples at the
//! clock edge. [`CaptureModel::sample_times`] is the only place this
//! rule is written.
//!
//! **The stress map.** Wearout ages the original circuit's speed-path
//! gates (those critical at 0.9 Δ) at the aging model's speed-path
//! rate and every other gate at the base rate;
//! [`speedpath_stress_map`] marks them in combined gate-index space,
//! and [`check_stress_ramp`] keeps a stress ramp inside the model's
//! domain.
//!
//! [`CaptureModel::replay`] plays consecutive workload transitions
//! through the packed 64-lane timing kernel, 64 transitions per block,
//! and counts cycles per question. The packed kernel is bit-identical
//! to the scalar `TimingSim` lane by lane, so the counts equal a
//! per-vector scalar replay (`tests/replay_differential.rs` keeps the
//! scalar loop as the oracle).

use crate::design::{MaskedDesign, ProbeTriple};
use crate::inject::InjectionOutcome;
use tm_netlist::{Delay, Driver, Netlist};
use tm_resilience::{TmError, TmResult};
use tm_sim::func::PatternBlock;
use tm_sim::packed::{PackedTimingSim, PackedTransition};
use tm_sta::Sta;

/// Fraction of `Δ` above which an original gate counts as a speed-path
/// gate for aging.
const STRESS_TARGET: f64 = 0.9;

/// Per-lane answers to the four per-cycle questions, one bit per lane
/// (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeWords {
    /// Lanes where some raw protected output mis-sampled.
    pub raw_errors: u64,
    /// Lanes where some masked output mis-sampled.
    pub escapes: u64,
    /// Lanes where some indicator `e` sampled 1.
    pub activations: u64,
    /// Lanes where the wearout log `e ∧ (y ⊕ ỹ)` fired.
    pub detections: u64,
}

/// The instrumented masked design with its capture rule: what a replay
/// simulates, when each output samples, and how a cycle is classified.
#[derive(Clone, Debug)]
pub struct CaptureModel {
    netlist: Netlist,
    probes: Vec<ProbeTriple>,
    /// Per protected output: its output position, the gate index of its
    /// MUX and the MUX cell's nominal delay.
    muxes: Vec<(usize, usize, Delay)>,
}

impl CaptureModel {
    /// Instruments `design` (see [`MaskedDesign::instrumented`]).
    pub fn new(design: &MaskedDesign) -> Self {
        let (netlist, probes) = design.instrumented();
        let muxes = design
            .protected
            .iter()
            .filter_map(|p| match netlist.driver(p.masked) {
                Driver::Gate(mux) => {
                    let cell = netlist.library().cell(netlist.gate(mux).cell());
                    Some((p.position, mux.index(), cell.max_delay()))
                }
                Driver::PrimaryInput => None,
            })
            .collect();
        CaptureModel { netlist, probes, muxes }
    }

    /// The instrumented netlist (same gates as the combined one).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Probe positions per protected output, in protection order.
    pub fn probes(&self) -> &[ProbeTriple] {
        &self.probes
    }

    /// Per-output sample times under per-gate delay factors `scale`: a
    /// protected output samples at `clock` plus its MUX's aged delay,
    /// every other output at `clock`.
    pub fn sample_times(&self, scale: &[f64], clock: Delay) -> Vec<Delay> {
        let mut times = vec![clock; self.netlist.outputs().len()];
        for &(position, mux, delay) in &self.muxes {
            times[position] = clock + delay * scale[mux];
        }
        times
    }

    /// Checks that `scale` has one finite positive factor per gate and
    /// that every vector has one value per primary input.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] naming the first violation.
    pub fn check_inputs(&self, scale: &[f64], vectors: &[Vec<bool>]) -> TmResult<()> {
        if scale.len() != self.netlist.num_gates() {
            return Err(TmError::invalid_input(format!(
                "one scale factor per gate: got {}, netlist has {}",
                scale.len(),
                self.netlist.num_gates()
            )));
        }
        for &f in scale {
            check_scale_factor(f)?;
        }
        let arity = self.netlist.inputs().len();
        if let Some(bad) = vectors.iter().find(|v| v.len() != arity) {
            return Err(TmError::invalid_input(format!(
                "workload vector arity {} does not match {} primary inputs",
                bad.len(),
                arity
            )));
        }
        Ok(())
    }

    /// Answers the four per-cycle questions for every lane of one
    /// packed transition block.
    #[inline]
    pub fn classify(&self, r: &PackedTransition) -> ProbeWords {
        let mut w = ProbeWords::default();
        for p in &self.probes {
            let e = r.sampled[p.e_position];
            let raw = r.sampled[p.raw_position];
            w.raw_errors |= raw ^ r.settled[p.raw_position];
            w.escapes |= r.sampled[p.masked_position] ^ r.settled[p.masked_position];
            w.activations |= e;
            w.detections |= e & (raw ^ r.sampled[p.ytilde_position]);
        }
        w
    }

    /// Replays `vectors` as consecutive clock cycles of period `clock`
    /// under per-gate delay factors `scale` and counts the cycles on
    /// which each question is answered yes. Fewer than two vectors mean
    /// zero cycles and all-zero counts.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when [`CaptureModel::check_inputs`] rejects
    /// `scale` or `vectors`.
    pub fn replay(
        &self,
        scale: &[f64],
        clock: Delay,
        vectors: &[Vec<bool>],
    ) -> TmResult<InjectionOutcome> {
        self.check_inputs(scale, vectors)?;
        let sample_times = self.sample_times(scale, clock);
        let sim = PackedTimingSim::with_scale(&self.netlist, scale);
        let mut outcome = InjectionOutcome::default();
        let n = vectors.len();
        let mut i = 0;
        while i + 1 < n {
            let lanes = (n - 1 - i).min(64);
            let prev = PatternBlock::from_patterns(&vectors[i..i + lanes]);
            let next = PatternBlock::from_patterns(&vectors[i + 1..i + 1 + lanes]);
            let w = self.classify(&sim.transition_block(&prev, &next, &sample_times));
            outcome.cycles += lanes;
            outcome.raw_errors += w.raw_errors.count_ones() as usize;
            outcome.masked_errors += w.escapes.count_ones() as usize;
            outcome.activations += w.activations.count_ones() as usize;
            outcome.detected_errors += w.detections.count_ones() as usize;
            i += lanes;
        }
        Ok(outcome)
    }
}

/// Validates a per-gate delay scale factor: aging can only be a finite,
/// positive multiplier.
pub(crate) fn check_scale_factor(factor: f64) -> TmResult<()> {
    if !factor.is_finite() || factor <= 0.0 {
        return Err(TmError::invalid_input(format!(
            "aging factor must be finite and positive, got {factor}"
        )));
    }
    Ok(())
}

/// The speed-path stress map: per gate of the combined netlist, whether
/// it is an original-circuit gate critical at 0.9 Δ. Returns the
/// original circuit's `Δ` (the nominal clock) beside the map.
pub fn speedpath_stress_map(design: &MaskedDesign) -> (Delay, Vec<bool>) {
    let sta = Sta::new(&design.original);
    let delta = sta.critical_path_delay();
    let critical = sta.critical_gates(delta * STRESS_TARGET);
    let (original, _, _) = design.combined_partition();
    let stressed = (0..design.combined.num_gates())
        .map(|g| original.contains(&g) && critical.get(g).copied().unwrap_or(false))
        .collect();
    (delta, stressed)
}

/// Checks that a stress ramp ending at `max_stress` stays inside the
/// aging model's domain `[0, 2]` (up to 2× end-of-life extrapolation).
///
/// # Errors
///
/// Returns [`TmError`] when `max_stress` is NaN or outside `[0, 2]`.
pub fn check_stress_ramp(max_stress: f64) -> TmResult<()> {
    if !(0.0..=2.0).contains(&max_stress) {
        return Err(TmError::invalid_input(format!(
            "max_stress must be in [0, 2] (the aging model's domain), got {max_stress}"
        )));
    }
    Ok(())
}

/// The stress of epoch `epoch` on a linear `0 → max_stress` ramp over
/// `epochs` epochs; a one-epoch ramp sits at `max_stress`.
pub fn ramp_stress(max_stress: f64, epoch: usize, epochs: usize) -> f64 {
    if epochs == 1 {
        max_stress
    } else {
        max_stress * epoch as f64 / (epochs - 1) as f64
    }
}
