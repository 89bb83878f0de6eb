//! Fleet-scale lifetime simulation: millions of virtual chips running
//! the paper's masked-error monitor.
//!
//! The paper's §2.1 applications — wearout prediction, silicon debug,
//! DVS — are *fleet* phenomena: aging trends emerge from populations
//! of chips, not from one device. This crate drives the
//! hardware-observable monitor signal `e ∧ (y ⊕ ỹ)` across a fleet of
//! chip instances of one masked design, each with its own seeded aging
//! trajectory and workload, and watches an online trend detector flag
//! slowing chips for a DVS step-down *before* their first unmasked
//! escape.
//!
//! # How a million chips fit in one process
//!
//! - **Delay classes.** Per-chip aged delay realizations are bucketed
//!   into `delay_classes` discrete stress levels, so chips of a class
//!   share one compiled schedule
//!   ([`tm_sim::packed::PackedTimingSim`]) instead of one simulator
//!   per chip.
//! - **64 chips per word op.** Within a class, chips ride the packed
//!   kernel's lanes: one `u64` per net carries 64 chips' values, and
//!   one transition block advances 64 chips by one cycle.
//! - **Shards.** The fleet splits into contiguous per-worker shards
//!   over `std::thread::scope`. Every per-chip quantity is a pure
//!   function of `(seed, chip_id, epoch)` — chip seeds derive as
//!   `seed ^ fnv1a64(chip_id)`, the fault-plane convention — so
//!   shard boundaries cannot influence results, and per-epoch
//!   [`ShardAggregate`]s merge to bit-identical totals for every
//!   `jobs` count (see the determinism suite).
//! - **Aggregates, not logs.** Workers return compact
//!   [`ShardAggregate`]s (counts plus a mergeable
//!   [`tm_telemetry::Digest`] of per-chip error rates); per-chip state
//!   is two bits.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tm_fleet::{run_fleet, FleetConfig};
//! use tm_masking::{synthesize, MaskingOptions};
//! use tm_netlist::{circuits::comparator2, library::lsi10k_like};
//!
//! let nl = comparator2(Arc::new(lsi10k_like()));
//! let design = synthesize(&nl, MaskingOptions::default()).design;
//! let config = FleetConfig { chips: 256, epochs: 6, ..Default::default() };
//! let result = run_fleet(&design, &config).expect("valid fleet config");
//! assert_eq!(result.epochs.len(), 6);
//! // Aging fleet: masked errors appear, and the trend detector flags
//! // chips for DVS step-down.
//! assert!(result.epochs.last().unwrap().detected > 0);
//! assert!(result.flagged_chips > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use tm_masking::{ramp_stress, speedpath_stress_map, CaptureModel, MaskedDesign};
use tm_monitor::wearout::{EpochStats, WearoutAssessment, WearoutPredictor};
use tm_netlist::Delay;
use tm_resilience::{TmError, TmResult};
use tm_sim::aging::AgingModel;
use tm_sim::func::PatternBlock;
use tm_sim::packed::PackedTimingSim;
use tm_sim::timing::TimingSim;
use tm_telemetry::Digest;
use tm_testkit::rng::{fnv1a64, Rng};

/// Chip-state bit: the trend detector has flagged this chip for a DVS
/// step-down (sticky; takes effect the epoch after it is set).
const FLAGGED: u8 = 1;
/// Chip-state bit: this chip's unmasked escape (while still unflagged)
/// has been counted, so it is not counted again.
const ESCAPED: u8 = 2;

/// Slowest per-chip aging rate multiplier (fraction of the fleet ramp).
const RATE_MIN: f64 = 0.75;
/// Fastest per-chip aging rate multiplier.
const RATE_MAX: f64 = 1.25;

/// Which timed kernel runs the fleet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FleetKernel {
    /// The 64-lane packed kernel: 64 chips of one delay class advance
    /// per word op. The default.
    #[default]
    Packed,
    /// One scalar event-driven simulation per chip per cycle — the
    /// per-chip baseline the bench compares against, and the
    /// bit-identity oracle for the differential suite.
    Scalar,
}

/// Configuration of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of chip instances.
    pub chips: usize,
    /// First chip id (global ids are `chip_base + index`); lets a fleet
    /// be split into chunked runs that merge to the whole-fleet result.
    pub chip_base: u64,
    /// Number of epochs; the fleet-wide stress ramp sweeps 0 →
    /// `max_stress` linearly across them.
    pub epochs: usize,
    /// Monitored clock cycles (input transitions) per chip per epoch.
    pub cycles_per_epoch: usize,
    /// Master seed: every per-chip stream derives from it via
    /// `seed ^ fnv1a64(chip_id)`.
    pub seed: u64,
    /// Fleet-wide stress level reached at the last epoch (per-chip
    /// rates spread it by ×0.75..×1.25).
    pub max_stress: f64,
    /// Number of discrete delay classes chips are bucketed into.
    pub delay_classes: usize,
    /// The delay-degradation model (applied per class).
    pub model: AgingModel,
    /// Clock period; defaults to the original circuit's `Δ`.
    pub clock: Option<Delay>,
    /// Per-epoch masked-error rate above which the online trend
    /// detector flags a chip for DVS step-down.
    pub onset_threshold: f64,
    /// Clock-period stretch applied to flagged chips (the DVS
    /// step-down): ≥ 1.
    pub dvs_stretch: f64,
    /// Worker threads (shards). Results are bit-identical for every
    /// value.
    pub jobs: usize,
    /// Which kernel to run.
    pub kernel: FleetKernel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            chips: 4096,
            chip_base: 0,
            epochs: 12,
            cycles_per_epoch: 16,
            seed: 0xF1EE7,
            max_stress: 1.1,
            delay_classes: 8,
            model: AgingModel { jitter: 0.0, ..AgingModel::default() },
            clock: None,
            onset_threshold: 0.005,
            dvs_stretch: 1.2,
            jobs: 1,
            kernel: FleetKernel::Packed,
        }
    }
}

/// One epoch's compact aggregate over a shard (or, after merging, over
/// the fleet). All fields are exact integer counts except `rate_ppm`,
/// whose per-chip samples are integers ≤ 10⁶ — so [`merge`] totals are
/// bit-identical regardless of how the fleet was sharded.
///
/// [`merge`]: ShardAggregate::merge
#[derive(Clone, Debug, PartialEq)]
pub struct ShardAggregate {
    /// Epoch index this aggregate covers.
    pub epoch: usize,
    /// Chips simulated.
    pub chips: u64,
    /// Monitored cycles (chips × cycles_per_epoch).
    pub cycles: u64,
    /// Cycles where any indicator `e` sampled 1.
    pub activations: u64,
    /// Cycles where the hardware log `e ∧ (y ⊕ ỹ)` fired.
    pub detected: u64,
    /// Cycles where a masked output itself mis-sampled.
    pub escapes: u64,
    /// Chips newly flagged for DVS step-down this epoch.
    pub flagged_new: u64,
    /// Chips carrying the flag at epoch end.
    pub flagged_total: u64,
    /// Chips whose first unmasked escape arrived while still unflagged
    /// (each chip counted once, ever): the detector's misses.
    pub escapes_before_flag: u64,
    /// Per-chip masked-error rates, in parts per million of cycles.
    pub rate_ppm: Digest,
    /// Chips per delay class this epoch.
    pub class_chips: Vec<u64>,
    /// Cycles per delay class this epoch.
    pub class_cycles: Vec<u64>,
    /// Detected (masked) errors per delay class this epoch.
    pub class_detected: Vec<u64>,
}

impl ShardAggregate {
    /// An empty aggregate for one epoch over `classes` delay classes.
    pub fn empty(epoch: usize, classes: usize) -> Self {
        ShardAggregate {
            epoch,
            chips: 0,
            cycles: 0,
            activations: 0,
            detected: 0,
            escapes: 0,
            flagged_new: 0,
            flagged_total: 0,
            escapes_before_flag: 0,
            rate_ppm: Digest::default(),
            class_chips: vec![0; classes],
            class_cycles: vec![0; classes],
            class_detected: vec![0; classes],
        }
    }

    /// Folds another shard's aggregate into this one. Counts are plain
    /// sums (associative, order-insensitive); the digest's f64 `sum` is
    /// order-sensitive in general, so the driver always merges in shard
    /// order — with this crate's integer ppm samples the sums happen to
    /// be exact either way, which is what makes `--jobs`-independence
    /// bit-exact.
    ///
    /// # Panics
    ///
    /// Panics when the aggregates cover different epochs or class
    /// counts (programmer error: only same-epoch shards merge).
    pub fn merge(&mut self, other: &ShardAggregate) {
        assert_eq!(self.epoch, other.epoch, "cross-epoch merge");
        assert_eq!(self.class_chips.len(), other.class_chips.len(), "class count mismatch");
        self.chips += other.chips;
        self.cycles += other.cycles;
        self.activations += other.activations;
        self.detected += other.detected;
        self.escapes += other.escapes;
        self.flagged_new += other.flagged_new;
        self.flagged_total += other.flagged_total;
        self.escapes_before_flag += other.escapes_before_flag;
        self.rate_ppm.merge(&other.rate_ppm);
        for (a, b) in self.class_chips.iter_mut().zip(&other.class_chips) {
            *a += b;
        }
        for (a, b) in self.class_cycles.iter_mut().zip(&other.class_cycles) {
            *a += b;
        }
        for (a, b) in self.class_detected.iter_mut().zip(&other.class_detected) {
            *a += b;
        }
    }

    /// Fleet-wide masked-error rate this epoch.
    pub fn error_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.detected as f64 / self.cycles as f64
        }
    }
}

/// Offline wearout assessment of one delay-class cohort.
#[derive(Clone, Debug, PartialEq)]
pub struct CohortAssessment {
    /// Delay-class index.
    pub class: usize,
    /// The class's stress level.
    pub stress: f64,
    /// Chips in the cohort at the final epoch.
    pub chips: u64,
    /// The rate-crossing analysis of the cohort's epoch series.
    pub assessment: WearoutAssessment,
}

/// Result of a whole fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetResult {
    /// One merged aggregate per epoch.
    pub epochs: Vec<ShardAggregate>,
    /// Per-delay-class wearout assessments.
    pub cohorts: Vec<CohortAssessment>,
    /// Chips flagged for DVS step-down by the end of the run.
    pub flagged_chips: u64,
    /// Chips that escaped before the detector flagged them.
    pub escapes_before_flag: u64,
}

/// What one shard worker hands back to the driver.
struct ShardOut {
    agg: ShardAggregate,
    telemetry: tm_telemetry::Snapshot,
    trace: Vec<tm_telemetry::flight::TraceEvent>,
}

/// Everything epoch workers read (immutable per run).
struct FleetPlan {
    /// The instrumented design, its capture rule and probe classifier.
    capture: CaptureModel,
    /// Per class: per-gate delay scale factors.
    scales: Vec<Vec<f64>>,
    /// Per class: per-output sample times at the nominal clock.
    sample_times: Vec<Vec<Delay>>,
    /// Per class: sample times after the DVS step-down stretch.
    dvs_times: Vec<Vec<Delay>>,
    /// Per class: the stress level the class represents.
    class_stress: Vec<f64>,
    /// Top of the per-chip stress range (`max_stress * RATE_MAX`).
    stress_cap: f64,
}

/// A fleet simulator: compiled per-class schedules plus two bits of
/// state per chip. Drive it epoch by epoch with [`FleetSim::run_epoch`]
/// (perfbench's `fleet_lifetime` times each), or use [`run_fleet`] for the
/// whole lifetime.
pub struct FleetSim {
    config: FleetConfig,
    plan: FleetPlan,
    /// Per-chip sticky state ([`FLAGGED`] / [`ESCAPED`] bits).
    state: Vec<u8>,
    epoch: usize,
}

impl FleetSim {
    /// Validates the config and compiles the per-class schedules.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when the design is unprotected, has more
    /// than 64 inputs (one chip's vector must fit a lane word), or the
    /// config is degenerate.
    pub fn new(design: &MaskedDesign, config: &FleetConfig) -> TmResult<FleetSim> {
        if !design.is_protected() {
            return Err(TmError::invalid_input("fleet monitoring needs protected outputs"));
        }
        if config.chips < 1 || config.epochs < 1 || config.cycles_per_epoch < 1 {
            return Err(TmError::invalid_input(format!(
                "degenerate fleet config: {} chips, {} epochs, {} cycles per epoch",
                config.chips, config.epochs, config.cycles_per_epoch
            )));
        }
        if config.delay_classes < 1 || config.jobs < 1 {
            return Err(TmError::invalid_input(format!(
                "degenerate fleet config: {} delay classes, {} jobs (need >= 1)",
                config.delay_classes, config.jobs
            )));
        }
        if !config.max_stress.is_finite() || config.max_stress <= 0.0 {
            return Err(TmError::invalid_input(format!(
                "max_stress must be finite and positive, got {}",
                config.max_stress
            )));
        }
        if !config.dvs_stretch.is_finite() || config.dvs_stretch < 1.0 {
            return Err(TmError::invalid_input(format!(
                "dvs_stretch must be finite and >= 1, got {}",
                config.dvs_stretch
            )));
        }
        if !config.onset_threshold.is_finite() || config.onset_threshold < 0.0 {
            return Err(TmError::invalid_input(format!(
                "onset_threshold must be finite and non-negative, got {}",
                config.onset_threshold
            )));
        }

        let capture = CaptureModel::new(design);
        let num_inputs = capture.netlist().inputs().len();
        if num_inputs > 64 {
            return Err(TmError::invalid_input(format!(
                "fleet lanes need <= 64 inputs, design has {num_inputs}"
            )));
        }
        let (delta, stressed) = speedpath_stress_map(design);
        let clock = config.clock.unwrap_or(delta);

        // The class grid spans the whole reachable per-chip stress
        // range (ramp × fastest rate).
        let stress_cap = config.max_stress * RATE_MAX;
        let classes = config.delay_classes;
        let class_stress: Vec<f64> = (0..classes)
            .map(|k| {
                if classes == 1 {
                    stress_cap * 0.5
                } else {
                    stress_cap * k as f64 / (classes - 1) as f64
                }
            })
            .collect();

        let mut scales = Vec::with_capacity(classes);
        let mut sample_times = Vec::with_capacity(classes);
        let mut dvs_times = Vec::with_capacity(classes);
        for &stress in &class_stress {
            // The aging model extrapolates up to 2× end-of-life; clamp
            // the top classes of aggressive ramps into its domain.
            let scale = config.model.scale_factors(capture.netlist(), &stressed, stress.min(2.0));
            let times = capture.sample_times(&scale, clock);
            let stretched: Vec<Delay> = times.iter().map(|&t| t * config.dvs_stretch).collect();
            scales.push(scale);
            sample_times.push(times);
            dvs_times.push(stretched);
        }

        Ok(FleetSim {
            config: config.clone(),
            plan: FleetPlan {
                capture,
                scales,
                sample_times,
                dvs_times,
                class_stress,
                stress_cap,
            },
            state: vec![0u8; config.chips],
            epoch: 0,
        })
    }

    /// Epochs simulated so far.
    pub fn epochs_run(&self) -> usize {
        self.epoch
    }

    /// The stress level each delay class represents.
    pub fn class_stress(&self) -> &[f64] {
        &self.plan.class_stress
    }

    /// Simulates the next epoch across all shards and returns the
    /// merged fleet aggregate.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when called past the configured epoch count.
    pub fn run_epoch(&mut self) -> TmResult<ShardAggregate> {
        if self.epoch >= self.config.epochs {
            return Err(TmError::invalid_input(format!(
                "fleet already ran its {} epochs",
                self.config.epochs
            )));
        }
        let epoch = self.epoch;
        self.epoch += 1;
        let _span = tm_telemetry::span::enter("fleet.epoch");

        let config = &self.config;
        let plan = &self.plan;
        let chips = config.chips;
        let jobs = config.jobs.min(chips).max(1);
        let chunk = chips.div_ceil(jobs);
        let telemetry_on = tm_telemetry::enabled();
        let flight_on = tm_telemetry::flight::recording();
        let trace_id = tm_telemetry::flight::current_trace_id();

        let mut outs: Vec<ShardOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .state
                .chunks_mut(chunk)
                .enumerate()
                .map(|(w, states)| {
                    let chip_lo = w * chunk;
                    scope.spawn(move || {
                        shard_epoch(
                            plan,
                            config,
                            epoch,
                            chip_lo,
                            states,
                            telemetry_on,
                            flight_on.then_some(trace_id),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fleet worker panicked")).collect()
        });

        // Absorb worker telemetry in shard order, then merge aggregates
        // in the same order: deterministic for every jobs count.
        for out in &mut outs {
            tm_telemetry::absorb(&out.telemetry);
            tm_telemetry::flight::absorb_events(std::mem::take(&mut out.trace));
        }
        let _merge =
            tm_telemetry::flight::phase_with("fleet.merge", &[("shards", outs.len() as f64)]);
        let mut agg = ShardAggregate::empty(epoch, config.delay_classes);
        for out in &outs {
            agg.merge(&out.agg);
        }
        tm_telemetry::counter_add("fleet.epochs", 1);
        tm_telemetry::counter_add("fleet.cycles", agg.cycles);
        tm_telemetry::counter_add("fleet.activations", agg.activations);
        tm_telemetry::counter_add("fleet.detected", agg.detected);
        tm_telemetry::counter_add("fleet.escapes", agg.escapes);
        tm_telemetry::counter_add("fleet.flagged", agg.flagged_new);
        Ok(agg)
    }

    /// Per-delay-class wearout assessments over a completed epoch
    /// series, using [`WearoutPredictor`] rate-crossing logic on each
    /// cohort's detected-error trajectory.
    pub fn assess_cohorts(&self, epochs: &[ShardAggregate]) -> Vec<CohortAssessment> {
        let predictor = WearoutPredictor {
            onset_threshold: self.config.onset_threshold,
            ..WearoutPredictor::default()
        };
        (0..self.config.delay_classes)
            .map(|k| {
                let series: Vec<EpochStats> = epochs
                    .iter()
                    .map(|a| EpochStats {
                        epoch: a.epoch,
                        stress: self.plan.class_stress[k],
                        cycles: a.class_cycles[k] as usize,
                        activations: 0,
                        detected_errors: a.class_detected[k] as usize,
                        escapes: 0,
                    })
                    .collect();
                CohortAssessment {
                    class: k,
                    stress: self.plan.class_stress[k],
                    chips: epochs.last().map(|a| a.class_chips[k]).unwrap_or(0),
                    assessment: predictor.assess(&series),
                }
            })
            .collect()
    }
}

/// Runs a whole fleet lifetime: every epoch, then the per-cohort
/// offline assessment.
///
/// # Errors
///
/// Same contract as [`FleetSim::new`].
pub fn run_fleet(design: &MaskedDesign, config: &FleetConfig) -> TmResult<FleetResult> {
    let _span = tm_telemetry::span::enter("fleet.run");
    let mut sim = FleetSim::new(design, config)?;
    let mut epochs = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        epochs.push(sim.run_epoch()?);
    }
    tm_telemetry::counter_add("fleet.chips", config.chips as u64);
    let cohorts = sim.assess_cohorts(&epochs);
    let flagged_chips = epochs.last().map(|a| a.flagged_total).unwrap_or(0);
    let escapes_before_flag = epochs.iter().map(|a| a.escapes_before_flag).sum();
    Ok(FleetResult { epochs, cohorts, flagged_chips, escapes_before_flag })
}

/// The per-chip master seed: the fault-plane derivation convention.
fn chip_seed(config: &FleetConfig, chip_id: u64) -> u64 {
    config.seed ^ fnv1a64(&chip_id.to_le_bytes())
}

/// This chip's delay class at `epoch`: the fleet ramp times the chip's
/// own aging rate, snapped to the class grid. Purely chip-local, so
/// shard and lane grouping cannot influence it.
fn chip_class(plan: &FleetPlan, config: &FleetConfig, epoch: usize, chip_id: u64) -> usize {
    let mut rng = Rng::seed_from_u64(chip_seed(config, chip_id) ^ fnv1a64(b"aging"));
    let rate = RATE_MIN + (RATE_MAX - RATE_MIN) * rng.next_f64();
    let stress = ramp_stress(config.max_stress, epoch, config.epochs) * rate;
    let classes = plan.class_stress.len();
    if classes == 1 {
        return 0;
    }
    let k = (stress / plan.stress_cap * (classes - 1) as f64).round();
    (k.max(0.0) as usize).min(classes - 1)
}

/// This chip's epoch workload: `cycles + 1` input vectors packed one
/// per `u64` (bit `j` = input `j`), from the chip's dedicated
/// per-epoch stream.
fn chip_words(config: &FleetConfig, epoch: usize, chip_id: u64, num_inputs: usize) -> Vec<u64> {
    let mut rng =
        Rng::seed_from_u64(chip_seed(config, chip_id) ^ fnv1a64(b"workload") ^ epoch as u64);
    let mask = if num_inputs == 64 { u64::MAX } else { (1u64 << num_inputs) - 1 };
    (0..=config.cycles_per_epoch).map(|_| rng.next_u64() & mask).collect()
}

/// Per-chip epoch outcome, before it folds into the aggregate.
#[derive(Clone, Copy)]
struct ChipEpoch {
    activations: u64,
    detected: u64,
    escapes: u64,
}

/// Folds one chip's epoch into the shard aggregate and advances its
/// sticky state (flagging takes effect next epoch).
fn finalize_chip(
    agg: &mut ShardAggregate,
    state: &mut u8,
    class: usize,
    was_flagged: bool,
    outcome: ChipEpoch,
    cycles: u64,
    onset_threshold: f64,
) {
    agg.chips += 1;
    agg.cycles += cycles;
    agg.activations += outcome.activations;
    agg.detected += outcome.detected;
    agg.escapes += outcome.escapes;
    agg.class_chips[class] += 1;
    agg.class_cycles[class] += cycles;
    agg.class_detected[class] += outcome.detected;
    let ppm = outcome.detected * 1_000_000 / cycles;
    agg.rate_ppm.record(ppm);
    if outcome.escapes > 0 && !was_flagged && *state & ESCAPED == 0 {
        agg.escapes_before_flag += 1;
        *state |= ESCAPED;
    }
    if *state & FLAGGED == 0 && (ppm as f64) > onset_threshold * 1e6 {
        *state |= FLAGGED;
        agg.flagged_new += 1;
    }
    if *state & FLAGGED != 0 {
        agg.flagged_total += 1;
    }
}

/// Adds each set bit of `word` into the per-lane counters.
#[inline]
fn add_bits(counts: &mut [u64], mut word: u64) {
    while word != 0 {
        let lane = word.trailing_zeros() as usize;
        counts[lane] += 1;
        word &= word - 1;
    }
}

/// One shard worker: classifies its chips, groups them by
/// `(delay class, flagged)`, and runs each group through the chosen
/// kernel.
fn shard_epoch(
    plan: &FleetPlan,
    config: &FleetConfig,
    epoch: usize,
    chip_lo: usize,
    states: &mut [u8],
    telemetry_on: bool,
    flight_trace: Option<u64>,
) -> ShardOut {
    if telemetry_on {
        tm_telemetry::set_thread_enabled(Some(true));
    }
    if let Some(trace_id) = flight_trace {
        tm_telemetry::flight::set_thread_recording(Some(true));
        tm_telemetry::flight::set_ambient_trace_id(trace_id);
    }
    let agg = {
        let _phase = tm_telemetry::flight::phase_with(
            "fleet.shard",
            &[("chips", states.len() as f64), ("epoch", epoch as f64)],
        );
        let mut agg = ShardAggregate::empty(epoch, config.delay_classes);
        let cycles = config.cycles_per_epoch;
        let netlist = plan.capture.netlist();
        let num_inputs = netlist.inputs().len();

        // Group chips by (class, flagged): one compiled schedule and
        // one sample-time vector per group. BTreeMap keeps worker-local
        // iteration deterministic.
        let mut groups: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
        for (i, st) in states.iter().enumerate() {
            let chip_id = config.chip_base + (chip_lo + i) as u64;
            let class = chip_class(plan, config, epoch, chip_id);
            groups.entry((class, st & FLAGGED != 0)).or_default().push(i);
        }

        for ((class, flagged), members) in &groups {
            let times =
                if *flagged { &plan.dvs_times[*class] } else { &plan.sample_times[*class] };
            match config.kernel {
                FleetKernel::Packed => {
                    let sim = PackedTimingSim::with_scale(netlist, &plan.scales[*class]);
                    for block in members.chunks(64) {
                        let lanes = block.len();
                        let words: Vec<Vec<u64>> = block
                            .iter()
                            .map(|&i| {
                                let chip_id = config.chip_base + (chip_lo + i) as u64;
                                chip_words(config, epoch, chip_id, num_inputs)
                            })
                            .collect();
                        // Transpose step t's chip-major words into the
                        // input-major lane layout.
                        let step = |t: usize| -> PatternBlock {
                            let mut w = vec![0u64; num_inputs];
                            for (lane, cw) in words.iter().enumerate() {
                                let v = cw[t];
                                for (j, wj) in w.iter_mut().enumerate() {
                                    *wj |= ((v >> j) & 1) << lane;
                                }
                            }
                            PatternBlock::from_words(w, lanes)
                        };
                        let mut act = vec![0u64; lanes];
                        let mut det = vec![0u64; lanes];
                        let mut esc = vec![0u64; lanes];
                        let mut prev = step(0);
                        for t in 0..cycles {
                            let next = step(t + 1);
                            let r = sim.transition_block(&prev, &next, times);
                            let w = plan.capture.classify(&r);
                            add_bits(&mut act, w.activations);
                            add_bits(&mut det, w.detections);
                            add_bits(&mut esc, w.escapes);
                            prev = next;
                        }
                        for (lane, &i) in block.iter().enumerate() {
                            finalize_chip(
                                &mut agg,
                                &mut states[i],
                                *class,
                                *flagged,
                                ChipEpoch {
                                    activations: act[lane],
                                    detected: det[lane],
                                    escapes: esc[lane],
                                },
                                cycles as u64,
                                config.onset_threshold,
                            );
                        }
                    }
                }
                FleetKernel::Scalar => {
                    let sim = TimingSim::with_scale(netlist, plan.scales[*class].clone());
                    for &i in members {
                        let chip_id = config.chip_base + (chip_lo + i) as u64;
                        let words = chip_words(config, epoch, chip_id, num_inputs);
                        let vectors: Vec<Vec<bool>> = words
                            .iter()
                            .map(|&w| (0..num_inputs).map(|j| (w >> j) & 1 == 1).collect())
                            .collect();
                        let mut outcome =
                            ChipEpoch { activations: 0, detected: 0, escapes: 0 };
                        for pair in vectors.windows(2) {
                            let r =
                                sim.transition_with_sample_times(&pair[0], &pair[1], times);
                            let mut activated = false;
                            let mut detected = false;
                            let mut escaped = false;
                            for p in plan.capture.probes() {
                                let e = r.sampled[p.e_position];
                                if e {
                                    activated = true;
                                    if r.sampled[p.raw_position] != r.sampled[p.ytilde_position]
                                    {
                                        detected = true;
                                    }
                                }
                                if r.sampled[p.masked_position] != r.settled[p.masked_position]
                                {
                                    escaped = true;
                                }
                            }
                            outcome.activations += activated as u64;
                            outcome.detected += detected as u64;
                            outcome.escapes += escaped as u64;
                        }
                        finalize_chip(
                            &mut agg,
                            &mut states[i],
                            *class,
                            *flagged,
                            outcome,
                            cycles as u64,
                            config.onset_threshold,
                        );
                    }
                }
            }
        }
        agg
    };

    let telemetry = tm_telemetry::drain();
    let trace = if flight_trace.is_some() {
        tm_telemetry::flight::drain_thread()
    } else {
        Vec::new()
    };
    ShardOut { agg, telemetry, trace }
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

    fn small_config() -> FleetConfig {
        FleetConfig { chips: 192, epochs: 6, cycles_per_epoch: 12, ..Default::default() }
    }

    #[test]
    fn fleet_ages_detects_and_flags() {
        let design = masked_comparator();
        let r = run_fleet(&design, &small_config()).unwrap();
        assert_eq!(r.epochs.len(), 6);
        assert_eq!(r.epochs[0].detected, 0, "fresh fleet is clean");
        assert!(r.epochs.last().unwrap().detected > 0, "{:?}", r.epochs);
        assert!(r.flagged_chips > 0, "aging fleet must trip the detector");
        for a in &r.epochs {
            assert_eq!(a.chips, 192);
            assert_eq!(a.cycles, 192 * 12);
            assert!(a.activations >= a.detected);
            assert_eq!(a.class_chips.iter().sum::<u64>(), 192);
            assert_eq!(a.rate_ppm.count, 192);
        }
        // Flagged counts are monotone (the flag is sticky).
        for w in r.epochs.windows(2) {
            assert!(w[1].flagged_total >= w[0].flagged_total);
        }
        assert!(r.cohorts.len() == FleetConfig::default().delay_classes);
        // The hottest cohort must show wearout onset.
        assert!(
            r.cohorts.iter().any(|c| c.assessment.onset_epoch.is_some()),
            "{:?}",
            r.cohorts
        );
    }

    #[test]
    fn dvs_stepdown_reduces_flagged_chip_errors() {
        // A stretch only changes how *flagged* chips sample. Unflagged
        // chips behave identically in both runs, and they alone decide
        // who gets flagged next, so the flag set and the pre-flag
        // escapes must match; a strong stretch then samples flagged
        // chips far after the slowest settle, so they detect less and
        // escape nothing.
        let design = masked_comparator();
        let run = |dvs_stretch| {
            let config = FleetConfig { dvs_stretch, ..small_config() };
            run_fleet(&design, &config).unwrap()
        };
        let (plain, stretched) = (run(1.0), run(3.0));
        assert!(stretched.flagged_chips > 0);
        for (p, s) in plain.epochs.iter().zip(&stretched.epochs) {
            assert_eq!(s.flagged_total, p.flagged_total, "epoch {}", p.epoch);
            assert_eq!(s.escapes_before_flag, p.escapes_before_flag, "epoch {}", p.epoch);
            assert!(s.detected <= p.detected, "epoch {}", p.epoch);
            assert!(s.escapes <= p.escapes, "epoch {}", p.epoch);
        }
        let total = |r: &FleetResult, f: fn(&ShardAggregate) -> u64| -> u64 {
            r.epochs.iter().map(f).sum()
        };
        assert!(total(&stretched, |a| a.detected) < total(&plain, |a| a.detected));
        assert_eq!(total(&stretched, |a| a.escapes), 0);
        assert!(total(&plain, |a| a.escapes) > 0);
    }

    #[test]
    fn packed_and_scalar_fleets_are_identical() {
        let design = masked_comparator();
        let mut config = small_config();
        config.chips = 96;
        config.epochs = 4;
        let packed = run_fleet(&design, &config).unwrap();
        config.kernel = FleetKernel::Scalar;
        let scalar = run_fleet(&design, &config).unwrap();
        assert_eq!(packed, scalar);
    }

    #[test]
    fn degenerate_configs_are_errors_not_panics() {
        let design = masked_comparator();
        for bad in [
            FleetConfig { chips: 0, ..Default::default() },
            FleetConfig { epochs: 0, ..Default::default() },
            FleetConfig { cycles_per_epoch: 0, ..Default::default() },
            FleetConfig { delay_classes: 0, ..Default::default() },
            FleetConfig { jobs: 0, ..Default::default() },
            FleetConfig { max_stress: f64::NAN, ..Default::default() },
            FleetConfig { max_stress: 0.0, ..Default::default() },
            FleetConfig { dvs_stretch: 0.5, ..Default::default() },
            FleetConfig { onset_threshold: -1.0, ..Default::default() },
        ] {
            assert!(FleetSim::new(&design, &bad).is_err(), "{bad:?}");
        }
        let unprotected = MaskedDesign::unprotected(design.original.clone());
        assert!(FleetSim::new(&unprotected, &FleetConfig::default()).is_err());
    }

    #[test]
    fn run_epoch_past_end_is_an_error() {
        let design = masked_comparator();
        let config = FleetConfig { chips: 8, epochs: 1, ..Default::default() };
        let mut sim = FleetSim::new(&design, &config).unwrap();
        sim.run_epoch().unwrap();
        assert!(sim.run_epoch().is_err());
        assert_eq!(sim.epochs_run(), 1);
    }

    #[test]
    fn fleet_emits_schema_valid_metrics() {
        let _scope = tm_telemetry::Scope::enter();
        let design = masked_comparator();
        let config = FleetConfig { chips: 64, epochs: 3, ..Default::default() };
        let r = run_fleet(&design, &config).unwrap();
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("fleet.chips"), Some(64));
        assert_eq!(snap.counter("fleet.epochs"), Some(3));
        assert_eq!(
            snap.counter("fleet.cycles"),
            Some(r.epochs.iter().map(|a| a.cycles).sum())
        );
        assert!(snap.counter("sim.packed.blocks").unwrap_or(0) > 0, "workers must report");
        tm_telemetry::schema::validate(&snap.to_json()).unwrap();
    }
}
