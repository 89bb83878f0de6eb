//! The shared replay of the masked design against a scalar oracle.
//!
//! `tm_masking::replay` owns the MUX capture rule, the per-cycle probe
//! classifier and the packed 64-lane replay that injection, body bias,
//! wearout logging and the fleet all use. The oracle below is the
//! per-vector scalar loop injection used before the replay existed: it
//! derives its own sample times, simulates one transition at a time on
//! `TimingSim` and classifies each cycle with booleans. Every case must
//! give exactly the oracle's counts.
//!
//! The cases cover jittered aging (so each protected output's MUX has
//! its own aged delay), ragged block tails (0, 1, 2, 64, 65 and 129
//! vectors), SPCF-drawn stress patterns, a wearout-style stress ramp,
//! and the duplication baseline under 8 % common-mode aging, whose
//! errors escape. The `#[ignore]`d release variant replays the masked
//! designs of all 20 Table 2 stand-ins.

use std::sync::Arc;
use tm_masking::{
    duplication_masking, inject_and_measure, ramp_stress, speedpath_patterns,
    speedpath_stress_map, synthesize, uniform_aging, InjectionOutcome, MaskedDesign,
    MaskingOptions, MaskingResult,
};
use tm_netlist::circuits::comparator2;
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::{smoke_suite, table2_suite};
use tm_netlist::{Delay, Library};
use tm_sim::aging::AgingModel;
use tm_sim::patterns::random_vectors;
use tm_sim::timing::TimingSim;
use tm_testkit::rng::Rng;

/// Vector counts per case: empty, one vector, one cycle, a full block,
/// a full block plus a one-lane tail, two blocks plus a one-lane tail.
const VECTOR_COUNTS: [usize; 6] = [0, 1, 2, 64, 65, 129];

/// Clock periods per case, as fractions of the original `Δ`. The sweep
/// lands transitions of MUXed outputs between the clock and the end of
/// their aged MUX delay, where the capture rule decides the sample.
const CLOCK_FRACTIONS: [f64; 5] = [0.8, 0.85, 0.9, 0.95, 1.0];

fn lib() -> Arc<Library> {
    Arc::new(lsi10k_like())
}

/// The scalar oracle: one `TimingSim` transition per cycle, MUXed
/// outputs sampled one aged MUX delay after the clock.
fn scalar_oracle(
    design: &MaskedDesign,
    scale: &[f64],
    clock: Delay,
    vectors: &[Vec<bool>],
) -> InjectionOutcome {
    let (instrumented, probes) = design.instrumented();
    let sim = TimingSim::with_scale(&instrumented, scale.to_vec());

    let lib = instrumented.library().clone();
    let mut sample_times = vec![clock; instrumented.outputs().len()];
    for p in design.protected.iter() {
        let masked_net = p.masked;
        if let tm_netlist::Driver::Gate(mux) = instrumented.driver(masked_net) {
            let cell = lib.cell(instrumented.gate(mux).cell());
            let mux_delay = cell.max_delay() * scale[mux.index()];
            sample_times[p.position] = clock + mux_delay;
        }
    }

    let mut outcome = InjectionOutcome::default();
    for pair in vectors.windows(2) {
        let r = sim.transition_with_sample_times(&pair[0], &pair[1], &sample_times);
        outcome.cycles += 1;
        let mut raw_bad = false;
        let mut masked_bad = false;
        let mut activated = false;
        let mut detected = false;
        for p in &probes {
            if r.sampled[p.raw_position] != r.settled[p.raw_position] {
                raw_bad = true;
            }
            if r.sampled[p.masked_position] != r.settled[p.masked_position] {
                masked_bad = true;
            }
            if r.sampled[p.e_position] {
                activated = true;
                if r.sampled[p.raw_position] != r.sampled[p.ytilde_position] {
                    detected = true; // the wearout log: e ∧ (y ⊕ ỹ)
                }
            }
        }
        outcome.raw_errors += raw_bad as usize;
        outcome.masked_errors += masked_bad as usize;
        outcome.activations += activated as usize;
        outcome.detected_errors += detected as usize;
    }
    outcome
}

/// Counter totals over every case of a run, so the suite can require
/// that each counter was exercised somewhere.
#[derive(Default)]
struct Totals(InjectionOutcome);

impl Totals {
    /// Replays one case both ways at each clock and requires identical
    /// counts.
    fn check(&mut self, what: &str, design: &MaskedDesign, scale: &[f64], vectors: &[Vec<bool>]) {
        let delta = speedpath_stress_map(design).0;
        for fraction in CLOCK_FRACTIONS {
            let clock = delta * fraction;
            let replayed =
                inject_and_measure(design, scale, clock, vectors).expect("valid replay");
            let oracle = scalar_oracle(design, scale, clock, vectors);
            assert_eq!(replayed, oracle, "{what}, {} vectors, clock {fraction} Δ", vectors.len());
            self.add(oracle);
        }
    }

    fn add(&mut self, oracle: InjectionOutcome) {
        let t = &mut self.0;
        t.cycles += oracle.cycles;
        t.raw_errors += oracle.raw_errors;
        t.masked_errors += oracle.masked_errors;
        t.activations += oracle.activations;
        t.detected_errors += oracle.detected_errors;
    }

    fn assert_all_nonzero(&self) {
        let t = &self.0;
        for (name, n) in [
            ("cycles", t.cycles),
            ("raw errors", t.raw_errors),
            ("escapes", t.masked_errors),
            ("activations", t.activations),
            ("detections", t.detected_errors),
        ] {
            assert!(n > 0, "no case exercised {name}: {t:?}");
        }
    }
}

/// Per-gate scales at `stress` on the speed-path stress map, with
/// per-gate jitter so MUXes of different outputs age differently.
fn jittered_scale(design: &MaskedDesign, stress: f64) -> Vec<f64> {
    let (_, stressed) = speedpath_stress_map(design);
    let model = AgingModel { jitter: 0.05, ..AgingModel::default() };
    model.scale_factors(&design.combined, &stressed, stress)
}

/// `count` random vectors with SPCF-drawn speed-path patterns
/// substituted at seeded positions (about a third of them).
fn stress_workload(result: &MaskingResult, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let inputs = result.design.original.inputs().len();
    let mut vectors = random_vectors(inputs, count, seed);
    let pool = speedpath_patterns(result, 8, seed ^ 0xB00);
    if !pool.is_empty() {
        let mut rng = Rng::seed_from_u64(seed);
        for v in vectors.iter_mut() {
            if rng.gen_bool(0.35) {
                *v = pool[rng.gen_range(0..pool.len())].clone();
            }
        }
    }
    vectors
}

/// Every vector count, under jittered aging and under 8 % uniform
/// aging, on one masking result.
fn check_design(totals: &mut Totals, name: &str, result: &MaskingResult, seed: u64) {
    let jittered = jittered_scale(&result.design, 1.0);
    let uniform = uniform_aging(&result.design, 1.08).expect("valid factor");
    for count in VECTOR_COUNTS {
        let vectors = stress_workload(result, count, seed ^ count as u64);
        totals.check(&format!("{name} jittered"), &result.design, &jittered, &vectors);
        totals.check(&format!("{name} uniform 1.08"), &result.design, &uniform, &vectors);
    }
}

#[test]
fn replay_matches_the_scalar_oracle() {
    let lib = lib();
    let mut totals = Totals::default();

    let comparator = synthesize(&comparator2(lib.clone()), MaskingOptions::default());
    check_design(&mut totals, "comparator", &comparator, 0xC0);
    for entry in smoke_suite() {
        let nl = entry.build(lib.clone());
        let proposed = synthesize(&nl, MaskingOptions::default());
        check_design(&mut totals, entry.name, &proposed, 0x5E);
        // Duplication shares the original's timing: under 8 %
        // common-mode aging its errors escape (on `cmb`, `x2`, `cu`).
        let dup = duplication_masking(&nl, MaskingOptions::default());
        let scale = uniform_aging(&dup.design, 1.08).expect("valid factor");
        let vectors = random_vectors(nl.inputs().len(), 400, 7);
        totals.check(&format!("{} duplication", entry.name), &dup.design, &scale, &vectors);
    }

    // A wearout lifetime: the stress ramp on the speed-path map with
    // stress-pool mixing and a ragged 131-vector epoch.
    let (_, stressed) = speedpath_stress_map(&comparator.design);
    let model = AgingModel { jitter: 0.0, ..AgingModel::default() };
    for epoch in 0..5 {
        let stress = ramp_stress(0.9, epoch, 5);
        let scale = model.scale_factors(&comparator.design.combined, &stressed, stress);
        let vectors = stress_workload(&comparator, 131, 0x11FE ^ epoch as u64);
        totals.check(&format!("lifetime epoch {epoch}"), &comparator.design, &scale, &vectors);
    }

    totals.assert_all_nonzero();
}

#[test]
#[ignore = "release-only: replays every Table 2 stand-in; run with --release -- --ignored"]
fn replay_matches_the_scalar_oracle_on_table2() {
    let lib = lib();
    let mut totals = Totals::default();
    for entry in table2_suite() {
        let result = synthesize(&entry.build(lib.clone()), MaskingOptions::default());
        check_design(&mut totals, entry.name, &result, 0x72);
    }
    totals.assert_all_nonzero();
}
