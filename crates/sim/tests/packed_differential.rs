//! Packed-vs-scalar differential over generated netlists, with uniform
//! and with skewed per-pin delays.
//!
//! Every cell of `lsi10k_like` has one delay on all of its pins, so the
//! packed kernel treats every gate as FIFO (output events pop in push
//! order) and filters redundant events at push time. The skewed library
//! rebuilds the same cells under the same names with pin `p` slowed by
//! `1 + 0.37·p`, so the generator still finds them but every multi-pin
//! gate takes the unfiltered push path. Both libraries must give
//! bit-identical `sampled` and `settled` words in every lane.
//!
//! The Tier-1 test covers about 40 netlists; the release-only sweep
//! (`cargo test --release -p tm-sim --test packed_differential --
//! --ignored`) covers hundreds, up to the `cmb`/`cu` stand-in sizes.

use std::sync::Arc;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::{lsi10k_like, Cell, Library};
use tm_netlist::suites::smoke_suite;
use tm_netlist::{Delay, Netlist};
use tm_sim::func::PatternBlock;
use tm_sim::packed::PackedTimingSim;
use tm_sim::timing::TimingSim;
use tm_sta::Sta;
use tm_testkit::rng::Rng;

/// `lsi10k_like` with pin `p` of every cell slowed by `1 + 0.37·p`.
fn skewed_lsi10k() -> Library {
    let base = lsi10k_like();
    let mut lib = Library::new("lsi10k_skewed");
    for (_, c) in base.iter() {
        let delays =
            (0..c.num_inputs()).map(|p| c.pin_delay(p) * (1.0 + 0.37 * p as f64)).collect();
        lib.add(Cell::new(c.name(), c.function().clone(), c.area(), c.switch_power(), delays));
    }
    lib
}

fn random_block(inputs: usize, lanes: usize, rng: &mut Rng) -> PatternBlock {
    let pats: Vec<Vec<bool>> =
        (0..lanes).map(|_| (0..inputs).map(|_| rng.next_bool()).collect()).collect();
    PatternBlock::from_patterns(&pats)
}

/// Runs `blocks` random transition blocks through both kernels under a
/// random per-gate scale and random mid-flight per-output sample times;
/// lane counts alternate between full and partial blocks.
fn assert_kernels_agree(nl: &Netlist, blocks: usize, rng: &mut Rng) {
    let scale: Vec<f64> = (0..nl.num_gates()).map(|_| 0.8 + rng.next_f64() * 0.6).collect();
    let packed = PackedTimingSim::with_scale(nl, &scale);
    let scalar = TimingSim::with_scale(nl, scale.clone());
    let delta = Sta::new(nl).critical_path_delay().units();
    for b in 0..blocks {
        let lanes = if b % 2 == 0 { 64 } else { rng.gen_range(1usize..64) };
        let prev = random_block(nl.inputs().len(), lanes, rng);
        let next = random_block(nl.inputs().len(), lanes, rng);
        let times: Vec<Delay> = (0..nl.outputs().len())
            .map(|_| Delay::new(delta * rng.gen_range(0.1..1.5)))
            .collect();
        let r = packed.transition_block(&prev, &next, &times);
        for k in 0..lanes {
            let s = scalar.transition_with_sample_times(&prev.pattern(k), &next.pattern(k), &times);
            for (pos, (&sam, &set)) in s.sampled.iter().zip(&s.settled).enumerate() {
                let name = nl.name();
                assert_eq!(r.sampled_bit(pos, k), sam, "{name}: block {b} lane {k} sampled {pos}");
                assert_eq!(r.settled_bit(pos, k), set, "{name}: block {b} lane {k} settled {pos}");
            }
        }
    }
}

/// A generated netlist of random interface and size, up to `max_gates`.
fn random_netlist(i: u64, lib: &Arc<Library>, max_gates: usize, rng: &mut Rng) -> Netlist {
    let inputs = rng.gen_range(4usize..17);
    let outputs = rng.gen_range(1usize..12);
    let gates = rng.gen_range(outputs.max(8)..max_gates + 1);
    let mut spec = GeneratorSpec::sized(format!("diff{i}"), inputs, outputs, gates);
    spec.seed = rng.next_u64();
    generate(&spec, lib.clone())
}

#[test]
fn skewed_pin_delays_match_scalar() {
    let lib = Arc::new(skewed_lsi10k());
    let nand3 = lib.cell(lib.expect("NAND3"));
    assert!(nand3.pin_delay(0) < nand3.pin_delay(1), "the skew must reach multi-pin cells");
    let mut rng = Rng::seed_from_u64(0x5CE3_D1FF);
    for i in 0..40 {
        let nl = random_netlist(i, &lib, 40, &mut rng);
        assert_kernels_agree(&nl, 2, &mut rng);
    }
}

/// Release-only sweep: hundreds of generated netlists under both
/// libraries, plus the `cmb` and `cu` stand-ins themselves.
#[test]
#[ignore = "release-only sweep; run with --release -- --ignored"]
fn packed_matches_scalar_sweep() {
    for (label, lib, seed) in
        [("uniform", lsi10k_like(), 0x5EE9_0001), ("skewed", skewed_lsi10k(), 0x5EE9_0002)]
    {
        let lib = Arc::new(lib);
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..300 {
            let nl = random_netlist(i, &lib, 60, &mut rng);
            assert_kernels_agree(&nl, 4, &mut rng);
        }
        for entry in smoke_suite().iter().filter(|e| matches!(e.name, "cmb" | "cu")) {
            let nl = entry.build(lib.clone());
            for _ in 0..8 {
                assert_kernels_agree(&nl, 4, &mut rng);
            }
        }
        println!("{label}: 300 generated netlists + cmb/cu stand-ins agree");
    }
}
