//! Property-based integration tests over randomly generated circuits:
//! the cross-crate invariants that make the reproduction trustworthy.
//!
//! Runs on the in-repo `tm-testkit` property runner; a failing case
//! prints its seed (reproduce with `TM_PROP_SEED=<seed>`).

use std::sync::Arc;
use timemask::logic::Bdd;
use timemask::masking::{synthesize, verify, MaskingOptions};
use timemask::netlist::generate::{generate, GeneratorSpec};
use timemask::netlist::library::lsi10k_like;
use timemask::netlist::Netlist;
use timemask::spcf::{spcf_with, Algorithm};
use timemask::sta::Sta;
use tm_testkit::prop::{check, Config, Gen};
use tm_testkit::{prop_assert, prop_assert_eq};

fn gen_small_circuit(g: &mut Gen) -> Netlist {
    let inputs = g.gen_range(4usize..10);
    let outputs = g.gen_range(2usize..5);
    let gates = g.gen_range(20usize..60);
    let seed = g.gen_range(0u64..1_000_000);
    let mut spec = GeneratorSpec::sized(format!("prop_{seed}"), inputs, outputs, gates);
    spec.seed = seed;
    generate(&spec, Arc::new(lsi10k_like()))
}

/// The two exact SPCF engines agree on every circuit and target,
/// and the node-based engine over-approximates both.
#[test]
fn spcf_engine_hierarchy() {
    check(
        "spcf_engine_hierarchy",
        &Config::with_cases(24),
        |g| (gen_small_circuit(g), g.gen_range(0.6f64..0.98)),
        |(nl, frac)| {
            let sta = Sta::new(nl);
            let target = sta.critical_path_delay() * *frac;
            let mut bdd = Bdd::new(nl.inputs().len());
            let sp = spcf_with(Algorithm::ShortPath, nl, &sta, &mut bdd, target);
            let pb = spcf_with(Algorithm::PathBased, nl, &sta, &mut bdd, target);
            let nb = spcf_with(Algorithm::NodeBased, nl, &sta, &mut bdd, target);
            prop_assert_eq!(sp.outputs.len(), pb.outputs.len());
            prop_assert_eq!(sp.outputs.len(), nb.outputs.len());
            for ((a, b), c) in sp.outputs.iter().zip(&pb.outputs).zip(&nb.outputs) {
                prop_assert_eq!(a.output, b.output);
                prop_assert_eq!(a.spcf, b.spcf); // exact engines identical
                prop_assert!(bdd.is_subset(a.spcf, c.spcf)); // node-based ⊇ exact
            }
            Ok(())
        },
    );
}

/// SPCF patterns really are slow: exhaustive dynamic cross-check on
/// circuits small enough to enumerate. Floating-mode analysis is a
/// worst case over previous states, so every pattern *outside* the
/// SPCF settles within the target from every predecessor.
#[test]
fn non_spcf_patterns_settle_in_time() {
    check(
        "non_spcf_patterns_settle_in_time",
        &Config::with_cases(24),
        |g| g.gen_range(0u64..10_000),
        |seed| {
            let mut spec = GeneratorSpec::sized(format!("dyn_{seed}"), 6, 2, 24);
            spec.seed = *seed;
            let nl = generate(&spec, Arc::new(lsi10k_like()));
            let sta = Sta::new(&nl);
            let target = sta.critical_path_delay() * 0.9;
            let mut bdd = Bdd::new(6);
            let spcf = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
            let sim = timemask::sim::timing::TimingSim::new(&nl);
            for m in 0..64u64 {
                let next: Vec<bool> = (0..6).map(|i| (m >> i) & 1 == 1).collect();
                // Worst settle time at each critical output over a sample of
                // predecessor states.
                for p in [0u64, 21, 42, 63] {
                    let prev: Vec<bool> = (0..6).map(|i| (p >> i) & 1 == 1).collect();
                    let r = sim.transition(&prev, &next, target);
                    for out in &spcf.outputs {
                        let pos = nl.outputs().iter().position(|&o| o == out.output).unwrap();
                        if !bdd.eval(out.spcf, &next) {
                            prop_assert!(
                                r.output_settle[pos] <= target,
                                "non-SPCF pattern {m} settled late at output {pos}"
                            );
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Masking synthesis is always sound: exact verification passes and
/// the combined design is functionally transparent on every
/// generated circuit.
#[test]
fn masking_always_verifies() {
    check(
        "masking_always_verifies",
        &Config::with_cases(24),
        gen_small_circuit,
        |nl| {
            let mut result = synthesize(nl, MaskingOptions::default());
            let verdict = verify(&mut result);
            prop_assert!(verdict.all_ok());
            prop_assert_eq!(verdict.coverage(), 1.0);
            // Spot functional transparency dynamically too.
            let n = nl.inputs().len();
            for m in [0u64, 1, (1 << n) - 1, 0xAA % (1 << n)] {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                prop_assert_eq!(result.design.combined.eval(&a), nl.eval(&a));
            }
            Ok(())
        },
    );
}

/// Netlist ↔ SOP-network conversions preserve behaviour.
#[test]
fn extraction_and_mapping_roundtrip() {
    check(
        "extraction_and_mapping_roundtrip",
        &Config::with_cases(24),
        gen_small_circuit,
        |nl| {
            use timemask::netlist::extract::{extract, ExtractOptions};
            use timemask::netlist::map::{tech_map, MapOptions};
            let net = extract(nl, ExtractOptions::default());
            let remapped = tech_map(&net, nl.library().clone(), MapOptions::default());
            let n = nl.inputs().len();
            for m in 0..(1u64 << n).min(256) {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                prop_assert_eq!(nl.eval(&a), net.eval(&a));
                prop_assert_eq!(nl.eval(&a), remapped.eval(&a));
            }
            prop_assert!(remapped.check().is_empty());
            Ok(())
        },
    );
}

/// BLIF round-trips generated technology-independent networks.
#[test]
fn blif_roundtrip() {
    check("blif_roundtrip", &Config::with_cases(24), gen_small_circuit, |nl| {
        use timemask::netlist::blif::{parse_blif, write_blif};
        use timemask::netlist::extract::{extract, ExtractOptions};
        let net = extract(nl, ExtractOptions::default());
        let text = write_blif(&net);
        let back = parse_blif(&text).expect("roundtrip parses");
        let n = nl.inputs().len();
        for m in 0..(1u64 << n).min(128) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            prop_assert_eq!(net.eval(&a), back.eval(&a));
        }
        Ok(())
    });
}
