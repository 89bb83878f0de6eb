//! Telemetry-backed regression tests for the SPCF engines' cost model:
//! the short-path algorithm's memoization must actually pay off against
//! the path-based engine's full waveform materialization (the Table 1
//! runtime claim, asserted on counters instead of wall clock).

use std::sync::Arc;
use tm_logic::Bdd;
use tm_netlist::circuits::comparator2;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::Delay;
use tm_spcf::{spcf_with, Algorithm};
use tm_sta::Sta;

/// Six speed chains put several same-length tails on one shared NAND
/// trunk, so multiple critical outputs query the trunk at identical
/// quantized offsets — the (signal, time, phase) collisions the memo
/// exists to catch. (With the default single chain only one output is
/// ever critical and every memo key is unique.)
fn multi_critical_netlist() -> tm_netlist::Netlist {
    let mut spec = GeneratorSpec::sized("telem12", 12, 6, 90);
    spec.speed_chains = 6;
    spec.chain_extra_depth = 6;
    generate(&spec, Arc::new(lsi10k_like()))
}

#[test]
fn short_path_memoizes_and_beats_waveform_node_count() {
    let nl = multi_critical_netlist();
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;

    let _scope = tm_telemetry::Scope::enter();
    let mut bdd = Bdd::new(nl.inputs().len());
    let sp = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
    let pb = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, target);
    assert!(!sp.outputs.is_empty(), "need critical outputs for a meaningful test");
    for (a, b) in sp.outputs.iter().zip(&pb.outputs) {
        assert_eq!(a.spcf, b.spcf, "exact engines must agree");
    }

    let snap = tm_telemetry::snapshot();
    let hits = snap.counter("spcf.short_path.memo_hit").unwrap_or(0);
    let misses = snap.counter("spcf.short_path.memo_miss").expect("misses recorded");
    let waveform_nodes = snap
        .counter("spcf.path_based.waveform_nodes")
        .expect("waveform nodes recorded");

    // Reconvergent fanout means the recursion revisits (signal, time,
    // phase) triples: the memo must be earning hits.
    assert!(hits > 0, "memo hit-rate is zero on a reconvergent netlist");

    // The core §3 cost claim: short-path evaluates only the (signal,
    // time, phase) points its target query reaches, strictly fewer than
    // the breakpoints the path-based engine materializes for ALL times.
    assert!(
        misses < waveform_nodes,
        "short-path evaluated {misses} stab points, \
         path-based materialized only {waveform_nodes} waveform nodes"
    );

    // Sanity on the remaining engine counters.
    let stab_calls = snap.counter("spcf.short_path.stab_calls").unwrap_or(0);
    assert!(stab_calls >= hits + misses, "every memo probe is a stab call");
    let entries = snap.gauge("spcf.short_path.memo_entries").expect("memo entries gauge");
    assert_eq!(entries, misses as f64, "each miss inserts exactly one memo entry");
}

/// Every critical output lands one value in its algorithm's latency
/// digest.
#[test]
fn output_latency_digest_counts_every_critical_output_for_any_jobs() {
    let nl = multi_critical_netlist();
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    for (algorithm, metric) in [
        (Algorithm::ShortPath, "spcf.short_path.output_ns"),
        (Algorithm::PathBased, "spcf.path_based.output_ns"),
        (Algorithm::NodeBased, "spcf.node_based.output_ns"),
    ] {
        let _scope = tm_telemetry::Scope::enter();
        let mut bdd = Bdd::new(nl.inputs().len());
        let set = spcf_with(algorithm, &nl, &sta, &mut bdd, target);
        assert!(set.outputs.len() >= 2, "need several critical outputs");
        let snap = tm_telemetry::snapshot();
        let digest = snap.digest(metric).expect("per-output latency recorded");
        assert_eq!(digest.count, set.outputs.len() as u64, "{algorithm:?}");
    }
}

/// Golden metrics snapshot for the paper's Fig. 2 worked example
/// (2-bit comparator, `Δ = 7`, `Δ_y = 6.3`). The engine's work on this
/// tiny fixed circuit is fully deterministic, so the counters are pinned
/// exactly: any drift means the recursion explores a different set of
/// `(signal, time, phase)` points or the BDD manager allocates
/// differently — both worth a deliberate review, not a silent pass.
#[test]
fn comparator2_golden_metrics() {
    let lib = Arc::new(lsi10k_like());
    let nl = comparator2(lib);
    let sta = Sta::new(&nl);

    let _scope = tm_telemetry::Scope::enter();
    let mut bdd = Bdd::new(nl.inputs().len());
    let set = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
    assert_eq!(set.critical_pattern_count(&bdd), 10.0, "paper: 10 of 16 patterns");

    let snap = tm_telemetry::snapshot();
    assert_eq!(
        snap.gauge("bdd.nodes"),
        Some(bdd.node_count() as f64),
        "gauge mirrors the live manager"
    );
    // 7 nodes (shared terminal + 6 internal — complement edges roughly
    // halve the plain ROBDD's 13), 8 memoized (signal, time, phase)
    // points, 18 stab() invocations.
    assert_eq!(snap.gauge("bdd.nodes"), Some(7.0));
    assert_eq!(snap.gauge("spcf.short_path.memo_entries"), Some(8.0));
    assert_eq!(snap.counter("spcf.short_path.stab_calls"), Some(18));
}
