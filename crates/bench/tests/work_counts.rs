//! Exact work counts for fixed seeded workloads, and the paper's
//! Table 1 claims as assertions.
//!
//! The work these workloads do — BDD unique-table and ITE-cache
//! traffic, short-path memo traffic, masking cube selection, simulator
//! events, budgeted BDD steps — is a pure function of the seeded
//! suite circuits, so it is compared exactly rather than timed against
//! a wall-clock envelope. A change that alters this work updates the
//! constants below in the same diff; on a mismatch the test prints the
//! fresh table in source form.
//!
//! Each workload runs in its own telemetry [`Scope`]; its snapshot must
//! pass the closed-schema validator, and every counter it carries (plus
//! the sample count of every digest) is pinned.

use std::sync::OnceLock;
use tm_bench::harness_library;
use tm_logic::{Bdd, PortableBdd};
use tm_masking::{synthesize, verify, MaskingOptions};
use tm_monitor::wearout::{run_lifetime, LifetimeConfig};
use tm_netlist::suites::{smoke_suite, table1_suite};
use tm_netlist::NetId;
use tm_sim::patterns::random_vectors;
use tm_sim::timing::TimingSim;
use tm_spcf::{spcf_with, Algorithm};
use tm_sta::Sta;
use tm_telemetry::{Scope, Snapshot};

/// Pinned `(metric, value)` pairs, sorted by name: counters give their
/// total, digests their sample count.
type Counts = &'static [(&'static str, u64)];

/// The Table 1 engines, in the column order of [`TABLE1_ROWS`].
const ENGINES: [Algorithm; 3] = [
    Algorithm::ShortPath,
    Algorithm::PathBased,
    Algorithm::NodeBased,
];

/// Per Table 1 row: the budgeted BDD steps ([`Bdd::steps_taken`]) of
/// each cold engine in [`ENGINES`] order, and whether node-based
/// over-approximates the exact SPCF strictly on that row.
const TABLE1_ROWS: &[(&str, [u64; 3], bool)] = &[
    ("C432", [271, 602, 1620], false),
    ("C2670", [5330, 12712, 23834], true),
    ("sparc_ifu_dec", [4309, 11438, 20264], false),
    ("sparc_ifu_invctl", [2467, 8085, 11600], true),
    ("lsu_stb_ctl", [5717, 14202, 24154], true),
];

/// The 5 Table 1 rows × 3 cold engines at `Δ_y = 0.9Δ`.
const TABLE1_COUNTS: Counts = &[
    ("bdd.cache.clears", 0),
    ("bdd.cache.evictions", 66689),
    ("bdd.cache.hits", 102208),
    ("bdd.cache.misses", 146605),
    ("bdd.gc.reclaimed", 0),
    ("bdd.gc.runs", 0),
    ("bdd.quant.hits", 0),
    ("bdd.quant.misses", 0),
    ("bdd.reorder.delta", 0),
    ("bdd.reorder.runs", 0),
    ("bdd.unique.hits", 20091),
    ("bdd.unique.misses", 115920),
    ("bdd.unique.rehashes", 49),
    ("spcf.node_based.critical_gates", 358),
    ("spcf.node_based.output_ns", 57),
    ("spcf.path_based.output_ns", 57),
    ("spcf.path_based.waveform_nodes", 8408),
    ("spcf.short_path.memo_hit", 80),
    ("spcf.short_path.memo_miss", 1352),
    ("spcf.short_path.output_ns", 57),
    ("spcf.short_path.stab_calls", 2818),
];

/// `synthesize` + `verify` on the first smoke circuit.
const MASKING_COUNTS: Counts = &[
    ("bdd.cache.clears", 0),
    ("bdd.cache.evictions", 385),
    ("bdd.cache.hits", 880),
    ("bdd.cache.misses", 2562),
    ("bdd.gc.reclaimed", 0),
    ("bdd.gc.runs", 0),
    ("bdd.quant.hits", 0),
    ("bdd.quant.misses", 0),
    ("bdd.reorder.delta", 0),
    ("bdd.reorder.runs", 0),
    ("bdd.unique.hits", 928),
    ("bdd.unique.misses", 1081),
    ("bdd.unique.rehashes", 1),
    ("masking.synth.cubes_considered", 28),
    ("masking.synth.cubes_kept", 15),
    ("masking.synth.nodes_masked", 3),
    ("masking.synth.selection_rounds", 9),
    ("masking.verify.outputs_checked", 18),
    ("spcf.short_path.memo_hit", 0),
    ("spcf.short_path.memo_miss", 40),
    ("spcf.short_path.output_ns", 2),
    ("spcf.short_path.stab_calls", 84),
];

/// One packed `run_lifetime` on the masked smoke circuit. `events`
/// counts popped events; push-time supersession on uniform-delay gates
/// keeps no-op events out of the heap.
const PACKED_LIFETIME_COUNTS: Counts = &[("sim.packed.blocks", 6), ("sim.packed.events", 1695)];

/// Scalar `TimingSim` transitions over the unmasked smoke circuit.
const SCALAR_SIM_COUNTS: Counts = &[("sim.timing.events", 3622), ("sim.timing.transitions", 63)];

/// Checks a workload's snapshot against the schema and its pinned
/// counts.
fn assert_counts(workload: &str, snap: &Snapshot, pinned: Counts) {
    if let Err(errors) = tm_telemetry::schema::validate(&snap.to_json()) {
        panic!("{workload}: snapshot fails the metrics schema: {errors:?}");
    }
    let mut fresh: Vec<(&str, u64)> = snap.counters.iter().map(|(k, v)| (*k, *v)).collect();
    fresh.extend(snap.digests.iter().map(|(k, d)| (*k, d.count)));
    fresh.sort_unstable();
    if fresh != pinned {
        let table: String = fresh
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", {v}),\n"))
            .collect();
        panic!("{workload}: work counts changed; if intended, pin them:\n&[\n{table}]");
    }
}

/// One cold engine run of a Table 1 row.
struct EngineRun {
    steps: u64,
    spcfs: Vec<(NetId, PortableBdd)>,
}

struct Table1 {
    rows: Vec<(&'static str, [EngineRun; 3])>,
    snapshot: Snapshot,
}

/// Runs the Table 1 workload once per test binary; every Table 1 test
/// reads the same runs.
fn table1() -> &'static Table1 {
    static RUNS: OnceLock<Table1> = OnceLock::new();
    RUNS.get_or_init(|| {
        let _scope = Scope::enter();
        let lib = harness_library();
        let rows = table1_suite()
            .iter()
            .map(|entry| {
                let nl = entry.build(lib.clone());
                let sta = Sta::new(&nl);
                let target = sta.critical_path_delay() * 0.9;
                let runs = ENGINES.map(|algorithm| {
                    let mut bdd = Bdd::new(nl.inputs().len());
                    let set = spcf_with(algorithm, &nl, &sta, &mut bdd, target);
                    EngineRun {
                        steps: bdd.steps_taken(),
                        spcfs: set
                            .outputs
                            .iter()
                            .map(|o| (o.output, bdd.export(o.spcf)))
                            .collect(),
                    }
                });
                (entry.name, runs)
            })
            .collect();
        Table1 {
            rows,
            snapshot: tm_telemetry::snapshot(),
        }
    })
}

#[test]
fn table1_work_counts() {
    let t = table1();
    assert_counts("table1", &t.snapshot, TABLE1_COUNTS);
    let steps: Vec<_> = t
        .rows
        .iter()
        .map(|(name, runs)| (*name, runs.each_ref().map(|r| r.steps)))
        .collect();
    let pinned: Vec<_> = TABLE1_ROWS
        .iter()
        .map(|(name, steps, _)| (*name, *steps))
        .collect();
    assert_eq!(
        steps, pinned,
        "Bdd::steps_taken per engine (short-path, path-based, node-based) changed"
    );
}

/// Table 1: the path-based extension and the short-path algorithm are
/// both exact, so their SPCFs are the same functions, output by output.
#[test]
fn table1_exact_engines_agree() {
    for (name, [short, path, _]) in &table1().rows {
        assert_eq!(
            short.spcfs, path.spcfs,
            "{name}: path-based and short-path SPCFs differ"
        );
    }
}

/// Table 1: node-based \[22\] over-approximates — its SPCF contains the
/// exact one on every output, strictly on the rows the table says.
#[test]
fn table1_node_based_contains_exact() {
    for (name, [exact, _, node]) in &table1().rows {
        let strict = TABLE1_ROWS
            .iter()
            .find(|row| row.0 == *name)
            .expect("row is pinned")
            .2;
        let outputs = |r: &EngineRun| r.spcfs.iter().map(|(o, _)| *o).collect::<Vec<_>>();
        assert_eq!(
            outputs(node),
            outputs(exact),
            "{name}: engines list different outputs"
        );
        let mut differs = false;
        for ((out, e), (_, n)) in exact.spcfs.iter().zip(&node.spcfs) {
            let mut bdd = Bdd::new(e.num_vars());
            let (e, n) = (bdd.import(e), bdd.import(n));
            assert_eq!(
                bdd.diff(e, n),
                bdd.zero(),
                "{name}: node-based misses exact patterns of {out:?}"
            );
            differs |= e != n;
        }
        assert_eq!(differs, strict, "{name}: node-based strictness changed");
    }
}

/// Table 1: the short-path algorithm does less deterministic work than
/// both the node-based and the path-based engine, on every row.
#[test]
fn table1_short_path_does_least_work() {
    for (name, [short, path, node]) in &table1().rows {
        assert!(
            short.steps < path.steps && short.steps < node.steps,
            "{name}: short-path {} steps, path-based {}, node-based {}",
            short.steps,
            path.steps,
            node.steps
        );
    }
}

#[test]
fn masking_and_simulation_work_counts() {
    let lib = harness_library();
    let nl = smoke_suite()[0].build(lib);

    let (result, snap) = {
        let _scope = Scope::enter();
        let mut result = synthesize(&nl, MaskingOptions::default());
        assert!(verify(&mut result).all_ok());
        (result, tm_telemetry::snapshot())
    };
    assert_counts("masking", &snap, MASKING_COUNTS);

    let snap = {
        let _scope = Scope::enter();
        let config = LifetimeConfig {
            epochs: 3,
            max_stress: 0.9,
            vectors_per_epoch: 96,
            ..Default::default()
        };
        let stats = run_lifetime(&result.design, &config).expect("valid config");
        assert_eq!(stats.len(), 3);
        tm_telemetry::snapshot()
    };
    assert_counts("packed lifetime", &snap, PACKED_LIFETIME_COUNTS);

    let snap = {
        let _scope = Scope::enter();
        let sim = TimingSim::new(&nl);
        let clock = Sta::new(&nl).critical_path_delay();
        for pair in random_vectors(nl.inputs().len(), 64, 0x5EED).windows(2) {
            sim.transition(&pair[0], &pair[1], clock);
        }
        tm_telemetry::snapshot()
    };
    assert_counts("scalar sim", &snap, SCALAR_SIM_COUNTS);
}
