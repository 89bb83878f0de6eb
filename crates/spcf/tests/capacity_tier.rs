//! Capacity-tier integration: the BDD lifecycle operations (GC,
//! compaction, sifting) behind live SPCF sessions must be invisible in
//! every observable result.
//!
//! 1. **Forced mid-ladder GC**: collecting (and fully maintaining — GC
//!    plus conditional reorder) a warm session between ladder points,
//!    then re-serving the same point through the remapped memo, matches
//!    cold runs bit for bit for every engine.
//! 2. **OpenSPARC-profile recovery**: the `sparc_ifu_dec` stand-in's
//!    descending ladder does not fit an append-only store under a
//!    realistic node budget — with the capacity tier, the same budget
//!    completes the exact short-path SPCF, recovering from the
//!    exhaustion by collecting and retrying.
//! 3. **Lifecycle × engines**: exports taken before GC, compaction,
//!    and sifting equal the exports taken after, for every engine.

use std::sync::Arc;
use tm_logic::bdd::BddRef;
use tm_logic::Bdd;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::table1_suite;
use tm_netlist::{NetId, Netlist};
use tm_resilience::Budget;
use tm_spcf::{spcf_with, Algorithm, WarmSession};
use tm_sta::Sta;

/// The descending protection-band ladder the sweep binaries walk.
const FRACTIONS: [f64; 4] = [0.95, 0.85, 0.70, 0.55];

/// Seeded 12-input circuits in the warm-session suite's shape.
fn small_suite() -> Vec<Netlist> {
    let lib = Arc::new(lsi10k_like());
    (0..2u64)
        .map(|i| {
            let mut spec = GeneratorSpec::sized(
                format!("captier_{i}"),
                12,
                2 + (i as usize % 3),
                40 + 6 * i as usize,
            );
            spec.seed = 0xCA9_71E2 + 101 * i;
            generate(&spec, lib.clone())
        })
        .collect()
}

#[test]
fn forced_mid_ladder_gc_keeps_warm_equal_to_cold() {
    for nl in small_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        for algorithm in [Algorithm::ShortPath, Algorithm::PathBased, Algorithm::NodeBased] {
            let mut warm_bdd = Bdd::new(nl.inputs().len());
            let mut session =
                WarmSession::new(algorithm, &nl, &sta, &mut warm_bdd, Budget::unlimited());
            for (step, &frac) in FRACTIONS.iter().enumerate() {
                let target = delta * frac;
                let warm = session.retarget(target);

                let mut cold_bdd = Bdd::new(nl.inputs().len());
                let cold = spcf_with(algorithm, &nl, &sta, &mut cold_bdd, target);
                assert_eq!(
                    warm.outputs.len(),
                    cold.outputs.len(),
                    "{}/{algorithm:?}@{frac}: critical-output counts differ",
                    nl.name()
                );
                for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: pre-GC exports differ on {:?}",
                        nl.name(),
                        w.output
                    );
                }

                // Force collection mid-ladder — plain GC on even steps,
                // full maintenance (GC + conditional reorder) on odd —
                // then re-serve the same point: the remapped memo must
                // reproduce the cold exports exactly.
                if step % 2 == 0 {
                    session.gc();
                } else {
                    session.maintain();
                }
                let again = session.retarget(target);
                assert_eq!(again.outputs.len(), cold.outputs.len());
                for (w, c) in again.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: exports diverge after forced mid-ladder GC on {:?}",
                        nl.name(),
                        w.output
                    );
                }
            }
            assert!(
                session.bdd().stats().gc_runs >= FRACTIONS.len() as u64,
                "{}/{algorithm:?}: every forced collection must count",
                nl.name()
            );
        }
    }
}

#[test]
fn opensparc_ladder_recovers_from_node_exhaustion() {
    let lib = Arc::new(lsi10k_like());
    let entry = table1_suite()
        .into_iter()
        .find(|e| e.name == "sparc_ifu_dec")
        .expect("Table 1 carries the OpenSPARC IFU decoder stand-in");
    let nl = entry.build(lib);
    let sta = Sta::new(&nl);
    let delta = sta.critical_path_delay();

    // Unmanaged reference: unlimited budget, no GC. Its final node
    // count is what an append-only session needs for the full ladder;
    // its exports are the exactness bar (warm == cold is pinned by the
    // warm-session suite).
    let mut ref_bdd = Bdd::new(nl.inputs().len());
    let mut reference =
        WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut ref_bdd, Budget::unlimited());
    let mut ref_exports: Vec<Vec<(NetId, tm_logic::bdd::PortableBdd)>> = Vec::new();
    for frac in FRACTIONS {
        let set = reference.retarget(delta * frac);
        ref_exports.push(
            set.outputs
                .iter()
                .map(|o| (o.output, reference.bdd().export(o.spcf)))
                .collect(),
        );
    }
    let unmanaged_total = reference.bdd().node_count();

    // Managed probe: GC before every point. Its end-of-point count is
    // live-before-point plus that point's allocations — exactly the
    // high-water a collect-and-retry of that point reaches — so its
    // maximum is what a collected session genuinely needs.
    let mut probe_bdd = Bdd::new(nl.inputs().len());
    let mut probe =
        WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut probe_bdd, Budget::unlimited());
    let mut managed_need = 0usize;
    for frac in FRACTIONS {
        probe.gc();
        probe.retarget(delta * frac);
        managed_need = managed_need.max(probe.bdd().node_count());
    }

    // A budget the append-only ladder cannot fit but a collected one
    // can: just above the managed high-water, well below the
    // append-only total. The gap is the garbage GC exists to reclaim.
    let budget_nodes = managed_need + managed_need / 20 + 1;
    assert!(
        budget_nodes < unmanaged_total,
        "vacuous fixture: managed need {managed_need} leaves no gap \
         under the append-only total {unmanaged_total}"
    );
    let budget = Budget::unlimited().with_max_bdd_nodes(budget_nodes as u64);

    let mut bdd = Bdd::new(nl.inputs().len());
    let mut session = WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut bdd, budget);
    for (k, &frac) in FRACTIONS.iter().enumerate() {
        let set = session
            .try_retarget(delta * frac)
            .unwrap_or_else(|e| panic!("ladder point {frac} must recover via GC: {e}"));
        let exports: Vec<(NetId, tm_logic::bdd::PortableBdd)> = set
            .outputs
            .iter()
            .map(|o| (o.output, session.bdd().export(o.spcf)))
            .collect();
        assert_eq!(
            exports, ref_exports[k],
            "@{frac}: budgeted session must produce the exact unmanaged SPCF"
        );
        assert!(
            session.bdd().node_count() <= budget_nodes,
            "@{frac}: the budget must actually bind"
        );
    }
    let stats = session.bdd().stats();
    assert!(
        stats.gc_runs >= 1,
        "a {budget_nodes}-node budget under a {unmanaged_total}-node ladder must trip and recover"
    );
    assert!(stats.gc_reclaimed > 0, "recovery must actually reclaim garbage");
}

#[test]
fn exports_survive_gc_compaction_and_sifting_for_every_engine_and_jobs() {
    let nl = &small_suite()[0];
    let sta = Sta::new(nl);
    let target = sta.critical_path_delay() * 0.70;
    for algorithm in [Algorithm::ShortPath, Algorithm::PathBased, Algorithm::NodeBased] {
        let mut bdd = Bdd::new(nl.inputs().len());
        let set = spcf_with(algorithm, nl, &sta, &mut bdd, target);
        let before: Vec<(NetId, tm_logic::bdd::PortableBdd)> =
            set.outputs.iter().map(|o| (o.output, bdd.export(o.spcf))).collect();

        // Walk the full lifecycle — GC, explicit compaction, sifting —
        // remapping the roots after each step; the exports must never
        // change.
        let mut live: Vec<BddRef> = set.outputs.iter().map(|o| o.spcf).collect();
        for op in ["gc", "compact", "reorder"] {
            let remap = match op {
                "gc" => bdd.gc(&live),
                "compact" => bdd.compact(&live),
                _ => bdd.reorder(&live),
            };
            live = live.iter().map(|&r| remap.remap(r).expect("rooted refs survive")).collect();
            let after: Vec<(NetId, tm_logic::bdd::PortableBdd)> = set
                .outputs
                .iter()
                .zip(&live)
                .map(|(o, &r)| (o.output, bdd.export(r)))
                .collect();
            assert_eq!(before, after, "{algorithm:?}: exports changed across {op}");
        }
    }
}
