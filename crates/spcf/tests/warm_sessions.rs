//! Warm-session suite: retargeting one [`WarmSession`] down a
//! descending Δ_y ladder must be a pure performance optimization.
//!
//! 1. **Warm == cold, bit for bit**: every ladder point of a warm
//!    session produces the same critical-output list, the same
//!    pattern counts, and byte-identical [`Bdd::export`] encodings as
//!    a cold run with a fresh manager at that target — for every
//!    engine, even though the warm manager carries the accumulated
//!    nodes and caches of every previous point.
//! 2. **Monotone containment**: for `Δ' ≥ Δ`, `Σ_y(Δ') ⊆ Σ_y(Δ)` and
//!    the critical-output set only grows as the target descends — the
//!    property the warm memo reuse relies on.
//! 3. **Budget hygiene**: a session restores the manager's previous
//!    budget on drop, and a budget-tripped retarget leaves the session
//!    usable for the cold fallback path.

use std::collections::HashMap;
use std::sync::Arc;
use tm_logic::Bdd;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::{NetId, Netlist};
use tm_resilience::Budget;
use tm_spcf::{spcf_with, Algorithm, WarmSession};
use tm_sta::Sta;

/// Seeded 12-input netlists with several outputs each, sized so the
/// short-path memo sees real sharing across targets.
fn ladder_suite() -> Vec<Netlist> {
    let lib = Arc::new(lsi10k_like());
    (0..6u64)
        .map(|i| {
            let mut spec = GeneratorSpec::sized(
                format!("ladder_{i}"),
                12,
                2 + (i as usize % 3),
                40 + 6 * i as usize,
            );
            spec.seed = 0x1ADDE12 + 101 * i;
            generate(&spec, lib.clone())
        })
        .collect()
}

/// The descending protection-band ladder the sweep binaries walk.
const FRACTIONS: [f64; 4] = [0.95, 0.85, 0.70, 0.55];

#[test]
fn warm_retarget_matches_cold_runs_bit_for_bit() {
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        for algorithm in [Algorithm::ShortPath, Algorithm::PathBased, Algorithm::NodeBased] {
            let mut warm_bdd = Bdd::new(nl.inputs().len());
            let mut session =
                WarmSession::new(algorithm, &nl, &sta, &mut warm_bdd, Budget::unlimited());
            for frac in FRACTIONS {
                let target = delta * frac;
                let warm = session.retarget(target);

                let mut cold_bdd = Bdd::new(nl.inputs().len());
                let cold = spcf_with(algorithm, &nl, &sta, &mut cold_bdd, target);

                let warm_outs: Vec<NetId> = warm.outputs.iter().map(|o| o.output).collect();
                let cold_outs: Vec<NetId> = cold.outputs.iter().map(|o| o.output).collect();
                assert_eq!(
                    warm_outs, cold_outs,
                    "{}/{algorithm:?}@{frac}: critical-output lists differ",
                    nl.name()
                );
                for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: exports differ on {:?}",
                        nl.name(),
                        w.output
                    );
                }
            }
            assert_eq!(session.retargets(), FRACTIONS.len() as u64);
        }
    }
}

#[test]
fn descending_ladder_is_monotone() {
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        let mut bdd = Bdd::new(nl.inputs().len());
        let mut session =
            WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut bdd, Budget::unlimited());
        let mut prev: HashMap<NetId, tm_logic::bdd::BddRef> = HashMap::new();
        for frac in FRACTIONS {
            let spcf = session.retarget(delta * frac);
            let current: HashMap<_, _> =
                spcf.outputs.iter().map(|o| (o.output, o.spcf)).collect();
            // Σ_y(Δ') ⊆ Σ_y(Δ) for Δ' ≥ Δ: every output critical at the
            // looser target stays critical, with a superset SPCF, at
            // the tighter one.
            for (net, sigma_loose) in &prev {
                let sigma_tight = current
                    .get(net)
                    .unwrap_or_else(|| panic!("{}: output {net:?} lost criticality", nl.name()));
                assert!(
                    session.bdd_mut().is_subset(*sigma_loose, *sigma_tight),
                    "{}@{frac}: SPCF shrank on {net:?}",
                    nl.name()
                );
            }
            assert!(current.len() >= prev.len(), "{}: critical-output set shrank", nl.name());
            prev = current;
        }
    }
}

/// Regression for the ascending-step hazard: the engines' `retarget`
/// fast paths assume a *descending* ladder (memoized answers only gain
/// stabilization queries as the target tightens), and historically the
/// session trusted the caller to sort. An unsorted ladder silently
/// violated that contract. The session now detects an ascending step
/// and rebuilds the engine, so any call order must match cold runs bit
/// for bit — pinned here for every engine on an adversarially shuffled
/// ladder that ascends, descends, and revisits.
#[test]
fn unsorted_ladder_matches_cold_runs_bit_for_bit() {
    let unsorted = [0.70, 0.95, 0.55, 0.85, 0.55, 0.95];
    for nl in ladder_suite() {
        let sta = Sta::new(&nl);
        let delta = sta.critical_path_delay();
        for algorithm in [Algorithm::ShortPath, Algorithm::PathBased, Algorithm::NodeBased] {
            let mut warm_bdd = Bdd::new(nl.inputs().len());
            let mut session =
                WarmSession::new(algorithm, &nl, &sta, &mut warm_bdd, Budget::unlimited());
            for frac in unsorted {
                let target = delta * frac;
                let warm = session.retarget(target);

                let mut cold_bdd = Bdd::new(nl.inputs().len());
                let cold = spcf_with(algorithm, &nl, &sta, &mut cold_bdd, target);

                let warm_outs: Vec<NetId> = warm.outputs.iter().map(|o| o.output).collect();
                let cold_outs: Vec<NetId> = cold.outputs.iter().map(|o| o.output).collect();
                assert_eq!(
                    warm_outs, cold_outs,
                    "{}/{algorithm:?}@{frac}: critical-output lists differ on unsorted ladder",
                    nl.name()
                );
                for (w, c) in warm.outputs.iter().zip(&cold.outputs) {
                    assert_eq!(
                        session.bdd().export(w.spcf),
                        cold_bdd.export(c.spcf),
                        "{}/{algorithm:?}@{frac}: unsorted-ladder exports differ on {:?}",
                        nl.name(),
                        w.output
                    );
                }
            }
        }
    }
}

#[test]
fn warm_session_budget_hygiene() {
    let lib = Arc::new(lsi10k_like());
    let nl = generate(&GeneratorSpec::sized("hygiene", 12, 3, 60), lib);
    let sta = Sta::new(&nl);
    let delta = sta.critical_path_delay();

    let mut bdd = Bdd::new(nl.inputs().len());
    let outer = Budget::unlimited().with_max_steps(1 << 40);
    bdd.set_budget(outer);
    {
        let tight = Budget::unlimited().with_max_bdd_nodes(8);
        let mut session = WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut bdd, tight);
        let err = session.try_retarget(delta * 0.55);
        assert!(err.is_err(), "an 8-node budget cannot fit a 12-input SPCF");
    }
    // Drop restored the budget the caller had installed.
    assert_eq!(bdd.budget(), outer);

    // The same manager still works cold after the tripped session.
    let spcf = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, delta * 0.55);
    assert!(!spcf.outputs.is_empty());
}
