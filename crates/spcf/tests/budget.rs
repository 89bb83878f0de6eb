//! Budgeted-engine behavior: typed exhaustion instead of runaway
//! computation, and soundness of what a budget can never change.

use std::sync::Arc;
use tm_logic::Bdd;
use tm_netlist::circuits::ripple_adder;
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_resilience::{Budget, Resource};
use tm_spcf::{spcf_with, try_spcf_with, Algorithm, WarmSession};
use tm_sta::Sta;

#[test]
fn unlimited_budget_matches_infallible_api() {
    let nl = ripple_adder(Arc::new(lsi10k_like()), 3);
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let mut bdd = Bdd::new(nl.inputs().len());
    let a = try_spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target, Budget::unlimited())
        .unwrap();
    let b = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
    assert_eq!(a.outputs.len(), b.outputs.len());
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        assert_eq!(x.output, y.output);
        assert_eq!(x.spcf, y.spcf);
    }
}

#[test]
fn tiny_memo_budget_exhausts_short_path() {
    let _scope = tm_telemetry::Scope::enter();
    let lib = Arc::new(lsi10k_like());
    let nl = generate(&GeneratorSpec::sized("budget_sp", 12, 4, 56), lib.clone());
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    // The caller's manager carries a sentinel budget the failed run must
    // hand back untouched.
    let sentinel = Budget::unlimited().with_max_steps(777_777);
    let mut bdd = Bdd::new(nl.inputs().len());
    bdd.set_budget(sentinel);
    let budget = Budget::unlimited().with_max_memo_entries(2);
    let err = try_spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target, budget)
        .expect_err("a 2-entry memo cannot cover a 56-gate netlist");
    assert_eq!(err.resource, Resource::MemoEntries);
    assert_eq!(err.limit, 2);
    let snap = tm_telemetry::snapshot();
    assert_eq!(snap.counter("resilience.budget.exhausted"), Some(1), "one trip, counted once");
    assert_eq!(bdd.budget(), sentinel, "session must restore the caller's budget");

    // The same call with the budget lifted succeeds in the same manager
    // and matches a fresh run bit-for-bit.
    let unlimited = Budget::unlimited();
    let retry = try_spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target, unlimited)
        .expect("unlimited retry succeeds");
    let mut fresh_bdd = Bdd::new(nl.inputs().len());
    let fresh = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut fresh_bdd, target);
    assert_eq!(retry.outputs.len(), fresh.outputs.len());
    for (r, f) in retry.outputs.iter().zip(&fresh.outputs) {
        assert_eq!(r.output, f.output);
        assert_eq!(bdd.export(r.spcf), fresh_bdd.export(f.spcf));
    }
}

#[test]
fn tiny_node_budget_exhausts_all_engines() {
    let lib = Arc::new(lsi10k_like());
    let nl = generate(&GeneratorSpec::sized("budget_all", 12, 4, 56), lib.clone());
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let budget = Budget::unlimited().with_max_bdd_nodes(8);

    let mut b1 = Bdd::new(nl.inputs().len());
    assert!(try_spcf_with(Algorithm::ShortPath, &nl, &sta, &mut b1, target, budget).is_err());
    let mut b2 = Bdd::new(nl.inputs().len());
    assert!(try_spcf_with(Algorithm::PathBased, &nl, &sta, &mut b2, target, budget).is_err());
    let mut b3 = Bdd::new(nl.inputs().len());
    assert!(try_spcf_with(Algorithm::NodeBased, &nl, &sta, &mut b3, target, budget).is_err());
    // The cap really held: no manager grew past the limit.
    for b in [&b1, &b2, &b3] {
        assert!(b.node_count() as u64 <= 8, "{} nodes escaped the cap", b.node_count());
    }
}

#[test]
fn waveform_budget_exhausts_path_based_only() {
    // max_memo_entries caps the short-path memo AND the path-based
    // waveform store; the node-based pass has neither and must succeed
    // under the same budget — the property the degradation ladder
    // relies on.
    let lib = Arc::new(lsi10k_like());
    let nl = generate(&GeneratorSpec::sized("budget_nb", 12, 4, 56), lib.clone());
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let budget = Budget::unlimited().with_max_memo_entries(4);

    let mut b1 = Bdd::new(nl.inputs().len());
    assert!(try_spcf_with(Algorithm::PathBased, &nl, &sta, &mut b1, target, budget).is_err());
    let mut b2 = Bdd::new(nl.inputs().len());
    let nb = try_spcf_with(Algorithm::NodeBased, &nl, &sta, &mut b2, target, budget)
        .expect("node-based has no memo to exhaust");
    assert!(!nb.outputs.is_empty());
}

#[test]
fn ladder_lands_on_the_first_rung_that_fits() {
    // The degradation ladder steps down once per exhausted rung, counts
    // each step once, and hands the caller's budget back.
    let lib = Arc::new(lsi10k_like());
    let nl = generate(&GeneratorSpec::sized("budget_ladder", 12, 4, 56), lib);
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let cases = [
        (Budget::unlimited(), Algorithm::ShortPath, [0, 0]),
        (Budget::unlimited().with_max_memo_entries(4), Algorithm::NodeBased, [1, 0]),
        (Budget::unlimited().with_max_bdd_nodes(8), Algorithm::Conservative, [1, 1]),
    ];
    for (budget, landed, steps) in cases {
        let _scope = tm_telemetry::Scope::enter();
        let sentinel = Budget::unlimited().with_max_steps(777_777);
        let mut bdd = Bdd::new(nl.inputs().len());
        bdd.set_budget(sentinel);
        let set = WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut bdd, budget)
            .retarget(target);
        assert_eq!(set.algorithm, landed, "{budget:?}");
        assert!(!set.outputs.is_empty(), "a 0.9Δ target has critical outputs");
        let snap = tm_telemetry::snapshot();
        let counted = ["resilience.fallback.node_based", "resilience.fallback.conservative"]
            .map(|c| snap.counter(c).unwrap_or(0));
        assert_eq!(counted, steps, "{budget:?}: one count per step down");
        assert_eq!(bdd.budget(), sentinel, "the ladder restores the caller's budget");
    }
}
