//! End-to-end degradation ladder (DESIGN.md §7): synthesis under a
//! tiny computation budget steps down to a coarser SPCF engine instead
//! of panicking or running away, and the mask it produces still passes
//! the exact BDD verification — degradation costs area, never
//! correctness.

use std::sync::Arc;
use tm_masking::{synthesize, verify, DegradationLevel, MaskingOptions};
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::Netlist;
use tm_resilience::Budget;
use tm_sta::Sta;

/// A 12-input random netlist large enough that the exact engines need
/// real memo/waveform storage.
fn ladder_netlist(name: &str) -> Netlist {
    generate(&GeneratorSpec::sized(name, 12, 4, 56), Arc::new(lsi10k_like()))
}

#[test]
fn unlimited_budget_stays_exact() {
    let nl = ladder_netlist("ladder_exact");
    let r = synthesize(&nl, MaskingOptions::default());
    assert_eq!(r.report.degradation, DegradationLevel::Exact);
    assert_eq!(r.spcf.algorithm, tm_spcf::Algorithm::ShortPath);
    assert!(!r.report.table2_row().contains("degraded"));
}

#[test]
fn memo_budget_degrades_to_node_based_and_still_verifies() {
    let _scope = tm_telemetry::Scope::enter();
    let nl = ladder_netlist("ladder_nb");
    // A 4-entry memo cannot cover a 56-gate netlist, so the exact
    // short-path engine exhausts; the node-based pass has no memo and
    // must succeed under the same budget.
    let budget = Budget::unlimited().with_max_memo_entries(4);
    let mut r = synthesize(&nl, MaskingOptions { budget, ..Default::default() });

    assert_eq!(r.report.degradation, DegradationLevel::NodeBased);
    assert_eq!(r.spcf.algorithm, tm_spcf::Algorithm::NodeBased);
    assert!(r.design.is_protected(), "a 0.9Δ target must protect something");
    assert!(r.report.table2_row().contains("degraded: node_based"));

    let snap = tm_telemetry::snapshot();
    assert!(snap.counter("resilience.budget.exhausted").unwrap_or(0) >= 1);
    assert!(snap.counter("resilience.fallback.node_based").unwrap_or(0) >= 1);
    assert_eq!(snap.counter("resilience.fallback.conservative").unwrap_or(0), 0);

    // The mask synthesized against the over-approximation passes the
    // exact checks: coverage, safety, transparency.
    let v = verify(&mut r);
    assert!(v.all_ok(), "{v:?}");
    assert_eq!(v.coverage(), 1.0);

    // Soundness of the fallback itself: the node-based SPCF contains
    // the exact one, so every true activation pattern is covered.
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let exact = tm_spcf::spcf_with(tm_spcf::Algorithm::ShortPath, &nl, &sta, &mut r.bdd, target);
    for o in &exact.outputs {
        let sup = r.spcf.spcf_of(o.output).expect("critical output present in fallback SPCF");
        assert!(r.bdd.is_subset(o.spcf, sup), "fallback SPCF must contain the exact SPCF");
    }
}

#[test]
fn node_budget_degrades_to_conservative_guard() {
    let _scope = tm_telemetry::Scope::enter();
    let nl = ladder_netlist("ladder_cons");
    // 8 BDD nodes starve every real engine, including node-based; only
    // the guard-everything rung (constant-true SPCFs) remains.
    let budget = Budget::unlimited().with_max_bdd_nodes(8);
    let mut r = synthesize(&nl, MaskingOptions { budget, ..Default::default() });

    assert_eq!(r.report.degradation, DegradationLevel::Conservative);
    assert_eq!(r.spcf.algorithm, tm_spcf::Algorithm::Conservative);
    assert!(r.design.is_protected());
    assert!(r.report.table2_row().contains("degraded: conservative"));
    for o in &r.spcf.outputs {
        assert_eq!(o.spcf, r.bdd.one(), "guard-everything SPCF is constant true");
    }

    let snap = tm_telemetry::snapshot();
    assert!(snap.counter("resilience.fallback.node_based").unwrap_or(0) >= 1);
    assert!(snap.counter("resilience.fallback.conservative").unwrap_or(0) >= 1);

    // Guarding everything is still sound: the indicator fires on every
    // pattern and the prediction is the full function.
    let v = verify(&mut r);
    assert!(v.all_ok(), "{v:?}");
    assert_eq!(v.coverage(), 1.0);
}
