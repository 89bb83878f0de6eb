//! Integration test reproducing the paper's worked example (§4.2,
//! Fig. 2): the 2-bit comparator, end to end, with every number the
//! paper derives checked against our pipeline.

use std::sync::Arc;
use timemask::logic::Bdd;
use timemask::masking::{synthesize, verify, MaskingOptions};
use timemask::netlist::{circuits::comparator2, library::lsi10k_like, Delay};
use timemask::spcf::{spcf_with, Algorithm};
use timemask::sta::Sta;

/// Paper: "Assuming unit delay for an inverter and a delay of two units
/// for 2-input gates, the critical path delay of the 2-bit comparator
/// is 7" and `Δ_y = 6.3`.
#[test]
fn timing_matches_paper() {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let sta = Sta::new(&nl);
    assert_eq!(sta.critical_path_delay(), Delay::new(7.0));
    // Two speed-paths within 10% of Δ, both through the b-input
    // inverters (highlighted in Fig. 2a).
    let paths = sta.enumerate_paths(nl.outputs()[0], Delay::new(6.3), 10);
    assert_eq!(paths.paths.len(), 2);
    assert!(paths.paths.iter().all(|p| p.delay == Delay::new(7.0)));
}

/// Paper: `Σ_y(a0, a1, b0, b1, Δ_y) = ā1 + ā0·b1`.
#[test]
fn spcf_matches_paper_formula() {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;
    let mut bdd = Bdd::new(4);

    // All three engines on the worked example.
    let sp = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
    let pb = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, target);
    let nb = spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, target);

    // Expected formula (input order a0, a1, b0, b1 = BDD vars 0..3).
    let a0 = bdd.var(0);
    let a1 = bdd.var(1);
    let b1 = bdd.var(3);
    let na1 = bdd.not(a1);
    let na0 = bdd.not(a0);
    let t = bdd.and(na0, b1);
    let expect = bdd.or(na1, t);

    assert_eq!(sp.outputs[0].spcf, expect, "short-path");
    assert_eq!(pb.outputs[0].spcf, expect, "path-based");
    // Node-based over-approximates in general; on this example it is
    // exact (and must at least contain the exact set).
    assert!(bdd.is_subset(expect, nb.outputs[0].spcf));
    assert_eq!(sp.critical_pattern_count(&bdd), 10.0);
}

/// Golden numbers of the worked example, pinned against all three
/// engines: `Δ = 7`, `Δ_y = 6.3`, and 10 critical patterns. The
/// node-based over-approximation happens to be exact on Fig. 2, so all
/// three engines must report the same count.
#[test]
fn fig2_goldens_all_engines() {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let sta = Sta::new(&nl);
    let delta = sta.critical_path_delay();
    assert_eq!(delta, Delay::new(7.0), "Δ");
    let target = delta * 0.9;
    assert_eq!(target, Delay::new(6.3), "Δ_y");

    let mut bdd = Bdd::new(4);
    for (name, set) in [
        ("short-path", spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target)),
        ("path-based", spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, target)),
        ("node-based", spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, target)),
    ] {
        assert_eq!(set.target, target, "{name}: Δ_y");
        assert_eq!(set.outputs.len(), 1, "{name}: one critical output");
        assert_eq!(
            set.critical_pattern_count(&bdd),
            10.0,
            "{name}: critical pattern count"
        );
    }
}

/// Paper: `ỹ = (a0 + b̄0)(a1 + b̄1)` predicts `y` whenever `e = 1`, and
/// the simplified `e` covers `Σ_y` — i.e. 100 % masking.
#[test]
fn masking_circuit_reproduces_eqn_4() {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let mut result = synthesize(&nl, MaskingOptions::default());
    assert_eq!(result.design.protected.len(), 1);

    let verdict = verify(&mut result);
    assert!(verdict.all_ok());
    assert_eq!(verdict.coverage(), 1.0);

    // The prediction must equal the paper's ỹ on every pattern where
    // the paper's e (= ā1 + b1) is 1; our e may differ syntactically but
    // must also cover Σ_y = ā1 + ā0b1.
    let p = &result.design.protected[0];
    for m in 0..16u64 {
        let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
        let (a0, a1, b0, b1) = (a[0], a[1], a[2], a[3]);
        let vals = result.design.masking.eval_all_nets(&a);
        let e = vals[p.e.index()];
        let yt = vals[p.ytilde.index()];
        let y = nl.eval(&a)[0];
        let sigma = !a1 || (!a0 && b1);
        if sigma {
            assert!(e, "pattern {m}: Σ_y pattern without e");
        }
        if e {
            assert_eq!(yt, y, "pattern {m}: bad prediction under e");
        }
        // Sanity against the paper's closed forms.
        let paper_ytilde = (a0 || !b0) && (a1 || !b1);
        if e && sigma {
            assert_eq!(yt, paper_ytilde, "pattern {m}: ỹ differs from Eqn. 4 inside Σ_y");
        }
    }
}

/// The paper's headline: the masking circuit has > 20 % slack and the
/// combined design is functionally transparent.
#[test]
fn slack_and_transparency() {
    let nl = comparator2(Arc::new(lsi10k_like()));
    let result = synthesize(&nl, MaskingOptions::default());
    assert!(result.report.slack_met);
    assert!(result.report.slack_percent >= 20.0);
    for m in 0..16u64 {
        let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
        assert_eq!(result.design.combined.eval(&a), nl.eval(&a));
    }
}
