//! One degradation ladder, whoever asks: under a finite memo budget a
//! warm holder — a pooled server session walking a Δ_y ladder, or
//! `synthesize_sweep`'s warm session — must land every point on the
//! rung a fresh computation lands on, because a rung is given up only
//! when a *fresh* engine of it exhausts.

use std::sync::Arc;
use tm_masking::{synthesize, synthesize_sweep, MaskingOptions, MaskingReport};
use tm_netlist::blif::parse_blif;
use tm_netlist::library::lsi10k_like;
use tm_resilience::Budget;
use tm_server::gen::synthetic_blif;
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;

/// The 10-point descending ladder, 0.95 → 0.50 Δ.
const LADDER: [f64; 10] = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];

/// Memo caps spanning "the warm memo outgrows the cap mid-ladder" to
/// "every point fits".
const MEMO_BUDGETS: [u64; 5] = [1000, 1500, 2000, 3000, 5000];

fn blif() -> String {
    synthetic_blif(7, 12, 40)
}

fn spcf_payload(blif: &str, targets: &[f64]) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str("short-path")),
        ("targets", Json::Arr(targets.iter().map(|&t| Json::Num(t)).collect())),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

fn core(budget: Budget) -> ServeCore {
    ServeCore::new(ServeConfig { budget, ..ServeConfig::default() })
}

/// A report frame re-rendered with `seq` zeroed (its position in the
/// ladder is the one field allowed to differ), plus its algorithm.
fn normalized(frame: &str) -> (String, String) {
    let mut j = Json::parse(frame).expect("report frame parses");
    assert_eq!(j.get("type").and_then(Json::as_str), Some("report"), "{frame}");
    let algorithm = j.get("algorithm").and_then(Json::as_str).expect("algorithm").to_string();
    if let Json::Obj(members) = &mut j {
        for (k, v) in members.iter_mut() {
            if k == "seq" {
                *v = Json::Num(0.0);
            }
        }
    }
    (j.render(), algorithm)
}

#[test]
fn served_ladder_matches_fresh_cores_under_memo_budgets() {
    let _scope = tm_telemetry::Scope::enter();
    let blif = blif();
    let mut algorithms = std::collections::BTreeSet::new();
    for cap in MEMO_BUDGETS {
        let budget = Budget::unlimited().with_max_memo_entries(cap);
        let frames = core(budget).handle_payload(spcf_payload(&blif, &LADDER).as_bytes());
        assert_eq!(frames.len(), LADDER.len() + 1, "memo {cap}: {frames:?}");
        for (i, &point) in LADDER.iter().enumerate() {
            let fresh = core(budget).handle_payload(spcf_payload(&blif, &[point]).as_bytes());
            let (warm, algorithm) = normalized(&frames[i]);
            assert_eq!(
                warm,
                normalized(&fresh[0]).0,
                "memo {cap} @ {point}Δ: the warm session left the fresh core's rung"
            );
            algorithms.insert(algorithm);
        }
    }
    // Both rungs must occur, or the budgets exercise no fallback.
    assert!(
        algorithms.contains("short-path-based") && algorithms.contains("node-based"),
        "vacuous fixture: rungs seen {algorithms:?}"
    );
}

/// `report` without its wall-clock field.
fn timeless(report: &MaskingReport) -> String {
    format!("{:?}", MaskingReport { synthesis_time: Default::default(), ..report.clone() })
}

#[test]
fn sweep_points_match_cold_synthesis_under_memo_budgets() {
    let _scope = tm_telemetry::Scope::enter();
    let sop = parse_blif(&blif()).expect("generated BLIF parses");
    let netlist = tm_netlist::map::tech_map(&sop, Arc::new(lsi10k_like()), Default::default());
    let mut degraded = 0;
    for cap in MEMO_BUDGETS {
        let budget = Budget::unlimited().with_max_memo_entries(cap);
        let options = MaskingOptions { budget, ..MaskingOptions::default() };
        let points = synthesize_sweep(&netlist, &LADDER, &options);
        assert_eq!(points.len(), LADDER.len());
        for p in &points {
            let cold =
                synthesize(&netlist, MaskingOptions { target_fraction: p.fraction, ..options });
            assert_eq!(
                p.report.degradation, cold.report.degradation,
                "memo {cap} @ {}Δ: sweep and cold synthesis landed on different rungs",
                p.fraction
            );
            assert_eq!(timeless(&p.report), timeless(&cold.report), "memo {cap} @ {}Δ", p.fraction);
            degraded += usize::from(p.report.degradation != tm_masking::DegradationLevel::Exact);
        }
    }
    assert!(degraded > 0, "vacuous fixture: no sweep point degraded");
}
