//! Chaos battery, capacity-tier round: between-request GC interleaved
//! with an armed `bdd.alloc.fail` site must leak nothing.
//!
//! Each request under a watermark of 1 is followed by capacity
//! maintenance (mark-and-sweep GC + conditional reorder), so injected
//! allocation failures land in every phase of the session lifecycle:
//! mid-compute (the capacity retry recovers or the ladder degrades),
//! right before a GC (the dead prefix of a failed attempt must be
//! reclaimed), and across engine re-registration after a remap. The
//! invariants:
//!
//! - every request either completes (byte-identical to the fault-free
//!   reference unless legitimately degraded) or fails typed
//!   `exhausted` — nothing else;
//! - GC actually ran, concurrently with the armed plane;
//! - after disarming, one settling pass restores the exact reference
//!   responses and the live node count holds flat — the faulted
//!   interleavings left no garbage GC cannot reclaim and no divergent
//!   session state.
//!
//! Lives in its own test binary: the fault plane and the telemetry
//! registry are process-global, and the big seeded soak in `chaos.rs`
//! pins exact process-wide counters.

use tm_resilience::fault::{self, Site};
use tm_server::gen::synthetic_blif;
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;

/// The ladder sits low because these 7-input circuits have empty SPCFs
/// near Δ: at `[0.3, 0.15]` 4 of the 6 reference points are non-empty.
fn spcf_payload(blif: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str("short-path")),
        ("targets", Json::Arr(vec![Json::Num(0.3), Json::Num(0.15)])),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// Whether some frame reports a non-empty SPCF. A corpus whose SPCFs
/// are all empty runs the GC and fault oracles over no SPCF work.
fn reports_spcf_work(frames: &[String]) -> bool {
    frames.iter().any(|f| {
        Json::parse(f)
            .ok()
            .and_then(|j| j.get("critical_patterns").and_then(Json::as_num))
            .is_some_and(|n| n > 0.0)
    })
}

#[test]
fn gc_interleaved_with_armed_alloc_faults_leaks_nothing() {
    let _scope = tm_telemetry::Scope::enter();
    // Three circuits through a two-slot pool: cyclic rotation makes
    // every request a cold build, so every request allocates (probing
    // the armed site) and every request ends in watermark GC — the
    // densest possible interleaving of faults and collection.
    let payloads: Vec<String> = (0..3u64)
        .map(|i| spcf_payload(&synthetic_blif(0x9C + i, 7, 14)))
        .collect();

    let mut config = ServeConfig::default();
    config.pool_capacity = 2;
    // Maintenance after every request: GC is part of the contract the
    // reference pins, not an afterthought bolted onto the chaos run.
    config.gc_watermark = Some(1);

    let reference: Vec<Vec<String>> = {
        let core = ServeCore::new(config);
        payloads.iter().map(|p| core.handle_payload(p.as_bytes())).collect()
    };
    for (k, frames) in reference.iter().enumerate() {
        assert!(
            frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")),
            "reference run {k} must succeed: {frames:?}"
        );
    }
    assert!(
        reference.iter().any(|f| reports_spcf_work(f)),
        "corpus too trivial: every reference SPCF is empty"
    );

    let guard = fault::arm_scoped("bdd.alloc.fail@nth=233", 0x9C5EED).expect("valid fault spec");
    let core = ServeCore::new(config);
    let requests = 600usize;
    let (mut ok, mut identical, mut degraded, mut exhausted) = (0usize, 0usize, 0usize, 0usize);
    for k in 0..requests {
        let frames = core.handle_payload(payloads[k % payloads.len()].as_bytes());
        if frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")) {
            ok += 1;
            if frames == reference[k % payloads.len()] {
                identical += 1;
            } else if frames.iter().any(|f| {
                f.contains("\"type\":\"report\"") && !f.contains("\"algorithm\":\"short-path\"")
            }) {
                degraded += 1;
            } else {
                panic!("request {k}: non-degraded success diverged from the reference: {frames:?}");
            }
        } else {
            assert!(
                frames.iter().any(|f| f.contains("\"kind\":\"exhausted\"")),
                "request {k}: only an injected exhaustion may fail a request: {frames:?}"
            );
            exhausted += 1;
        }
    }
    let faults = guard.stats();
    eprintln!(
        "chaos gc round: {ok}/{requests} ok ({identical} identical, {degraded} degraded), \
         {exhausted} exhausted, {} alloc faults injected",
        faults.injected(Site::BddAlloc)
    );
    assert!(faults.injected(Site::BddAlloc) > 0, "the armed site must fire over {requests} requests");
    assert!(ok >= requests * 4 / 5, "too few successes ({ok}/{requests}) under nth=233");
    assert!(
        exhausted as u64 <= faults.injected(Site::BddAlloc),
        "exhausted responses ({exhausted}) exceed injected alloc faults"
    );

    let snap = tm_telemetry::snapshot();
    assert!(
        snap.counter("bdd.gc.runs").unwrap_or(0) >= requests as u64 / 2,
        "a watermark of 1 must GC between (nearly) all {requests} requests"
    );

    drop(guard);

    // Leak check: disarmed, the very next pass must reproduce the
    // reference byte-for-byte, and the live store must hold exactly
    // flat from then on.
    for (k, p) in payloads.iter().enumerate() {
        let frames = core.handle_payload(p.as_bytes());
        assert_eq!(
            frames, reference[k],
            "request {k}: fault-free service must return to the reference after the chaos round"
        );
    }
    let settled = core.pool_stats().bdd_nodes;
    for round in 0..20 {
        for p in &payloads {
            let frames = core.handle_payload(p.as_bytes());
            assert!(frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")), "{frames:?}");
        }
        assert_eq!(
            core.pool_stats().bdd_nodes,
            settled,
            "settling round {round}: live store drifted after disarm"
        );
    }
    tm_telemetry::schema::validate(&core.metrics_snapshot().to_json())
        .expect("final snapshot schema-valid");
}
