//! Long-haul serving soak (`TM_SOAK=1 cargo test -p tm-server --test
//! soak -- --ignored --nocapture` equivalent; the gate is the env var).
//!
//! Two phases against the in-process [`ServeCore`] (no sockets — the
//! TCP layer has its own battery; here the resource under test is the
//! pool's memory discipline over ~10k requests):
//!
//! 1. **Flat-memory**: rotating a circuit set that *fits* the pool,
//!    total BDD node count and engine memo entries must be exactly flat
//!    after warm-up — any drift is a leak the LRU cannot save us from,
//!    because it compounds per request, not per circuit. Evictions must
//!    be exactly zero.
//! 2. **Eviction-exactness**: rotating more circuits than capacity in
//!    cyclic order is the LRU worst case — every checkout must miss,
//!    and evictions must equal `requests - capacity` exactly.

use tm_server::gen::synthetic_blif;
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;

/// The ladder sits low enough for non-empty SPCFs on these 7-input
/// circuits: 14 of the 18 points the three phases rotate through are
/// non-empty.
fn spcf_payload(blif: &str, algorithm: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str(algorithm)),
        ("targets", Json::Arr(vec![Json::Num(0.6), Json::Num(0.3)])),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// Whether some frame reports a non-empty SPCF. A phase whose SPCFs are
/// all empty runs its memory oracles over no SPCF work.
fn reports_spcf_work(frames: &[String]) -> bool {
    frames.iter().any(|f| {
        Json::parse(f)
            .ok()
            .and_then(|j| j.get("critical_patterns").and_then(Json::as_num))
            .is_some_and(|n| n > 0.0)
    })
}

fn soak_enabled() -> bool {
    std::env::var("TM_SOAK").map(|v| v == "1").unwrap_or(false)
}

#[test]
fn pool_memory_stays_flat_and_evictions_are_exact() {
    if !soak_enabled() {
        eprintln!("soak: skipped (set TM_SOAK=1 to run)");
        return;
    }
    let _scope = tm_telemetry::Scope::enter();

    // Phase 1: working set fits the pool -> memory must be flat.
    let mut config = ServeConfig::default();
    config.pool_capacity = 4;
    let core = ServeCore::new(config);
    let circuits: Vec<String> =
        (0..4u64).map(|i| synthetic_blif(0x50AC + i, 7, 14)).collect();
    let algorithms = ["short-path", "node-based"];

    let warmup = 64usize;
    let total = 9_700usize;
    let mut spcf_work = false;
    for k in 0..warmup {
        let payload = spcf_payload(&circuits[k % circuits.len()], algorithms[k % 2]);
        let frames = core.handle_payload(payload.as_bytes());
        assert!(frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")), "{frames:?}");
        spcf_work |= reports_spcf_work(&frames);
    }
    assert!(spcf_work, "phase 1: every SPCF is empty");
    let warm = core.pool_stats();
    assert_eq!(warm.sessions, 4, "working set must be fully resident");

    for k in warmup..total {
        let payload = spcf_payload(&circuits[k % circuits.len()], algorithms[k % 2]);
        let frames = core.handle_payload(payload.as_bytes());
        assert!(frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")), "{frames:?}");
        if k % 1000 == 0 {
            let now = core.pool_stats();
            assert_eq!(
                (now.bdd_nodes, now.memo_entries),
                (warm.bdd_nodes, warm.memo_entries),
                "request {k}: pool memory drifted after warm-up"
            );
        }
    }
    let end = core.pool_stats();
    assert_eq!(end.bdd_nodes, warm.bdd_nodes, "BDD nodes grew across {total} requests");
    assert_eq!(end.memo_entries, warm.memo_entries, "memo entries grew across {total} requests");
    assert_eq!(end.evictions, 0, "a resident working set must never evict");
    assert_eq!(end.misses, 4, "each circuit builds exactly once");
    assert_eq!(end.hits, total as u64 - 4);

    let snap = tm_telemetry::snapshot();
    assert_eq!(snap.counter("serve.requests"), Some(total as u64));
    assert_eq!(snap.counter("serve.pool.evictions"), None, "no evictions may be counted");
    tm_telemetry::reset();

    // Phase 2: cyclic rotation beyond capacity -> the LRU worst case,
    // pinned exactly.
    let mut config = ServeConfig::default();
    config.pool_capacity = 2;
    let core = ServeCore::new(config);
    let rotating: Vec<String> =
        (0..3u64).map(|i| synthetic_blif(0xEE7 + i, 7, 14)).collect();
    let requests = 300usize;
    let mut spcf_work = false;
    for k in 0..requests {
        let payload = spcf_payload(&rotating[k % rotating.len()], "short-path");
        let frames = core.handle_payload(payload.as_bytes());
        assert!(frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")), "{frames:?}");
        spcf_work |= k < rotating.len() && reports_spcf_work(&frames);
    }
    assert!(spcf_work, "phase 2: every SPCF is empty");
    let stats = core.pool_stats();
    assert_eq!(stats.hits, 0, "cyclic rotation beyond capacity can never hit");
    assert_eq!(stats.misses, requests as u64);
    assert_eq!(
        stats.evictions,
        requests as u64 - 2,
        "every miss after the pool fills must evict exactly once"
    );
    let snap = tm_telemetry::snapshot();
    assert_eq!(snap.counter("serve.pool.evictions"), Some(requests as u64 - 2));
    assert_eq!(snap.counter("serve.pool.misses"), Some(requests as u64));
    tm_telemetry::reset();

    // Phase 3: a low GC watermark — the capacity tier keeps the live
    // store flat *between request boundaries*: after warm-up, every
    // between-request GC converges the session back to the same
    // steady-state live count, so the level observed at each request
    // boundary never drifts upward.
    let mut config = ServeConfig::default();
    config.pool_capacity = 2;
    config.gc_watermark = Some(1);
    let core = ServeCore::new(config);
    let gc_circuits: Vec<String> =
        (0..2u64).map(|i| synthetic_blif(0x6C + i, 7, 14)).collect();
    let gc_requests = 2_000usize;
    let gc_warmup = 32usize;
    let mut steady: Option<u64> = None;
    let mut spcf_work = false;
    for k in 0..gc_requests {
        let payload = spcf_payload(&gc_circuits[k % gc_circuits.len()], algorithms[k % 2]);
        let frames = core.handle_payload(payload.as_bytes());
        assert!(frames.last().is_some_and(|f| f.contains("\"type\":\"done\"")), "{frames:?}");
        spcf_work |= k < gc_warmup && reports_spcf_work(&frames);
        if k == gc_warmup {
            steady = Some(core.pool_stats().bdd_nodes);
        }
        if k > gc_warmup && k % 250 == 0 {
            let now = core.pool_stats().bdd_nodes;
            assert_eq!(
                Some(now),
                steady,
                "request {k}: bdd.store.live drifted between request boundaries under GC"
            );
        }
    }
    assert!(spcf_work, "phase 3: every SPCF is empty");
    let snap = tm_telemetry::snapshot();
    assert!(
        snap.counter("bdd.gc.runs").unwrap_or(0) >= gc_requests as u64 / 2,
        "watermark 1 must GC after (nearly) every request"
    );
}
