//! Seeded chaos soak: 5 000 requests from 4 client threads against a
//! live TCP daemon with the fault plane armed — socket errors, short
//! reads, frame-parse rejections, BDD/memo exhaustion, admission
//! refusals, and mid-compute panics, all injected deterministically
//! from one seed.
//!
//! What must hold (the PR's acceptance criteria):
//!
//! - **No hangs**: a watchdog aborts the process if the soak exceeds
//!   its wall budget; every client call also has a read timeout.
//! - **No un-injected failures**: every client-visible error kind is
//!   attributable to an armed site — `internal` errors are bounded by
//!   `compute.panic` injections, `parse` by `frame.parse`, `exhausted`
//!   by the resource-exhaustion sites; transport kinds by the I/O
//!   sites; nothing else appears.
//! - **Determinism**: a successful response is byte-identical to the
//!   fault-free reference for its payload, unless it was legitimately
//!   degraded by an injected exhaustion (different `algorithm` in the
//!   report frames).
//! - **Balance**: after a clean drain, the admission gate is at zero,
//!   the pool holds no more sessions than circuits, and the final
//!   metrics snapshot is schema-valid.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tm_resilience::fault::{self, Site};
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

const TOTAL_REQUESTS: usize = 5_000;
const CLIENT_THREADS: usize = 4;
const SOAK_SEED: u64 = 0xC4A0_5EED;
const WALL_BUDGET_SECS: u64 = 300;

/// Everything armed except the delay sites (which would slow the soak
/// without changing coverage — the deadline path has its own test) and
/// `worker.spawn.fail` (exercised in the CI chaos-smoke stage).
const FAULT_SPEC: &str = "io.read.err@p=0.01;io.read.short@p=0.005;io.write.err@p=0.01;\
     io.write.short@p=0.005;frame.parse@nth=97;bdd.alloc.fail@nth=211;\
     memo.insert.fail@nth=151;gate.admit.fail@p=0.01;compute.panic@nth=401";

fn corpus() -> Vec<String> {
    [11u64, 22, 33, 44]
        .iter()
        .map(|&seed| {
            Json::obj([
                ("verb", Json::str("spcf")),
                ("blif", Json::str(tm_server::gen::synthetic_blif(seed, 7, 14))),
                ("algorithm", Json::str("short-path")),
                // Low enough for non-empty SPCFs: 5 of the 8
                // reference points are.
                ("targets", Json::Arr(vec![Json::Num(0.6), Json::Num(0.3)])),
                ("relative", Json::Bool(true)),
            ])
            .render()
        })
        .collect()
}

/// Whether some frame reports a non-empty SPCF. A corpus whose SPCFs
/// are all empty runs the soak's oracles over no SPCF work.
fn reports_spcf_work(frames: &[String]) -> bool {
    frames.iter().any(|f| {
        Json::parse(f)
            .ok()
            .and_then(|j| j.get("critical_patterns").and_then(Json::as_num))
            .is_some_and(|n| n > 0.0)
    })
}

fn soak_config() -> ServeConfig {
    let mut config = ServeConfig::for_workers(4);
    config.pool_capacity = 8;
    config.admit = 64;
    // Occupancy never degrades: any degraded response in this soak is
    // attributable to an injected exhaustion, nothing else.
    config.degrade_node_based_at = usize::MAX;
    config.degrade_conservative_at = usize::MAX;
    config.read_timeout = Duration::from_secs(5);
    config.frame_deadline = Duration::from_secs(10);
    config
}

/// Whether a successful response stream was degraded below the
/// requested algorithm (an injected exhaustion walked the ladder down).
fn is_degraded(frames: &[Json]) -> bool {
    frames.iter().any(|f| {
        f.get("type").and_then(Json::as_str) == Some("report")
            && f.get("algorithm").and_then(Json::as_str) != Some("short-path")
    })
}

#[derive(Default)]
struct Tally {
    ok: usize,
    identical: usize,
    degraded: usize,
    mismatched: usize,
    errors: Vec<(String, usize)>,
}

impl Tally {
    fn error(&mut self, kind: String) {
        match self.errors.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.errors.push((kind, 1)),
        }
    }

    fn error_count(&self, kind: &str) -> usize {
        self.errors.iter().find(|(k, _)| k == kind).map(|(_, n)| *n).unwrap_or(0)
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.identical += other.identical;
        self.degraded += other.degraded;
        self.mismatched += other.mismatched;
        for (kind, n) in other.errors {
            match self.errors.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, m)) => *m += n,
                None => self.errors.push((kind, n)),
            }
        }
    }
}

#[test]
fn seeded_chaos_soak_holds_every_invariant() {
    // Watchdog: a hang anywhere below must fail loudly, not wedge CI.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..WALL_BUDGET_SECS {
                std::thread::sleep(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) {
                    return;
                }
            }
            eprintln!("chaos soak exceeded {WALL_BUDGET_SECS}s wall budget: aborting");
            std::process::abort();
        });
    }

    let payloads = corpus();

    // Fault-free reference frames, computed BEFORE arming the plane
    // (the plane is process-global). Frames exclude wall-clock fields,
    // so byte-identity across runs is the designed contract.
    let reference: Vec<Vec<String>> = {
        let core = ServeCore::new(soak_config());
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

    let guard = fault::arm_scoped(FAULT_SPEC, SOAK_SEED).expect("valid fault spec");
    let core = Arc::new(ServeCore::new(soak_config()));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    // Tight backoff keeps 5k requests fast; determinism of the retry
    // schedule itself is pinned in backoff_props.
    let policy = tm_client::RetryPolicy {
        base: Duration::from_millis(2),
        multiplier: 2.0,
        cap: Duration::from_millis(50),
        jitter: 0.25,
        max_attempts: 6,
    };

    let schema_failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();
    for tid in 0..CLIENT_THREADS {
        let addr = addr.clone();
        let payloads = payloads.clone();
        let reference = reference.clone();
        let schema_failures = Arc::clone(&schema_failures);
        threads.push(std::thread::spawn(move || {
            let mut rng = Rng::seed_from_u64(SOAK_SEED ^ (tid as u64 + 1));
            let mut tally = Tally::default();
            let per_thread = TOTAL_REQUESTS / CLIENT_THREADS;
            for i in 0..per_thread {
                let k = (tid * per_thread + i) % payloads.len();
                match tm_client::request_with_retry(
                    &addr,
                    &payloads[k],
                    Duration::from_secs(60),
                    &policy,
                    &mut rng,
                ) {
                    Ok(response) => {
                        tally.ok += 1;
                        if response.raw == reference[k] {
                            tally.identical += 1;
                        } else if is_degraded(&response.frames) {
                            tally.degraded += 1;
                        } else {
                            tally.mismatched += 1;
                            eprintln!(
                                "thread {tid} req {i}: non-degraded mismatch\n got: {:?}\nwant: {:?}",
                                response.raw, reference[k]
                            );
                        }
                    }
                    Err(e) => tally.error(e.kind),
                }
                // Thread 0 pulls stats periodically: every snapshot the
                // server hands out mid-chaos must be schema-valid.
                // Best-effort — the stats request itself can be eaten
                // by an injected fault.
                if tid == 0 && i % 250 == 249 {
                    if let Ok(response) = tm_client::request_with_retry(
                        &addr,
                        r#"{"verb":"stats"}"#,
                        Duration::from_secs(30),
                        &policy,
                        &mut rng,
                    ) {
                        let metrics = response.frames[0].get("metrics").cloned();
                        let report = metrics.expect("stats frame has metrics");
                        if let Err(violations) = tm_telemetry::schema::validate(&report) {
                            schema_failures
                                .lock()
                                .unwrap()
                                .extend(violations.into_iter().map(|v| format!("req {i}: {v}")));
                        }
                    }
                }
            }
            tally
        }));
    }
    let mut tally = Tally::default();
    for t in threads {
        tally.merge(t.join().expect("client thread"));
    }
    done.store(true, Ordering::SeqCst);

    // Drain while still armed: the teardown path must also survive
    // injected faults.
    core.request_drain();
    let report = handle.drain(Duration::from_secs(10));
    let faults = guard.stats();
    let snap = core.metrics_snapshot();
    drop(guard);

    let total_errors: usize = tally.errors.iter().map(|(_, n)| n).sum();
    eprintln!(
        "chaos soak: {}/{TOTAL_REQUESTS} ok ({} identical, {} degraded), {total_errors} gave up {:?}, \
         {} faults injected",
        tally.ok, tally.identical, tally.degraded, tally.errors, faults.total
    );

    // The plane actually fired, across the surfaces we armed.
    assert!(faults.total > 0, "a 5k soak under this spec must inject faults");
    assert!(
        faults.injected(Site::IoReadErr)
            + faults.injected(Site::IoReadShort)
            + faults.injected(Site::IoWriteErr)
            + faults.injected(Site::IoWriteShort)
            > 0,
        "I/O sites must fire: {faults:?}"
    );

    // Liveness: chaos tolerated, not suffered. The spec's probabilities
    // make the overwhelming majority of requests succeed via retries.
    assert!(
        tally.ok >= TOTAL_REQUESTS * 4 / 5,
        "too few successes ({}/{TOTAL_REQUESTS}): miscalibrated spec or a real bug",
        tally.ok
    );

    // Determinism: every success is byte-identical or legitimately
    // degraded by an injected exhaustion.
    assert_eq!(tally.mismatched, 0, "non-degraded responses must be byte-identical");
    if tally.degraded > 0 {
        assert!(
            faults.injected(Site::BddAlloc) + faults.injected(Site::MemoInsert) > 0,
            "degraded responses without an injected exhaustion"
        );
    }

    // Every failure kind is attributable to an armed site.
    for (kind, n) in &tally.errors {
        assert!(
            matches!(kind.as_str(), "read" | "write" | "connect" | "overloaded" | "exhausted" | "parse" | "internal"),
            "un-injected error kind {kind} ({n} times)"
        );
    }
    assert!(
        tally.error_count("internal") as u64 <= faults.injected(Site::ComputePanic),
        "internal errors ({}) exceed injected compute panics ({})",
        tally.error_count("internal"),
        faults.injected(Site::ComputePanic)
    );
    assert!(
        tally.error_count("parse") as u64 <= faults.injected(Site::FrameParse),
        "parse errors ({}) exceed injected parse faults ({})",
        tally.error_count("parse"),
        faults.injected(Site::FrameParse)
    );
    assert!(
        tally.error_count("exhausted") as u64
            <= faults.injected(Site::BddAlloc) + faults.injected(Site::MemoInsert),
        "exhausted errors exceed injected exhaustions"
    );

    // Mid-chaos stats snapshots were all schema-valid.
    let schema_failures = schema_failures.lock().unwrap();
    assert!(schema_failures.is_empty(), "mid-chaos stats violations: {schema_failures:?}");

    // Balance after the drain: clean, gate at zero, pool bounded, and
    // the final snapshot schema-valid with the fault counters folded.
    assert!(report.clean, "drain must be clean: {report:?}");
    assert_eq!(core.gate().in_flight(), 0, "leaked admission permits");
    assert!(
        core.pool_stats().sessions <= payloads.len(),
        "leaked pool sessions: {:?}",
        core.pool_stats()
    );
    tm_telemetry::schema::validate(&snap.to_json()).expect("final snapshot schema-valid");
    assert_eq!(
        snap.counter("fault.injected.total"),
        Some(faults.total),
        "telemetry and plane disagree on injections"
    );
}
