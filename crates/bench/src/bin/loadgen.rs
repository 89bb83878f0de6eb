//! Smoke and chaos client for the `tm-server` daemon.
//!
//! ```text
//! loadgen --addr HOST:PORT [--smoke] [--expect-shed]
//!         [--stats-out metrics.json] [--requests N] [--seed N] [--shutdown]
//! ```
//!
//! The default run is a serial pass over a small corpus of circuits
//! with non-empty SPCFs (8 requests with `--smoke`, the CI entry point,
//! 24 otherwise), then a `STATS` check. `--expect-shed` adds a
//! connection burst that must trip admission control when the server
//! runs with a tiny `--admit`. `--stats-out` writes the `STATS`
//! metrics snapshot for schema validation. Timing the server is
//! perfbench's `serve_closed` workload, not this binary's.
//!
//! `--requests N` is the chaos entry point: a serial pass of N
//! requests under the shared `tm-client` retry policy against a daemon
//! armed via `TM_FAULTS`, tolerating injected failures but requiring
//! at least one success. `--shutdown` finishes by sending the
//! `shutdown` verb so the CI stage can assert a clean drain exit code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tm_client::{request, request_with_retry, RetryPolicy};
use tm_server::gen::synthetic_blif;
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

/// Circuits in the request mix (distinct seeds → distinct pool keys).
const CORPUS_SEEDS: [u64; 4] = [11, 22, 33, 44];

/// The `Δ_y` ladder of every request, relative to the circuit's
/// critical path delay. Descending, so the second point rides the warm
/// memo; at 0.3 every corpus circuit has a non-empty SPCF, while above
/// 0.8 none does.
const LADDER: [f64; 2] = [0.6, 0.3];

/// Per-request read timeout: generous, so only a wedged server trips it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The client-side retry policy for serial passes. More attempts than
/// [`RetryPolicy::default`]: under a tiny `--admit` the serial pass's
/// reconnects race the server's EOF processing, and the worst-case
/// backoff sum (~1.3 s) comfortably outlasts that race.
fn loadgen_policy() -> RetryPolicy {
    RetryPolicy { max_attempts: 8, ..RetryPolicy::default() }
}

fn corpus() -> Vec<String> {
    CORPUS_SEEDS
        .iter()
        .map(|&seed| {
            let payload = Json::obj([
                ("verb", Json::str("spcf")),
                ("blif", Json::str(synthetic_blif(seed, 10, 28))),
                ("algorithm", Json::str("short-path")),
                ("targets", Json::Arr(LADDER.map(Json::Num).to_vec())),
                ("relative", Json::Bool(true)),
            ]);
            payload.render()
        })
        .collect()
}

/// True when some in-process reference frame of the corpus reports a
/// non-empty SPCF. A corpus whose SPCFs are all empty drives the server
/// through no SPCF work and would let a broken engine pass.
fn corpus_has_spcf_work(payloads: &[String]) -> bool {
    let core = ServeCore::new(ServeConfig::default());
    payloads.iter().flat_map(|p| core.handle_payload(p.as_bytes())).any(|frame| {
        Json::parse(&frame)
            .ok()
            .and_then(|j| j.get("critical_patterns").and_then(Json::as_num))
            .is_some_and(|n| n > 0.0)
    })
}

fn tally(error_kinds: &mut Vec<(String, usize)>, kind: String) {
    match error_kinds.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, n)) => *n += 1,
        None => error_kinds.push((kind, 1)),
    }
}

/// A near-simultaneous connection burst. Returns how many requests were
/// answered with the typed `overloaded` rejection.
fn shed_burst(addr: &str, payload: &str, burst: usize) -> usize {
    let shed = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..burst {
        let addr = addr.to_string();
        let payload = payload.to_string();
        let shed = Arc::clone(&shed);
        handles.push(std::thread::spawn(move || {
            if let Err(e) = request(&addr, &payload, READ_TIMEOUT) {
                if e.kind == "overloaded" {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    shed.load(Ordering::Relaxed)
}

/// Serial chaos pass: `n` requests under the shared retry policy
/// against a (typically fault-armed) daemon. Injected failures are
/// tolerated and tallied by kind; the pass only fails if *nothing*
/// succeeds — a fault plane that kills every request means the
/// probabilities in `TM_FAULTS` are miscalibrated, not that the server
/// is resilient.
fn run_chaos(addr: &str, payloads: &[String], n: usize, policy: &RetryPolicy, rng: &mut Rng) -> bool {
    let mut ok = 0usize;
    let mut retried = 0usize;
    let mut error_kinds: Vec<(String, usize)> = Vec::new();
    for k in 0..n {
        match request_with_retry(addr, &payloads[k % payloads.len()], READ_TIMEOUT, policy, rng) {
            Ok(response) => {
                ok += 1;
                retried += (response.attempts - 1) as usize;
            }
            Err(e) => tally(&mut error_kinds, e.kind),
        }
    }
    error_kinds.sort_by(|a, b| a.0.cmp(&b.0));
    let errors: usize = error_kinds.iter().map(|(_, n)| n).sum();
    let kinds: Vec<String> =
        error_kinds.iter().map(|(kind, n)| format!("{kind}:{n}")).collect();
    eprintln!(
        "loadgen: chaos pass {ok}/{n} ok ({retried} retries, {errors} gave up{}{})",
        if kinds.is_empty() { "" } else { "; " },
        kinds.join(" ")
    );
    if ok == 0 {
        eprintln!("loadgen: FAIL chaos pass had zero successful requests");
        return false;
    }
    true
}

/// Sends the `shutdown` verb and confirms the server acknowledged it.
/// Retries generously: under an armed fault plane the acknowledgement
/// frame itself can be eaten by an injected read fault, in which case a
/// follow-up connection refused (the acceptor already stopped) still
/// proves the drain started.
fn send_shutdown(addr: &str) -> bool {
    let mut response_lost = false;
    for attempt in 0..10 {
        match request(addr, r#"{"verb":"shutdown"}"#, Duration::from_secs(5)) {
            Ok(response) => {
                let acked = response
                    .frames
                    .iter()
                    .any(|f| f.get("type").and_then(Json::as_str) == Some("shutdown"));
                if acked {
                    eprintln!("loadgen: shutdown acknowledged");
                    return true;
                }
            }
            Err(e) if e.kind == "read" => response_lost = true,
            Err(e) if e.kind == "connect" && response_lost => {
                eprintln!("loadgen: shutdown delivered (ack lost, acceptor closed)");
                return true;
            }
            Err(e) if attempt + 1 == 10 => {
                eprintln!("loadgen: FAIL shutdown verb not delivered: {e}");
                return false;
            }
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("loadgen: FAIL shutdown never acknowledged");
    false
}

/// Fetches the server's STATS frame.
fn fetch_stats(addr: &str, policy: &RetryPolicy, rng: &mut Rng) -> Result<Json, String> {
    let response = request_with_retry(addr, r#"{"verb":"stats"}"#, READ_TIMEOUT, policy, rng)
        .map_err(|e| e.to_string())?;
    response.frames.into_iter().next().ok_or_else(|| "empty stats response".to_string())
}

fn stats_counter(stats: &Json, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Json::as_arr)
        .and_then(|cs| {
            cs.iter()
                .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|c| c.get("value").and_then(Json::as_num))
        })
        .unwrap_or(0.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--smoke] [--expect-shed] [--stats-out FILE] \
         [--requests N] [--seed N] [--shutdown]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut smoke = false;
    let mut expect_shed = false;
    let mut stats_out: Option<String> = None;
    let mut chaos_requests: Option<usize> = None;
    let mut seed = 7177u64;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--smoke" => smoke = true,
            "--expect-shed" => expect_shed = true,
            "--stats-out" => stats_out = args.next(),
            "--requests" => {
                chaos_requests =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--shutdown" => shutdown = true,
            _ => usage(),
        }
    }
    let addr = addr.unwrap_or_else(|| usage());
    let payloads = corpus();
    if !corpus_has_spcf_work(&payloads) {
        eprintln!("loadgen: FAIL every reference SPCF of the corpus is empty");
        std::process::exit(1);
    }
    let policy = loadgen_policy();
    let mut rng = Rng::seed_from_u64(seed);
    let mut failed = false;

    // Serial pass: every request must succeed under the retry policy.
    // Skipped in chaos mode, where injected faults would fail it
    // spuriously.
    if chaos_requests.is_none() {
        let serial = if smoke { 8 } else { 24 };
        let mut ok = 0usize;
        for k in 0..serial {
            match request_with_retry(&addr, &payloads[k % payloads.len()], READ_TIMEOUT, &policy, &mut rng) {
                Ok(_) => ok += 1,
                Err(e) => {
                    eprintln!("loadgen: serial request {k} failed: {e}");
                    failed = true;
                }
            }
        }
        eprintln!("loadgen: serial pass {ok}/{serial} ok");
    }

    if let Some(n) = chaos_requests {
        if !run_chaos(&addr, &payloads, n, &policy, &mut rng) {
            failed = true;
        }
    }

    let mut shed_seen = 0usize;
    if expect_shed {
        shed_seen = shed_burst(&addr, &payloads[0], 16);
        eprintln!("loadgen: shed burst -> {shed_seen} overloaded rejections");
    }

    match fetch_stats(&addr, &policy, &mut rng) {
        Ok(stats) => {
            let requests = stats_counter(&stats, "serve.requests");
            let shed_total = stats_counter(&stats, "serve.shed");
            eprintln!("loadgen: server counted {requests} requests, {shed_total} shed");
            if expect_shed && shed_seen == 0 && shed_total == 0.0 {
                eprintln!("loadgen: FAIL expected at least one shed request");
                failed = true;
            }
            if let Some(path) = stats_out {
                let metrics =
                    stats.get("metrics").cloned().unwrap_or(Json::obj([]));
                if let Err(e) = std::fs::write(&path, metrics.render() + "\n") {
                    eprintln!("loadgen: cannot write {path}: {e}");
                    failed = true;
                }
            }
        }
        Err(e) => {
            eprintln!("loadgen: STATS failed: {e}");
            failed = true;
        }
    }

    if shutdown && !send_shutdown(&addr) {
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
}
