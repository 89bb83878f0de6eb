//! Open-loop load generator for the `tm-server` daemon.
//!
//! ```text
//! loadgen --addr HOST:PORT [--smoke] [--expect-shed]
//!         [--out BENCH_serve.json] [--stats-out metrics.json]
//!         [--duration-ms N] [--senders N]
//!         [--requests N] [--seed N] [--shutdown]
//! ```
//!
//! The full run sweeps arrival rates (calibrated from a serial warm-up
//! pass) with scheduled request start times — open loop, so a slow
//! server faces a growing backlog instead of a politely backing-off
//! client — and writes p50/p95/p99 latency plus achieved req/s per
//! rate to `BENCH_serve.json`. `--smoke` is the CI entry point: a
//! short serial pass, a connection burst that must trip admission
//! control when the server runs with a tiny `--admit`, and a `STATS`
//! check.
//!
//! `--requests N` is the chaos entry point: a serial pass of N
//! requests under the shared `tm-client` retry policy against a daemon
//! armed via `TM_FAULTS`, tolerating injected failures but requiring
//! at least one success. `--shutdown` finishes by sending the
//! `shutdown` verb so the CI stage can assert a clean drain exit code.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
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
/// [`RetryPolicy::default`]: under a tiny `--admit` the warm-up's
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

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let k = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[k.min(sorted.len() - 1)]
}

struct RatePoint {
    target_rps: f64,
    achieved_rps: f64,
    completed: usize,
    errors: usize,
    /// Error counts keyed by kind: typed server codes (`overloaded`,
    /// `exhausted`, ...) and client-side failure classes (`connect`,
    /// `read`, ...), name-sorted.
    error_kinds: Vec<(String, usize)>,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    max: Duration,
}

fn tally(error_kinds: &mut Vec<(String, usize)>, kind: String) {
    match error_kinds.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, n)) => *n += 1,
        None => error_kinds.push((kind, 1)),
    }
}

/// Open-loop pass at `rate` req/s for `duration`: request `k` starts at
/// `k/rate` regardless of how request `k-1` is doing. No retries — an
/// open-loop client measures the server's behavior under the offered
/// load, it doesn't soften it.
fn run_rate(addr: &str, payloads: &[String], rate: f64, duration: Duration, senders: usize) -> RatePoint {
    let total = ((rate * duration.as_secs_f64()).floor() as usize).max(1);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for s in 0..senders {
        let addr = addr.to_string();
        let payloads = payloads.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::new();
            let mut errors: Vec<String> = Vec::new();
            let mut k = s;
            while k < total {
                let scheduled = t0 + Duration::from_secs_f64(k as f64 / rate);
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                match request(&addr, &payloads[k % payloads.len()], READ_TIMEOUT) {
                    Ok(response) => latencies.push(response.latency),
                    Err(e) => errors.push(e.kind),
                }
                k += senders;
            }
            (latencies, errors)
        }));
    }
    let mut latencies: Vec<Duration> = Vec::new();
    let mut error_kinds: Vec<(String, usize)> = Vec::new();
    for h in handles {
        let (lat, errs) = h.join().expect("sender thread");
        latencies.extend(lat);
        for kind in errs {
            tally(&mut error_kinds, kind);
        }
    }
    error_kinds.sort_by(|a, b| a.0.cmp(&b.0));
    let elapsed = t0.elapsed();
    latencies.sort();
    RatePoint {
        target_rps: rate,
        achieved_rps: latencies.len() as f64 / elapsed.as_secs_f64(),
        completed: latencies.len(),
        errors: error_kinds.iter().map(|(_, n)| n).sum(),
        error_kinds,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        max: latencies.last().copied().unwrap_or(Duration::ZERO),
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

fn stats_gauge(stats: &Json, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(Json::as_arr)
        .and_then(|gs| {
            gs.iter()
                .find(|g| g.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|g| g.get("value").and_then(Json::as_num))
        })
        .unwrap_or(0.0)
}

/// Pool-wide BDD store levels sampled off `stats` frames across the
/// run: the high-water marks answer "how big did the warm pool get",
/// the final live count is what the soak's flat-memory oracle pins.
#[derive(Default)]
struct StoreWatermarks {
    peak_live: f64,
    peak_capacity: f64,
    final_live: f64,
}

impl StoreWatermarks {
    fn sample(&mut self, stats: &Json) {
        let live = stats_gauge(stats, "bdd.store.live");
        let capacity = stats_gauge(stats, "bdd.store.capacity");
        self.peak_live = self.peak_live.max(live);
        self.peak_capacity = self.peak_capacity.max(capacity);
        self.final_live = live;
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [--smoke] [--expect-shed] [--out FILE] \
         [--stats-out FILE] [--duration-ms N] [--senders N] [--requests N] \
         [--seed N] [--shutdown]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut smoke = false;
    let mut expect_shed = false;
    let mut out: Option<String> = None;
    let mut stats_out: Option<String> = None;
    let mut duration = Duration::from_millis(2000);
    let mut senders = 8usize;
    let mut chaos_requests: Option<usize> = None;
    let mut seed = 7177u64;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--smoke" => smoke = true,
            "--expect-shed" => expect_shed = true,
            "--out" => out = args.next(),
            "--stats-out" => stats_out = args.next(),
            "--duration-ms" => {
                duration = Duration::from_millis(
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
                )
            }
            "--senders" => {
                senders = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
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
    let mut store = StoreWatermarks::default();

    // Warm-up / calibration: serial requests measure the per-request
    // cost with a warm pool and give the rate sweep its scale. Skipped
    // in chaos mode, where injected faults would fail it spuriously.
    let mut serial_p50 = Duration::ZERO;
    if chaos_requests.is_none() {
        let warmup = if smoke { 8 } else { 24 };
        let mut serial = Vec::new();
        for k in 0..warmup {
            match request_with_retry(&addr, &payloads[k % payloads.len()], READ_TIMEOUT, &policy, &mut rng) {
                Ok(response) => serial.push(response.latency),
                Err(e) => {
                    eprintln!("loadgen: warm-up request {k} failed: {e}");
                    failed = true;
                }
            }
        }
        serial.sort();
        serial_p50 = percentile(&serial, 0.5);
        eprintln!(
            "loadgen: warm-up {}/{warmup} ok, serial p50 {:.2} ms",
            serial.len(),
            serial_p50.as_secs_f64() * 1e3
        );
        if let Ok(stats) = fetch_stats(&addr, &policy, &mut rng) {
            store.sample(&stats);
        }
    }

    let mut rate_points = Vec::new();
    if !smoke && chaos_requests.is_none() && serial_p50 > Duration::ZERO {
        // Sweep multiples of the serial throughput; the top rung is
        // far past what one connection can sustain, so the best
        // achieved rate is the saturation throughput.
        let base = 1.0 / serial_p50.as_secs_f64().max(1e-6);
        for mult in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let rate = base * mult;
            let point = run_rate(&addr, &payloads, rate, duration, senders);
            eprintln!(
                "loadgen: target {:.1} rps -> achieved {:.1} rps, p50 {:.2} ms, p99 {:.2} ms, {} errors",
                point.target_rps,
                point.achieved_rps,
                point.p50.as_secs_f64() * 1e3,
                point.p99.as_secs_f64() * 1e3,
                point.errors
            );
            rate_points.push(point);
            if let Ok(stats) = fetch_stats(&addr, &policy, &mut rng) {
                store.sample(&stats);
            }
        }
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
            store.sample(&stats);
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

    if let Some(path) = out {
        let saturation = rate_points
            .iter()
            .map(|p| p.achieved_rps)
            .fold(0.0f64, f64::max);
        let points: Vec<Json> = rate_points
            .iter()
            .map(|p| {
                let kinds: Vec<Json> = p
                    .error_kinds
                    .iter()
                    .map(|(kind, n)| {
                        Json::obj([
                            ("kind", Json::str(kind.clone())),
                            ("count", Json::Num(*n as f64)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("target_rps", Json::Num(p.target_rps)),
                    ("achieved_rps", Json::Num(p.achieved_rps)),
                    ("completed", Json::Num(p.completed as f64)),
                    ("errors", Json::Num(p.errors as f64)),
                    ("error_kinds", Json::Arr(kinds)),
                    ("p50_ns", Json::Num(p.p50.as_nanos() as f64)),
                    ("p95_ns", Json::Num(p.p95.as_nanos() as f64)),
                    ("p99_ns", Json::Num(p.p99.as_nanos() as f64)),
                    ("max_ns", Json::Num(p.max.as_nanos() as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("group", Json::str("serve")),
            ("senders", Json::Num(senders as f64)),
            ("duration_ms", Json::Num(duration.as_millis() as f64)),
            ("serial_p50_ns", Json::Num(serial_p50.as_nanos() as f64)),
            ("rates", Json::Arr(points)),
            ("saturation_rps", Json::Num(saturation)),
            (
                "meta",
                Json::obj([
                    ("retry_policy", policy.to_json()),
                    ("seed", Json::Num(seed as f64)),
                    (
                        "bdd_store",
                        Json::obj([
                            ("peak_live", Json::Num(store.peak_live)),
                            ("peak_capacity", Json::Num(store.peak_capacity)),
                            ("final_live", Json::Num(store.final_live)),
                        ]),
                    ),
                ]),
            ),
        ]);
        match std::fs::File::create(&path)
            .and_then(|mut f| writeln!(f, "{}", doc.render()))
        {
            Ok(()) => eprintln!("loadgen: wrote {path}"),
            Err(e) => {
                eprintln!("loadgen: cannot write {path}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
