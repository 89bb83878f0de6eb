//! End-to-end battery for flight-recorder tracing in the serving
//! stack: the `trace` verb, slow-request capture, phase attribution,
//! and — the property everything else defers to — bit-identity of
//! response frames with recording on and off.
//!
//! The tests share one process, and the recorder's force switch, its
//! per-thread rings and the slow log are process-global, so the tests
//! take turns through [`recorder_turn`]: a test that compares two
//! exports must not see another test's threads add or drain events
//! between them.

use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use tm_server::gen::synthetic_blif;
use tm_server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tm_server::serve::{ServeConfig, ServeCore};
use tm_telemetry::flight;
use tm_testkit::json::Json;

/// Serializes the tests of this binary on the process-global recorder.
/// A failed test poisons the lock; the next one still takes its turn.
fn recorder_turn() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spcf_payload(blif: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str("short-path")),
        ("targets", Json::Arr(vec![Json::Num(0.95), Json::Num(0.6)])),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// One request over TCP; returns the parsed response frames.
fn roundtrip(addr: std::net::SocketAddr, payload: &str) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    write_frame(&mut stream, payload.as_bytes()).expect("write");
    let mut frames = Vec::new();
    loop {
        let raw = match read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("read") {
            Some(raw) => raw,
            None => break,
        };
        let json = Json::parse(std::str::from_utf8(&raw).expect("utf8")).expect("frame json");
        let kind = json.get("type").and_then(Json::as_str).unwrap_or("").to_string();
        frames.push(json);
        if matches!(kind.as_str(), "done" | "stats" | "trace" | "mask_report" | "error") {
            break;
        }
    }
    frames
}

/// A Chrome trace event's numeric field.
fn num(ev: &Json, field: &str) -> f64 {
    ev.get(field).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn name_of<'j>(ev: &'j Json) -> &'j str {
    ev.get("name").and_then(Json::as_str).unwrap_or("")
}

fn trace_id_of(ev: &Json) -> u64 {
    ev.get("args").and_then(|a| a.get("trace")).and_then(Json::as_num).unwrap_or(0.0) as u64
}

/// Boots a full server (net + serve) with a zero slow threshold so
/// every request slow-captures, drives an `spcf` request through it,
/// pulls a `trace` export, and checks the acceptance criteria: the
/// request's capture is present, its phases nest inside the root span,
/// and the phase durations sum to within the root's wall time.
#[test]
fn slow_request_yields_nested_phase_tree_via_trace_verb() {
    let _turn = recorder_turn();
    flight::force_recording(true);
    let mut config = ServeConfig::for_workers(2);
    config.slow_threshold = Duration::ZERO;
    let core = Arc::new(ServeCore::new(config));
    let server = tm_server::net::serve(core, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let blif = synthetic_blif(7, 10, 30);
    let frames = roundtrip(addr, &spcf_payload(&blif));
    assert_eq!(
        frames.last().and_then(|f| f.get("type")).and_then(Json::as_str),
        Some("done"),
        "spcf must succeed: {frames:?}"
    );

    let trace = roundtrip(addr, r#"{"verb":"trace"}"#);
    server.shutdown();
    assert_eq!(trace.len(), 1);
    let frame = &trace[0];
    assert_eq!(frame.get("type").and_then(Json::as_str), Some("trace"));
    assert!(num(frame, "events") >= 1.0, "recorder saw events");
    assert!(num(frame, "slow") >= 1.0, "zero threshold must slow-capture");
    let events = frame
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_arr)
        .expect("Chrome trace JSON with traceEvents");

    // Find a slow capture (pid 2) of an spcf request: a root
    // serve.request span with a serve.compute phase in its trace.
    let slow_roots: Vec<&Json> = events
        .iter()
        .filter(|e| {
            name_of(e) == "serve.request"
                && e.get("ph").and_then(Json::as_str) == Some("X")
                && num(e, "pid") == 2.0
        })
        .collect();
    assert!(!slow_roots.is_empty(), "no slow-captured serve.request root");
    let root = slow_roots
        .iter()
        .find(|r| {
            let id = trace_id_of(r);
            events.iter().any(|e| {
                trace_id_of(e) == id && num(e, "pid") == 2.0 && name_of(e) == "serve.compute"
            })
        })
        .expect("an spcf capture (root with a serve.compute phase)");
    let id = trace_id_of(root);
    assert!(id > 0, "slow capture carries its trace id");
    let (root_ts, root_end) = (num(root, "ts"), num(root, "ts") + num(root, "dur"));

    // Phase spans of that request: known names, nested in the root,
    // and summing to within the root's wall time.
    let phases: Vec<&Json> = events
        .iter()
        .filter(|e| {
            trace_id_of(e) == id
                && num(e, "pid") == 2.0
                && e.get("ph").and_then(Json::as_str) == Some("X")
                && name_of(e) != "serve.request"
                && name_of(e).starts_with("serve.")
        })
        .collect();
    assert!(
        phases.iter().any(|p| name_of(p) == "serve.parse"),
        "parse phase attributed: {phases:?}"
    );
    assert!(
        phases.iter().any(|p| name_of(p) == "serve.pool"),
        "pool phase attributed: {phases:?}"
    );
    assert!(
        phases.iter().any(|p| name_of(p) == "serve.serialize"),
        "serialize phase attributed: {phases:?}"
    );
    const EPS_US: f64 = 0.002; // ns-scale float slack
    let mut phase_sum = 0.0;
    for p in &phases {
        let (ts, dur) = (num(p, "ts"), num(p, "dur"));
        assert!(
            ts >= root_ts - EPS_US && ts + dur <= root_end + EPS_US,
            "phase {} [{ts}..{}] outside root [{root_ts}..{root_end}]",
            name_of(p),
            ts + dur
        );
        phase_sum += dur;
    }
    assert!(
        phase_sum <= num(root, "dur") + EPS_US,
        "phase sum {phase_sum}us exceeds request wall {dur}us",
        dur = num(root, "dur")
    );

    // Engine-level attribution rides the same ids: the capture's
    // spcf.* phases nest inside serve.compute.
    assert!(
        events.iter().any(|e| trace_id_of(e) == id
            && num(e, "pid") == 2.0
            && name_of(e) == "spcf.output"),
        "per-output engine phases carry the request's trace id"
    );
}

/// The determinism half of the acceptance criteria, in-process: the
/// exact same request must produce byte-identical frames with the
/// recorder dormant and active.
#[test]
fn response_frames_are_bit_identical_with_recording_on_and_off() {
    let _turn = recorder_turn();
    let blif = synthetic_blif(11, 9, 28);
    let payload = spcf_payload(&blif);
    let run = |record: bool| -> Vec<String> {
        let _scope = tm_telemetry::Scope::enter();
        flight::set_thread_recording(Some(record));
        let core = ServeCore::new(ServeConfig::default());
        let frames = core.handle_payload(payload.as_bytes());
        // Also exercise the mask verb under both modes.
        let mask = core.handle_payload(
            format!(r#"{{"verb":"mask","blif":{}}}"#, Json::str(blif.clone()).render())
                .as_bytes(),
        );
        flight::set_thread_recording(None);
        flight::drain_thread();
        frames.into_iter().chain(mask).collect()
    };
    let dormant = run(false);
    let active = run(true);
    assert_eq!(dormant, active, "recording must be invisible in the bytes");
    assert!(
        dormant.iter().any(|f| f.contains("\"done\"")),
        "spcf request succeeded: {dormant:?}"
    );
}

/// `stats` surfaces the recorder itself: drop counts, buffered depth,
/// and the per-request counters, so ring overflow is visible to a
/// client instead of silent.
#[test]
fn stats_frame_surfaces_recorder_depth_and_drop_counts() {
    let _turn = recorder_turn();
    let _scope = tm_telemetry::Scope::enter();
    flight::set_thread_recording(Some(true));
    let core = ServeCore::new(ServeConfig::default());
    let blif = synthetic_blif(3, 8, 20);
    core.handle_payload(spcf_payload(&blif).as_bytes());
    let stats = core.handle_payload(br#"{"verb":"stats"}"#);
    flight::set_thread_recording(None);
    flight::drain_thread();
    let j = Json::parse(&stats[0]).expect("stats parses");
    let trace = j.get("trace").expect("stats carries a trace object");
    for field in ["threads", "buffered", "recorded", "dropped", "slow_captured", "slow_evicted"] {
        assert!(
            trace.get(field).and_then(Json::as_num).is_some(),
            "trace.{field} missing: {trace:?}"
        );
    }
    assert!(
        trace.get("recorded").and_then(Json::as_num).unwrap_or(0.0) >= 1.0,
        "request events were recorded: {trace:?}"
    );
    // The merged metrics carry the live recorder gauges and the
    // schema still validates end to end (digests included).
    let metrics = j.get("metrics").expect("metrics");
    tm_telemetry::schema::validate(metrics).expect("schema-valid with digests");
    let gauges = metrics.get("gauges").and_then(Json::as_arr).expect("gauges");
    assert!(
        gauges
            .iter()
            .any(|g| g.get("name").and_then(Json::as_str) == Some("serve.trace.dropped")),
        "recorder drop gauge exported: {gauges:?}"
    );
    let digests = metrics.get("digests").and_then(Json::as_arr).expect("digests");
    assert!(
        digests
            .iter()
            .any(|d| d.get("name").and_then(Json::as_str) == Some("serve.request_ns")),
        "request latency is a digest now: {digests:?}"
    );
}

/// The `trace` verb honors its `limit`, dropping oldest events with
/// exact accounting, and rejects malformed limits with a typed error.
#[test]
fn trace_verb_limit_truncates_and_bad_limits_are_typed() {
    let _turn = recorder_turn();
    flight::force_recording(true);
    let core = Arc::new(ServeCore::new(ServeConfig::for_workers(1)));
    let server = tm_server::net::serve(core, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let blif = synthetic_blif(23, 9, 26);
    let frames = roundtrip(addr, &spcf_payload(&blif));
    assert_eq!(
        frames.last().and_then(|f| f.get("type")).and_then(Json::as_str),
        Some("done")
    );

    let full = roundtrip(addr, r#"{"verb":"trace"}"#);
    let total = num(&full[0], "events");
    assert!(total >= 3.0, "need a few events to truncate: {total}");
    let capped = roundtrip(addr, r#"{"verb":"trace","limit":2}"#);
    assert_eq!(num(&capped[0], "events"), 2.0);
    assert!(num(&capped[0], "dropped") >= total - 2.0, "truncation is counted");

    let bad = roundtrip(addr, r#"{"verb":"trace","limit":0}"#);
    assert_eq!(bad[0].get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(bad[0].get("code").and_then(Json::as_str), Some("invalid"));
    server.shutdown();
}
