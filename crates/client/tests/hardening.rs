//! Server-hardening battery: permit balance on rude disconnects,
//! slowloris frame deadlines, idle reaping, and the shutdown-verb
//! drain. Lives in `tm-client` (not `tm-server`) so the battery can
//! exercise the real client library against the real TCP front without
//! a dev-dependency cycle.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_server::serve::{ServeConfig, ServeCore};
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

fn tiny_blif() -> String {
    ".model tiny\n.inputs a b c\n.outputs y\n.names a b n1\n11 1\n.names n1 c y\n10 1\n01 1\n.end\n"
        .to_string()
}

fn spcf_payload() -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(tiny_blif())),
        ("algorithm", Json::str("short-path")),
        ("targets", Json::Arr(vec![Json::Num(0.9)])),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// An `spcf` request for `blif` at the default engine and one target.
fn spcf_request(blif: String) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("targets", Json::Arr(vec![Json::Num(0.9)])),
    ])
    .render()
}

/// Fetches the stats frame and returns (frame, counter lookup closure input).
fn fetch_stats(addr: &str) -> Json {
    let policy = tm_client::RetryPolicy::default();
    let mut rng = Rng::seed_from_u64(1);
    let response = tm_client::request_with_retry(
        addr,
        r#"{"verb":"stats"}"#,
        Duration::from_secs(10),
        &policy,
        &mut rng,
    )
    .expect("stats request");
    response.frames.into_iter().next().expect("stats frame")
}

fn counter(stats: &Json, name: &str) -> f64 {
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

fn wait_in_flight_zero(core: &ServeCore) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while core.gate().in_flight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Satellite 1: a client that dies mid-frame must release its
/// admission permit. With `admit = 1` a leaked permit would wedge the
/// server permanently — the follow-up request only succeeds if the
/// balance returned to zero. Counter-pinned via the stats frame's live
/// `inflight` gauge (== 1: exactly the stats connection itself).
#[test]
fn mid_frame_disconnect_releases_the_permit() {
    let mut config = ServeConfig::for_workers(2);
    config.admit = 1;
    let core = Arc::new(ServeCore::new(config));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    // Promise an 80-byte frame, deliver 8 bytes, slam the door.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(&80u32.to_be_bytes()).expect("prefix");
        stream.write_all(b"{\"verb\":").expect("partial payload");
    } // dropped here, mid-frame

    // Only a returned permit lets this through (admit = 1).
    let stats = fetch_stats(&addr);
    assert_eq!(
        stats.get("inflight").and_then(Json::as_num),
        Some(1.0),
        "live in-flight must be exactly the stats connection: {stats:?}"
    );

    wait_in_flight_zero(&core);
    assert_eq!(core.gate().in_flight(), 0, "permit balance must return to zero");
    let report = handle.drain(Duration::from_secs(5));
    assert!(report.clean, "nothing in flight, drain must be clean: {report:?}");
    assert_eq!(report.forced, 0);
}

/// A slowloris connection — frame started, bytes trickling in slower
/// than the frame deadline — is answered with a typed `timeout` frame,
/// closed, and counted in `serve.deadline.hits`.
#[test]
fn slowloris_trips_the_frame_deadline() {
    let mut config = ServeConfig::for_workers(2);
    config.frame_deadline = Duration::from_millis(150);
    config.read_timeout = Duration::from_secs(5); // idle window stays out of the way
    let core = Arc::new(ServeCore::new(config));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // Two prefix bytes start the frame clock; then silence.
    stream.write_all(&[0u8, 0u8]).expect("partial prefix");
    let frame = tm_server::protocol::read_frame(&mut stream, tm_server::DEFAULT_MAX_FRAME)
        .expect("read typed reject")
        .expect("a frame, not EOF");
    let json = Json::parse(std::str::from_utf8(&frame).expect("utf8")).expect("json");
    assert_eq!(json.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        json.get("code").and_then(Json::as_str),
        Some("timeout"),
        "deadline kill must be the typed timeout: {json:?}"
    );
    // And the connection is closed behind the reject.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "closed after reject");
    drop(stream);

    let stats = fetch_stats(&addr);
    assert!(
        counter(&stats, "serve.deadline.hits") >= 1.0,
        "deadline hit must be counted: {stats:?}"
    );
    handle.shutdown();
}

/// A connection that never sends anything is reaped silently at the
/// idle window — no error frame, no counter but `serve.idle.reaped`,
/// and the worker is free again afterwards.
#[test]
fn idle_connection_is_reaped_silently() {
    let mut config = ServeConfig::for_workers(2);
    config.read_timeout = Duration::from_millis(100); // idle window
    config.frame_deadline = Duration::from_secs(5);
    let core = Arc::new(ServeCore::new(config));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // Send nothing: the server must close without a frame.
    let mut buf = Vec::new();
    assert_eq!(stream.read_to_end(&mut buf).unwrap_or(0), 0, "reaped without an answer");
    drop(stream);

    let stats = fetch_stats(&addr);
    assert!(counter(&stats, "serve.idle.reaped") >= 1.0, "reap must be counted: {stats:?}");
    assert_eq!(counter(&stats, "serve.deadline.hits"), 0.0, "idle is not a deadline hit");
    handle.shutdown();
}

/// A small frame whose BLIF gives a 20-input node by off-set rows —
/// complementing it by exact minimization would cost about 4^20 table
/// bits, fourfold per input — is answered with a typed `parse` reject
/// naming the off-set fanin limit, within a second.
#[test]
fn wide_offset_blif_is_a_fast_parse_reject() {
    let core = Arc::new(ServeCore::new(ServeConfig::for_workers(2)));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    let inputs = "a b c d e f g h i j k l m n o p q r s t";
    let blif = format!(
        ".model w\n.inputs {inputs}\n.outputs y\n.names {inputs} y\n\
         1-1-1-1-1-1-1-1-1-1- 0\n0--0--0--0--0--0--0- 0\n"
    );
    let payload = spcf_request(blif);
    assert!(payload.len() <= 256, "frame is {} bytes", payload.len());

    let start = Instant::now();
    let err = tm_client::request(&addr, &payload, Duration::from_secs(30))
        .expect_err("a wide off-set node must be rejected");
    let elapsed = start.elapsed();
    assert_eq!(err.kind, "parse", "{err:?}");
    assert!(err.message.contains("limited to 10 fanins"), "{err:?}");
    assert!(elapsed < Duration::from_secs(1), "reject took {elapsed:?}");
    handle.shutdown();
}

/// A BLIF document of `blocks` single-row off-set `.names` blocks of 10
/// fanins each, every block driving an output.
fn offset_blocks_blif(blocks: usize) -> String {
    let fanins = "a b c d e f g h i j";
    let outputs: Vec<String> = (0..blocks).map(|b| format!("y{b}")).collect();
    let mut blif = format!(".model packed\n.inputs {fanins}\n.outputs {}\n", outputs.join(" "));
    for out in &outputs {
        blif.push_str(&format!(".names {fanins} {out}\n1-0-1-0-1- 0\n"));
    }
    blif.push_str(".end\n");
    blif
}

/// Each 10-fanin off-set block is cheap on its own, but a frame near
/// the size limit holds tens of thousands of them. The parser caps the
/// complementation work of a whole document, so such a frame is a
/// typed `parse` reject well inside the frame deadline, while a
/// 20-block document still parses and is answered.
#[test]
fn frame_packed_with_offset_blocks_is_a_fast_parse_reject() {
    let config = ServeConfig::for_workers(2);
    let frame_deadline = config.frame_deadline;
    let max_frame = config.max_frame as usize;
    let core = Arc::new(ServeCore::new(config));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    let frame_of = |blocks| spcf_request(offset_blocks_blif(blocks));
    let block_bytes = (frame_of(20_000).len() - frame_of(10_000).len()) / 10_000;
    let packed = frame_of(max_frame * 9 / 10 / block_bytes);
    assert!(packed.len() <= max_frame, "frame is {} bytes", packed.len());
    let start = Instant::now();
    let err = tm_client::request(&addr, &packed, Duration::from_secs(60))
        .expect_err("a packed off-set document must be rejected");
    let elapsed = start.elapsed();
    assert_eq!(err.kind, "parse", "{err:?}");
    assert!(err.message.contains("complementation work limit"), "{err:?}");
    assert!(elapsed < frame_deadline, "reject took {elapsed:?}");

    let response = tm_client::request(&addr, &frame_of(20), Duration::from_secs(60))
        .expect("a 20-block off-set document parses");
    let last = response.frames.last().and_then(|f| f.get("type")).and_then(Json::as_str);
    assert_eq!(last, Some("done"), "{:?}", response.raw);
    handle.shutdown();
}

/// The `shutdown` verb: acknowledged with a `shutdown` frame, flags the
/// core as draining, and the subsequent [`ServerHandle::drain`] is
/// clean — counters `serve.drain.requested` / `serve.drain.completed`
/// pin the path.
#[test]
fn shutdown_verb_drains_clean() {
    let config = ServeConfig::for_workers(2);
    let core = Arc::new(ServeCore::new(config));
    let handle = tm_server::net::serve(Arc::clone(&core), "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    // Real work first, so the drain has served something.
    let response = tm_client::request(&addr, &spcf_payload(), Duration::from_secs(30))
        .expect("spcf request");
    assert_eq!(
        response.frames.last().and_then(|f| f.get("type")).and_then(Json::as_str),
        Some("done")
    );

    let response = tm_client::request(&addr, r#"{"verb":"shutdown"}"#, Duration::from_secs(10))
        .expect("shutdown request");
    assert_eq!(
        response.frames.last().and_then(|f| f.get("type")).and_then(Json::as_str),
        Some("shutdown"),
        "shutdown must be acknowledged: {:?}",
        response.frames
    );
    assert!(core.drain_requested(), "the verb must flag the drain");
    core.wait_drain_request(); // must not block once flagged

    let report = handle.drain(Duration::from_secs(5));
    assert!(report.clean, "{report:?}");
    assert_eq!(report.forced, 0);
    assert_eq!(core.gate().in_flight(), 0, "permit balance after drain");

    let snap = core.metrics_snapshot();
    assert_eq!(snap.counter("serve.drain.requested"), Some(1), "idempotent: counted once");
    assert!(snap.counter("serve.drain.completed").unwrap_or(0) >= 1);
    assert_eq!(snap.counter("serve.drain.forced"), None, "nothing forced");
    tm_telemetry::schema::validate(&snap.to_json()).expect("drain snapshot is schema-valid");

    // The acceptor is gone: new connections cannot be served.
    if let Ok(mut late) = TcpStream::connect(&addr) {
        late.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
        let mut buf = Vec::new();
        assert_eq!(late.read_to_end(&mut buf).unwrap_or(0), 0, "no frames after drain");
    }
}
