//! `serve_closed`: an in-process `tm_server::serve` with two workers,
//! driven by two closed-loop `tm-client` connections. Requests are
//! mostly `spcf` ladders plus a share of `mask` requests over a seeded
//! corpus of more circuits than the session pool holds, so the pool
//! sees hits, misses and evictions. Every reply must equal reference
//! frames computed in-process before timing.

use crate::corpus;
use crate::runner::{time_setup, Measured, RunResult, SLICE};
use crate::trace::{self, Breakdown};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use tm_logic::bdd::Bdd;
use tm_masking::{synthesize, verify, MaskingOptions};
use tm_netlist::blif::{parse_blif, write_blif};
use tm_netlist::extract::{extract, ExtractOptions};
use tm_netlist::library::{lsi10k_like, Library};
use tm_netlist::map::{tech_map, MapOptions};
use tm_netlist::suites::table2_suite;
use tm_resilience::Budget;
use tm_server::serve::{done_frame, spcf_report_frame, ServeConfig, ServeCore};
use tm_server::ServerHandle;
use tm_spcf::{Algorithm, WarmSession};
use tm_sta::Sta;
use tm_testkit::json::Json;
use tm_testkit::rng::Rng;

/// Corpus profiles, each in [`VARIANTS`] seeded variants: 24 circuits
/// against a pool of eight sessions. These Table 2 profiles extract in
/// milliseconds and cost about the same on every variant, so corpus
/// generation stays a small part of set-up and one seed's corpus costs
/// what another's does.
const PROFILES: [&str; 3] = ["cmb", "x2", "cu"];

/// Seeded variants of each profile.
const VARIANTS: u64 = 8;

/// Profiles that also receive `mask` requests.
const MASK_PROFILES: [&str; 3] = ["cmb", "x2", "cu"];

/// Share of requests that are `mask` requests. A mask request costs
/// several spcf requests and its cost differs between seeded circuits;
/// below 1 % the tail percentile (p99) stays inside the spcf requests
/// and masks take a minor share of the time.
const MASK_SHARE: f64 = 0.005;

/// The Δ_y ladder of every `spcf` request, as fractions of Δ.
const LADDER: [f64; 4] = [0.95, 0.90, 0.85, 0.80];

/// Closed-loop clients (one connection each at a time).
const CLIENTS: usize = 2;

/// Client read timeout: a reply slower than this fails the op.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Ops each client runs before timing starts.
const WARMUP_PER_CLIENT: usize = 24;

/// One distinct request.
struct Payload {
    text: String,
    blif: String,
    mask: bool,
}

/// A started server with its corpus.
struct Prepared {
    payloads: Vec<Payload>,
    handle: ServerHandle,
}

fn payload_spcf(blif: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str("short-path")),
        (
            "targets",
            Json::Arr(LADDER.iter().map(|&f| Json::Num(f)).collect()),
        ),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

fn payload_mask(blif: &str) -> String {
    Json::obj([("verb", Json::str("mask")), ("blif", Json::str(blif))]).render()
}

/// Generates the corpus (suite-profile netlists → extraction → BLIF),
/// starts the server and primes its pool with one request per circuit
/// it can hold.
fn prepare(seed: u64, smoke: bool, library: &Arc<Library>) -> Prepared {
    let (names, variants): (&[&str], u64) = if smoke {
        (&PROFILES[..2], 1)
    } else {
        (&PROFILES, VARIANTS)
    };
    let mut payloads = Vec::new();
    for v in 0..variants {
        for entry in corpus::profiles(table2_suite(), names) {
            let nl = corpus::build(&entry, seed, v, library.clone());
            let blif = write_blif(&extract(&nl, ExtractOptions::default()));
            payloads.push(Payload {
                text: payload_spcf(&blif),
                blif: blif.clone(),
                mask: false,
            });
            if MASK_PROFILES.contains(&entry.name) || (smoke && payloads.len() == 1) {
                payloads.push(Payload {
                    text: payload_mask(&blif),
                    blif,
                    mask: true,
                });
            }
        }
    }
    let config = ServeConfig::for_workers(2);
    let handle = tm_server::serve(Arc::new(ServeCore::new(config)), "127.0.0.1:0")
        .unwrap_or_else(|e| panic!("cannot start the server: {e}"));
    let addr = handle.addr().to_string();
    for p in payloads
        .iter()
        .filter(|p| !p.mask)
        .take(config.pool_capacity)
    {
        tm_client::request(&addr, &p.text, READ_TIMEOUT)
            .unwrap_or_else(|e| panic!("pool priming failed: {e:?}"));
    }
    Prepared { payloads, handle }
}

/// The frames a correct server returns for `p`, computed in-process
/// from the library crates.
fn reference(p: &Payload, library: &Arc<Library>) -> Vec<String> {
    let sop = parse_blif(&p.blif).expect("corpus BLIF parses");
    let netlist = tech_map(&sop, library.clone(), MapOptions::default());
    if p.mask {
        let mut result = synthesize(&netlist, MaskingOptions::default());
        let verdict = verify(&mut result);
        let r = &result.report;
        return vec![Json::obj([
            ("type", Json::str("mask_report")),
            ("circuit", Json::str(r.circuit.clone())),
            ("critical_outputs", Json::Num(r.critical_outputs as f64)),
            ("num_outputs", Json::Num(r.num_outputs as f64)),
            ("critical_patterns", Json::Num(r.critical_patterns)),
            ("slack_percent", Json::Num(r.slack_percent)),
            ("area_overhead_percent", Json::Num(r.area_overhead_percent)),
            (
                "power_overhead_percent",
                Json::Num(r.power_overhead_percent),
            ),
            ("degradation", Json::str(r.degradation.to_string())),
            ("coverage", Json::Num(verdict.coverage())),
            ("verified", Json::Bool(verdict.all_ok())),
        ])
        .render()];
    }
    let sta = Sta::new(&netlist);
    let delta = sta.critical_path_delay();
    let mut bdd = Bdd::new(netlist.inputs().len());
    let mut session = WarmSession::new(
        Algorithm::ShortPath,
        &netlist,
        &sta,
        &mut bdd,
        Budget::unlimited(),
    );
    let mut frames: Vec<String> = LADDER
        .iter()
        .enumerate()
        .map(|(seq, &f)| {
            let set = session.retarget(delta * f);
            spcf_report_frame(&netlist, session.bdd(), &set, seq)
        })
        .collect();
    frames.push(done_frame(LADDER.len()));
    frames
}

/// A request whose reply must be checked.
fn request(addr: &str, payload: &str) -> (Duration, Result<Vec<String>, String>) {
    let t = Instant::now();
    let reply = trace::span("client.request", || {
        tm_client::request(addr, payload, READ_TIMEOUT)
    });
    let dt = t.elapsed();
    (
        dt,
        reply
            .map(|r| r.raw)
            .map_err(|e| format!("{}: {}", e.kind, e.message)),
    )
}

/// Sends a control verb (`stats` / `trace`) and returns its one frame.
fn control(addr: &str, verb: &str) -> Json {
    let payload = match verb {
        "trace" => Json::obj([("verb", Json::str(verb)), ("limit", Json::Num(10_000.0))]),
        _ => Json::obj([("verb", Json::str(verb))]),
    };
    tm_client::request(addr, &payload.render(), READ_TIMEOUT)
        .ok()
        .and_then(|r| r.frames.into_iter().next())
        .unwrap_or(Json::Null)
}

/// One server phase: start (ns), name, duration (ms) and the pool
/// phase's `built` argument.
type Phase = (u64, &'static str, f64, Option<f64>);

/// One traced request: its root's start (ns) and wall (ms), and its
/// phases.
type Request = (Option<(u64, f64)>, Vec<Phase>);

/// Server-side phases of the requests whose root started inside a
/// traced slice, folded into `bd` (`bd.ops` counts the requests). The
/// recorder's rings keep the newest events, so a busy slice yields a
/// sample of its requests. Timestamps are flight-recorder nanoseconds;
/// the server runs in this process, so they share the recorder's epoch.
fn fold_phases(trace_frame: &Json, window: (u64, u64), bd: &mut Breakdown) {
    let Some(events) = trace_frame
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_arr)
    else {
        return;
    };
    let mut requests: BTreeMap<u64, Request> = BTreeMap::new();
    for ev in events {
        if ev.get("pid").and_then(Json::as_num) != Some(1.0) {
            continue; // slow-log copies
        }
        let (Some(name), Some(ts), Some(id)) = (
            ev.get("name").and_then(Json::as_str),
            ev.get("ts").and_then(Json::as_num),
            ev.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Json::as_num),
        ) else {
            continue;
        };
        let ts_ns = (ts * 1e3) as u64;
        let dur_ms = ev.get("dur").and_then(Json::as_num).unwrap_or(0.0) / 1e3;
        let built = ev
            .get("args")
            .and_then(|a| a.get("built"))
            .and_then(Json::as_num);
        let entry = requests.entry(id as u64).or_default();
        if name == "serve.request" {
            entry.0 = Some((ts_ns, dur_ms));
        } else {
            entry.1.push((ts_ns, name_static(name), dur_ms, built));
        }
    }
    for (root, mut phases) in requests.into_values() {
        let Some((root, root_ms)) = root else {
            continue;
        };
        // Circuit requests parse twice (the request, then its BLIF);
        // control verbs (`stats`, `trace`) parse once.
        let parses = phases.iter().filter(|p| p.1 == "serve.parse").count();
        if root < window.0 || root >= window.1 || parses < 2 {
            continue;
        }
        bd.ops += 1;
        // Nested events (the engine's `spcf.*` phases inside a compute
        // phase) are named "other" and already covered by their parent.
        let covered: f64 = phases.iter().filter(|p| p.1 != "other").map(|p| p.2).sum();
        bd.add_self("server.request_ms", root_ms - covered);
        phases.sort_by_key(|p| p.0);
        let mask = !phases.iter().any(|p| p.1 == "serve.pool");
        let built = phases
            .iter()
            .any(|p| p.1 == "serve.pool" && p.3 == Some(1.0));
        let mut parses = 0;
        let mut compute = 0.0;
        // A coalesced follower has no compute phase: its root self
        // time is the wait for the leader's frames.
        let follower = !phases.iter().any(|p| p.1 == "serve.compute");
        for &(_, name, ms, b) in &phases {
            match name {
                "serve.queue" => bd.add_self("server.queue_ms", ms),
                "serve.parse" => {
                    parses += 1;
                    // The first parse phase decodes the request; the
                    // second parses the circuit's BLIF.
                    let metric = if parses == 1 {
                        "server.parse_ms"
                    } else {
                        "netlist.blif.parse_ms"
                    };
                    bd.add_self(metric, ms);
                }
                "serve.pool" if b == Some(1.0) => bd.add_self("server.pool.build_ms", ms),
                "serve.pool" => bd.add_self("server.pool.lookup_ms", ms),
                "serve.compute" => compute += ms,
                "serve.serialize" => bd.add_self("server.serialize_ms", ms),
                _ => {}
            }
        }
        if follower {
            continue;
        }
        if mask {
            bd.add_self("server.mask_ms", compute);
        } else {
            bd.add_self("server.compute_ms", compute);
            let (sum, calls) = if built {
                ("_server.compute_miss.sum", "_server.compute_miss.calls")
            } else {
                ("_server.compute_hit.sum", "_server.compute_hit.calls")
            };
            bd.add(sum, compute);
            bd.add(calls, 1.0);
        }
    }
}

fn name_static(name: &str) -> &'static str {
    [
        "serve.queue",
        "serve.parse",
        "serve.pool",
        "serve.compute",
        "serve.serialize",
    ]
    .into_iter()
    .find(|n| *n == name)
    .unwrap_or("other")
}

/// Reads the numbers the breakdown needs from a `stats` frame.
fn stats_numbers(frame: &Json) -> BTreeMap<&'static str, f64> {
    let pool = |k: &str| {
        frame
            .get("pool")
            .and_then(|p| p.get(k))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    let counter = |k: &str| {
        frame
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(Json::as_arr)
            .and_then(|cs| {
                cs.iter()
                    .find(|c| c.get("name").and_then(Json::as_str) == Some(k))
            })
            .and_then(|c| c.get("value"))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    BTreeMap::from([
        ("hits", pool("hits")),
        ("misses", pool("misses")),
        ("evictions", pool("evictions")),
        ("bdd_nodes", pool("bdd_nodes")),
        (
            "degraded",
            counter("serve.degrade.node_based") + counter("serve.degrade.conservative"),
        ),
        ("nodes_created", counter("bdd.unique.misses")),
        ("ite_hits", counter("bdd.cache.hits")),
        (
            "ite_lookups",
            counter("bdd.cache.hits") + counter("bdd.cache.misses"),
        ),
    ])
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    plain: Measured,
    traced: Measured,
    /// Traced op wall time from the `client.request` spans, ms.
    traced_wall_ms: f64,
    /// Loop time spent per mode (untraced, traced).
    mode_wall: [Duration; 2],
    bd: Breakdown,
}

pub fn run(seed: u64, smoke: bool, seconds: f64, traced: bool, corrupt: bool) -> RunResult {
    if traced {
        // Server worker threads collect telemetry only under the
        // process-wide gate, read once per process.
        std::env::set_var(tm_telemetry::TRACE_ENV, "1");
    }
    trace::set_enabled(false);
    tm_telemetry::flight::force_recording(false);
    let library = Arc::new(lsi10k_like());
    let mut res = RunResult::default();

    // Set-up passes: corpus, server start, pool priming; the previous
    // pass's server is stopped outside the timed interval.
    let mut prepared: Option<Prepared> = None;
    let setup_pass = |prepared: &mut Option<Prepared>| {
        if let Some(p) = prepared.take() {
            p.handle.shutdown();
        }
        let t = Instant::now();
        *prepared = Some(prepare(seed, smoke, &library));
        t.elapsed()
    };
    res.setup_s = time_setup(|| setup_pass(&mut prepared));
    let Prepared { payloads, handle } = prepared.expect("at least one set-up pass");
    let addr = handle.addr().to_string();

    let mut references: Vec<Vec<String>> =
        payloads.iter().map(|p| reference(p, &library)).collect();
    // A corpus whose SPCFs are all empty would let a broken server pass.
    assert!(
        references.iter().flatten().any(
            |f| f.contains("\"critical_patterns\":") && !f.contains("\"critical_patterns\":0,")
        ),
        "every reference SPCF of the corpus is empty"
    );
    if corrupt {
        for r in &mut references {
            r[0].push(' ');
        }
    }

    // The seeded request sequence; each client starts at its own offset.
    let mut rng = Rng::seed_from_u64(seed ^ 0x5E12E);
    let spcf: Vec<usize> = (0..payloads.len()).filter(|&i| !payloads[i].mask).collect();
    let mask: Vec<usize> = (0..payloads.len()).filter(|&i| payloads[i].mask).collect();
    let schedule: Vec<usize> = (0..4096)
        .map(|_| {
            let pool = if rng.next_f64() < MASK_SHARE && !mask.is_empty() {
                &mask
            } else {
                &spcf
            };
            pool[rng.gen_range(0..pool.len() as u64) as usize]
        })
        .collect();

    let before = stats_numbers(&control(&addr, "stats"));
    let start_gate = Barrier::new(CLIENTS);
    let phases = Mutex::new(Breakdown::default());
    let total = Duration::from_secs_f64(seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (payloads, references, schedule, addr) =
                    (&payloads, &references, &schedule, &addr);
                let (start_gate, phases) = (&start_gate, &phases);
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut j = c * schedule.len() / CLIENTS;
                    for _ in 0..WARMUP_PER_CLIENT {
                        let i = schedule[j % schedule.len()];
                        let _ = request(addr, &payloads[i].text);
                        j += 1;
                    }
                    start_gate.wait();
                    let start = Instant::now();
                    let flight0 = tm_telemetry::flight::now_ns();
                    let mut last_slice = 0u128;
                    let mut traced_ops = 0u64;
                    loop {
                        let elapsed = start.elapsed();
                        let slice = elapsed.as_nanos() / SLICE.as_nanos();
                        let on = traced && slice % 2 == 1;
                        // Client 0 collects the server phases of each
                        // traced slice once it has ended.
                        if c == 0 && traced && slice != last_slice && last_slice % 2 == 1 {
                            let s = SLICE.as_nanos() as u64;
                            let window = (
                                flight0 + last_slice as u64 * s,
                                flight0 + (last_slice as u64 + 1) * s,
                            );
                            fold_phases(
                                &control(addr, "trace"),
                                window,
                                &mut phases
                                    .lock()
                                    .expect("no client thread panicked holding the phases"),
                            );
                        }
                        last_slice = slice;
                        if elapsed >= total {
                            break;
                        }
                        if c == 0 && traced {
                            tm_telemetry::flight::force_recording(on);
                        }
                        trace::set_enabled(on);
                        let turn = Instant::now();
                        let i = schedule[j % schedule.len()];
                        let (dt, reply) = request(addr, &payloads[i].text);
                        trace::set_enabled(false);
                        let outcome = match reply {
                            Ok(frames) if frames == references[i] => Ok(()),
                            Ok(_) => Err(format!(
                                "reply to request {i} differs from the reference frames"
                            )),
                            Err(e) => Err(format!("request {i} failed: {e}")),
                        };
                        let ms = dt.as_secs_f64() * 1e3;
                        if on {
                            out.traced.record(ms, outcome);
                            traced_ops += 1;
                            if traced_ops.is_multiple_of(8) {
                                let t = Instant::now();
                                drop(TcpStream::connect(addr.as_str()));
                                out.bd
                                    .add("_client.connect.sum", t.elapsed().as_secs_f64() * 1e3);
                                out.bd.add("_client.connect.calls", 1.0);
                            }
                        } else {
                            out.plain.record(ms, outcome);
                        }
                        out.mode_wall[on as usize] += turn.elapsed();
                        j += 1;
                    }
                    out.traced_wall_ms = trace::take()
                        .iter()
                        .filter(|s| s.name == "client.request")
                        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                        .sum();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    tm_telemetry::flight::force_recording(false);
    let after = stats_numbers(&control(&addr, "stats"));
    handle.shutdown();
    let mut prepared = None;
    res.setup_s.extend(time_setup(|| setup_pass(&mut prepared)));
    if let Some(p) = prepared {
        p.handle.shutdown();
    }

    res.warmup = (CLIENTS * WARMUP_PER_CLIENT) as u64;
    let phases = phases
        .into_inner()
        .expect("no client thread panicked holding the phases");
    let mut bd = Breakdown::default();
    // Closed loop: both clients run for the whole window, so each
    // mode's timed wall time is the clients' mean loop time in it.
    let mut mode_wall = [0.0f64; 2];
    for out in &outs {
        for (m, w) in mode_wall.iter_mut().zip(out.mode_wall) {
            *m += w.as_secs_f64() / CLIENTS as f64;
        }
    }
    res.plain.wall_s = mode_wall[0];
    res.traced.wall_s = mode_wall[1];
    for out in outs {
        merge_measured(&mut res.plain, out.plain);
        merge_measured(&mut res.traced, out.traced);
        bd.wall_ms += out.traced_wall_ms;
        for (k, v) in out.bd.values {
            bd.add(k, v);
        }
    }
    bd.ops = res.traced.attempted;
    // The phases come from a sample of the traced requests: scale their
    // sums to per-op shares of the client-side wall time.
    let scale = bd.ops as f64 / phases.ops.max(1) as f64;
    for (k, v) in &phases.self_ms {
        bd.add_self(k, v * scale);
    }
    for (k, v) in phases.values {
        bd.add(k, v);
    }
    if traced {
        // Server counters cover both modes; scale them to traced ops.
        let all_ops = (res.plain.attempted + res.traced.attempted).max(1) as f64;
        let per_traced = bd.ops as f64 / all_ops;
        let d = |k: &str| after[k] - before[k];
        bd.add("_server.pool.hits", d("hits"));
        bd.add("_server.pool.checkouts", d("hits") + d("misses"));
        bd.add("server.pool.evictions", d("evictions") * per_traced);
        bd.add("server.degraded", d("degraded"));
        bd.add("logic.bdd.nodes_created", d("nodes_created") * per_traced);
        bd.add("_bdd.ite_hits", d("ite_hits"));
        bd.add("_bdd.ite_lookups", d("ite_lookups"));
        bd.max(
            "logic.bdd.peak_nodes",
            after["bdd_nodes"].max(before["bdd_nodes"]),
        );
    }
    res.breakdown = bd;
    res
}

fn merge_measured(into: &mut Measured, from: Measured) {
    into.lat_ms.extend(from.lat_ms);
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.failures.extend(
        from.failures
            .into_iter()
            .take(5usize.saturating_sub(into.failures.len())),
    );
}
