//! Concurrency must be invisible in the bytes: every client of a busy
//! server receives exactly the frames a serial warm-session run would
//! have produced — for every worker count, pool size, and interleaving.
//!
//! The reference is computed with [`tm_spcf::WarmSession`] (the
//! borrow-based session the engines were proven against) and rendered
//! through the same [`tm_server::serve::spcf_report_frame`] the server
//! uses, so any divergence is a real serving bug, not a formatting
//! difference.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tm_logic::Bdd;
use tm_netlist::blif::parse_blif;
use tm_netlist::library::lsi10k_like;
use tm_netlist::map::{tech_map, MapOptions};
use tm_resilience::Budget;
use tm_server::gen::synthetic_blif;
use tm_server::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tm_server::serve::{done_frame, spcf_report_frame, ServeConfig, ServeCore};
use tm_spcf::{Algorithm, WarmSession};
use tm_sta::Sta;
use tm_testkit::json::Json;

const FRACTIONS: [f64; 3] = [0.95, 0.6, 0.4];

fn request_payload(blif: &str, algorithm: &str) -> String {
    Json::obj([
        ("verb", Json::str("spcf")),
        ("blif", Json::str(blif)),
        ("algorithm", Json::str(algorithm)),
        ("targets", Json::Arr(FRACTIONS.iter().map(|&f| Json::Num(f)).collect())),
        ("relative", Json::Bool(true)),
    ])
    .render()
}

/// The serial ground truth: one warm session, the ladder in request
/// order, frames rendered exactly as the server renders them.
fn reference_frames(blif: &str, algorithm: Algorithm) -> Vec<String> {
    let sop = parse_blif(blif).expect("corpus BLIF parses");
    let netlist = tech_map(&sop, Arc::new(lsi10k_like()), MapOptions::default());
    let sta = Sta::new(&netlist);
    let delta = sta.critical_path_delay();
    let mut bdd = Bdd::new(netlist.inputs().len());
    let mut session =
        WarmSession::new(algorithm, &netlist, &sta, &mut bdd, Budget::unlimited());
    let mut frames = Vec::new();
    for (seq, &fraction) in FRACTIONS.iter().enumerate() {
        let set = session.try_retarget(delta * fraction).expect("unlimited budget");
        frames.push(spcf_report_frame(&netlist, session.bdd(), &set, seq));
    }
    frames.push(done_frame(FRACTIONS.len()));
    frames
}

/// One client request over TCP; returns the raw frames.
fn client_frames(addr: std::net::SocketAddr, payload: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    write_frame(&mut stream, payload.as_bytes()).expect("write request");
    let mut frames = Vec::new();
    loop {
        let raw = read_frame(&mut stream, DEFAULT_MAX_FRAME)
            .expect("read frame")
            .expect("server closed mid-response");
        let text = String::from_utf8(raw).expect("utf-8 frame");
        let done = text.contains("\"type\":\"done\"") || text.contains("\"type\":\"error\"");
        frames.push(text);
        if done {
            break;
        }
    }
    let _ = stream.flush();
    frames
}

#[test]
fn concurrent_clients_see_bit_identical_serial_frames() {
    let circuits: Vec<String> =
        [0xD17u64, 0x33].iter().map(|&s| synthetic_blif(s, 9, 24)).collect();
    let cases = [("short-path", Algorithm::ShortPath), ("node-based", Algorithm::NodeBased)];
    // Ground truth once per (circuit, algorithm).
    let mut references = Vec::new();
    for blif in &circuits {
        for &(_, algorithm) in &cases {
            references.push(reference_frames(blif, algorithm));
        }
    }
    assert!(
        references.iter().flatten().any(|f| f.contains("\"critical_patterns\":") && !f.contains("\"critical_patterns\":0,")),
        "corpus too trivial: every reference SPCF is empty"
    );

    for workers in [1usize, 4] {
        for pool in [1usize, 4] {
            let mut config = ServeConfig::for_workers(workers);
            config.pool_capacity = pool;
            config.admit = 64; // determinism under load, not shedding
            // Load-based degradation deliberately trades exactness for
            // liveness; disable it here — this battery pins the serving
            // machinery itself (pooling, session locking).
            config.degrade_node_based_at = usize::MAX;
            config.degrade_conservative_at = usize::MAX;
            let handle = tm_server::net::serve(Arc::new(ServeCore::new(config)), "127.0.0.1:0")
                .expect("bind");
            let addr = handle.addr();

            let mut clients = Vec::new();
            for client in 0..8usize {
                let circuits = circuits.clone();
                clients.push(std::thread::spawn(move || {
                    // Each client walks every (circuit, algorithm) pair,
                    // phase-shifted so the pool sees contention and
                    // (for pool=1) eviction churn mid-flight.
                    let mut got = Vec::new();
                    for k in 0..circuits.len() * cases.len() {
                        let k = (k + client) % (circuits.len() * cases.len());
                        let blif = &circuits[k / cases.len()];
                        let (name, _) = cases[k % cases.len()];
                        got.push((k, client_frames(addr, &request_payload(blif, name))));
                    }
                    got
                }));
            }
            for client in clients {
                for (k, frames) in client.join().expect("client thread") {
                    assert_eq!(
                        frames, references[k],
                        "workers={workers} pool={pool} case={k}: \
                         concurrent frames diverged from the serial reference"
                    );
                }
            }
            handle.shutdown();
        }
    }
}
