//! The request engine behind the daemon: verb dispatch, the session
//! pool, the load/budget degradation ladder, and the shared telemetry
//! aggregate (DESIGN.md §10).
//!
//! [`ServeCore`] is transport-free — [`ServeCore::handle_payload`]
//! maps one request payload to the ordered list of response frames.
//! The TCP layer in [`crate::net`] wraps it with framing, admission
//! control, and the worker pool; the serving test battery drives it
//! both ways (over real sockets, and in-process for the soak test).
//!
//! # The degradation ladder as load-shedding
//!
//! A request's starting rung is the *cheaper* of what the client asked
//! for and what the current load allows: moderate occupancy forces
//! node-based, heavy occupancy forces conservative (each load-forced
//! step counted under `serve.degrade.*`), and a full admission gate
//! rejects at accept time (`crate::net`). Each point then runs on the
//! one tm-spcf degradation ladder
//! ([`tm_spcf::WarmState::point_with_fallback`]): a budget-exhausted
//! rung falls to the next cheaper one (`resilience.fallback.*`), down
//! to the guard-everything floor, which runs unbudgeted and always
//! answers. Nothing in the ladder blocks, panics or rejects.
//!
//! # Determinism and panic recovery
//!
//! Report frames carry no wall-clock fields (latency goes to the
//! `serve.request_ns` digest instead), so under an unlimited budget a
//! request's frames are a pure function of (circuit, algorithm,
//! ladder) — the concurrent-determinism suite compares them
//! byte-for-byte against a serial [`tm_spcf::WarmSession`] run. Under a
//! finite budget a rung is given up only when a fresh engine of it
//! exhausts, so a memo limit lands every point where a fresh core
//! would; node and step limits charge the session's shared manager,
//! and since cached operations cost no steps, a warm session can land
//! on a *finer* rung than a fresh one. Identical concurrent requests
//! serialize on their pooled session's mutex, each running its own
//! ladder on the warm session. A computation that panics leaves its
//! engine slot empty and the session mutex poisoned; the next request
//! recovers the lock ([`lock_recover`]) and rebuilds the engine — the
//! one panic-recovery path.

use crate::pool::{canonical_blif, lock_recover, PoolStats, PooledSession, SessionPool};
use crate::protocol::{error_frame, error_frame_for, Request};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tm_logic::Bdd;
use tm_netlist::blif::parse_blif;
use tm_netlist::library::{lsi10k_like, Library};
use tm_netlist::{Delay, Netlist};
use tm_resilience::{Budget, Gate, TmError};
use tm_spcf::{Algorithm, SpcfSet};
use tm_sta::Sta;
use tm_telemetry::flight;
use tm_telemetry::Snapshot;
use tm_testkit::json::Json;
use tm_testkit::rng::fnv1a64;

/// Serving configuration. `ServeConfig::default()` is sized for tests;
/// the daemon derives load thresholds from `--workers` (see
/// `ServeConfig::for_workers`).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Session-pool capacity (distinct circuits kept warm).
    pub pool_capacity: usize,
    /// Admission-gate capacity: connections in flight (queued or
    /// served) before the acceptor sheds.
    pub admit: usize,
    /// Per-request computation budget.
    pub budget: Budget,
    /// Idle timeout between frames: a connection that sends nothing
    /// for this long is reaped silently (`serve.idle.reaped`).
    pub read_timeout: Duration,
    /// Total deadline for receiving one frame once its first byte
    /// arrived. A client trickling bytes slower than this (slowloris)
    /// is answered with a typed `timeout` frame and closed
    /// (`serve.deadline.hits`).
    pub frame_deadline: Duration,
    /// Per-connection write timeout; a consumer stalling a response
    /// past this counts a deadline hit and loses the connection.
    pub write_timeout: Duration,
    /// Frame-length cap.
    pub max_frame: u32,
    /// In-flight count above which requests degrade to node-based.
    pub degrade_node_based_at: usize,
    /// In-flight count above which requests degrade to conservative.
    pub degrade_conservative_at: usize,
    /// Requests whose wall time reaches this threshold have their full
    /// span tree copied into the flight recorder's slow log.
    pub slow_threshold: Duration,
    /// Between-request GC watermark (`--gc-watermark`): after a request
    /// completes, a session whose live BDD store is at or above this
    /// many nodes runs capacity maintenance (mark-and-sweep GC +
    /// conditional reorder) under the `serve.pool` phase. `None`
    /// (default) leaves sessions append-only.
    pub gc_watermark: Option<u64>,
    /// Idle-session window (`--session-idle-ms`): sessions whose
    /// circuit has not been requested within this long are released
    /// from the pool (`serve.pool.idle_evicted`). `None` (default)
    /// keeps sessions until LRU capacity pressure.
    pub session_idle: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::for_workers(4)
    }
}

impl ServeConfig {
    /// A configuration scaled to `workers` threads: the gate admits
    /// 4× workers, and the load ladder degrades at 2× (node-based) and
    /// 3× (conservative) workers in flight.
    pub fn for_workers(workers: usize) -> ServeConfig {
        let workers = workers.max(1);
        ServeConfig {
            workers,
            pool_capacity: 8,
            admit: 4 * workers,
            budget: Budget::unlimited(),
            read_timeout: Duration::from_secs(5),
            frame_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            degrade_node_based_at: 2 * workers,
            degrade_conservative_at: 3 * workers,
            slow_threshold: Duration::from_millis(25),
            gc_watermark: None,
            session_idle: None,
        }
    }
}

/// Default cap on events in a `trace` export — keeps the rendered
/// Chrome JSON safely under the 4 MiB frame cap.
pub const DEFAULT_TRACE_EXPORT_LIMIT: usize = 10_000;

/// Drain coordination: the `shutdown` verb (or any caller of
/// [`ServeCore::request_drain`]) flips the flag; the daemon binary
/// blocks in [`ServeCore::wait_drain_request`] and then runs the
/// network layer's grace-window drain.
struct DrainState {
    requested: Mutex<bool>,
    signal: Condvar,
}

/// The transport-free serving engine (see module docs).
pub struct ServeCore {
    config: ServeConfig,
    library: Arc<Library>,
    pool: SessionPool,
    gate: Arc<Gate>,
    aggregate: Mutex<Snapshot>,
    drain: DrainState,
}

impl ServeCore {
    /// Builds a core for `config`, mapping submissions onto the
    /// paper's LSI-10K-like library.
    pub fn new(config: ServeConfig) -> ServeCore {
        ServeCore {
            config,
            library: Arc::new(lsi10k_like()),
            pool: SessionPool::new(config.pool_capacity),
            gate: Arc::new(Gate::new(config.admit.max(1))),
            aggregate: Mutex::new(Snapshot::default()),
            drain: DrainState { requested: Mutex::new(false), signal: Condvar::new() },
        }
    }

    /// Flags the core as draining (idempotent; only the first request
    /// counts `serve.drain.requested`) and wakes
    /// [`ServeCore::wait_drain_request`] waiters.
    pub fn request_drain(&self) {
        let mut requested = lock_recover(&self.drain.requested);
        if !*requested {
            *requested = true;
            tm_telemetry::counter_add("serve.drain.requested", 1);
        }
        self.drain.signal.notify_all();
    }

    /// True once a drain has been requested. The acceptor stops
    /// admitting and connection loops close after their current
    /// payload when this is set.
    pub fn drain_requested(&self) -> bool {
        *lock_recover(&self.drain.requested)
    }

    /// Blocks the calling thread until a drain is requested (the
    /// daemon binary parks here instead of a spin loop).
    pub fn wait_drain_request(&self) {
        let mut requested = lock_recover(&self.drain.requested);
        while !*requested {
            requested = self
                .drain
                .signal
                .wait(requested)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// The configuration this core runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The admission gate (shared with the acceptor).
    pub fn gate(&self) -> &Arc<Gate> {
        &self.gate
    }

    /// The session pool (the soak test reads its stats directly).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Drains the calling thread's telemetry store into the shared
    /// aggregate. Workers call this after every connection; anything
    /// recorded on a thread that never folds is invisible to `stats`.
    pub fn fold_local_telemetry(&self) {
        let local = tm_telemetry::drain();
        if !local.is_empty() {
            lock_recover(&self.aggregate).merge(&local);
        }
    }

    /// Handles one request payload, returning response frames in
    /// stream order. Never panics on adversarial input; internal
    /// errors become typed `error` frames.
    pub fn handle_payload(&self, payload: &[u8]) -> Vec<String> {
        self.handle_payload_queued(payload, 0)
    }

    /// [`ServeCore::handle_payload`] with queue-wait attribution:
    /// `queue_ns` is how long the request sat in the accept queue
    /// before a worker picked it up. The flight-recorder root span is
    /// back-dated by that amount, so queue wait shows up in the phase
    /// breakdown instead of silently vanishing.
    pub fn handle_payload_queued(&self, payload: &[u8], queue_ns: u64) -> Vec<String> {
        let _span = tm_telemetry::span!("serve.request");
        let trace = flight::request_begin("serve.request", queue_ns);
        if queue_ns > 0 {
            tm_telemetry::digest_record("serve.queue_ns", queue_ns);
            // End-anchored: if the back-dated start saturates at the
            // trace epoch, the duration shrinks with it so the span
            // can never extend past now (and into later phases).
            let end = flight::now_ns();
            let ts = end.saturating_sub(queue_ns);
            flight::complete("serve.queue", ts, end - ts, &[]);
        }
        let start = Instant::now();
        let parsed = {
            let _phase = flight::phase("serve.parse");
            // Fault-injection site: an armed `frame.parse` rejects the
            // payload exactly as a malformed frame would.
            match tm_resilience::fault::frame_parse_fault() {
                Some(injected) => Err(injected),
                None => Request::parse(payload),
            }
        };
        let frames = match parsed {
            Err(e) => {
                tm_telemetry::counter_add("serve.errors", 1);
                vec![error_frame_for(&e)]
            }
            Ok(request) => {
                tm_telemetry::counter_add("serve.requests", 1);
                match request {
                    Request::Stats => vec![self.stats_frame()],
                    Request::Shutdown => {
                        self.request_drain();
                        vec![shutdown_frame()]
                    }
                    Request::Trace { limit } => {
                        vec![self.trace_frame(limit.unwrap_or(DEFAULT_TRACE_EXPORT_LIMIT))]
                    }
                    Request::Mask { blif } => self.handle_mask(&blif),
                    Request::Spcf { blif, algorithm, targets, relative } => {
                        self.handle_spcf(&blif, algorithm, &targets, relative)
                    }
                }
            }
        };
        tm_telemetry::digest_record("serve.request_ns", start.elapsed().as_nanos() as u64);
        if let Some(summary) = trace.finish(self.config.slow_threshold.as_nanos() as u64) {
            tm_telemetry::counter_add("serve.trace.events", summary.events);
            if summary.slow {
                tm_telemetry::counter_add("serve.slow.captured", 1);
            }
        }
        frames
    }

    fn handle_spcf(
        &self,
        blif: &str,
        algorithm: Algorithm,
        targets: &[f64],
        relative: bool,
    ) -> Vec<String> {
        let parse_phase = flight::phase("serve.parse");
        let sop = match parse_blif(blif) {
            Ok(sop) => sop,
            Err(e) => {
                tm_telemetry::counter_add("serve.errors", 1);
                return vec![error_frame_for(&TmError::parse(e.line(), e.to_string()))];
            }
        };
        let circuit_key = fnv1a64(canonical_blif(&sop).as_bytes());
        drop(parse_phase);
        self.compute_spcf_frames(&sop, circuit_key, algorithm, targets, relative)
    }

    fn compute_spcf_frames(
        &self,
        sop: &tm_netlist::SopNetwork,
        circuit_key: u64,
        requested: Algorithm,
        targets: &[f64],
        relative: bool,
    ) -> Vec<String> {
        let mut built = false;
        let checkout = {
            let mut pool_phase = flight::phase("serve.pool");
            let r = self.pool.checkout(circuit_key, || {
                built = true;
                PooledSession::build(sop, Arc::clone(&self.library))
            });
            pool_phase.arg("built", built as u8 as f64);
            r
        };
        let entry = match checkout {
            Ok(entry) => entry,
            Err(e) => {
                tm_telemetry::counter_add("serve.errors", 1);
                return vec![error_frame_for(&e)];
            }
        };
        let mut session = lock_recover(&entry);
        let netlist = Arc::clone(session.netlist());
        let sta = Sta::new(&netlist);

        // Load rung: the cheaper of the request and what occupancy
        // allows right now. Budget exhaustion steps further down inside
        // `compute`, on the one tm-spcf ladder.
        let inflight = self.gate.in_flight();
        let algorithm = if inflight > self.config.degrade_conservative_at {
            degrade_to(requested, Algorithm::Conservative)
        } else if inflight > self.config.degrade_node_based_at {
            degrade_to(requested, Algorithm::NodeBased)
        } else {
            requested
        };

        let delta = sta.critical_path_delay();
        let mut frames = Vec::with_capacity(targets.len() + 1);
        for (seq, &raw) in targets.iter().enumerate() {
            let target = if relative { delta * raw } else { Delay::new(raw) };
            let set = {
                let _phase = flight::phase_with("serve.compute", &[("seq", seq as f64)]);
                session.compute(algorithm, &sta, target, self.config.budget)
            };
            let _phase = flight::phase_with("serve.serialize", &[("seq", seq as f64)]);
            frames.push(spcf_report_frame(session.netlist(), session.bdd(), &set, seq));
        }
        frames.push(done_frame(targets.len()));
        self.end_of_request_maintenance(&mut session);
        frames
    }

    /// Between-request capacity maintenance: watermark-gated GC of the
    /// session that just served (attributed to the `serve.pool` phase)
    /// and release of pool sessions idle past the configured window.
    /// Both knobs default off; the unarmed path is two `Option` checks.
    fn end_of_request_maintenance(&self, session: &mut PooledSession) {
        if let Some(watermark) = self.config.gc_watermark {
            if session.node_count() >= watermark {
                let mut phase = flight::phase("serve.pool");
                let reclaimed = session.maybe_gc(watermark);
                phase.arg("gc_reclaimed", reclaimed as f64);
            }
        }
        if let Some(idle) = self.config.session_idle {
            self.pool.evict_idle(idle);
        }
    }

    /// Renders the `trace` frame: the flight recorder's current
    /// contents as Chrome trace-event JSON (loadable in Perfetto /
    /// `chrome://tracing`), capped to the `limit` most recent events.
    pub fn trace_frame(&self, limit: usize) -> String {
        let export = flight::export(limit);
        Json::obj([
            ("type", Json::str("trace")),
            ("events", Json::Num(export.events.len() as f64)),
            ("dropped", Json::Num(export.dropped as f64)),
            ("slow", Json::Num(export.slow.len() as f64)),
            ("trace", flight::chrome_trace(&export)),
        ])
        .render()
    }

    fn handle_mask(&self, blif: &str) -> Vec<String> {
        let parse_phase = flight::phase("serve.parse");
        let sop = match parse_blif(blif) {
            Ok(sop) => sop,
            Err(e) => {
                tm_telemetry::counter_add("serve.errors", 1);
                return vec![error_frame_for(&TmError::parse(e.line(), e.to_string()))];
            }
        };
        if sop.outputs().is_empty() || sop.inputs().is_empty() {
            tm_telemetry::counter_add("serve.errors", 1);
            return vec![error_frame("invalid", "circuit has no primary inputs or outputs")];
        }
        drop(parse_phase);
        let compute_phase = flight::phase("serve.compute");
        let netlist = tm_netlist::map::tech_map(
            &sop,
            Arc::clone(&self.library),
            tm_netlist::map::MapOptions::default(),
        );
        let options = tm_masking::MaskingOptions {
            budget: self.config.budget,
            ..tm_masking::MaskingOptions::default()
        };
        let mut result = tm_masking::synthesize(&netlist, options);
        let verification = tm_masking::verify(&mut result);
        drop(compute_phase);
        let _serialize = flight::phase("serve.serialize");
        let r = &result.report;
        vec![Json::obj([
            ("type", Json::str("mask_report")),
            ("circuit", Json::str(r.circuit.clone())),
            ("critical_outputs", Json::Num(r.critical_outputs as f64)),
            ("num_outputs", Json::Num(r.num_outputs as f64)),
            ("critical_patterns", Json::Num(r.critical_patterns)),
            ("slack_percent", Json::Num(r.slack_percent)),
            ("area_overhead_percent", Json::Num(r.area_overhead_percent)),
            ("power_overhead_percent", Json::Num(r.power_overhead_percent)),
            ("degradation", Json::str(r.degradation.to_string())),
            ("coverage", Json::Num(verification.coverage())),
            ("verified", Json::Bool(verification.all_ok())),
        ])
        .render()]
    }

    /// The folded telemetry aggregate (plus this thread's
    /// not-yet-folded store) with live pool/recorder gauges merged
    /// in — the `metrics` object of the `stats` frame, also written to
    /// disk as the daemon's final drain snapshot.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.snapshot_with(&self.pool.stats(), &flight::stats())
    }

    /// [`ServeCore::metrics_snapshot`] over pool and recorder readings
    /// the caller already took.
    fn snapshot_with(&self, pool: &PoolStats, recorder: &flight::FlightStats) -> Snapshot {
        let mut snap = {
            let mut agg = lock_recover(&self.aggregate);
            let local = tm_telemetry::drain();
            agg.merge(&local);
            agg.clone()
        };
        // Live values go in as gauges (last-write-wins), so repeated
        // stats calls don't double-count them. The serving-level store
        // levels are pool-wide totals and override any per-manager
        // gauge a publish left behind.
        snap.gauges.extend([
            ("serve.pool.sessions", pool.sessions as f64),
            ("serve.trace.buffered", recorder.buffered as f64),
            ("serve.trace.dropped", recorder.dropped as f64),
            ("serve.trace.threads", recorder.threads as f64),
            ("bdd.store.live", pool.bdd_nodes as f64),
            ("bdd.store.capacity", pool.bdd_capacity as f64),
        ]);
        snap
    }

    /// Renders the `stats` frame: the folded telemetry aggregate (plus
    /// this thread's not-yet-folded store) and pool statistics.
    pub fn stats_frame(&self) -> String {
        let pool = self.pool.stats();
        let recorder = flight::stats();
        let snap = self.snapshot_with(&pool, &recorder);
        Json::obj([
            ("type", Json::str("stats")),
            ("metrics", snap.to_json()),
            (
                "pool",
                Json::obj([
                    ("sessions", Json::Num(pool.sessions as f64)),
                    ("hits", Json::Num(pool.hits as f64)),
                    ("misses", Json::Num(pool.misses as f64)),
                    ("evictions", Json::Num(pool.evictions as f64)),
                    ("idle_evicted", Json::Num(pool.idle_evicted as f64)),
                    ("bdd_nodes", Json::Num(pool.bdd_nodes as f64)),
                    ("bdd_capacity", Json::Num(pool.bdd_capacity as f64)),
                    ("memo_entries", Json::Num(pool.memo_entries as f64)),
                ]),
            ),
            (
                "trace",
                Json::obj([
                    ("threads", Json::Num(recorder.threads as f64)),
                    ("buffered", Json::Num(recorder.buffered as f64)),
                    ("recorded", Json::Num(recorder.recorded as f64)),
                    ("dropped", Json::Num(recorder.dropped as f64)),
                    ("slow_captured", Json::Num(recorder.slow_captured as f64)),
                    ("slow_evicted", Json::Num(recorder.slow_evicted as f64)),
                ]),
            ),
            ("inflight", Json::Num(self.gate.in_flight() as f64)),
        ])
        .render()
    }
}

/// The load policy: degrades `from` to `floor` when `floor` lies below
/// it on the [`Algorithm::fallback`] ladder, counting the load-forced
/// step under `serve.degrade.*`; a `from` already at or below `floor`
/// stays as it is.
fn degrade_to(from: Algorithm, floor: Algorithm) -> Algorithm {
    if !std::iter::successors(from.fallback(), |a| a.fallback()).any(|a| a == floor) {
        return from;
    }
    let counter = match floor {
        Algorithm::NodeBased => "serve.degrade.node_based",
        _ => "serve.degrade.conservative",
    };
    tm_telemetry::counter_add(counter, 1);
    floor
}

/// Renders one ladder point's `report` frame. Deliberately excludes
/// wall-clock fields: these bytes must be identical for identical
/// (circuit, algorithm, target) regardless of worker count, pool size,
/// or manager warmth under an unlimited budget — the property the
/// concurrent-determinism suite pins against a serial
/// [`tm_spcf::WarmSession`] run.
pub fn spcf_report_frame(netlist: &Netlist, bdd: &Bdd, set: &SpcfSet, seq: usize) -> String {
    let outputs = set
        .outputs
        .iter()
        .map(|o| {
            Json::obj([
                ("name", Json::str(netlist.net_name(o.output))),
                ("patterns", Json::Num(bdd.sat_count(o.spcf))),
                ("fraction", Json::Num(bdd.sat_fraction(o.spcf))),
            ])
        })
        .collect();
    Json::obj([
        ("type", Json::str("report")),
        ("seq", Json::Num(seq as f64)),
        ("algorithm", Json::str(set.algorithm.to_string())),
        ("target", Json::Num(set.target.units())),
        ("critical_outputs", Json::Num(set.outputs.len() as f64)),
        ("critical_patterns", Json::Num(set.critical_pattern_count(bdd))),
        ("outputs", Json::Arr(outputs)),
    ])
    .render()
}

/// Renders the `done` frame terminating a successful `spcf` ladder.
pub fn done_frame(points: usize) -> String {
    Json::obj([("type", Json::str("done")), ("points", Json::Num(points as f64))]).render()
}

/// Renders the `shutdown` frame acknowledging a drain request.
pub fn shutdown_frame() -> String {
    Json::obj([("type", Json::str("shutdown")), ("draining", Json::Bool(true))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_blif() -> String {
        ".model tiny\n.inputs a b c\n.outputs y\n.names a b n1\n11 1\n.names n1 c y\n10 1\n01 1\n.end\n".to_string()
    }

    fn spcf_request(blif: &str, algorithm: &str, targets: &str) -> String {
        format!(
            r#"{{"verb":"spcf","blif":{},"algorithm":"{algorithm}","targets":{targets},"relative":true}}"#,
            Json::str(blif).render()
        )
    }

    #[test]
    fn spcf_request_streams_reports_then_done() {
        let _scope = tm_telemetry::Scope::enter();
        let core = ServeCore::new(ServeConfig::default());
        let frames =
            core.handle_payload(spcf_request(&tiny_blif(), "short-path", "[0.95,0.5]").as_bytes());
        assert_eq!(frames.len(), 3, "{frames:?}");
        for (i, f) in frames[..2].iter().enumerate() {
            let j = Json::parse(f).expect("report parses");
            assert_eq!(j.get("type").and_then(Json::as_str), Some("report"));
            assert_eq!(j.get("seq").and_then(Json::as_num), Some(i as f64));
        }
        let done = Json::parse(&frames[2]).expect("done parses");
        assert_eq!(done.get("type").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("points").and_then(Json::as_num), Some(2.0));
    }

    #[test]
    fn repeated_circuit_hits_the_pool() {
        let _scope = tm_telemetry::Scope::enter();
        let core = ServeCore::new(ServeConfig::default());
        let req = spcf_request(&tiny_blif(), "short-path", "[0.9]");
        core.handle_payload(req.as_bytes());
        core.handle_payload(req.as_bytes());
        // Same circuit with cosmetic differences still shares a session.
        let cosmetic = tiny_blif().replace(".model tiny", ".model tiny \\\n");
        core.handle_payload(spcf_request(&cosmetic, "node-based", "[0.9]").as_bytes());
        let stats = core.pool_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn budget_exhaustion_walks_the_ladder_down() {
        let _scope = tm_telemetry::Scope::enter();
        let mut config = ServeConfig::default();
        // One recursion step is too tight for the exact and node-based
        // engines on a circuit whose SPCF ops miss the caches warmed
        // at session build; the conservative rung does no budgeted
        // work at all and always lands. Budget steps count under
        // `resilience.fallback.*`; `serve.degrade.*` is load only.
        config.budget = Budget::unlimited().with_max_steps(1);
        let core = ServeCore::new(config);
        let blif = crate::gen::synthetic_blif(7, 12, 40);
        let frames =
            core.handle_payload(spcf_request(&blif, "short-path", "[0.5]").as_bytes());
        let report = Json::parse(&frames[0]).expect("report");
        assert_eq!(report.get("type").and_then(Json::as_str), Some("report"));
        assert_eq!(
            report.get("algorithm").and_then(Json::as_str),
            Some("conservative"),
            "tight budget must degrade to the guard-everything rung: {frames:?}"
        );
        let snap = tm_telemetry::snapshot();
        assert!(snap.counter("resilience.fallback.node_based").unwrap_or(0) >= 1);
        assert!(snap.counter("resilience.fallback.conservative").unwrap_or(0) >= 1);
        assert_eq!(snap.counter("serve.degrade.node_based"), None, "budget steps, not load steps");
        assert_eq!(snap.counter("serve.degrade.conservative"), None);
        assert_eq!(snap.counter("serve.shed"), None, "degraded, not rejected");
    }

    #[test]
    fn warm_step_budget_never_lands_coarser_than_fresh() {
        // Every point gets the full step allowance, and a rung is given
        // up only when a fresh engine of it exhausts: a core that served
        // the earlier points may land finer than a fresh one (cached
        // operations cost no steps), never coarser.
        let _scope = tm_telemetry::Scope::enter();
        let config = ServeConfig { budget: Budget::unlimited().with_max_steps(50), ..Default::default() };
        let rank = |frames: &[String]| {
            let j = Json::parse(&frames[0]).expect("report");
            match j.get("algorithm").and_then(Json::as_str) {
                Some("short-path-based") => 0,
                Some("node-based") => 1,
                Some("conservative") => 2,
                other => panic!("unexpected rung {other:?}: {frames:?}"),
            }
        };
        let blif = crate::gen::synthetic_blif(7, 12, 40);
        let warm = ServeCore::new(config);
        let mut ranks = Vec::new();
        for k in 0..12 {
            let point = format!("[{}]", (95 - 5 * k) as f64 / 100.0);
            let req = spcf_request(&blif, "short-path", &point);
            let served = rank(&warm.handle_payload(req.as_bytes()));
            let fresh = rank(&ServeCore::new(config).handle_payload(req.as_bytes()));
            assert!(served <= fresh, "{point}Δ: warm rung {served} coarser than fresh {fresh}");
            ranks.push(fresh);
        }
        assert!(ranks.iter().any(|&r| r > 0), "vacuous fixture: no point degraded: {ranks:?}");
    }

    #[test]
    fn served_ladder_publishes_the_warm_session_counters() {
        // A pooled session runs the same warm-state core as a
        // `WarmSession`, so a served ladder must publish exactly the
        // manager and engine counters of a session walking that ladder
        // on the same mapped netlist from a fresh manager — and a repeat
        // request only its own deltas.
        const COUNTERS: [&str; 4] = [
            "bdd.unique.misses",
            "spcf.short_path.stab_calls",
            "spcf.short_path.memo_hit",
            "spcf.short_path.memo_miss",
        ];
        let _scope = tm_telemetry::Scope::enter();
        let blif = crate::gen::synthetic_blif(7, 12, 40);
        let ladder = [0.95, 0.85, 0.7];

        let sop = parse_blif(&blif).expect("generated BLIF parses");
        let library = Arc::new(lsi10k_like());
        let netlist = tm_netlist::map::tech_map(&sop, library, Default::default());
        let sta = tm_sta::Sta::new(&netlist);
        let delta = sta.critical_path_delay();
        // The counters a fresh session publishes walking the ladder
        // `requests` times, read after the session is gone.
        let reference = |requests: usize| {
            let mut bdd = Bdd::new(netlist.inputs().len());
            let mut session = tm_spcf::WarmSession::new(
                Algorithm::ShortPath,
                &netlist,
                &sta,
                &mut bdd,
                Budget::unlimited(),
            );
            for _ in 0..requests {
                for f in ladder {
                    session.retarget(delta * f);
                }
            }
            drop(session);
            let snap = tm_telemetry::drain();
            COUNTERS.map(|c| snap.counter(c).unwrap_or(0))
        };
        let totals = [reference(1), reference(2)];
        assert!(totals[0].iter().all(|&n| n > 0), "vacuous fixture: {totals:?}");
        // Every critical output of every point lands one value in the
        // per-output latency digest.
        let outputs_per_ladder: u64 = ladder
            .iter()
            .map(|&f| tm_spcf::critical_outputs(&netlist, &sta, delta * f).len() as u64)
            .sum();
        assert!(outputs_per_ladder > 0, "vacuous fixture: no critical outputs");

        let core = ServeCore::new(ServeConfig::default());
        let req = spcf_request(&blif, "short-path", "[0.95,0.85,0.7]");
        for (i, expected) in totals.iter().enumerate() {
            core.handle_payload(req.as_bytes());
            let snap = core.metrics_snapshot();
            for (name, &want) in COUNTERS.iter().zip(expected) {
                assert_eq!(snap.counter(name).unwrap_or(0), want, "request {i}: {name}");
            }
            let digest = snap.digest("spcf.short_path.output_ns").expect("output_ns digest");
            assert_eq!(digest.count, (i as u64 + 1) * outputs_per_ladder, "request {i}");
        }
    }

    #[test]
    fn stats_frame_reports_schema_valid_metrics() {
        let _scope = tm_telemetry::Scope::enter();
        let core = ServeCore::new(ServeConfig::default());
        core.handle_payload(spcf_request(&tiny_blif(), "short-path", "[0.9]").as_bytes());
        let stats = core.handle_payload(br#"{"verb":"stats"}"#);
        assert_eq!(stats.len(), 1);
        let j = Json::parse(&stats[0]).expect("stats parses");
        assert_eq!(j.get("type").and_then(Json::as_str), Some("stats"));
        let metrics = j.get("metrics").expect("metrics");
        tm_telemetry::schema::validate(metrics).expect("schema-valid");
        let counters = metrics.get("counters").and_then(Json::as_arr).expect("counters");
        let requests = counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("serve.requests"))
            .and_then(|c| c.get("value").and_then(Json::as_num));
        assert_eq!(requests, Some(2.0), "spcf + stats both counted");
        assert!(j.get("pool").and_then(|p| p.get("sessions")).is_some());
    }

    #[test]
    fn mask_verb_returns_a_verified_report() {
        let _scope = tm_telemetry::Scope::enter();
        let core = ServeCore::new(ServeConfig::default());
        let req = format!(r#"{{"verb":"mask","blif":{}}}"#, Json::str(tiny_blif()).render());
        let frames = core.handle_payload(req.as_bytes());
        assert_eq!(frames.len(), 1);
        let j = Json::parse(&frames[0]).expect("mask report parses");
        assert_eq!(j.get("type").and_then(Json::as_str), Some("mask_report"));
        assert_eq!(j.get("verified"), Some(&Json::Bool(true)));
        assert_eq!(j.get("coverage").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn unsorted_ladder_matches_pointwise_cold_runs() {
        // The server-path half of the ascending-ladder fix: a warm
        // pooled session fed an unsorted ladder must produce the same
        // frames as a cold core seeing each target in isolation.
        let _scope = tm_telemetry::Scope::enter();
        let warm = ServeCore::new(ServeConfig::default());
        let ladder = [0.9, 0.95, 0.5, 0.85, 0.45];
        for algorithm in ["short-path", "path-based", "node-based"] {
            let ladder_json = format!(
                "[{}]",
                ladder.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
            );
            let frames = warm
                .handle_payload(spcf_request(&tiny_blif(), algorithm, &ladder_json).as_bytes());
            for (i, &point) in ladder.iter().enumerate() {
                let cold = ServeCore::new(ServeConfig::default());
                let cold_frames = cold.handle_payload(
                    spcf_request(&tiny_blif(), algorithm, &format!("[{point}]")).as_bytes(),
                );
                let mut warm_j = Json::parse(&frames[i]).expect("warm frame");
                let cold_j = Json::parse(&cold_frames[0]).expect("cold frame");
                // Only `seq` may differ (position in the ladder).
                if let Json::Obj(members) = &mut warm_j {
                    for (k, v) in members.iter_mut() {
                        if k == "seq" {
                            *v = Json::Num(0.0);
                        }
                    }
                }
                assert_eq!(
                    warm_j.render(),
                    cold_j.render(),
                    "{algorithm}@{point}: warm frame diverged from cold"
                );
            }
        }
        let snap = tm_telemetry::snapshot();
        assert!(
            snap.counter("spcf.session.rebuilds").unwrap_or(0) >= 1,
            "the ascending steps must have rebuilt engines"
        );
    }
}
