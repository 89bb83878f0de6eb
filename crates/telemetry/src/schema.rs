//! The closed registry of metric and span names used across the
//! workspace, and an offline validator for emitted JSON reports.
//!
//! Names follow `crate.subsystem.metric` (lowercase, `.`-separated,
//! `[a-z0-9_]` segments). The registry is *closed*: a report naming a
//! metric or span not listed here fails validation, so instrumentation
//! and this file must move together — that is what keeps dashboards
//! and CI assertions from silently drifting when a counter is renamed.

use tm_testkit::json::Json;

/// Version stamped into every report under `schema_version`. Version 2
/// dropped the fixed-bucket `histograms` section and requires `digests`.
pub const SCHEMA_VERSION: u64 = 2;

/// The kind of a registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic saturating `u64` sum.
    Counter,
    /// Last-write-wins `f64` level.
    Gauge,
    /// Log-linear exact-percentile digest (see [`crate::digest::Digest`]).
    Digest,
}

/// Every metric name the workspace may emit, with its kind.
pub const KNOWN_METRICS: &[(&str, MetricKind)] = &[
    // tm-logic: complement-edge ROBDD manager (unique table, lossy
    // ITE computed cache, quantifier cache).
    ("bdd.unique.hits", MetricKind::Counter),
    ("bdd.unique.misses", MetricKind::Counter),
    ("bdd.unique.rehashes", MetricKind::Counter),
    ("bdd.cache.hits", MetricKind::Counter),
    ("bdd.cache.misses", MetricKind::Counter),
    ("bdd.cache.evictions", MetricKind::Counter),
    ("bdd.cache.clears", MetricKind::Counter),
    ("bdd.quant.hits", MetricKind::Counter),
    ("bdd.quant.misses", MetricKind::Counter),
    ("bdd.nodes", MetricKind::Gauge),
    ("bdd.unique.entries", MetricKind::Gauge),
    // tm-spcf: the engine sessions and the three SPCF engines.
    ("spcf.session.retargets", MetricKind::Counter),
    ("spcf.short_path.memo_hit", MetricKind::Counter),
    ("spcf.short_path.memo_miss", MetricKind::Counter),
    ("spcf.short_path.stab_calls", MetricKind::Counter),
    ("spcf.short_path.memo_entries", MetricKind::Gauge),
    ("spcf.short_path.output_ns", MetricKind::Digest),
    ("spcf.path_based.waveform_nodes", MetricKind::Counter),
    ("spcf.path_based.output_ns", MetricKind::Digest),
    ("spcf.node_based.critical_gates", MetricKind::Counter),
    ("spcf.node_based.output_ns", MetricKind::Digest),
    // tm-core: masking synthesis and verification.
    ("masking.synth.cubes_considered", MetricKind::Counter),
    ("masking.synth.cubes_kept", MetricKind::Counter),
    ("masking.synth.selection_rounds", MetricKind::Counter),
    ("masking.synth.nodes_masked", MetricKind::Counter),
    ("masking.verify.outputs_checked", MetricKind::Counter),
    // tm-sim: event-driven timing simulation.
    ("sim.timing.events", MetricKind::Counter),
    ("sim.timing.transitions", MetricKind::Counter),
    // tm-monitor: trace capture.
    ("monitor.trace.captured", MetricKind::Counter),
    ("monitor.trace.dropped", MetricKind::Counter),
    // tm-resilience: budgets and the one SPCF degradation ladder.
    ("resilience.budget.exhausted", MetricKind::Counter),
    ("resilience.fallback.node_based", MetricKind::Counter),
    ("resilience.fallback.conservative", MetricKind::Counter),
    // tm-spcf warm sessions: defensive rebuilds on ascending ladders.
    ("spcf.session.rebuilds", MetricKind::Counter),
    // tm-server: masking-as-a-service daemon.
    ("serve.requests", MetricKind::Counter),
    ("serve.errors", MetricKind::Counter),
    ("serve.shed", MetricKind::Counter),
    ("serve.degrade.node_based", MetricKind::Counter),
    ("serve.degrade.conservative", MetricKind::Counter),
    ("serve.pool.hits", MetricKind::Counter),
    ("serve.pool.misses", MetricKind::Counter),
    ("serve.pool.evictions", MetricKind::Counter),
    ("serve.pool.sessions", MetricKind::Gauge),
    ("serve.request_ns", MetricKind::Digest),
    ("serve.queue_ns", MetricKind::Digest),
    // Flight recorder (crate::flight): per-request trace accounting.
    ("serve.trace.events", MetricKind::Counter),
    ("serve.slow.captured", MetricKind::Counter),
    ("serve.trace.threads", MetricKind::Gauge),
    ("serve.trace.buffered", MetricKind::Gauge),
    ("serve.trace.dropped", MetricKind::Gauge),
    // tm-resilience fault plane (tm_resilience::fault): one total plus
    // a per-surface breakdown, so a chaos run's snapshot proves which
    // injection sites actually fired.
    ("fault.injected.total", MetricKind::Counter),
    ("fault.injected.io_read", MetricKind::Counter),
    ("fault.injected.io_write", MetricKind::Counter),
    ("fault.injected.frame_parse", MetricKind::Counter),
    ("fault.injected.bdd_alloc", MetricKind::Counter),
    ("fault.injected.memo_insert", MetricKind::Counter),
    ("fault.injected.gate_admit", MetricKind::Counter),
    ("fault.injected.worker_spawn", MetricKind::Counter),
    ("fault.injected.compute_panic", MetricKind::Counter),
    // tm-server hardening: per-connection deadlines, idle reaping and
    // graceful drain.
    ("serve.deadline.hits", MetricKind::Counter),
    ("serve.idle.reaped", MetricKind::Counter),
    ("serve.drain.requested", MetricKind::Counter),
    ("serve.drain.completed", MetricKind::Counter),
    ("serve.drain.forced", MetricKind::Counter),
    // tm-logic capacity tier: compacting mark-and-sweep GC.
    // `bdd.store.live` / `bdd.store.capacity` are the post-GC node
    // count and unique-table slot count, the levels the warm-pool soak
    // asserts stay flat.
    ("bdd.gc.runs", MetricKind::Counter),
    ("bdd.gc.reclaimed", MetricKind::Counter),
    ("bdd.store.live", MetricKind::Gauge),
    ("bdd.store.capacity", MetricKind::Gauge),
    // tm-server pool idle eviction (`--session-idle-ms`).
    ("serve.pool.idle_evicted", MetricKind::Counter),
    // tm-sim packed kernel: 64-lane transition blocks and their word
    // events.
    ("sim.packed.blocks", MetricKind::Counter),
    ("sim.packed.events", MetricKind::Counter),
    // tm-fleet: fleet-scale lifetime simulation. `fleet.chips` counts
    // chip instances per run; `fleet.flagged` counts DVS step-down
    // flags raised by the online trend detector.
    ("fleet.chips", MetricKind::Counter),
    ("fleet.epochs", MetricKind::Counter),
    ("fleet.cycles", MetricKind::Counter),
    ("fleet.activations", MetricKind::Counter),
    ("fleet.detected", MetricKind::Counter),
    ("fleet.escapes", MetricKind::Counter),
    ("fleet.flagged", MetricKind::Counter),
];

/// Every span name the workspace may open.
pub const KNOWN_SPANS: &[&str] = &[
    "spcf.short_path",
    "spcf.path_based",
    "spcf.node_based",
    "spcf.conservative",
    "masking.synthesize",
    "masking.spcf",
    "masking.extract",
    "masking.covers",
    "masking.map",
    "masking.slack",
    "masking.verify",
    "monitor.trace.session",
    "serve.request",
    "fleet.run",
    "fleet.epoch",
];

/// Every flight-recorder event name the workspace may record (see
/// [`crate::flight`]). Closed like the metric registry: the trace
/// validator (`tm_profile --check`) rejects unknown names.
pub const KNOWN_EVENTS: &[&str] = &[
    // tm-server request phases (serve.request is the per-request root).
    "serve.request",
    "serve.queue",
    "serve.parse",
    "serve.pool",
    "serve.compute",
    "serve.serialize",
    // tm-spcf engine sessions.
    "spcf.prepare",
    "spcf.output",
    // tm-logic: coarse BDD manager checkpoints (delta publishes).
    "bdd.publish",
    // tm-resilience: budget exhaustion, tagged with the live trace id.
    "resilience.exhausted",
    // tm-resilience fault plane: one event per injection, tagged with
    // the site index and its evaluation ordinal.
    "fault.injected",
    // tm-fleet phase attribution: per-shard execution and the driver's
    // shard-order merge.
    "fleet.shard",
    "fleet.merge",
];

/// Whether `name` is a registered flight-recorder event.
pub fn is_known_event(name: &str) -> bool {
    KNOWN_EVENTS.contains(&name)
}

/// Looks up a registered metric's kind.
pub fn metric_kind(name: &str) -> Option<MetricKind> {
    KNOWN_METRICS.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
}

/// Whether `name` is a registered span.
pub fn is_known_span(name: &str) -> bool {
    KNOWN_SPANS.contains(&name)
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').count() >= 2
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// Validates a parsed metrics report against the schema.
///
/// Checks: the top-level structure (`schema_version`, `spans`,
/// `counters`, `gauges`, `digests` arrays with the expected per-entry
/// fields), that every name is well-formed and registered above with
/// the right kind, and digest internals (percentiles monotone, bucket
/// indices strictly increasing, bucket counts summing to `count`).
/// Returns every problem found, not just the first.
pub fn validate(report: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();

    match report.get("schema_version").and_then(Json::as_num) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        Some(v) => errs.push(format!("schema_version {v} != {SCHEMA_VERSION}")),
        None => errs.push("missing numeric schema_version".to_string()),
    }

    for section in ["spans", "counters", "gauges", "digests"] {
        if report.get(section).and_then(Json::as_arr).is_none() {
            errs.push(format!("missing array section `{section}`"));
        }
    }
    for entry in report.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
        check_name(&mut errs, entry, "spans", None);
        for field in ["calls", "total_ns", "self_ns"] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                errs.push(format!("spans: entry missing numeric `{field}`"));
            }
        }
        if let (Some(t), Some(s)) = (
            entry.get("total_ns").and_then(Json::as_num),
            entry.get("self_ns").and_then(Json::as_num),
        ) {
            if s > t {
                errs.push(format!("spans: self_ns {s} > total_ns {t}"));
            }
        }
    }

    for entry in report.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
        check_name(&mut errs, entry, "counters", Some(MetricKind::Counter));
        if entry.get("value").and_then(Json::as_num).is_none() {
            errs.push("counters: entry missing numeric `value`".to_string());
        }
    }

    for entry in report.get("gauges").and_then(Json::as_arr).unwrap_or(&[]) {
        check_name(&mut errs, entry, "gauges", Some(MetricKind::Gauge));
        if entry.get("value").and_then(Json::as_num).is_none() {
            errs.push("gauges: entry missing numeric `value`".to_string());
        }
    }

    for entry in report.get("digests").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = check_name(&mut errs, entry, "digests", Some(MetricKind::Digest))
            .unwrap_or_else(|| "<unnamed>".to_string());
        let count = entry.get("count").and_then(Json::as_num);
        for field in ["count", "sum", "min", "max", "p50", "p90", "p95", "p99"] {
            if entry.get(field).and_then(Json::as_num).is_none() {
                errs.push(format!("digests: `{name}` missing numeric `{field}`"));
            }
        }
        let q = |f: &str| entry.get(f).and_then(Json::as_num).unwrap_or(0.0);
        if count.unwrap_or(0.0) > 0.0 {
            let (min, p50, p90, p95, p99, max) =
                (q("min"), q("p50"), q("p90"), q("p95"), q("p99"), q("max"));
            if !(min <= p50 && p50 <= p90 && p90 <= p95 && p95 <= p99 && p99 <= max) {
                errs.push(format!(
                    "digests: `{name}` percentiles not monotone: \
                     min={min} p50={p50} p90={p90} p95={p95} p99={p99} max={max}"
                ));
            }
        }
        let Some(buckets) = entry.get("buckets").and_then(Json::as_arr) else {
            errs.push(format!("digests: `{name}` missing `buckets` array"));
            continue;
        };
        let mut bucket_total = 0.0;
        let mut prev_b = f64::NEG_INFINITY;
        for (i, b) in buckets.iter().enumerate() {
            match b.get("count").and_then(Json::as_num) {
                Some(c) => bucket_total += c,
                None => errs.push(format!("digests: `{name}` bucket {i} missing `count`")),
            }
            match b.get("b").and_then(Json::as_num) {
                Some(idx) if idx > prev_b => prev_b = idx,
                Some(idx) => {
                    errs.push(format!("digests: `{name}` bucket indices not increasing at b={idx}"))
                }
                None => errs.push(format!("digests: `{name}` bucket {i} missing numeric `b`")),
            }
        }
        if let Some(c) = count {
            if (bucket_total - c).abs() > 0.5 {
                errs.push(format!(
                    "digests: `{name}` bucket counts sum to {bucket_total}, count is {c}"
                ));
            }
        }
    }

    if errs.is_empty() { Ok(()) } else { Err(errs) }
}

/// Checks one entry's `name` field: present, well-formed, registered
/// with the right kind (`want = None` means a span). Returns the name
/// when present so callers can cite it in further errors.
fn check_name(
    errs: &mut Vec<String>,
    entry: &Json,
    section: &str,
    want: Option<MetricKind>,
) -> Option<String> {
    let Some(name) = entry.get("name").and_then(Json::as_str) else {
        errs.push(format!("{section}: entry without a string `name`"));
        return None;
    };
    if !well_formed_name(name) {
        errs.push(format!("{section}: malformed name `{name}`"));
    }
    match want {
        None => {
            if !is_known_span(name) {
                errs.push(format!("{section}: unknown span `{name}`"));
            }
        }
        Some(kind) => match metric_kind(name) {
            Some(k) if k == kind => {}
            Some(k) => errs.push(format!(
                "{section}: `{name}` is registered as {k:?}, emitted as {kind:?}"
            )),
            None => errs.push(format!("{section}: unknown metric `{name}`")),
        },
    }
    Some(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in KNOWN_METRICS {
            assert!(well_formed_name(name), "malformed metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
        }
        for name in KNOWN_SPANS {
            assert!(well_formed_name(name), "malformed span name {name}");
            assert!(seen.insert(*name), "span name collides: {name}");
        }
        // Event names live in their own namespace (the root event
        // deliberately shares `serve.request` with the span), but must
        // still be well-formed and unique among themselves.
        let mut events = std::collections::HashSet::new();
        for name in KNOWN_EVENTS {
            assert!(well_formed_name(name), "malformed event name {name}");
            assert!(events.insert(*name), "duplicate event name {name}");
            assert!(is_known_event(name));
        }
    }

    #[test]
    fn validates_digest_entries() {
        let report = Json::parse(
            r#"{"schema_version": 2, "spans": [], "counters": [], "gauges": [],
                "digests": [{"name": "serve.request_ns", "count": 2, "sum": 30, "min": 10,
                             "max": 20, "p50": 25, "p90": 18, "p95": 19, "p99": 20,
                             "buckets": [{"b": 10, "count": 1}, {"b": 10, "count": 2}]}]}"#,
        )
        .unwrap();
        let errs = validate(&report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("percentiles not monotone")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("indices not increasing")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("sum to 3")), "{errs:?}");

        let good = Json::parse(
            r#"{"schema_version": 2, "spans": [], "counters": [], "gauges": [],
                "digests": [{"name": "serve.queue_ns", "count": 2, "sum": 30, "min": 10,
                             "max": 20, "p50": 10, "p90": 20, "p95": 20, "p99": 20,
                             "buckets": [{"b": 10, "count": 1}, {"b": 20, "count": 1}]}]}"#,
        )
        .unwrap();
        validate(&good).expect("well-formed digest entry validates");
    }

    #[test]
    fn rejects_a_v1_report() {
        // Version 1 carried fixed-bucket `histograms` and no `digests`.
        let report = Json::parse(
            r#"{"schema_version": 1, "spans": [], "counters": [], "gauges": [],
                "histograms": [{"name": "spcf.short_path.output_ns", "count": 1, "sum": 3,
                                "buckets": [{"le": 5, "count": 1}]}]}"#,
        )
        .unwrap();
        let errs = validate(&report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version 1 != 2")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("missing array section `digests`")), "{errs:?}");
    }

    #[test]
    fn rejects_unknown_and_miskinded_names() {
        let report = Json::parse(
            r#"{"schema_version": 2,
                "spans": [{"name": "spcf.bogus", "calls": 1, "total_ns": 5, "self_ns": 5}],
                "counters": [{"name": "bdd.nodes", "value": 3}],
                "gauges": [],
                "digests": []}"#,
        )
        .unwrap();
        let errs = validate(&report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown span `spcf.bogus`")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("registered as Gauge")),
            "counter/gauge kind mismatch must be flagged: {errs:?}"
        );
    }

    #[test]
    fn rejects_self_exceeding_total_and_bad_buckets() {
        let report = Json::parse(
            r#"{"schema_version": 2,
                "spans": [{"name": "spcf.short_path", "calls": 1, "total_ns": 5, "self_ns": 9}],
                "counters": [],
                "gauges": [],
                "digests": [{"name": "spcf.short_path.output_ns", "count": 2, "sum": 30,
                             "min": 10, "max": 20, "p50": 10, "p90": 20, "p95": 20,
                             "p99": 20, "buckets": [{"b": 10}, {"b": 20, "count": 2}]}]}"#,
        )
        .unwrap();
        let errs = validate(&report).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("self_ns 9 > total_ns 5")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("bucket 0 missing `count`")), "{errs:?}");
    }

    #[test]
    fn accepts_a_real_snapshot() {
        let _scope = crate::Scope::enter();
        crate::counter_add("spcf.short_path.memo_hit", 7);
        crate::gauge_set("bdd.nodes", 42.0);
        crate::digest_record("spcf.short_path.output_ns", 1234);
        crate::digest_record("spcf.short_path.output_ns", 5_000_000_000_000);
        {
            let _span = crate::span!("spcf.short_path");
        }
        let json = crate::snapshot().to_json();
        validate(&json).expect("live snapshot validates");
        let reparsed = Json::parse(&json.render()).expect("round-trips");
        validate(&reparsed).expect("re-parsed snapshot validates");
    }
}
