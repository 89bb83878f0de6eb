//! Offline schema checker for emitted metrics reports.
//!
//! Usage: `validate_metrics [--require-nonzero NAME]... <report.json>...`
//! — parses each file with the in-repo JSON parser and validates it
//! against the closed metric registry ([`tm_telemetry::schema`]). Each
//! `--require-nonzero NAME` additionally demands that every report
//! records the registered metric `NAME` as nonzero: a counter's or
//! gauge's `value`, a digest's `count` (CI uses this as a sanity gate:
//! a smoke bench that never hits the BDD computed cache means the
//! instrumentation or the cache is broken). Exits nonzero listing every
//! problem if any file is malformed, names an unregistered metric, or
//! misses a required metric.

use tm_telemetry::schema::{self, MetricKind};
use tm_testkit::json::Json;

/// The number `--require-nonzero` checks for metric `name` of `kind`,
/// if the report records it.
fn required_value(report: &Json, name: &str, kind: MetricKind) -> Option<f64> {
    let (section, field) = match kind {
        MetricKind::Counter => ("counters", "value"),
        MetricKind::Gauge => ("gauges", "value"),
        MetricKind::Digest => ("digests", "count"),
    };
    report
        .get(section)
        .and_then(Json::as_arr)?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|e| e.get(field).and_then(Json::as_num))
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut required: Vec<(String, MetricKind)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--require-nonzero" {
            let Some(name) = args.next() else {
                eprintln!("--require-nonzero needs a metric name");
                std::process::exit(2);
            };
            let Some(kind) = schema::metric_kind(&name) else {
                eprintln!("--require-nonzero: `{name}` is not a registered metric");
                std::process::exit(2);
            };
            required.push((name, kind));
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        eprintln!("usage: validate_metrics [--require-nonzero NAME]... <report.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let parsed = match Json::parse(&text) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("{path}: invalid JSON: {e}");
                failed = true;
                continue;
            }
        };
        match schema::validate(&parsed) {
            Ok(()) => {
                let mut missing = false;
                for (name, kind) in &required {
                    match required_value(&parsed, name, *kind) {
                        Some(v) if v > 0.0 => {}
                        Some(v) => {
                            eprintln!("{path}: {kind:?} `{name}` must be nonzero, got {v}");
                            missing = true;
                        }
                        None => {
                            eprintln!("{path}: required {kind:?} `{name}` is absent");
                            missing = true;
                        }
                    }
                }
                if missing {
                    failed = true;
                    continue;
                }
                let n = |section: &str| {
                    parsed.get(section).and_then(Json::as_arr).map_or(0, <[Json]>::len)
                };
                println!(
                    "{path}: ok ({} spans, {} counters, {} gauges, {} digests)",
                    n("spans"),
                    n("counters"),
                    n("gauges"),
                    n("digests"),
                );
            }
            Err(errs) => {
                for e in &errs {
                    eprintln!("{path}: {e}");
                }
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
