//! Hermetic observability for the `timemask` workspace: tracing spans
//! and engine metrics, with JSON snapshots and an offline schema
//! checker. Zero registry dependencies (DESIGN.md §5) — the JSON value
//! type comes from `tm-testkit`.
//!
//! Five pieces:
//!
//! - [`mod@span`]: a lightweight span facade. `span!("spcf.short_path")`
//!   returns an RAII guard; a thread-local stack attributes monotonic
//!   wall time hierarchically, so every span name accumulates call
//!   count, *total* time (inclusive of children) and *self* time
//!   (exclusive).
//! - [`metrics`]: named counters, gauges and latency digests in one
//!   per-thread store, a [`Snapshot`]: [`snapshot`] copies it,
//!   [`drain`] takes it, [`absorb`] folds a worker's into it with
//!   [`Snapshot::merge`], and [`Snapshot::to_json`] renders the report.
//! - [`digest`]: exact-percentile latency digests (log-linear,
//!   mergeable, < 0.8 % relative error) — the one distribution type,
//!   used for the SPCF engines' per-output times and the server's
//!   request and queue latencies.
//! - [`schema`]: the closed registry of metric, span, and flight-event
//!   names used across the workspace, and a validator for emitted
//!   reports (CI parses the report back with `tm_testkit::json` and
//!   fails on structural errors or unknown metric names).
//! - [`flight`]: the flight recorder — per-thread ring buffers of
//!   structured [`flight::TraceEvent`]s with request-scoped trace
//!   contexts, slow-request capture, and Chrome trace-event JSON
//!   export (the `trace` verb and `tm_profile` in tm-server).
//!
//! # Gating
//!
//! Collection is off by default. It turns on when the `TM_TRACE`
//! environment variable is set (to anything but `0`), or per thread via
//! [`Scope`] (used by tests, and by the regenerators and `fleet` when
//! `TM_METRICS_OUT` names a snapshot file). `TM_TRACE=2` additionally
//! prints span enter/exit lines to stderr. While disabled every
//! recording call is a single cached branch and [`snapshot`] returns an
//! empty report. `tm-bench`'s `dormant_sites` test times that branch
//! for each hot entry point ([`counter_add`], [`digest_record`],
//! [`span!`], [`flight::phase`]) against an empty loop, in release.
//!
//! All state is **thread-local**: parallel `cargo test` threads never
//! share a store, so snapshots are deterministic per test.
//!
//! # Example
//!
//! ```
//! let _scope = tm_telemetry::Scope::enter(); // collect on this thread
//! {
//!     let _span = tm_telemetry::span!("spcf.short_path");
//!     tm_telemetry::counter_add("spcf.short_path.memo_hit", 3);
//! }
//! let snap = tm_telemetry::snapshot();
//! assert_eq!(snap.counter("spcf.short_path.memo_hit"), Some(3));
//! assert_eq!(snap.span("spcf.short_path").unwrap().calls, 1);
//! tm_telemetry::schema::validate(&snap.to_json()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod flight;
pub mod metrics;
pub mod schema;
pub mod span;

pub use digest::Digest;
pub use metrics::{
    absorb, counter_add, digest_record, drain, gauge_set, reset, snapshot, Snapshot, SpanStat,
};

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable enabling collection process-wide (`1` =
/// collect, `2` = collect and print span enter/exit to stderr).
pub const TRACE_ENV: &str = "TM_TRACE";

/// Environment variable naming a file the `table1`/`table2`
/// regenerators and `fleet` write their metrics snapshot to.
pub const METRICS_OUT_ENV: &str = "TM_METRICS_OUT";

static ENV_LEVEL: OnceLock<u8> = OnceLock::new();

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// The `TM_TRACE` level: 0 (off), 1 (collect), 2 (collect + verbose
/// span printing). Read once per process.
pub fn trace_level() -> u8 {
    *ENV_LEVEL.get_or_init(|| match std::env::var(TRACE_ENV) {
        Err(_) => 0,
        Ok(v) if v.is_empty() || v == "0" => 0,
        Ok(v) if v == "2" => 2,
        Ok(_) => 1,
    })
}

/// Whether this thread is currently collecting telemetry.
///
/// True when `TM_TRACE` is set, unless overridden per thread (see
/// [`set_thread_enabled`] / [`Scope`]).
#[inline]
pub fn enabled() -> bool {
    THREAD_OVERRIDE.with(|o| o.get()).unwrap_or_else(|| trace_level() > 0)
}

/// Overrides collection for the current thread: `Some(true)` /
/// `Some(false)` force it on/off, `None` restores the `TM_TRACE`
/// default. Prefer [`Scope`] in tests — it also isolates the store.
pub fn set_thread_enabled(on: Option<bool>) {
    THREAD_OVERRIDE.with(|o| o.set(on));
}

/// RAII scope that turns collection on for the current thread with a
/// fresh, empty store, and restores the previous store and
/// enablement when dropped. The isolation is what makes telemetry
/// assertions deterministic under parallel `cargo test`.
#[must_use = "collection stops when the Scope is dropped"]
#[derive(Debug)]
pub struct Scope {
    saved_override: Option<bool>,
    saved_store: Snapshot,
}

impl Scope {
    /// Starts collecting on this thread into a fresh store.
    pub fn enter() -> Scope {
        let saved_override = THREAD_OVERRIDE.with(|o| o.replace(Some(true)));
        let saved_store = drain();
        Scope { saved_override, saved_store }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.saved_override));
        let saved = std::mem::take(&mut self.saved_store);
        metrics::with_store(|s| *s = saved);
    }
}

/// The metrics output path to honor: the value of `TM_METRICS_OUT`,
/// if set.
pub fn metrics_out_env() -> Option<String> {
    std::env::var(METRICS_OUT_ENV).ok().filter(|p| !p.is_empty())
}

/// Writes the current thread's snapshot as JSON to `path`.
pub fn write_snapshot(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, snapshot().to_json().render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thread_records_nothing() {
        set_thread_enabled(Some(false));
        counter_add("bdd.cache.hits", 5);
        gauge_set("bdd.nodes", 9.0);
        digest_record("spcf.short_path.output_ns", 100);
        let _span = crate::span!("spcf.short_path");
        drop(_span);
        let snap = snapshot();
        assert!(snap.is_empty(), "disabled thread must produce an empty report");
        set_thread_enabled(None);
    }

    #[test]
    fn scope_isolates_and_restores() {
        let outer = Scope::enter();
        counter_add("sim.timing.events", 1);
        {
            let _inner = Scope::enter();
            counter_add("sim.timing.events", 10);
            assert_eq!(snapshot().counter("sim.timing.events"), Some(10));
        }
        // Inner scope's counts must not leak into the outer store.
        assert_eq!(snapshot().counter("sim.timing.events"), Some(1));
        drop(outer);
        assert!(snapshot().counter("sim.timing.events").is_none());
    }

    #[test]
    fn empty_snapshot_is_deterministic_and_schema_valid() {
        set_thread_enabled(Some(false));
        let a = snapshot().to_json().render();
        let b = snapshot().to_json().render();
        assert_eq!(a, b);
        let parsed = tm_testkit::json::Json::parse(&a).expect("parses");
        schema::validate(&parsed).expect("empty report is schema-valid");
        set_thread_enabled(None);
    }
}
