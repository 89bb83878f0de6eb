//! Named counters, gauges and latency digests, plus span aggregates,
//! in one per-thread store with JSON snapshots.
//!
//! Metric names are `&'static str` in `crate.subsystem.metric` form and
//! must be registered in [`crate::schema`] — the CI validator fails on
//! names it does not know, so adding a metric means adding it to the
//! schema in the same change.
//!
//! The store *is* a [`Snapshot`] keyed by those static names: recording
//! writes into the current thread's, [`snapshot`] clones it, [`drain`]
//! takes it, and [`absorb`] folds a worker's into it with
//! [`Snapshot::merge`] — the one set of fold rules, shared with the
//! serving daemon's `Mutex<Snapshot>` aggregate. A disabled thread
//! returns after one branch.

use crate::digest::Digest;
use std::cell::RefCell;
use std::collections::BTreeMap;
use tm_testkit::json::Json;

pub use crate::span::SpanStat;

thread_local! {
    static STORE: RefCell<Snapshot> = RefCell::new(Snapshot::default());
}

pub(crate) fn with_store<T>(f: impl FnOnce(&mut Snapshot) -> T) -> T {
    STORE.with(|s| f(&mut s.borrow_mut()))
}

/// Adds `n` to the counter `name` (saturating — counters never wrap).
/// No-op while collection is disabled on this thread.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !crate::enabled() {
        return;
    }
    with_store(|s| s.add_counter(name, n));
}

/// Sets the gauge `name` to `v` (last write wins). No-op while
/// collection is disabled on this thread.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if !crate::enabled() {
        return;
    }
    with_store(|s| {
        s.gauges.insert(name, v);
    });
}

/// Records `v` (a nanosecond latency or similar `u64` measure) into
/// the exact-percentile digest `name`. No-op while collection is
/// disabled on this thread.
#[inline]
pub fn digest_record(name: &'static str, v: u64) {
    if !crate::enabled() {
        return;
    }
    with_store(|s| s.digests.entry(name).or_default().record(v));
}

/// Clears the current thread's store.
pub fn reset() {
    with_store(|s| *s = Snapshot::default());
}

/// Takes the current thread's metrics, leaving its store empty.
///
/// This is the worker half of cross-thread aggregation: a worker thread
/// drains its store just before finishing and hands the [`Snapshot`]
/// to the spawning thread, which folds it in with [`absorb`].
pub fn drain() -> Snapshot {
    with_store(std::mem::take)
}

/// Folds a drained worker [`Snapshot`] into the current thread's store
/// with [`Snapshot::merge`]. No-op while collection is disabled on
/// this thread.
pub fn absorb(snap: &Snapshot) {
    if !crate::enabled() {
        return;
    }
    with_store(|s| s.merge(snap));
}

/// Copies the current thread's metrics. Works whether or not
/// collection is enabled (a disabled thread yields an empty report).
pub fn snapshot() -> Snapshot {
    with_store(|s| s.clone())
}

/// A set of metrics keyed by their registered names: one thread's
/// store, a copy of it, or a fold of several. Maps iterate by name and
/// `spans` is kept name-sorted, so rendering is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Exact-percentile digests.
    pub digests: BTreeMap<&'static str, Digest>,
    /// Aggregated span statistics, sorted by name.
    pub spans: Vec<SpanStat>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.digests.is_empty()
            && self.spans.is_empty()
    }

    /// The value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The stats of an exact-percentile digest, if recorded.
    pub fn digest(&self, name: &str) -> Option<&Digest> {
        self.digests.get(name)
    }

    /// The aggregated stats of a span, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Folds another snapshot into this one: counters add (saturating),
    /// gauges keep the incoming value (last write wins), digests merge
    /// bucket-wise, spans add calls and times.
    pub fn merge(&mut self, other: &Snapshot) {
        for (&name, &n) in &other.counters {
            self.add_counter(name, n);
        }
        self.gauges.extend(&other.gauges);
        for (&name, d) in &other.digests {
            self.digests.entry(name).or_default().merge(d);
        }
        for s in &other.spans {
            self.add_span(s);
        }
    }

    fn add_counter(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Adds `stat`'s calls and times to the span of the same name.
    pub(crate) fn add_span(&mut self, stat: &SpanStat) {
        match self.spans.binary_search_by(|s| s.name.cmp(stat.name)) {
            Ok(i) => {
                let into = &mut self.spans[i];
                into.calls = into.calls.saturating_add(stat.calls);
                into.total_ns = into.total_ns.saturating_add(stat.total_ns);
                into.self_ns = into.self_ns.saturating_add(stat.self_ns);
            }
            Err(i) => self.spans.insert(i, *stat),
        }
    }

    /// Renders the snapshot as the workspace's metrics-report JSON
    /// (validated by [`crate::schema::validate`]).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("calls", Json::Num(s.calls as f64)),
                    ("total_ns", Json::Num(s.total_ns as f64)),
                    ("self_ns", Json::Num(s.self_ns as f64)),
                ])
            })
            .collect();
        let value = |n: &str, v: f64| Json::obj([("name", Json::str(n)), ("value", Json::Num(v))]);
        let counters = self.counters.iter().map(|(n, v)| value(n, *v as f64)).collect();
        let gauges = self.gauges.iter().map(|(n, v)| value(n, *v)).collect();
        let digests = self.digests.iter().map(|(n, d)| d.to_json(n)).collect();
        Json::obj([
            ("schema_version", Json::Num(crate::schema::SCHEMA_VERSION as f64)),
            ("spans", Json::Arr(spans)),
            ("counters", Json::Arr(counters)),
            ("gauges", Json::Arr(gauges)),
            ("digests", Json::Arr(digests)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    #[test]
    fn counters_accumulate_and_saturate() {
        let _scope = Scope::enter();
        counter_add("sim.timing.events", 2);
        counter_add("sim.timing.events", 3);
        assert_eq!(snapshot().counter("sim.timing.events"), Some(5));
        counter_add("sim.timing.events", u64::MAX);
        assert_eq!(
            snapshot().counter("sim.timing.events"),
            Some(u64::MAX),
            "counter overflow must saturate, not wrap"
        );
    }

    #[test]
    fn gauges_keep_last_write() {
        let _scope = Scope::enter();
        gauge_set("bdd.nodes", 10.0);
        gauge_set("bdd.nodes", 7.0);
        assert_eq!(snapshot().gauge("bdd.nodes"), Some(7.0));
    }

    #[test]
    fn snapshot_orders_by_name() {
        let _scope = Scope::enter();
        counter_add("spcf.short_path.memo_miss", 1);
        counter_add("bdd.cache.hits", 1);
        counter_add("monitor.trace.dropped", 1);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.keys().copied().collect();
        assert_eq!(
            names,
            vec![
                "bdd.cache.hits",
                "monitor.trace.dropped",
                "spcf.short_path.memo_miss"
            ]
        );
    }

    #[test]
    fn absorb_merges_every_metric_kind() {
        let _scope = Scope::enter();
        counter_add("spcf.short_path.stab_calls", 3);
        gauge_set("bdd.nodes", 5.0);
        digest_record("spcf.short_path.output_ns", 3);
        {
            let _span = crate::span!("spcf.short_path");
        }

        // A "worker" snapshot as another thread would have drained it.
        let mut worker = Snapshot::default();
        worker.counters.insert("spcf.short_path.stab_calls", 4);
        worker.gauges.insert("bdd.nodes", 9.0);
        let mut d = Digest::default();
        d.record(1);
        d.record(2_000_000_000_000);
        worker.digests.insert("spcf.short_path.output_ns", d);
        worker.spans.push(SpanStat {
            name: "spcf.short_path",
            calls: 2,
            total_ns: 100,
            self_ns: 80,
        });

        absorb(&worker);
        let snap = snapshot();
        assert_eq!(snap.counter("spcf.short_path.stab_calls"), Some(7));
        assert_eq!(snap.gauge("bdd.nodes"), Some(9.0), "worker gauge wins");
        let merged = snap.digest("spcf.short_path.output_ns").expect("merged");
        assert_eq!((merged.count, merged.min, merged.max), (3, 1, 2_000_000_000_000));
        let span = snap.span("spcf.short_path").expect("merged span");
        assert_eq!(span.calls, 3);
        assert!(span.total_ns >= 100, "worker time folded in: {span:?}");
        assert!(span.self_ns <= span.total_ns);
    }

    #[test]
    fn merge_is_registry_free_and_keeps_name_order() {
        let mut agg = Snapshot::default();
        let mut a = Snapshot::default();
        a.counters.insert("serve.requests", 2);
        a.gauges.insert("serve.pool.sessions", 1.0);
        let mut d = Digest::default();
        d.record(3);
        a.digests.insert("serve.request_ns", d);
        a.spans.push(SpanStat { name: "serve.request", calls: 2, total_ns: 50, self_ns: 40 });
        let mut b = Snapshot::default();
        b.counters.insert("serve.pool.hits", 1);
        b.counters.insert("serve.requests", 3);
        b.gauges.insert("serve.pool.sessions", 4.0);
        let mut d2 = Digest::default();
        d2.record(2_000_000_000_000);
        b.digests.insert("serve.request_ns", d2);
        b.spans.push(SpanStat { name: "serve.request", calls: 1, total_ns: 10, self_ns: 10 });
        b.spans.push(SpanStat { name: "fleet.run", calls: 1, total_ns: 7, self_ns: 7 });
        agg.merge(&a);
        agg.merge(&b);
        assert_eq!(agg.counter("serve.requests"), Some(5));
        assert_eq!(agg.counter("serve.pool.hits"), Some(1));
        let names: Vec<&str> = agg.counters.keys().copied().collect();
        assert_eq!(names, vec!["serve.pool.hits", "serve.requests"], "sorted after merge");
        assert_eq!(agg.gauge("serve.pool.sessions"), Some(4.0), "last write wins");
        let digest = agg.digest("serve.request_ns").expect("merged digest");
        assert_eq!(digest.count, 2);
        assert_eq!(digest.min, 3);
        assert_eq!(digest.max, 2_000_000_000_000);
        let span = agg.span("serve.request").expect("merged span");
        assert_eq!((span.calls, span.total_ns, span.self_ns), (3, 60, 50));
        let spans: Vec<&str> = agg.spans.iter().map(|s| s.name).collect();
        assert_eq!(spans, vec!["fleet.run", "serve.request"], "spans stay name-sorted");
        // A merged aggregate renders to a schema-valid report.
        let parsed = Json::parse(&agg.to_json().render()).expect("parses");
        crate::schema::validate(&parsed).expect("merged aggregate is schema-valid");
    }

    #[test]
    fn drain_empties_and_absorb_restores_across_threads() {
        let _scope = Scope::enter();
        counter_add("sim.timing.events", 1);
        let workers: Vec<Snapshot> = std::thread::scope(|scope| {
            (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        crate::set_thread_enabled(Some(true));
                        counter_add("sim.timing.events", 10);
                        drain()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for w in &workers {
            assert_eq!(w.counter("sim.timing.events"), Some(10));
            absorb(w);
        }
        assert_eq!(snapshot().counter("sim.timing.events"), Some(31));
        // drain leaves the worker store empty — verified locally too.
        counter_add("sim.timing.events", 1);
        let drained = drain();
        assert_eq!(drained.counter("sim.timing.events"), Some(32));
        assert!(snapshot().is_empty());
    }

    #[test]
    fn json_round_trips_through_parser_and_schema() {
        let _scope = Scope::enter();
        counter_add("bdd.unique.hits", 41);
        gauge_set("spcf.short_path.memo_entries", 12.0);
        digest_record("spcf.path_based.output_ns", 1234);
        digest_record("spcf.path_based.output_ns", 2_000_000_000_000);
        {
            let _outer = crate::span!("masking.synthesize");
            let _inner = crate::span!("masking.spcf");
        }
        let rendered = snapshot().to_json().render();
        let parsed = Json::parse(&rendered).expect("report parses");
        crate::schema::validate(&parsed).expect("report is schema-valid");
        // The parsed tree carries the same values the snapshot had.
        let counters = parsed.get("counters").and_then(Json::as_arr).expect("counters");
        assert_eq!(counters[0].get("name").and_then(Json::as_str), Some("bdd.unique.hits"));
        assert_eq!(counters[0].get("value").and_then(Json::as_num), Some(41.0));
        let digests = parsed.get("digests").and_then(Json::as_arr).expect("digests");
        assert_eq!(digests[0].get("count").and_then(Json::as_num), Some(2.0));
        assert_eq!(digests[0].get("max").and_then(Json::as_num), Some(2e12));
        assert!(parsed.get("histograms").is_none(), "no fixed-bucket section");
    }
}
