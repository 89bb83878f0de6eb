//! Property tests for `Snapshot::merge` — the one set of fold rules
//! behind the per-thread store's `absorb`, the serving daemon's shared
//! aggregate and the bench harness's cross-run folds.
//!
//! Merge must behave like multiset union of the recorded observations:
//!
//! - **associative**: `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — the daemon folds
//!   worker drains in whatever grouping the locking produces;
//! - **commutative** over everything except gauges — gauges are
//!   documented last-write-wins, so commutativity is checked on
//!   gauge-free snapshots (and the gauge asymmetry is pinned by a
//!   dedicated case below);
//! - **identity**: the empty snapshot is a two-sided unit;
//! - **one fold**: absorbing `b` into a thread store holding `a` gives
//!   exactly `a.merge(b)`.
//!
//! Numeric payloads are generated as small integers so `f64` sums stay
//! exact — the properties are about merge structure, not float
//! rounding.

use tm_telemetry::digest::Digest;
use tm_telemetry::{Snapshot, SpanStat};
use tm_testkit::prop::{self, Config, Gen};

const COUNTER_NAMES: &[&str] = &["serve.requests", "serve.pool.hits", "bdd.cache.hits"];
const GAUGE_NAMES: &[&str] = &["serve.pool.sessions", "bdd.nodes"];
const DIGEST_NAMES: &[&str] = &["serve.request_ns", "spcf.short_path.output_ns"];
const SPAN_NAMES: &[&str] = &["serve.request", "spcf.short_path"];

fn gen_snapshot(g: &mut Gen, with_gauges: bool) -> Snapshot {
    let mut s = Snapshot::default();
    for name in COUNTER_NAMES {
        if g.next_bool() {
            s.counters.insert(name, g.gen_range(0..1000u64));
        }
    }
    if with_gauges {
        for name in GAUGE_NAMES {
            if g.next_bool() {
                s.gauges.insert(name, g.gen_range(0..1000u64) as f64);
            }
        }
    }
    for name in DIGEST_NAMES {
        if g.next_bool() {
            let mut d = Digest::default();
            for _ in 0..g.gen_range(1..6usize) {
                d.record(g.gen_range(0..2_000_000u64));
            }
            s.digests.insert(name, d);
        }
    }
    for name in SPAN_NAMES {
        if g.next_bool() {
            let total = g.gen_range(1..100_000u64);
            s.spans.push(SpanStat {
                name,
                calls: g.gen_range(1..50u64),
                total_ns: total,
                self_ns: g.gen_range(0..=total),
            });
        }
    }
    // Real span lists are name-sorted (the store and merge keep them
    // so) — generated ones must satisfy the same invariant.
    s.spans.sort_by(|a, b| a.name.cmp(b.name));
    s
}

/// Snapshot equality via the deterministic JSON rendering (name-sorted,
/// so structurally equal snapshots render identically).
fn rendered(s: &Snapshot) -> String {
    s.to_json().render()
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

#[test]
fn merge_is_associative() {
    prop::check(
        "merge_is_associative",
        &Config::with_cases(64),
        |g| (gen_snapshot(g, true), gen_snapshot(g, true), gen_snapshot(g, true)),
        |(a, b, c)| {
            let left = rendered(&merged(&merged(a, b), c));
            let right = rendered(&merged(a, &merged(b, c)));
            if left == right {
                Ok(())
            } else {
                Err(format!("(a∪b)∪c != a∪(b∪c)\nleft:  {left}\nright: {right}"))
            }
        },
    );
}

#[test]
fn merge_is_commutative_without_gauges() {
    prop::check(
        "merge_is_commutative_without_gauges",
        &Config::with_cases(64),
        |g| (gen_snapshot(g, false), gen_snapshot(g, false)),
        |(a, b)| {
            let ab = rendered(&merged(a, b));
            let ba = rendered(&merged(b, a));
            if ab == ba {
                Ok(())
            } else {
                Err(format!("a∪b != b∪a\nab: {ab}\nba: {ba}"))
            }
        },
    );
}

#[test]
fn merge_identity_is_two_sided() {
    prop::check(
        "merge_identity_is_two_sided",
        &Config::with_cases(64),
        |g| gen_snapshot(g, true),
        |a| {
            let empty = Snapshot::default();
            let left = rendered(&merged(&empty, a));
            let right = rendered(&merged(a, &empty));
            let want = rendered(a);
            if left != want {
                return Err(format!("empty∪a != a\ngot:  {left}\nwant: {want}"));
            }
            if right != want {
                return Err(format!("a∪empty != a\ngot:  {right}\nwant: {want}"));
            }
            Ok(())
        },
    );
}

/// The thread store folds with the same rules: absorbing `b` into a
/// store holding `a` equals `a.merge(b)`, gauges included.
#[test]
fn absorb_into_store_equals_merge() {
    prop::check(
        "absorb_into_store_equals_merge",
        &Config::with_cases(64),
        |g| (gen_snapshot(g, true), gen_snapshot(g, true)),
        |(a, b)| {
            let _scope = tm_telemetry::Scope::enter();
            tm_telemetry::absorb(a);
            tm_telemetry::absorb(b);
            let store = tm_telemetry::snapshot();
            let want = merged(a, b);
            if store == want {
                Ok(())
            } else {
                Err(format!("store != a∪b
store: {store:?}
want:  {want:?}"))
            }
        },
    );
}

/// Pins the documented gauge asymmetry: merge order decides which
/// gauge value survives (last write wins), which is exactly why the
/// commutativity property above excludes gauges.
#[test]
fn gauge_merge_is_last_write_wins_by_construction() {
    let mut a = Snapshot::default();
    a.gauges.insert("serve.pool.sessions", 1.0);
    let mut b = Snapshot::default();
    b.gauges.insert("serve.pool.sessions", 2.0);
    assert_eq!(merged(&a, &b).gauge("serve.pool.sessions"), Some(2.0));
    assert_eq!(merged(&b, &a).gauge("serve.pool.sessions"), Some(1.0));
}
