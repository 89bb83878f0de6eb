//! The span facade: RAII guards over a thread-local stack, aggregated
//! per name into call count, total (inclusive) and self (exclusive)
//! wall time.
//!
//! Use the [`crate::span!`] macro rather than calling [`enter`]
//! directly — it keeps the call site to one line and formats field
//! arguments only at `TM_TRACE=2`:
//!
//! ```
//! let _scope = tm_telemetry::Scope::enter();
//! let net = 7;
//! let _span = tm_telemetry::span!("spcf.short_path", net = net);
//! ```

use crate::metrics::with_store;
use std::cell::RefCell;
use std::time::Instant;

/// Aggregated statistics of one span name on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Span name (`crate.subsystem` form, from [`crate::schema`]).
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub calls: u64,
    /// Wall time including children, in nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding child spans, in nanoseconds.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    /// Nanoseconds spent in completed child spans.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An active span; records itself into the thread's aggregate on drop.
/// Inert (a no-op) when collection was disabled at entry.
#[must_use = "a span measures nothing unless bound to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

/// Opens a span. Prefer the [`crate::span!`] macro.
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: false };
    }
    if crate::trace_level() >= 2 {
        let depth = STACK.with(|s| s.borrow().len());
        eprintln!("[tm-trace] {:indent$}> {name}", "", indent = depth * 2);
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame { name, start: Instant::now(), child_ns: 0 })
    });
    SpanGuard { active: true }
}

/// Opens a span with lazily formatted fields; `fields` is only invoked
/// at `TM_TRACE=2` (the verbose printing level).
pub fn enter_verbose(name: &'static str, fields: impl FnOnce() -> String) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: false };
    }
    if crate::trace_level() >= 2 {
        let depth = STACK.with(|s| s.borrow().len());
        eprintln!("[tm-trace] {:indent$}> {name} {}", "", fields(), indent = depth * 2);
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame { name, start: Instant::now(), child_ns: 0 })
    });
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
            return; // stack desync (a guard outlived a Scope) — drop silently
        };
        let total_ns = frame.start.elapsed().as_nanos() as u64;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
        });
        with_store(|s| s.add_span(&SpanStat { name: frame.name, calls: 1, total_ns, self_ns }));
        if crate::trace_level() >= 2 {
            let depth = STACK.with(|s| s.borrow().len());
            eprintln!(
                "[tm-trace] {:indent$}< {} ({:.3} ms)",
                "",
                frame.name,
                total_ns as f64 / 1e6,
                indent = depth * 2
            );
        }
    }
}

/// Opens a span guarded on the current thread's collection state.
///
/// `span!("name")` opens a plain span; `span!("name", k = v, ...)`
/// additionally prints `k=v` fields when `TM_TRACE=2` (the fields are
/// not formatted otherwise). Bind the result: `let _span = span!(...)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::enter_verbose($name, || {
            let mut s = String::new();
            $(
                s.push_str(concat!(stringify!($key), "="));
                s.push_str(&format!("{:?} ", $value));
            )+
            s
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_spans_attribute_self_and_total_time() {
        let _scope = Scope::enter();
        {
            let _outer = crate::span!("masking.synthesize");
            spin(200);
            {
                let _inner = crate::span!("masking.spcf");
                spin(200);
            }
            {
                let _inner = crate::span!("masking.spcf");
                spin(200);
            }
            spin(100);
        }
        let snap = crate::snapshot();
        let outer = snap.span("masking.synthesize").expect("outer recorded");
        let inner = snap.span("masking.spcf").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        // Self time excludes children and is bounded by total time.
        assert!(outer.self_ns <= outer.total_ns, "self must never exceed total");
        assert!(inner.self_ns == inner.total_ns, "leaf spans are all self time");
        assert!(
            outer.total_ns >= outer.self_ns + inner.total_ns.saturating_sub(1_000),
            "outer total covers inner total: outer={outer:?} inner={inner:?}"
        );
        assert!(outer.self_ns > 0, "outer did real work outside its children");
    }

    #[test]
    fn sibling_child_time_accumulates_into_parent() {
        let _scope = Scope::enter();
        {
            let _outer = crate::span!("spcf.path_based");
            for _ in 0..3 {
                let _child = crate::span!("spcf.short_path");
                spin(100);
            }
        }
        let snap = crate::snapshot();
        let outer = snap.span("spcf.path_based").expect("outer");
        let child = snap.span("spcf.short_path").expect("child");
        assert_eq!(child.calls, 3);
        assert!(outer.total_ns >= child.total_ns, "parent total covers all children");
    }

    #[test]
    fn span_with_fields_compiles_and_records() {
        let _scope = Scope::enter();
        {
            let id = 42;
            let _span = crate::span!("monitor.trace.session", net = id, phase = true);
        }
        assert_eq!(crate::snapshot().span("monitor.trace.session").unwrap().calls, 1);
    }

    #[test]
    fn inert_guard_outside_collection_is_free() {
        crate::set_thread_enabled(Some(false));
        {
            let _span = crate::span!("spcf.node_based");
        }
        assert!(crate::snapshot().span("spcf.node_based").is_none());
        crate::set_thread_enabled(None);
    }
}
