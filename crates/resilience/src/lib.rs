//! Deterministic computation budgets and typed errors for the
//! SPCF → masking pipeline.
//!
//! The exact SPCF engines are BDD-based and can blow up exponentially on
//! unlucky netlists. Rather than OOM-ing (or relying on wall-clock
//! timeouts, which make runs irreproducible), every expensive engine
//! accepts a [`Budget`] of *deterministic* counters — BDD nodes
//! allocated, recursion steps taken, memo entries stored. When a counter
//! crosses its limit the engine unwinds with a typed [`Exhausted`] error
//! and the caller degrades to a cheaper, sound over-approximation (see
//! `tm_masking::synthesize` and DESIGN.md §7).
//!
//! The crate also defines [`TmError`], the workspace-wide error type
//! with a human-readable context chain, so every public entry point can
//! be panic-free on untrusted input.

#![forbid(unsafe_code)]

pub mod fault;

use std::error::Error;
use std::fmt;

/// Which budgeted resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Unique-table nodes allocated by a [`tm_logic`-style] BDD manager.
    BddNodes,
    /// Recursive apply/quantify steps (ITE cache misses and the like).
    Steps,
    /// Entries stored in an engine memo table (stabilization memo,
    /// waveform store, ...).
    MemoEntries,
}

impl Resource {
    /// Short stable name used in error messages and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Resource::BddNodes => "bdd_nodes",
            Resource::Steps => "steps",
            Resource::MemoEntries => "memo_entries",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A computation budget ran out.
///
/// Carries enough to explain *what* was exceeded and by how much; the
/// construction site records `resilience.budget.exhausted` in telemetry
/// so exhaustion is visible even when a caller recovers silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exhausted {
    /// The counter that crossed its limit.
    pub resource: Resource,
    /// The configured limit.
    pub limit: u64,
    /// The observed value that tripped the check (≥ `limit`).
    pub used: u64,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "computation budget exhausted: {} used {} of limit {}",
            self.resource, self.used, self.limit
        )
    }
}

impl Error for Exhausted {}

/// Deterministic limits on a computation. `u64::MAX` means unlimited.
///
/// A `Budget` is a plain `Copy` bundle of limits — the *counters* live
/// in the engines themselves (BDD manager node count, memo sizes), so
/// there is no shared mutable state and runs stay reproducible across
/// machines: the same input and budget always exhaust at the same point
/// or not at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Max unique-table nodes a BDD manager may hold.
    pub max_bdd_nodes: u64,
    /// Max recursion steps (ITE-cache misses / quantifier expansions).
    pub max_steps: u64,
    /// Max entries an engine memo table may hold.
    pub max_memo_entries: u64,
}

impl Budget {
    /// No limits; checks never fail. This is the default.
    pub const fn unlimited() -> Self {
        Budget { max_bdd_nodes: u64::MAX, max_steps: u64::MAX, max_memo_entries: u64::MAX }
    }

    /// True when no limit is set (all checks are trivially satisfied).
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::unlimited()
    }

    /// Caps unique-table BDD nodes.
    pub fn with_max_bdd_nodes(mut self, n: u64) -> Self {
        self.max_bdd_nodes = n;
        self
    }

    /// Caps recursion steps.
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Caps engine memo entries.
    pub fn with_max_memo_entries(mut self, n: u64) -> Self {
        self.max_memo_entries = n;
        self
    }

    fn check(resource: Resource, used: u64, limit: u64) -> Result<(), Exhausted> {
        if used < limit {
            return Ok(());
        }
        tm_telemetry::counter_add("resilience.budget.exhausted", 1);
        // Flight event so a trace shows *which request* exhausted its
        // budget (the active trace id is attached automatically).
        tm_telemetry::flight::instant(
            "resilience.exhausted",
            &[("resource", resource as u8 as f64), ("limit", limit as f64), ("used", used as f64)],
        );
        Err(Exhausted { resource, limit, used })
    }

    /// Fails once `used` BDD nodes reaches the node limit.
    pub fn check_bdd_nodes(&self, used: u64) -> Result<(), Exhausted> {
        Budget::check(Resource::BddNodes, used, self.max_bdd_nodes)
    }

    /// Fails once `used` steps reaches the step limit.
    pub fn check_steps(&self, used: u64) -> Result<(), Exhausted> {
        Budget::check(Resource::Steps, used, self.max_steps)
    }

    /// Fails once `used` memo entries reaches the memo limit.
    pub fn check_memo_entries(&self, used: u64) -> Result<(), Exhausted> {
        Budget::check(Resource::MemoEntries, used, self.max_memo_entries)
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// What went wrong, structurally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TmErrorKind {
    /// A deterministic computation budget ran out (see [`Exhausted`]).
    Exhausted(Exhausted),
    /// Input text failed to parse; `line` is 1-based (0 = no location).
    Parse { line: usize, message: String },
    /// A value or argument violated a documented precondition.
    InvalidInput(String),
    /// The request is well-formed but outside what the engine supports.
    Unsupported(String),
}

/// Workspace-wide error: a [`TmErrorKind`] plus a context chain.
///
/// Context frames are pushed outermost-last with [`TmError::context`],
/// so `Display` reads like a story: `"synthesizing mask for c17:
/// parsing BLIF: line 12: .names block has no output"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TmError {
    kind: TmErrorKind,
    context: Vec<String>,
}

impl TmError {
    /// An error from a structural kind.
    pub fn new(kind: TmErrorKind) -> Self {
        TmError { kind, context: Vec::new() }
    }

    /// Convenience: an [`TmErrorKind::InvalidInput`] error.
    pub fn invalid_input(message: impl Into<String>) -> Self {
        TmError::new(TmErrorKind::InvalidInput(message.into()))
    }

    /// Convenience: an [`TmErrorKind::Unsupported`] error.
    pub fn unsupported(message: impl Into<String>) -> Self {
        TmError::new(TmErrorKind::Unsupported(message.into()))
    }

    /// Convenience: a [`TmErrorKind::Parse`] error at a 1-based line.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        TmError::new(TmErrorKind::Parse { line, message: message.into() })
    }

    /// Pushes an outer context frame (builder-style).
    pub fn context(mut self, frame: impl Into<String>) -> Self {
        self.context.push(frame.into());
        self
    }

    /// The structural kind.
    pub fn kind(&self) -> &TmErrorKind {
        &self.kind
    }

    /// Context frames, outermost first.
    pub fn frames(&self) -> impl Iterator<Item = &str> {
        self.context.iter().rev().map(String::as_str)
    }
}

impl fmt::Display for TmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for frame in self.frames() {
            write!(f, "{frame}: ")?;
        }
        match &self.kind {
            TmErrorKind::Exhausted(e) => write!(f, "{e}"),
            TmErrorKind::Parse { line: 0, message } => write!(f, "{message}"),
            TmErrorKind::Parse { line, message } => write!(f, "line {line}: {message}"),
            TmErrorKind::InvalidInput(m) => write!(f, "invalid input: {m}"),
            TmErrorKind::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl Error for TmError {}

impl From<Exhausted> for TmError {
    fn from(e: Exhausted) -> Self {
        TmError::new(TmErrorKind::Exhausted(e))
    }
}

/// Workspace-wide result alias.
pub type TmResult<T> = Result<T, TmError>;

/// Adds `.context(...)` sugar on `Result<T, E>` for any `E: Into<TmError>`.
pub trait Context<T> {
    /// Wraps the error (if any) into [`TmError`] with an outer frame.
    fn context(self, frame: impl Into<String>) -> TmResult<T>;
}

impl<T, E: Into<TmError>> Context<T> for Result<T, E> {
    fn context(self, frame: impl Into<String>) -> TmResult<T> {
        self.map_err(|e| e.into().context(frame))
    }
}

/// A counting admission gate: at most `capacity` permits outstanding at
/// once, handed out without blocking.
///
/// This is the load-shedding primitive of the serving layer: an
/// acceptor calls [`Gate::try_enter`] per connection and turns `None`
/// into a typed "overloaded" rejection instead of queueing unboundedly.
/// The returned [`Permit`] releases its slot on `Drop`, so a panic or
/// early return in the admitted work can never leak capacity. The
/// current load ([`Gate::in_flight`]) also drives the degradation
/// ladder: rising occupancy steps requests down to cheaper SPCF
/// engines before the gate starts rejecting outright.
#[derive(Debug)]
pub struct Gate {
    capacity: usize,
    in_flight: std::sync::atomic::AtomicUsize,
}

impl Gate {
    /// A gate admitting at most `capacity` concurrent holders
    /// (`capacity = 0` rejects everything).
    pub fn new(capacity: usize) -> Self {
        Gate { capacity, in_flight: std::sync::atomic::AtomicUsize::new(0) }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Tries to take a permit; `None` means the gate is full and the
    /// caller should shed the work. Never blocks.
    ///
    /// Also a fault-injection site: an armed `gate.admit.fail` makes
    /// this refuse as if the gate were full, so chaos runs exercise
    /// the typed `overloaded` shed path under normal load.
    pub fn try_enter(self: &std::sync::Arc<Self>) -> Option<Permit> {
        use std::sync::atomic::Ordering;
        if fault::gate_admit_fires() {
            return None;
        }
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Permit { gate: std::sync::Arc::clone(self) }),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// An admission slot held while a request is in flight; dropping it
/// releases the slot (see [`Gate`]).
#[derive(Debug)]
pub struct Permit {
    gate: std::sync::Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check_bdd_nodes(u64::MAX - 1).is_ok());
        assert!(b.check_steps(u64::MAX - 1).is_ok());
        assert!(b.check_memo_entries(u64::MAX - 1).is_ok());
    }

    #[test]
    fn limits_trip_at_the_boundary() {
        let b = Budget::unlimited().with_max_steps(10);
        assert!(!b.is_unlimited());
        assert!(b.check_steps(9).is_ok());
        let e = b.check_steps(10).unwrap_err();
        assert_eq!(e, Exhausted { resource: Resource::Steps, limit: 10, used: 10 });
        assert_eq!(e.to_string(), "computation budget exhausted: steps used 10 of limit 10");
    }

    #[test]
    fn exhaustion_is_counted_in_telemetry() {
        let _scope = tm_telemetry::Scope::enter();
        let b = Budget::unlimited().with_max_bdd_nodes(1);
        let _ = b.check_bdd_nodes(5);
        let _ = b.check_bdd_nodes(6);
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("resilience.budget.exhausted"), Some(2));
    }

    #[test]
    fn error_context_chain_reads_outermost_first() {
        let e: TmError = Exhausted { resource: Resource::BddNodes, limit: 4, used: 4 }.into();
        let e = e.context("computing SPCF").context("synthesizing mask for c17");
        assert_eq!(
            e.to_string(),
            "synthesizing mask for c17: computing SPCF: \
             computation budget exhausted: bdd_nodes used 4 of limit 4"
        );
        assert_eq!(
            e.frames().collect::<Vec<_>>(),
            vec!["synthesizing mask for c17", "computing SPCF"]
        );
        assert!(matches!(e.kind(), TmErrorKind::Exhausted(_)));
    }

    #[test]
    fn parse_errors_render_line_numbers() {
        assert_eq!(TmError::parse(12, "bad token").to_string(), "line 12: bad token");
        assert_eq!(TmError::parse(0, "truncated file").to_string(), "truncated file");
        assert_eq!(
            TmError::invalid_input("aging factor must be finite").to_string(),
            "invalid input: aging factor must be finite"
        );
        assert_eq!(TmError::unsupported("latches").to_string(), "unsupported: latches");
    }

    #[test]
    fn result_context_sugar() {
        fn inner() -> Result<(), Exhausted> {
            Err(Exhausted { resource: Resource::MemoEntries, limit: 2, used: 2 })
        }
        let r: TmResult<()> = inner().context("building waveforms");
        let msg = r.unwrap_err().to_string();
        assert!(msg.starts_with("building waveforms: "), "{msg}");
    }

    #[test]
    fn gate_caps_permits_and_drop_releases() {
        let gate = std::sync::Arc::new(Gate::new(2));
        let a = gate.try_enter().expect("slot 1");
        let b = gate.try_enter().expect("slot 2");
        assert!(gate.try_enter().is_none(), "full gate sheds");
        assert_eq!(gate.in_flight(), 2);
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let c = gate.try_enter().expect("released slot is reusable");
        drop((b, c));
        assert_eq!(gate.in_flight(), 0);
        assert!(std::sync::Arc::new(Gate::new(0)).try_enter().is_none(), "zero capacity");
    }

    #[test]
    fn gate_never_overadmits_under_contention() {
        let gate = std::sync::Arc::new(Gate::new(3));
        let peak = std::sync::atomic::AtomicUsize::new(0);
        let admitted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Some(permit) = gate.try_enter() {
                            admitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            peak.fetch_max(
                                gate.in_flight(),
                                std::sync::atomic::Ordering::Relaxed,
                            );
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert!(peak.load(std::sync::atomic::Ordering::Relaxed) <= 3, "capacity respected");
        assert!(admitted.load(std::sync::atomic::Ordering::Relaxed) > 0, "some work admitted");
        assert_eq!(gate.in_flight(), 0, "all permits returned");
    }
}
