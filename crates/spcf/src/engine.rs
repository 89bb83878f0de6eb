//! The engine session (DESIGN.md §8).
//!
//! Every SPCF algorithm computes the same thing — one characteristic
//! function per critical primary output — and used to duplicate the
//! same scaffolding three times: budget install/restore on the shared
//! BDD manager, gate-prime caches, lazily built global net functions,
//! telemetry spans, and the criticality filter. [`WarmState`] owns
//! that state and the per-point loop once; each algorithm shrinks to an
//! [`SpcfEngine`] implementation answering `compute_output` queries
//! against its [`EngineCx`]. A fresh state answers one cold run
//! ([`try_spcf_with`]); [`WarmSession`] holds one for a borrowed Δ_y
//! ladder, and the serving layer's session pool for an owned one.
//! Critical outputs are computed in netlist order in one manager, so
//! the short-path stabilization memo is shared across them.
//!
//! The state also owns the one degradation ladder
//! ([`WarmState::point_with_fallback`], DESIGN.md §7): synthesis, the
//! protection-band sweep and the server all step down
//! [`Algorithm::fallback`] through it, so a (circuit, target, budget)
//! lands on the same rung whoever asks.

use crate::common::{Algorithm, GatePrimes, LazyGlobals, OutputSpcf, SpcfSet};
use std::time::Instant;
use tm_logic::bdd::{Bdd, BddRef, BddRemap};
use tm_netlist::netlist::Driver;
use tm_netlist::{Delay, NetId, Netlist};
use tm_resilience::{Budget, Exhausted, Resource};
use tm_sta::Sta;

/// The per-query view an [`SpcfEngine`] computes against: the circuit,
/// its timing, the target, and the session-owned caches. Fields are
/// public so engines can split borrows (`cx.globals.try_of(cx.netlist,
/// cx.bdd, net)` borrows three disjoint fields).
pub struct EngineCx<'n, 'c> {
    /// The circuit under analysis.
    pub netlist: &'n Netlist,
    /// Static timing of `netlist`.
    pub sta: &'c Sta<'n>,
    /// Target arrival time `Δ_y`.
    pub target: Delay,
    /// Budget for engine-side tables (the manager enforces node/step
    /// limits itself; see [`Bdd::set_budget`]).
    pub budget: Budget,
    /// The manager every returned [`BddRef`] lives in.
    pub bdd: &'c mut Bdd,
    /// Shared per-cell prime-implicant cache.
    pub primes: &'c mut GatePrimes,
    /// Lazily built global net functions over the primary inputs.
    pub globals: &'c mut LazyGlobals,
}

/// One SPCF algorithm, reduced to its essence: given a prepared
/// context, produce the SPCF of one critical output.
///
/// Lifecycle (driven by [`WarmState`]):
/// `prepare` (or `retarget`) with the full list of target outputs (the
/// cone-of-influence restriction for topological engines), then
/// `compute_output` per output in order, then `publish_metrics` —
/// always, even after an exhaustion, so partial work is visible.
pub trait SpcfEngine {
    /// Which algorithm this engine implements.
    fn algorithm(&self) -> Algorithm;

    /// One-time per-run setup: arrival tables, waveforms, on-time
    /// functions — restricted to the fanin cones of `targets` where the
    /// algorithm allows it.
    fn prepare(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        let _ = (cx, targets);
        Ok(())
    }

    /// Re-aims an already-prepared engine at `cx.target` (the
    /// warm-session path; see [`WarmSession`]). The default is a full
    /// re-preparation — always correct, never fast. Engines whose
    /// prepared state does not depend on the target override this to
    /// skip the redundant rebuild: the short-path engine's arrival
    /// tables, gate primes *and* stabilization memo are all
    /// target-independent, and the path-based engine's waveforms cover
    /// every time at once.
    fn retarget(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        self.prepare(cx, targets)
    }

    /// The SPCF of `output` at `cx.target`, over `cx.bdd`.
    fn compute_output(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        output: NetId,
    ) -> Result<BddRef, Exhausted>;

    /// Publishes the engine's counters to `tm-telemetry` (the caller
    /// publishes the manager's `bdd.*` stats). Called after every run —
    /// each ladder point of a warm engine, succeeded or not — so
    /// counters must be published as deltas since the previous call.
    fn publish_metrics(&mut self) {}

    /// Lifetime count of the engine's memo-table entries (stabilization
    /// memo, waveform breakpoints), reported in the serving pool's
    /// stats; engines without a memo report 0.
    fn memo_entries(&self) -> u64 {
        0
    }

    /// Appends every [`BddRef`] the engine holds across queries —
    /// stabilization-memo values, waveform breakpoints, on-time
    /// functions — to `roots`. The capacity tier (DESIGN.md §14) treats
    /// these as GC roots: anything not reported here is fair
    /// game for the sweep. Engines with no cross-query refs (the
    /// conservative engine) keep the no-op default.
    fn collect_roots(&self, roots: &mut Vec<BddRef>) {
        let _ = roots;
    }

    /// Rewrites every held [`BddRef`] through `remap` after a GC of
    /// the session manager. Refs the remap no
    /// longer covers were not rooted and must be dropped, never kept
    /// stale — a stale packed ref aliases whatever node now occupies
    /// its index.
    fn remap_refs(&mut self, remap: &BddRemap) {
        let _ = remap;
    }
}

/// A fresh engine for `algorithm`. The box is `Send` so long-lived
/// holders (the serving layer's session pool) can migrate between
/// worker threads — every engine is plain owned data.
pub fn engine_for(algorithm: Algorithm) -> Box<dyn SpcfEngine + Send> {
    match algorithm {
        Algorithm::ShortPath => Box::new(crate::short_path::ShortPathEngine::default()),
        Algorithm::PathBased => Box::new(crate::path_based::PathBasedEngine::default()),
        Algorithm::NodeBased => Box::new(crate::node_based::NodeBasedEngine::default()),
        Algorithm::Conservative => Box::new(crate::conservative::ConservativeEngine),
    }
}

/// The telemetry span name of an algorithm's session.
fn span_name(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::ShortPath => "spcf.short_path",
        Algorithm::PathBased => "spcf.path_based",
        Algorithm::NodeBased => "spcf.node_based",
        Algorithm::Conservative => "spcf.conservative",
    }
}

/// The per-output latency digest of an algorithm, if it has one (the
/// conservative engine does no per-output work worth timing).
fn output_ns_metric(algorithm: Algorithm) -> Option<&'static str> {
    match algorithm {
        Algorithm::ShortPath => Some("spcf.short_path.output_ns"),
        Algorithm::PathBased => Some("spcf.path_based.output_ns"),
        Algorithm::NodeBased => Some("spcf.node_based.output_ns"),
        Algorithm::Conservative => None,
    }
}

/// The outputs whose structural arrival exceeds `target`, in netlist
/// output order — the criticality filter every engine shares.
pub fn critical_outputs(netlist: &Netlist, sta: &Sta<'_>, target: Delay) -> Vec<NetId> {
    netlist.outputs().iter().copied().filter(|&o| sta.arrival(o) > target).collect()
}

/// Membership mask of the transitive fanin cones of `targets` (indexed
/// by `NetId::index`). Topological engines restrict their sweep to it,
/// so logic that feeds only non-critical outputs is never built.
pub fn cone_nets(netlist: &Netlist, targets: &[NetId]) -> Vec<bool> {
    let mut in_cone = vec![false; netlist.num_nets()];
    let mut stack: Vec<NetId> = targets.to_vec();
    while let Some(net) = stack.pop() {
        if std::mem::replace(&mut in_cone[net.index()], true) {
            continue;
        }
        if let Driver::Gate(gid) = netlist.driver(net) {
            stack.extend(netlist.gate(gid).inputs().iter().copied());
        }
    }
    in_cone
}

/// Installs a budget on a manager for one run; `Drop` restores the
/// previous budget on every exit path (success, exhaustion, panic).
struct BudgetScope<'b> {
    bdd: &'b mut Bdd,
    prev: Budget,
}

impl<'b> BudgetScope<'b> {
    fn install(bdd: &'b mut Bdd, budget: Budget) -> Self {
        let prev = bdd.budget();
        bdd.set_budget(budget);
        BudgetScope { bdd, prev }
    }
}

impl Drop for BudgetScope<'_> {
    fn drop(&mut self) {
        self.bdd.set_budget(self.prev);
    }
}

/// A resident engine of a [`WarmState`] and the target it last served.
struct EngineSlot {
    engine: Box<dyn SpcfEngine + Send>,
    last_target: Delay,
}

/// The warm-session protocol, owned once: one engine slot per
/// algorithm, the gate-prime cache and the lazily built global net
/// functions, queried at a *ladder* of Δ_y targets.
///
/// The protection-band sweep, `table1`/`table2`, the DVS explorer and
/// the serving pool all evaluate the same circuit at many targets. A
/// cold run per point rebuilds everything; the warm state keeps what is
/// target-independent:
///
/// - gate primes and lazily built global net functions (and, held by
///   the caller, the manager's unique table and computed caches);
/// - the short-path engine's stabilization memo — `stab(s, t, v)` never
///   mentions Δ_y, so a descending ladder re-derives each point from
///   memoized stabilization sets. This is the computational face of the
///   paper's monotonicity `Σ_y(Δ') ⊆ Σ_y(Δ)` for `Δ' ≥ Δ`: tightening
///   the target only *adds* stabilization queries at earlier times; all
///   previously answered ones are reused verbatim.
///
/// Engines opt into reuse via [`SpcfEngine::retarget`]; engines with
/// target-dependent state (node-based required times) re-prepare and
/// still benefit from the warm manager and caches.
///
/// The netlist, its timing and the manager are arguments of every call,
/// so the state can sit in a borrowing holder ([`WarmSession`]) or an
/// owning one (the serving layer's session pool). Every point installs
/// its budget on the manager and restores the previous one afterwards,
/// and publishes engine and manager metrics as deltas, so a holder has
/// nothing to flush when it goes away.
pub struct WarmState {
    primes: GatePrimes,
    globals: LazyGlobals,
    /// Indexed by `Algorithm as usize`.
    slots: [Option<EngineSlot>; 4],
    points: u64,
}

impl WarmState {
    /// An empty state for `netlist`: no engine resident, no primes or
    /// global functions built yet.
    pub fn new(netlist: &Netlist) -> WarmState {
        WarmState {
            primes: GatePrimes::new(),
            globals: LazyGlobals::new(netlist),
            slots: Default::default(),
            points: 0,
        }
    }

    /// Targets requested through [`WarmState::try_point`] and
    /// [`WarmState::point_with_fallback`] (a point that steps down the
    /// ladder counts once).
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Total memo entries across the resident engines.
    pub fn memo_entries(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.engine.memo_entries())
            .fold(0, u64::saturating_add)
    }

    /// Evaluates the SPCF of every output critical at `target` with
    /// `algorithm`, reusing all target-independent state from previous
    /// points. `sta` analyzes the circuit the state was built for, and
    /// `bdd` is the manager every earlier point ran in.
    ///
    /// Any call order is correct; a *descending* ladder is fastest for
    /// the exact engines (each tightening extends, rather than
    /// replaces, the work of the previous point). An *ascending* step
    /// (target above the previous point) is outside the monotonic-reuse
    /// contract the engines' `retarget` fast paths were written for, so
    /// the algorithm's engine is rebuilt from scratch
    /// (`spcf.session.rebuilds`) — the manager, gate primes and global
    /// functions are shared across the rebuild, so the cost is bounded
    /// by one cold `prepare`.
    ///
    /// The engine leaves its slot for the duration of the run and goes
    /// back only on success: an exhausted or panicked run leaves the
    /// slot empty, so partial prepared state never leaks into the next
    /// point. A rung is given up only when a *fresh* engine of it
    /// exhausts: a resident engine that trips any budget (its memo
    /// carries earlier points' entries) is retried once as a fresh
    /// engine, and a trip of the manager's *node* budget is retried once
    /// after one [`WarmState::gc`] reclaims the dead
    /// intermediates (refunding them to the budget, which charges the
    /// manager's current size). Every attempt installs its budget
    /// afresh, so step limits count only that attempt's steps
    /// ([`Bdd::set_budget`]).
    pub fn try_point(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        self.points += 1;
        self.try_rung(algorithm, sta, bdd, target, budget)
    }

    /// The degradation ladder (DESIGN.md §7): [`WarmState::try_point`]
    /// at `algorithm`, stepping down [`Algorithm::fallback`] each time
    /// the rung exhausts `budget` (counted once per step under
    /// `resilience.fallback.<rung>`). Every rung computes a superset of
    /// the one above it, so the landed set — its `algorithm` names the
    /// rung — is a sound SPCF whatever the budget.
    ///
    /// The guard-everything floor runs unbudgeted: its
    /// `compute_output` is `Ok(bdd.one())`, so the ladder always lands.
    pub fn point_with_fallback(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> SpcfSet {
        self.points += 1;
        let mut rung = algorithm;
        loop {
            let next = rung.fallback();
            let rung_budget = if next.is_some() { budget } else { Budget::unlimited() };
            let e = match self.try_rung(rung, sta, bdd, target, rung_budget) {
                Ok(set) => return set,
                Err(e) => e,
            };
            let next = next.expect("the unbudgeted guard-everything floor cannot exhaust");
            tm_telemetry::counter_add(
                match next {
                    Algorithm::NodeBased => "resilience.fallback.node_based",
                    _ => "resilience.fallback.conservative",
                },
                1,
            );
            if tm_telemetry::trace_level() >= 2 {
                eprintln!("[spcf] {rung} SPCF at {target:?}: {e}; falling back to {next}");
            }
            rung = next;
        }
    }

    /// One rung of one point, with the fresh-engine and GC retries of
    /// [`WarmState::try_point`].
    fn try_rung(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        let resident = matches!(
            &self.slots[algorithm as usize],
            Some(slot) if target <= slot.last_target
        );
        match self.attempt(algorithm, sta, bdd, target, budget) {
            Err(e) if resident || e.resource == Resource::BddNodes => {
                if e.resource == Resource::BddNodes {
                    self.gc(bdd);
                }
                self.attempt(algorithm, sta, bdd, target, budget)
            }
            r => r,
        }
    }

    fn attempt(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        let mut engine = match self.slots[algorithm as usize].take() {
            Some(slot) if target > slot.last_target => {
                tm_telemetry::counter_add("spcf.session.rebuilds", 1);
                engine_for(algorithm)
            }
            Some(slot) => {
                tm_telemetry::counter_add("spcf.session.retargets", 1);
                slot.engine
            }
            None => engine_for(algorithm),
        };
        // Fault-injection site: an armed `compute.panic` unwinds here,
        // after the engine left its slot — exercising exactly the
        // panic-recovery path the empty slot exists for.
        tm_resilience::fault::compute_panic_check();
        let set = self.run(engine.as_mut(), sta, bdd, target, budget)?;
        self.slots[algorithm as usize] = Some(EngineSlot { engine, last_target: target });
        Ok(set)
    }

    /// The per-point loop every SPCF run goes through: installs
    /// `budget` on `bdd`, aims `engine` at the outputs critical at
    /// `target` under the `spcf.prepare` phase, computes each under a
    /// `spcf.output` phase with its latency digest, then publishes
    /// engine and manager metrics — always, even after an exhaustion,
    /// so partial work is visible. The previous budget is restored on
    /// every exit path.
    fn run(
        &mut self,
        engine: &mut dyn SpcfEngine,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        let start = Instant::now();
        let targets = critical_outputs(sta.netlist(), sta, target);
        let _span = tm_telemetry::span::enter(span_name(engine.algorithm()));
        let scope = BudgetScope::install(bdd, budget);
        let mut cx = EngineCx {
            netlist: sta.netlist(),
            sta,
            target,
            budget,
            bdd: &mut *scope.bdd,
            primes: &mut self.primes,
            globals: &mut self.globals,
        };
        let result = (|| {
            {
                let _prep = tm_telemetry::flight::phase_with(
                    "spcf.prepare",
                    &[("targets", targets.len() as f64)],
                );
                engine.retarget(&mut cx, &targets)?;
            }
            let output_ns = output_ns_metric(engine.algorithm());
            let mut outputs = Vec::with_capacity(targets.len());
            for &o in &targets {
                let t0 = Instant::now();
                let _ev =
                    tm_telemetry::flight::phase_with("spcf.output", &[("net", o.index() as f64)]);
                let spcf = engine.compute_output(&mut cx, o)?;
                if let Some(m) = output_ns {
                    tm_telemetry::digest_record(m, t0.elapsed().as_nanos() as u64);
                }
                outputs.push(OutputSpcf { output: o, spcf });
            }
            Ok(outputs)
        })();
        engine.publish_metrics();
        cx.bdd.publish_metrics();
        let outputs = result?;
        Ok(SpcfSet::new(engine.algorithm(), target, outputs, start.elapsed()))
    }

    /// Capacity recovery: a compacting mark-and-sweep of `bdd` rooted
    /// at every ref the state pins across points — the lazily built
    /// global net functions plus whatever each resident engine reports
    /// via [`SpcfEngine::collect_roots`] — and every cached ref is
    /// rewritten through the remap. Dead intermediates from past ladder
    /// points are reclaimed and their node budget refunded (the manager
    /// charges allocations against its *current* size). Returns the
    /// number of nodes reclaimed.
    pub fn gc(&mut self, bdd: &mut Bdd) -> usize {
        let before = bdd.node_count();
        let mut roots = Vec::new();
        self.globals.collect_roots(&mut roots);
        for slot in self.slots.iter().flatten() {
            slot.engine.collect_roots(&mut roots);
        }
        let remap = bdd.gc(&roots);
        self.globals.remap_refs(&remap);
        for slot in self.slots.iter_mut().flatten() {
            slot.engine.remap_refs(&remap);
        }
        before - bdd.node_count()
    }
}

/// A borrowing warm session: one [`WarmState`] serving one algorithm
/// over a caller-owned manager, for the ladders that live inside one
/// call frame (the sweep, `table1`, the DVS explorer).
pub struct WarmSession<'n, 'c> {
    sta: &'c Sta<'n>,
    bdd: &'c mut Bdd,
    algorithm: Algorithm,
    budget: Budget,
    state: WarmState,
}

impl<'n, 'c> WarmSession<'n, 'c> {
    /// Opens a warm session for `algorithm`: validates the
    /// netlist/STA/manager triple. Every retarget runs under `budget`
    /// and restores the manager's previous budget afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `sta` analyzes a different netlist or the manager has
    /// fewer variables than the netlist has inputs.
    pub fn new(
        algorithm: Algorithm,
        netlist: &'n Netlist,
        sta: &'c Sta<'n>,
        bdd: &'c mut Bdd,
        budget: Budget,
    ) -> Self {
        check_triple(netlist, sta, bdd);
        WarmSession { sta, bdd, algorithm, budget, state: WarmState::new(netlist) }
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The session's manager (for pattern counts, subset checks, …).
    /// Returned references stay valid until the next collection
    /// ([`WarmSession::gc`], or a node-budget recovery inside
    /// [`WarmSession::try_retarget`]).
    pub fn bdd(&self) -> &Bdd {
        self.bdd
    }

    /// Mutable access to the session's manager.
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        self.bdd
    }

    /// [`WarmState::gc`] on the session's manager.
    pub fn gc(&mut self) -> usize {
        self.state.gc(self.bdd)
    }

    /// Evaluates the SPCF of every output critical at `target` with the
    /// session's algorithm alone — one [`WarmState::try_point`], with
    /// its ascending-step rebuild and fresh-engine/GC retries.
    pub fn try_retarget(&mut self, target: Delay) -> Result<SpcfSet, Exhausted> {
        self.state.try_point(self.algorithm, self.sta, self.bdd, target, self.budget)
    }

    /// Evaluates the SPCF of every output critical at `target`, stepping
    /// down the degradation ladder when the session's algorithm
    /// exhausts the budget ([`WarmState::point_with_fallback`]); the
    /// set's `algorithm` names the rung that answered. Under an
    /// unlimited budget it is always the session's algorithm.
    pub fn retarget(&mut self, target: Delay) -> SpcfSet {
        self.state.point_with_fallback(self.algorithm, self.sta, self.bdd, target, self.budget)
    }

    /// Number of targets evaluated so far.
    pub fn retargets(&self) -> u64 {
        self.state.points()
    }
}

/// Panics unless `sta` analyzes `netlist` and `bdd` has a variable
/// for every primary input — the precondition of every holder.
fn check_triple(netlist: &Netlist, sta: &Sta<'_>, bdd: &Bdd) {
    assert!(std::ptr::eq(sta.netlist(), netlist), "STA must analyze the same netlist");
    assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
}

/// Computes the SPCF of every critical output with `algorithm` in one
/// cold run: a fresh engine over a fresh [`WarmState`], driven once
/// through its per-point loop with no retry, so a budget trip surfaces
/// exactly as the budget produced it. `budget` is installed on `bdd`
/// for the run and the previous budget restored on every exit path.
///
/// # Panics
///
/// Panics if `sta` analyzes a different netlist or the manager has
/// fewer variables than the netlist has inputs.
pub fn try_spcf_with(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
    budget: Budget,
) -> Result<SpcfSet, Exhausted> {
    check_triple(netlist, sta, bdd);
    WarmState::new(netlist).run(engine_for(algorithm).as_mut(), sta, bdd, target, budget)
}

/// Unlimited [`try_spcf_with`]: the SPCF of every output critical at
/// `target` (`Δ_y`, e.g. `0.9 × Δ`; outputs whose worst arrival is
/// within it are omitted).
pub fn spcf_with(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
) -> SpcfSet {
    try_spcf_with(algorithm, netlist, sta, bdd, target, Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}
