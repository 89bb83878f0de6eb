//! The engine session and the parallel per-output SPCF driver
//! (DESIGN.md §8).
//!
//! Every SPCF algorithm computes the same thing — one characteristic
//! function per critical primary output — and used to duplicate the
//! same scaffolding three times: budget install/restore on the shared
//! BDD manager, gate-prime caches, lazily built global net functions,
//! telemetry spans, and the criticality filter. [`WarmState`] owns
//! that state and the per-point loop once; each algorithm shrinks to an
//! [`SpcfEngine`] implementation answering `compute_output` queries
//! against its [`EngineCx`]. Three holders drive it: [`EngineSession`]
//! for one cold run, [`WarmSession`] for a borrowed Δ_y ladder, and the
//! serving layer's session pool for an owned one.
//!
//! On top of the session sits the parallel driver
//! ([`try_spcf_with`]): per-output SPCFs are independent, so critical
//! outputs are sharded round-robin across `std::thread::scope` workers.
//! Each worker owns a private BDD manager seeded over the
//! cone-of-influence of its shard, charges its consumption into one
//! [`SharedBudget`], and collects telemetry into its thread-local
//! registry; on join the parent absorbs the registries in worker order
//! and re-expresses every worker's results in the caller's manager via
//! [`tm_logic::bdd::PortableBdd`] transfer, iterating critical outputs
//! in netlist order — which is why `jobs = 1` and `jobs = N` produce
//! bit-identical [`SpcfSet`] contents.

use crate::common::{Algorithm, GatePrimes, LazyGlobals, OutputSpcf, SpcfSet};
use std::collections::HashMap;
use std::time::Instant;
use tm_logic::bdd::{Bdd, BddRef, BddRemap, PortableBdd};
use tm_netlist::netlist::Driver;
use tm_netlist::{Delay, NetId, Netlist};
use tm_resilience::{Budget, Exhausted, SharedBudget};
use tm_sta::Sta;
use tm_telemetry::Snapshot;

/// Environment variable the bench binaries and the differential oracle
/// suite read as the default worker count (see
/// [`SpcfOptions::jobs_from_env`]).
pub const JOBS_ENV: &str = "TM_SPCF_JOBS";

/// Driver configuration: how the SPCF of a circuit is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpcfOptions {
    /// Worker threads to shard critical outputs across (1 = serial in
    /// the caller's manager). Results are identical for every value.
    pub jobs: usize,
    /// Deterministic computation budget for the whole run, shared
    /// across workers when `jobs > 1`.
    pub budget: Budget,
}

impl Default for SpcfOptions {
    fn default() -> Self {
        SpcfOptions { jobs: 1, budget: Budget::unlimited() }
    }
}

impl SpcfOptions {
    /// The worker count named by the `TM_SPCF_JOBS` environment
    /// variable, defaulting to 1 (serial) when unset or unparsable.
    pub fn jobs_from_env() -> usize {
        std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j >= 1)
            .unwrap_or(1)
    }

    /// Builder: sets the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Builder: sets the computation budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

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
/// Lifecycle (driven by [`WarmState`] and the parallel workers):
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
    /// memo, waveform breakpoints). The parallel driver charges its
    /// growth against [`SharedBudget`]; engines without a memo report 0.
    fn memo_entries(&self) -> u64 {
        0
    }

    /// Appends every [`BddRef`] the engine holds across queries —
    /// stabilization-memo values, waveform breakpoints, on-time
    /// functions — to `roots`. The capacity tier (DESIGN.md §14) treats
    /// these as GC/reorder roots: anything not reported here is fair
    /// game for the sweep. Engines with no cross-query refs (the
    /// conservative engine) keep the no-op default.
    fn collect_roots(&self, roots: &mut Vec<BddRef>) {
        let _ = roots;
    }

    /// Rewrites every held [`BddRef`] through `remap` after a GC,
    /// compaction or reorder of the session manager. Refs the remap no
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

/// Computes one critical output under its `spcf.output` phase and
/// records the time into the algorithm's latency digest — the same
/// per-output accounting for serial sessions and parallel workers.
fn compute_output_timed(
    engine: &mut dyn SpcfEngine,
    cx: &mut EngineCx<'_, '_>,
    output: NetId,
) -> Result<BddRef, Exhausted> {
    let t0 = Instant::now();
    let _ev = tm_telemetry::flight::phase_with("spcf.output", &[("net", output.index() as f64)]);
    let spcf = engine.compute_output(cx, output)?;
    if let Some(m) = output_ns_metric(engine.algorithm()) {
        tm_telemetry::digest_record(m, t0.elapsed().as_nanos() as u64);
    }
    Ok(spcf)
}

/// The outputs whose structural arrival exceeds `target`, in netlist
/// output order — the criticality filter every engine shares.
pub fn critical_outputs(netlist: &Netlist, sta: &Sta<'_>, target: Delay) -> Vec<NetId> {
    netlist.outputs().iter().copied().filter(|&o| sta.arrival(o) > target).collect()
}

/// Membership mask of the transitive fanin cones of `targets` (indexed
/// by `NetId::index`). Topological engines restrict their sweep to it,
/// which is what makes per-worker managers cheaper than `jobs` copies
/// of the full circuit.
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

    /// Ladder points requested through [`WarmState::try_point`].
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
    /// point. When the attempt exhausts the manager's *node* budget, one
    /// round of [`WarmState::maintain`] reclaims the dead intermediates
    /// (refunding them to the budget, which charges the manager's
    /// current size) and the point is retried once under the same
    /// budget. Step or memo exhaustion is not recoverable by GC and
    /// propagates immediately (the caller's degradation ladder handles
    /// it).
    pub fn try_point(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Result<SpcfSet, Exhausted> {
        self.points += 1;
        match self.attempt(algorithm, sta, bdd, target, budget) {
            Err(e) if e.resource == tm_resilience::Resource::BddNodes => {
                self.maintain(bdd);
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
            Some(slot) => slot.engine,
            None => engine_for(algorithm),
        };
        // Fault-injection site: an armed `compute.panic` unwinds here,
        // after the engine left its slot — exercising exactly the
        // panic-recovery path the empty slot exists for.
        tm_resilience::fault::compute_panic_check();
        tm_telemetry::counter_add("spcf.session.retargets", 1);
        let set = self.run(engine.as_mut(), sta, bdd, target, budget)?;
        self.slots[algorithm as usize] = Some(EngineSlot { engine, last_target: target });
        Ok(set)
    }

    /// Runs `engine` over every output critical at `target` (see
    /// [`WarmState::run_outputs`]).
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
        let outputs = self.run_outputs(engine, sta, bdd, target, budget, &targets)?;
        Ok(SpcfSet::new(engine.algorithm(), target, outputs, start.elapsed(), 1))
    }

    /// The per-point loop every serial SPCF run goes through: installs
    /// `budget` on `bdd`, aims `engine` at `targets` under the
    /// `spcf.prepare` phase, computes each target under a `spcf.output`
    /// phase with its latency digest, then publishes engine and
    /// manager metrics — always, even after an exhaustion, so partial
    /// work is visible. The previous budget is restored on every exit
    /// path.
    fn run_outputs(
        &mut self,
        engine: &mut dyn SpcfEngine,
        sta: &Sta<'_>,
        bdd: &mut Bdd,
        target: Delay,
        budget: Budget,
        targets: &[NetId],
    ) -> Result<Vec<OutputSpcf>, Exhausted> {
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
                engine.retarget(&mut cx, targets)?;
            }
            let mut outputs = Vec::with_capacity(targets.len());
            for &o in targets {
                let spcf = compute_output_timed(engine, &mut cx, o)?;
                outputs.push(OutputSpcf { output: o, spcf });
            }
            Ok(outputs)
        })();
        engine.publish_metrics();
        cx.bdd.publish_metrics();
        result
    }

    /// Every [`BddRef`] the state pins across points: the lazily built
    /// global net functions plus whatever each resident engine reports
    /// via [`SpcfEngine::collect_roots`].
    fn capacity_roots(&self) -> Vec<BddRef> {
        let mut roots = Vec::new();
        self.globals.collect_roots(&mut roots);
        for slot in self.slots.iter().flatten() {
            slot.engine.collect_roots(&mut roots);
        }
        roots
    }

    /// Rewrites every cached ref through `remap`.
    fn remap_refs(&mut self, remap: &BddRemap) {
        self.globals.remap_refs(remap);
        for slot in self.slots.iter_mut().flatten() {
            slot.engine.remap_refs(remap);
        }
    }

    /// Mark-and-sweep of `bdd` rooted at the state's live refs,
    /// followed by store compaction; every cached ref is rewritten
    /// through the index remap. Dead intermediates from past ladder
    /// points are reclaimed and their node budget refunded (the manager
    /// charges allocations against its *current* size). Returns the
    /// number of nodes reclaimed.
    pub fn gc(&mut self, bdd: &mut Bdd) -> usize {
        let before = bdd.node_count();
        let remap = bdd.gc(&self.capacity_roots());
        self.remap_refs(&remap);
        before - bdd.node_count()
    }

    /// Full capacity maintenance: GC, then Rudell sifting when the
    /// store has outgrown the reorder heuristic
    /// ([`Bdd::should_reorder`]). Returns total nodes reclaimed across
    /// both passes.
    pub fn maintain(&mut self, bdd: &mut Bdd) -> usize {
        let before = bdd.node_count();
        self.gc(bdd);
        if bdd.should_reorder() {
            let remap = bdd.reorder(&self.capacity_roots());
            self.remap_refs(&remap);
        }
        before.saturating_sub(bdd.node_count())
    }
}

/// One cold SPCF run: a fresh [`WarmState`] driven once through its
/// per-point loop, without the warm protocol's engine slots or GC
/// retry — a budget trip surfaces unchanged, so the degradation
/// ladder's rungs see exactly the budget they were given.
pub struct EngineSession<'n, 'c> {
    sta: &'c Sta<'n>,
    bdd: &'c mut Bdd,
    target: Delay,
    budget: Budget,
    state: WarmState,
}

impl<'n, 'c> EngineSession<'n, 'c> {
    /// Opens a session: validates the netlist/STA/manager triple. The
    /// run installs `budget` on the manager and restores the previous
    /// budget on every exit path (success, exhaustion, panic).
    ///
    /// # Panics
    ///
    /// Panics if `sta` analyzes a different netlist or the manager has
    /// fewer variables than the netlist has inputs.
    pub fn new(
        netlist: &'n Netlist,
        sta: &'c Sta<'n>,
        bdd: &'c mut Bdd,
        target: Delay,
        budget: Budget,
    ) -> Self {
        assert!(std::ptr::eq(sta.netlist(), netlist), "STA must analyze the same netlist");
        assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
        EngineSession { sta, bdd, target, budget, state: WarmState::new(netlist) }
    }

    /// Runs `engine` over every critical output of the session. The
    /// engine is aimed through [`SpcfEngine::retarget`], which equals
    /// `prepare` for the fresh engines every entry point passes in.
    pub fn run(mut self, engine: &mut dyn SpcfEngine) -> Result<SpcfSet, Exhausted> {
        self.state.run(engine, self.sta, self.bdd, self.target, self.budget)
    }

    /// Runs `engine` for a single (not necessarily output) net —
    /// diagnostics and tests.
    pub fn run_net(
        mut self,
        engine: &mut dyn SpcfEngine,
        net: NetId,
    ) -> Result<BddRef, Exhausted> {
        let outputs =
            self.state.run_outputs(engine, self.sta, self.bdd, self.target, self.budget, &[net])?;
        Ok(outputs[0].spcf)
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
        assert!(std::ptr::eq(sta.netlist(), netlist), "STA must analyze the same netlist");
        assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
        WarmSession { sta, bdd, algorithm, budget, state: WarmState::new(netlist) }
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The session's manager (for pattern counts, subset checks, …).
    /// Returned references stay valid until the next collection
    /// ([`WarmSession::gc`], [`WarmSession::maintain`], or a
    /// node-budget recovery inside [`WarmSession::try_retarget`]).
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

    /// [`WarmState::maintain`] on the session's manager.
    pub fn maintain(&mut self) -> usize {
        self.state.maintain(self.bdd)
    }

    /// Evaluates the SPCF of every output critical at `target` — one
    /// [`WarmState::try_point`], with its ascending-step rebuild and
    /// node-budget recovery.
    pub fn try_retarget(&mut self, target: Delay) -> Result<SpcfSet, Exhausted> {
        self.state.try_point(self.algorithm, self.sta, self.bdd, target, self.budget)
    }

    /// Infallible [`WarmSession::try_retarget`] for unlimited budgets.
    ///
    /// # Panics
    ///
    /// Panics if the session's budget is finite and exhausts.
    pub fn retarget(&mut self, target: Delay) -> SpcfSet {
        self.try_retarget(target).expect("unlimited budget cannot exhaust")
    }

    /// Number of targets evaluated so far.
    pub fn retargets(&self) -> u64 {
        self.state.points()
    }
}

/// Computes the SPCF of every critical output with `algorithm`,
/// honoring `options.jobs` and `options.budget`.
///
/// The result is independent of `jobs`: the set lists the same outputs
/// with the same characteristic functions (verified bit-identical via
/// [`Bdd::export`] in the determinism suite), differing only in the
/// recorded [`SpcfSet::jobs`] and wall-clock runtime. A finite shared
/// budget *can* exhaust earlier under parallelism (workers duplicate
/// shared subfunctions in their private managers), but never later.
pub fn try_spcf_with(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
    options: &SpcfOptions,
) -> Result<SpcfSet, Exhausted> {
    let criticals = critical_outputs(netlist, sta, target);
    let jobs = options.jobs.max(1).min(criticals.len().max(1));
    if jobs <= 1 {
        let mut engine = engine_for(algorithm);
        return EngineSession::new(netlist, sta, bdd, target, options.budget)
            .run(engine.as_mut());
    }
    parallel_spcf(algorithm, netlist, sta, bdd, target, options.budget, jobs, &criticals)
}

/// Infallible [`try_spcf_with`] for unlimited budgets.
///
/// # Panics
///
/// Panics if `options.budget` is finite and exhausts.
pub fn spcf_with(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
    options: &SpcfOptions,
) -> SpcfSet {
    try_spcf_with(algorithm, netlist, sta, bdd, target, options)
        .expect("unlimited budget cannot exhaust")
}

/// What one worker hands back to the driver.
struct WorkerOut {
    /// `(output, exported SPCF)` for every output of the worker's shard
    /// it completed, in shard order.
    results: Vec<(NetId, PortableBdd)>,
    /// The exhaustion that stopped this worker, if any.
    error: Option<Exhausted>,
    /// The worker thread's drained telemetry store.
    telemetry: Snapshot,
    /// The worker thread's drained flight-recorder events (empty when
    /// the spawning thread was not recording).
    trace: Vec<tm_telemetry::flight::TraceEvent>,
}

/// The parallel driver: shards `criticals` round-robin across `jobs`
/// scoped workers and merges their results deterministically.
#[allow(clippy::too_many_arguments)]
fn parallel_spcf(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
    budget: Budget,
    jobs: usize,
    criticals: &[NetId],
) -> Result<SpcfSet, Exhausted> {
    assert!(std::ptr::eq(sta.netlist(), netlist), "STA must analyze the same netlist");
    assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
    let start = Instant::now();
    let _span = tm_telemetry::span::enter("spcf.parallel");

    // Primes are computed once and cloned into workers (Arc'd entries:
    // the clone shares every cube vector).
    let mut primes = GatePrimes::new();
    primes.prewarm(netlist);
    let shared = SharedBudget::new(budget);
    let telemetry_on = tm_telemetry::enabled();
    // Workers inherit the spawning thread's flight-recording state and
    // trace id, so per-output events in a served request's parallel fan
    // land in that request's trace.
    let flight_on = tm_telemetry::flight::recording();
    let trace_id = tm_telemetry::flight::current_trace_id();
    let num_vars = bdd.num_vars();

    let mut worker_out: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let shard: Vec<NetId> =
                    criticals.iter().copied().skip(w).step_by(jobs).collect();
                let primes = primes.clone();
                let shared = &shared;
                scope.spawn(move || {
                    run_worker(
                        algorithm,
                        netlist,
                        sta,
                        target,
                        num_vars,
                        shard,
                        primes,
                        shared,
                        telemetry_on,
                        flight_on.then_some(trace_id),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("SPCF worker panicked"))
            .collect()
    });

    // Absorb telemetry in worker order — deterministic counter sums, a
    // deterministic last-writer for gauges, and a deterministic flight
    // event sequence (events keep their worker tid and timestamps; only
    // the absorption order is pinned).
    for out in &mut worker_out {
        tm_telemetry::absorb(&out.telemetry);
        tm_telemetry::flight::absorb_events(std::mem::take(&mut out.trace));
    }
    if let Some(e) = worker_out.iter().find_map(|o| o.error) {
        return Err(e);
    }

    // Re-express every worker's SPCFs in the caller's manager, walking
    // the critical outputs in netlist order: allocation order in the
    // caller's manager — and therefore the whole `SpcfSet` — matches a
    // serial run regardless of which worker computed what.
    let mut portable: HashMap<usize, PortableBdd> = worker_out
        .into_iter()
        .flat_map(|o| o.results)
        .map(|(net, p)| (net.index(), p))
        .collect();
    let prev = bdd.budget();
    bdd.set_budget(budget);
    let mut outputs = Vec::with_capacity(criticals.len());
    let imported = (|| {
        for &o in criticals {
            let p = portable
                .remove(&o.index())
                .expect("an error-free worker covers its whole shard");
            outputs.push(OutputSpcf { output: o, spcf: bdd.try_import(&p)? });
        }
        Ok(())
    })();
    bdd.set_budget(prev);
    imported?;
    Ok(SpcfSet::new(algorithm, target, outputs, start.elapsed(), jobs))
}

/// One worker: a private manager, a private engine, and a shard of the
/// critical outputs. Consumption is charged into `shared` at output
/// granularity; results leave the thread as [`PortableBdd`]s.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    algorithm: Algorithm,
    netlist: &Netlist,
    sta: &Sta<'_>,
    target: Delay,
    num_vars: usize,
    shard: Vec<NetId>,
    mut primes: GatePrimes,
    shared: &SharedBudget,
    telemetry_on: bool,
    flight_trace: Option<u64>,
) -> WorkerOut {
    if telemetry_on {
        // Fresh thread, fresh store: collect here, drain on exit,
        // let the parent absorb.
        tm_telemetry::set_thread_enabled(Some(true));
    }
    if let Some(trace_id) = flight_trace {
        tm_telemetry::flight::set_thread_recording(Some(true));
        tm_telemetry::flight::set_ambient_trace_id(trace_id);
    }
    let mut bdd = Bdd::new(num_vars);
    let mut engine = engine_for(algorithm);
    let mut globals = LazyGlobals::new(netlist);
    let mut results = Vec::with_capacity(shard.len());
    let mut error = None;
    let mut prepared = false;

    for &o in &shard {
        if shared.is_tripped() {
            // Another worker exhausted the run's budget; stop without
            // recording a second telemetry trip (the tripping worker
            // already carries the error).
            break;
        }
        // The worker may locally consume whatever the run has left plus
        // what it already charged for itself (its manager counters are
        // lifetime totals).
        let local = shared.local_view(
            bdd.node_count() as u64,
            bdd.steps_taken(),
            engine.memo_entries(),
        );
        bdd.set_budget(local);
        let nodes0 = bdd.node_count() as u64;
        let steps0 = bdd.steps_taken();
        let memo0 = engine.memo_entries();
        let r = (|| {
            let mut cx = EngineCx {
                netlist,
                sta,
                target,
                budget: local,
                bdd: &mut bdd,
                primes: &mut primes,
                globals: &mut globals,
            };
            if !prepared {
                let _prep = tm_telemetry::flight::phase_with(
                    "spcf.prepare",
                    &[("targets", shard.len() as f64)],
                );
                engine.prepare(&mut cx, &shard)?;
            }
            compute_output_timed(engine.as_mut(), &mut cx, o)
        })();
        prepared = true;
        let d_nodes = bdd.node_count() as u64 - nodes0;
        let d_steps = bdd.steps_taken() - steps0;
        let d_memo = engine.memo_entries() - memo0;
        match r {
            Ok(f) => {
                results.push((o, bdd.export(f)));
                if let Err(e) = shared.charge(d_nodes, d_steps, d_memo) {
                    error = Some(e);
                    break;
                }
            }
            Err(e) => {
                // The local budget check already counted this trip;
                // mark before charging so the shared layer stays
                // silent, then record what was consumed anyway.
                shared.mark_tripped();
                let _ = shared.charge(d_nodes, d_steps, d_memo);
                error = Some(e);
                break;
            }
        }
    }
    engine.publish_metrics();
    bdd.publish_metrics();
    let telemetry = tm_telemetry::drain();
    let trace = if flight_trace.is_some() {
        tm_telemetry::flight::drain_thread()
    } else {
        Vec::new()
    };
    WorkerOut { results, error, telemetry, trace }
}
