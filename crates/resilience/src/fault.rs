//! Deterministic, seeded fault injection for the serving stack.
//!
//! The paper's thesis is that timing errors should be *masked* — the
//! system degrades instead of failing. This module applies the same
//! philosophy to the serving stack itself: every recoverable failure
//! mode the server claims to handle (socket errors, short reads, slow
//! clients, allocation exhaustion, worker panics) can be injected
//! *deterministically* so the chaos battery and the `ci.sh`
//! chaos-smoke stage reproduce bit-for-bit from a seed.
//!
//! Design mirrors tm-telemetry's dormant-cost contract (DESIGN.md §6):
//!
//! - **Dormant is free.** Every hook first checks [`armed`], a single
//!   relaxed atomic load of a static `AtomicBool`. No spec parsing, no
//!   locks, no RNG unless a plane is installed. The `ci.sh`
//!   dormant-overhead guard holds this to ≤ 2% on the BDD hot core.
//! - **Deterministic when armed.** Each site owns a PRNG seeded from
//!   `seed ^ fnv1a(site name)` and an evaluation counter; `p=`
//!   decisions consume the site's own stream and `nth=` decisions are
//!   pure counter arithmetic, so a fixed `(spec, seed)` produces the
//!   same injection schedule per site regardless of what other sites
//!   do. (Cross-thread interleaving still orders *which request* sees
//!   the Nth evaluation — the chaos battery asserts on balances and
//!   typed outcomes, not on which request was hit.)
//! - **Observable.** Every injection counts `fault.injected.total`
//!   plus a per-site counter and emits a `fault.injected` flight
//!   event, so a chaos run's stats snapshot proves the plane fired.
//!
//! Spec grammar (the `TM_FAULTS` environment variable):
//!
//! ```text
//! spec    := entry (';' entry)*
//! entry   := site '@' param (',' param)*
//! param   := 'p=' float        probability per evaluation, in (0, 1]
//!          | 'nth=' integer    fire on every Nth evaluation (N ≥ 1)
//!          | 'ms=' integer     injected latency (delay sites only)
//! ```
//!
//! Example: `io.read.short@p=0.02;bdd.alloc.fail@nth=500;compute.panic@nth=800`.
//! Exactly one trigger (`p` or `nth`) per entry; `ms` defaults to 20
//! on delay sites and is rejected elsewhere.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use tm_testkit::rng::{fnv1a64, Rng};

use crate::{Exhausted, Resource, TmError};

/// Registered injection sites. `as usize` indexes [`Site::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Socket read fails with `ConnectionReset`.
    IoReadErr,
    /// Socket read returns 0 bytes (premature EOF / short read).
    IoReadShort,
    /// Socket read stalls for `ms` before proceeding (slow client).
    IoReadDelay,
    /// Socket write fails with `ConnectionReset`.
    IoWriteErr,
    /// Socket write accepts only a prefix of the buffer.
    IoWriteShort,
    /// Socket write stalls for `ms` before proceeding (slow consumer).
    IoWriteDelay,
    /// Frame payload is rejected as unparseable (typed `parse` error).
    FrameParse,
    /// BDD unique-table allocation reports exhaustion.
    BddAlloc,
    /// Engine memo insert reports exhaustion.
    MemoInsert,
    /// Admission gate refuses a permit (typed `overloaded` shed).
    GateAdmit,
    /// Server worker thread fails to spawn (daemon degrades to fewer).
    WorkerSpawn,
    /// Mid-compute panic inside a pooled session (exercises
    /// `catch_unwind` + slot-rebuild recovery).
    ComputePanic,
}

const SITE_COUNT: usize = 12;

impl Site {
    /// Every site, in `as usize` order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::IoReadErr,
        Site::IoReadShort,
        Site::IoReadDelay,
        Site::IoWriteErr,
        Site::IoWriteShort,
        Site::IoWriteDelay,
        Site::FrameParse,
        Site::BddAlloc,
        Site::MemoInsert,
        Site::GateAdmit,
        Site::WorkerSpawn,
        Site::ComputePanic,
    ];

    /// The spec-string name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::IoReadErr => "io.read.err",
            Site::IoReadShort => "io.read.short",
            Site::IoReadDelay => "io.read.delay",
            Site::IoWriteErr => "io.write.err",
            Site::IoWriteShort => "io.write.short",
            Site::IoWriteDelay => "io.write.delay",
            Site::FrameParse => "frame.parse",
            Site::BddAlloc => "bdd.alloc.fail",
            Site::MemoInsert => "memo.insert.fail",
            Site::GateAdmit => "gate.admit.fail",
            Site::WorkerSpawn => "worker.spawn.fail",
            Site::ComputePanic => "compute.panic",
        }
    }

    /// The per-site telemetry counter bumped on injection. The three
    /// read (write) variants share one counter: dashboards care which
    /// *surface* was hit, the spec string already says how.
    pub fn counter(self) -> &'static str {
        match self {
            Site::IoReadErr | Site::IoReadShort | Site::IoReadDelay => "fault.injected.io_read",
            Site::IoWriteErr | Site::IoWriteShort | Site::IoWriteDelay => {
                "fault.injected.io_write"
            }
            Site::FrameParse => "fault.injected.frame_parse",
            Site::BddAlloc => "fault.injected.bdd_alloc",
            Site::MemoInsert => "fault.injected.memo_insert",
            Site::GateAdmit => "fault.injected.gate_admit",
            Site::WorkerSpawn => "fault.injected.worker_spawn",
            Site::ComputePanic => "fault.injected.compute_panic",
        }
    }

    /// True for sites whose injection is a latency stall (accepts `ms=`).
    pub fn is_delay(self) -> bool {
        matches!(self, Site::IoReadDelay | Site::IoWriteDelay)
    }

    fn from_name(name: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// When an armed site fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire with this probability per evaluation, from the site's
    /// seeded PRNG stream.
    Prob(f64),
    /// Fire on every Nth evaluation (deterministic counter).
    Nth(u64),
}

/// One armed site: its trigger plus the injected latency for delay
/// sites.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArmSpec {
    /// When the site fires.
    pub trigger: Trigger,
    /// Injected stall for delay sites (ignored elsewhere).
    pub delay: Duration,
}

const DEFAULT_DELAY_MS: u64 = 20;

/// A parsed `TM_FAULTS` spec: which sites are armed and how.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultSpec {
    arms: [Option<ArmSpec>; SITE_COUNT],
}

impl FaultSpec {
    /// Parses the `TM_FAULTS` grammar (see module docs). Unknown
    /// sites, unknown keys, missing/duplicate triggers, out-of-range
    /// values and `ms=` on non-delay sites are all typed errors — a
    /// chaos run must never silently drop part of its spec.
    pub fn parse(spec: &str) -> Result<FaultSpec, TmError> {
        let mut arms: [Option<ArmSpec>; SITE_COUNT] = [None; SITE_COUNT];
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site_name, params) = entry.split_once('@').ok_or_else(|| {
                TmError::invalid_input(format!("fault entry `{entry}` has no `@params`"))
            })?;
            let site = Site::from_name(site_name.trim()).ok_or_else(|| {
                TmError::invalid_input(format!("unknown fault site `{}`", site_name.trim()))
            })?;
            if arms[site as usize].is_some() {
                return Err(TmError::invalid_input(format!(
                    "fault site `{}` specified twice",
                    site.name()
                )));
            }
            let mut trigger: Option<Trigger> = None;
            let mut delay_ms: Option<u64> = None;
            for param in params.split(',') {
                let param = param.trim();
                let (key, value) = param.split_once('=').ok_or_else(|| {
                    TmError::invalid_input(format!("fault param `{param}` is not key=value"))
                })?;
                match key.trim() {
                    "p" => {
                        let p: f64 = value.trim().parse().map_err(|_| {
                            TmError::invalid_input(format!("fault p `{value}` is not a float"))
                        })?;
                        if !(p > 0.0 && p <= 1.0) {
                            return Err(TmError::invalid_input(format!(
                                "fault p {p} outside (0, 1]"
                            )));
                        }
                        if trigger.replace(Trigger::Prob(p)).is_some() {
                            return Err(TmError::invalid_input(format!(
                                "fault site `{}` has more than one trigger",
                                site.name()
                            )));
                        }
                    }
                    "nth" => {
                        let n: u64 = value.trim().parse().map_err(|_| {
                            TmError::invalid_input(format!("fault nth `{value}` is not an integer"))
                        })?;
                        if n == 0 {
                            return Err(TmError::invalid_input("fault nth must be ≥ 1"));
                        }
                        if trigger.replace(Trigger::Nth(n)).is_some() {
                            return Err(TmError::invalid_input(format!(
                                "fault site `{}` has more than one trigger",
                                site.name()
                            )));
                        }
                    }
                    "ms" => {
                        if !site.is_delay() {
                            return Err(TmError::invalid_input(format!(
                                "fault site `{}` does not take ms=",
                                site.name()
                            )));
                        }
                        let ms: u64 = value.trim().parse().map_err(|_| {
                            TmError::invalid_input(format!("fault ms `{value}` is not an integer"))
                        })?;
                        delay_ms = Some(ms);
                    }
                    other => {
                        return Err(TmError::invalid_input(format!(
                            "unknown fault param key `{other}`"
                        )));
                    }
                }
            }
            let trigger = trigger.ok_or_else(|| {
                TmError::invalid_input(format!(
                    "fault site `{}` needs a trigger (p= or nth=)",
                    site.name()
                ))
            })?;
            arms[site as usize] = Some(ArmSpec {
                trigger,
                delay: Duration::from_millis(delay_ms.unwrap_or(DEFAULT_DELAY_MS)),
            });
        }
        Ok(FaultSpec { arms })
    }

    /// The armed spec for `site`, if any.
    pub fn arm_for(&self, site: Site) -> Option<ArmSpec> {
        self.arms[site as usize]
    }

    /// True when no site is armed (an empty spec string parses to this).
    pub fn is_empty(&self) -> bool {
        self.arms.iter().all(Option::is_none)
    }
}

struct SiteState {
    arm: Option<ArmSpec>,
    evals: AtomicU64,
    injected: AtomicU64,
    rng: Mutex<Rng>,
}

/// An installed fault configuration: the parsed spec plus per-site
/// PRNGs, evaluation counters and injection tallies.
pub struct FaultPlane {
    sites: [SiteState; SITE_COUNT],
    total: AtomicU64,
}

impl FaultPlane {
    /// Builds a plane from a spec string and a seed. Each site's PRNG
    /// stream is `seed ^ fnv1a(site name)` so sites decide
    /// independently of evaluation interleaving across sites.
    pub fn new(spec: &str, seed: u64) -> Result<FaultPlane, TmError> {
        let parsed = FaultSpec::parse(spec)?;
        Ok(FaultPlane {
            sites: Site::ALL.map(|site| SiteState {
                arm: parsed.arm_for(site),
                evals: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                rng: Mutex::new(Rng::seed_from_u64(seed ^ fnv1a64(site.name().as_bytes()))),
            }),
            total: AtomicU64::new(0),
        })
    }

    /// Evaluates one site: bumps its evaluation counter and reports
    /// whether the fault fires, recording telemetry when it does.
    fn decide(&self, site: Site) -> bool {
        let state = &self.sites[site as usize];
        let Some(arm) = state.arm else { return false };
        let eval = state.evals.fetch_add(1, Ordering::Relaxed) + 1; // 1-based
        let fire = match arm.trigger {
            Trigger::Nth(n) => eval % n == 0,
            Trigger::Prob(p) => {
                let mut rng = state.rng.lock().unwrap_or_else(|poison| poison.into_inner());
                rng.gen_bool(p)
            }
        };
        if fire {
            state.injected.fetch_add(1, Ordering::Relaxed);
            self.total.fetch_add(1, Ordering::Relaxed);
            tm_telemetry::counter_add("fault.injected.total", 1);
            tm_telemetry::counter_add(site.counter(), 1);
            tm_telemetry::flight::instant(
                "fault.injected",
                &[("site", site as u8 as f64), ("eval", eval as f64)],
            );
        }
        fire
    }

    fn delay_for(&self, site: Site) -> Duration {
        self.sites[site as usize].arm.map(|a| a.delay).unwrap_or(Duration::ZERO)
    }

    /// Injection tallies so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            total: self.total.load(Ordering::Relaxed),
            by_site: Site::ALL.map(|site| {
                let state = &self.sites[site as usize];
                SiteStats {
                    site,
                    evaluations: state.evals.load(Ordering::Relaxed),
                    injected: state.injected.load(Ordering::Relaxed),
                }
            }),
        }
    }
}

/// Per-site evaluation/injection tallies.
#[derive(Clone, Copy, Debug)]
pub struct SiteStats {
    /// Which site.
    pub site: Site,
    /// How many times the site was evaluated (armed sites only count).
    pub evaluations: u64,
    /// How many evaluations fired.
    pub injected: u64,
}

/// Snapshot of a plane's injection tallies.
#[derive(Clone, Copy, Debug)]
pub struct FaultStats {
    /// Total injections across all sites.
    pub total: u64,
    /// Per-site breakdown, in [`Site::ALL`] order.
    pub by_site: [SiteStats; SITE_COUNT],
}

impl FaultStats {
    /// Injections recorded for one site.
    pub fn injected(&self, site: Site) -> u64 {
        self.by_site[site as usize].injected
    }
}

// ---------------------------------------------------------------------
// Global installation.
//
// `ARMED` is the dormant-cost gate: a single static relaxed load. The
// plane itself lives behind a mutex that is only touched once a hook
// has seen `ARMED == true`.
// ---------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);

fn plane_slot() -> &'static Mutex<Option<Arc<FaultPlane>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlane>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn arming_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// True when a fault plane is installed. `#[inline]` + relaxed load:
/// this is the entire dormant cost of every hook.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<FaultPlane>> {
    if !armed() {
        return None;
    }
    plane_slot().lock().unwrap_or_else(|poison| poison.into_inner()).clone()
}

/// Scoped arming for tests: installs a plane and disarms on drop.
/// Holds a process-wide lock so concurrently running tests cannot see
/// each other's faults.
pub struct ArmGuard {
    plane: Arc<FaultPlane>,
    _serial: MutexGuard<'static, ()>,
}

impl ArmGuard {
    /// The installed plane (for reading [`FaultPlane::stats`]).
    pub fn plane(&self) -> &Arc<FaultPlane> {
        &self.plane
    }

    /// Injection tallies so far.
    pub fn stats(&self) -> FaultStats {
        self.plane.stats()
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *plane_slot().lock().unwrap_or_else(|poison| poison.into_inner()) = None;
    }
}

/// Installs a plane for the current scope (tests). Serializes against
/// other `arm_scoped` callers; disarms when the guard drops.
pub fn arm_scoped(spec: &str, seed: u64) -> Result<ArmGuard, TmError> {
    let serial = arming_lock().lock().unwrap_or_else(|poison| poison.into_inner());
    let plane = Arc::new(FaultPlane::new(spec, seed)?);
    *plane_slot().lock().unwrap_or_else(|poison| poison.into_inner()) = Some(Arc::clone(&plane));
    ARMED.store(true, Ordering::SeqCst);
    Ok(ArmGuard { plane, _serial: serial })
}

/// Daemon-style arming from `TM_FAULTS` / `TM_FAULTS_SEED`: installs
/// for the life of the process (no guard, no serialization — call once
/// at startup before serving). Returns the installed plane, or `None`
/// when `TM_FAULTS` is unset or empty.
pub fn install_from_env() -> Result<Option<Arc<FaultPlane>>, TmError> {
    let spec = match std::env::var("TM_FAULTS") {
        Ok(s) if !s.trim().is_empty() => s,
        _ => return Ok(None),
    };
    let seed = std::env::var("TM_FAULTS_SEED")
        .ok()
        .map(|s| {
            s.trim().parse::<u64>().map_err(|_| {
                TmError::invalid_input(format!("TM_FAULTS_SEED `{s}` is not an integer"))
            })
        })
        .transpose()?
        .unwrap_or(0);
    let plane = Arc::new(FaultPlane::new(&spec, seed)?);
    *plane_slot().lock().unwrap_or_else(|poison| poison.into_inner()) = Some(Arc::clone(&plane));
    ARMED.store(true, Ordering::SeqCst);
    Ok(Some(plane))
}

/// Tallies of the installed plane, if armed.
pub fn stats() -> Option<FaultStats> {
    current().map(|p| p.stats())
}

// ---------------------------------------------------------------------
// Injection hooks — one per site, called from the real code paths.
// Every hook's dormant cost is the `armed()` load inside `current()`.
// ---------------------------------------------------------------------

/// An injected socket-level fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Fail the operation with `ConnectionReset`.
    Error,
    /// Read: return 0 bytes (EOF). Write: accept only a prefix.
    Short,
    /// Stall for the duration before proceeding normally.
    Delay(Duration),
}

fn io_fault(plane: &FaultPlane, err: Site, short: Site, delay: Site) -> Option<IoFault> {
    if plane.decide(err) {
        return Some(IoFault::Error);
    }
    if plane.decide(short) {
        return Some(IoFault::Short);
    }
    if plane.decide(delay) {
        return Some(IoFault::Delay(plane.delay_for(delay)));
    }
    None
}

/// Evaluates the three read-side sites for one `read()` call.
pub fn io_read_fault() -> Option<IoFault> {
    let plane = current()?;
    io_fault(&plane, Site::IoReadErr, Site::IoReadShort, Site::IoReadDelay)
}

/// Evaluates the three write-side sites for one `write()` call.
pub fn io_write_fault() -> Option<IoFault> {
    let plane = current()?;
    io_fault(&plane, Site::IoWriteErr, Site::IoWriteShort, Site::IoWriteDelay)
}

/// Frame-parse injection: `Some(err)` means the payload must be
/// rejected with this typed parse error.
pub fn frame_parse_fault() -> Option<TmError> {
    let plane = current()?;
    if plane.decide(Site::FrameParse) {
        Some(TmError::parse(0, "injected fault: frame.parse"))
    } else {
        None
    }
}

/// BDD-allocation injection: `Err` means the unique table must report
/// exhaustion (synthetic limit/used — the fault is the message).
pub fn bdd_alloc_fault() -> Result<(), Exhausted> {
    if let Some(plane) = current() {
        if plane.decide(Site::BddAlloc) {
            return Err(Exhausted { resource: Resource::BddNodes, limit: 0, used: 0 });
        }
    }
    Ok(())
}

/// Memo-insert injection: `Err` means the memo must report exhaustion.
pub fn memo_insert_fault() -> Result<(), Exhausted> {
    if let Some(plane) = current() {
        if plane.decide(Site::MemoInsert) {
            return Err(Exhausted { resource: Resource::MemoEntries, limit: 0, used: 0 });
        }
    }
    Ok(())
}

/// Gate-admission injection: `true` means refuse the permit (the
/// caller sheds with a typed `overloaded`, same as a full gate).
pub fn gate_admit_fires() -> bool {
    current().map(|p| p.decide(Site::GateAdmit)).unwrap_or(false)
}

/// Worker-spawn injection: `true` means pretend the spawn failed (the
/// daemon degrades to fewer workers, keeping at least one).
pub fn worker_spawn_fires() -> bool {
    current().map(|p| p.decide(Site::WorkerSpawn)).unwrap_or(false)
}

/// Mid-compute panic injection. Panics when the site fires; the
/// server's `catch_unwind` + pool slot-rebuild must absorb it into a
/// typed `internal` error frame.
pub fn compute_panic_check() {
    if let Some(plane) = current() {
        if plane.decide(Site::ComputePanic) {
            panic!("injected fault: compute.panic");
        }
    }
}

/// A `Read`/`Write` adapter that consults the fault plane before each
/// operation. Wraps the server's per-connection `TcpStream`; when
/// dormant, each call adds exactly one relaxed atomic load.
#[derive(Debug)]
pub struct FaultyIo<S> {
    inner: S,
}

impl<S> FaultyIo<S> {
    /// Wraps a transport.
    pub fn new(inner: S) -> Self {
        FaultyIo { inner }
    }

    /// The wrapped transport (e.g. to set socket timeouts).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped transport.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultyIo<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match io_read_fault() {
            Some(IoFault::Error) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected fault: io.read.err",
                ));
            }
            Some(IoFault::Short) => return Ok(0),
            Some(IoFault::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyIo<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match io_write_fault() {
            Some(IoFault::Error) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected fault: io.write.err",
                ));
            }
            Some(IoFault::Short) if buf.len() > 1 => {
                // A genuine short write: accept half and let the
                // caller's write_all loop come back for the rest.
                return self.inner.write(&buf[..buf.len() / 2]);
            }
            Some(IoFault::Short) => {}
            Some(IoFault::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_the_readme_example() {
        let spec = FaultSpec::parse("io.read.short@p=0.02;bdd.alloc.fail@nth=500").unwrap();
        assert_eq!(
            spec.arm_for(Site::IoReadShort),
            Some(ArmSpec {
                trigger: Trigger::Prob(0.02),
                delay: Duration::from_millis(DEFAULT_DELAY_MS)
            })
        );
        assert_eq!(
            spec.arm_for(Site::BddAlloc),
            Some(ArmSpec {
                trigger: Trigger::Nth(500),
                delay: Duration::from_millis(DEFAULT_DELAY_MS)
            })
        );
        assert_eq!(spec.arm_for(Site::ComputePanic), None);
    }

    #[test]
    fn spec_delay_sites_take_ms() {
        let spec = FaultSpec::parse("io.read.delay@p=0.5,ms=80").unwrap();
        assert_eq!(
            spec.arm_for(Site::IoReadDelay).unwrap().delay,
            Duration::from_millis(80)
        );
        // ms on a non-delay site is rejected.
        assert!(FaultSpec::parse("frame.parse@nth=2,ms=5").is_err());
    }

    #[test]
    fn spec_rejects_malformed_entries() {
        for bad in [
            "io.read.err",              // no params
            "no.such.site@p=0.5",       // unknown site
            "frame.parse@p=0.5,nth=2",  // two triggers
            "frame.parse@ms=5",         // delay param without trigger on non-delay site
            "frame.parse@p=1.5",        // p out of range
            "frame.parse@p=0",          // p out of range
            "frame.parse@nth=0",        // nth out of range
            "frame.parse@bogus=1",      // unknown key
            "frame.parse@nth=2;frame.parse@nth=3", // duplicate site
            "frame.parse@nth",          // not key=value
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "spec `{bad}` should be rejected");
        }
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn nth_trigger_fires_exactly_every_nth() {
        let plane = FaultPlane::new("frame.parse@nth=3", 7).unwrap();
        let fired: Vec<bool> = (0..9).map(|_| plane.decide(Site::FrameParse)).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        let stats = plane.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.injected(Site::FrameParse), 3);
        assert_eq!(stats.by_site[Site::FrameParse as usize].evaluations, 9);
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plane = FaultPlane::new("io.read.short@p=0.3", seed).unwrap();
            (0..64).map(|_| plane.decide(Site::IoReadShort)).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        let fired = run(42).iter().filter(|&&f| f).count();
        assert!(fired > 5 && fired < 40, "p=0.3 over 64 evals fired {fired} times");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Interleaving evaluations of another site must not shift a
        // site's own schedule: each site owns a seeded stream.
        let solo = {
            let plane = FaultPlane::new("io.read.short@p=0.3", 9).unwrap();
            (0..32).map(|_| plane.decide(Site::IoReadShort)).collect::<Vec<_>>()
        };
        let interleaved = {
            let plane =
                FaultPlane::new("io.read.short@p=0.3;io.write.err@p=0.5", 9).unwrap();
            (0..32)
                .map(|_| {
                    let _ = plane.decide(Site::IoWriteErr);
                    plane.decide(Site::IoReadShort)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn dormant_hooks_are_inert() {
        // Hold the arming lock so concurrently running armed tests
        // cannot flip the global flag mid-assert.
        let _serial = arming_lock().lock().unwrap_or_else(|poison| poison.into_inner());
        assert!(!armed());
        assert!(io_read_fault().is_none());
        assert!(io_write_fault().is_none());
        assert!(frame_parse_fault().is_none());
        assert!(bdd_alloc_fault().is_ok());
        assert!(memo_insert_fault().is_ok());
        assert!(!gate_admit_fires());
        assert!(!worker_spawn_fires());
        compute_panic_check();
        assert!(stats().is_none());
    }

    #[test]
    fn arm_guard_installs_and_disarms() {
        let _scope = tm_telemetry::Scope::enter();
        {
            let guard = arm_scoped("gate.admit.fail@nth=1", 0).unwrap();
            assert!(armed());
            assert!(gate_admit_fires(), "nth=1 fires every evaluation");
            assert_eq!(guard.stats().injected(Site::GateAdmit), 1);
        }
        assert!(!armed(), "guard drop disarms");
        assert!(!gate_admit_fires());
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("fault.injected.total"), Some(1));
        assert_eq!(snap.counter("fault.injected.gate_admit"), Some(1));
    }

    #[test]
    fn injected_exhaustion_and_panic_hooks() {
        let guard = arm_scoped(
            "bdd.alloc.fail@nth=1;memo.insert.fail@nth=1;compute.panic@nth=1;frame.parse@nth=1",
            0,
        )
        .unwrap();
        assert_eq!(bdd_alloc_fault().unwrap_err().resource, Resource::BddNodes);
        assert_eq!(memo_insert_fault().unwrap_err().resource, Resource::MemoEntries);
        let parse_err = frame_parse_fault().unwrap();
        assert!(parse_err.to_string().contains("injected fault"));
        let panicked = std::panic::catch_unwind(compute_panic_check);
        assert!(panicked.is_err(), "compute.panic must panic when fired");
        assert_eq!(guard.stats().total, 4);
    }

    #[test]
    fn faulty_io_injects_read_and_write_faults() {
        use std::io::{Read, Write};
        let _guard = arm_scoped("io.read.err@nth=2;io.write.short@nth=1", 0).unwrap();
        let mut reader = FaultyIo::new(&b"abcdef"[..]);
        let mut buf = [0u8; 4];
        assert_eq!(reader.read(&mut buf).unwrap(), 4, "first read passes through");
        assert_eq!(
            reader.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset,
            "second read hits nth=2"
        );
        let mut writer = FaultyIo::new(Vec::new());
        assert_eq!(writer.write(b"abcd").unwrap(), 2, "short write accepts half");
        writer.write_all(b"abcd").unwrap();
        assert!(writer.flush().is_ok());
    }

    #[test]
    fn install_from_env_without_spec_is_none() {
        // TM_FAULTS is not set in the test environment.
        if std::env::var("TM_FAULTS").is_err() {
            assert!(install_from_env().unwrap().is_none());
        }
    }
}
