//! The warm-session pool: reusable per-circuit engine state keyed by
//! netlist hash, with LRU eviction (DESIGN.md §10).
//!
//! A [`PooledSession`] is the owning holder of a [`tm_spcf::WarmState`]
//! — the warm-session protocol that [`tm_spcf::WarmSession`] borrows
//! inside one call frame. The pooled session owns its netlist and BDD
//! manager next to the state, so it can sit in a long-lived pool and
//! serve request after request under the same contract: the manager,
//! primes and globals are always reused; each algorithm's engine rides
//! *descending* Δ_y steps and is rebuilt on an ascending one; and a
//! budget-exhausted or panicked computation discards the engine (its
//! prepared state may be partial), never the session.
//!
//! [`SessionPool`] keys sessions by FNV-1a over the *canonicalized*
//! BLIF (parse → [`tm_netlist::blif::write_blif`]), so textually
//! different but structurally identical submissions share one session.
//! Eviction is strict LRU over completed checkouts; an evicted session
//! still being used by an in-flight request stays alive through its
//! `Arc` and dies when that request finishes.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tm_logic::Bdd;
use tm_netlist::blif::write_blif;
use tm_netlist::library::Library;
use tm_netlist::map::{tech_map, MapOptions};
use tm_netlist::sop_network::SopNetwork;
use tm_netlist::{Delay, Netlist};
use tm_resilience::{Budget, TmError};
use tm_spcf::{Algorithm, SpcfSet, WarmState};
use tm_sta::Sta;

/// Canonicalizes a parsed BLIF network back to text. Hashing this —
/// not the submitted bytes — makes the pool key insensitive to
/// whitespace, comments, and line-continuation differences.
pub fn canonical_blif(sop: &SopNetwork) -> String {
    write_blif(sop)
}

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// a long-running server must not let one poisoned request wedge every
/// later one. Session state is re-validated by the engine-discard
/// policy of [`WarmState::try_point`].
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One circuit's warm serving state: the mapped netlist, its BDD
/// manager, and a [`WarmState`] holding one engine per algorithm,
/// reusable across requests (see module docs).
pub struct PooledSession {
    netlist: Arc<Netlist>,
    bdd: Bdd,
    state: WarmState,
}

impl PooledSession {
    /// Builds a session by technology-mapping a parsed BLIF network
    /// onto `library`.
    pub fn build(sop: &SopNetwork, library: Arc<Library>) -> Result<PooledSession, TmError> {
        if sop.outputs().is_empty() {
            return Err(TmError::invalid_input("circuit has no primary outputs"));
        }
        if sop.inputs().is_empty() {
            return Err(TmError::invalid_input("circuit has no primary inputs"));
        }
        let netlist = Arc::new(tech_map(sop, library, MapOptions::default()));
        Ok(PooledSession::from_netlist(netlist))
    }

    /// Wraps an already-mapped netlist (test entry point).
    pub fn from_netlist(netlist: Arc<Netlist>) -> PooledSession {
        let bdd = Bdd::new(netlist.inputs().len());
        let state = WarmState::new(&netlist);
        PooledSession { netlist, bdd, state }
    }

    /// The mapped circuit this session serves (an `Arc`, so a caller
    /// can build the [`Sta`] that [`PooledSession::compute`] borrows
    /// without holding a borrow of the session).
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The session's BDD manager (for pattern counts in reports).
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Live node count of the session's manager.
    pub fn node_count(&self) -> u64 {
        self.bdd.node_count() as u64
    }

    /// Total memo entries across the session's warm engines.
    pub fn memo_entries(&self) -> u64 {
        self.state.memo_entries()
    }

    /// Ladder points served by this session.
    pub fn computes(&self) -> u64 {
        self.state.points()
    }

    /// Between-request watermark check: runs [`WarmState::maintain`]
    /// when the manager's live store is at or above `watermark` nodes.
    /// Returns nodes reclaimed (0 when below the watermark). Publishes
    /// the manager's counter deltas so `bdd.gc.*` / `bdd.reorder.*`
    /// land in the serving thread's telemetry store (folded into the
    /// `stats` verb).
    pub fn maybe_gc(&mut self, watermark: u64) -> u64 {
        if self.node_count() >= watermark {
            let reclaimed = self.state.maintain(&mut self.bdd);
            self.bdd.publish_metrics();
            reclaimed as u64
        } else {
            0
        }
    }

    /// Evaluates the SPCF of every output critical at `target`, starting
    /// at `algorithm` and stepping down the degradation ladder when a
    /// rung exhausts `budget` — one [`WarmState::point_with_fallback`],
    /// with its ascending-step engine rebuild, empty-slot panic safety
    /// and fresh-engine/GC retries. The set's `algorithm` names the rung
    /// that answered. `sta` must be built over this session's
    /// [`PooledSession::netlist`]; one STA serves every point of a
    /// request.
    pub fn compute(
        &mut self,
        algorithm: Algorithm,
        sta: &Sta<'_>,
        target: Delay,
        budget: Budget,
    ) -> SpcfSet {
        debug_assert!(std::ptr::eq(sta.netlist(), &*self.netlist), "STA of another netlist");
        self.state.point_with_fallback(algorithm, sta, &mut self.bdd, target, budget)
    }
}

/// Aggregate pool statistics (the `pool` object of a `stats` frame and
/// the soak test's flat-memory oracle).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sessions currently resident.
    pub sessions: usize,
    /// Checkouts that found a resident session.
    pub hits: u64,
    /// Checkouts that had to build a session.
    pub misses: u64,
    /// Sessions evicted to make room (strict LRU).
    pub evictions: u64,
    /// Sessions released because their circuit went unrequested for the
    /// configured idle window (`--session-idle-ms`).
    pub idle_evicted: u64,
    /// Total BDD nodes across resident sessions.
    pub bdd_nodes: u64,
    /// Total unique-table slots across resident sessions (the
    /// `bdd.store.capacity` gauge of the `stats` verb).
    pub bdd_capacity: u64,
    /// Total engine memo entries across resident sessions.
    pub memo_entries: u64,
}

struct PoolEntry {
    key: u64,
    session: Arc<Mutex<PooledSession>>,
    /// Completion time of the last checkout of this key.
    last_used: Instant,
}

struct PoolInner {
    /// Most-recently-used first.
    entries: Vec<PoolEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    idle_evicted: u64,
}

/// An LRU pool of [`PooledSession`]s keyed by canonical-BLIF hash.
pub struct SessionPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
}

impl SessionPool {
    /// A pool holding at most `capacity` sessions (floored at 1).
    pub fn new(capacity: usize) -> SessionPool {
        SessionPool {
            capacity: capacity.max(1),
            inner: Mutex::new(PoolInner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                idle_evicted: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the session for `key`, building it with `build` on a
    /// miss (under the pool lock, so concurrent misses for the same
    /// circuit build exactly once). On a miss at capacity the
    /// least-recently-used session is evicted first.
    pub fn checkout(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<PooledSession, TmError>,
    ) -> Result<Arc<Mutex<PooledSession>>, TmError> {
        let mut inner = lock_recover(&self.inner);
        if let Some(pos) = inner.entries.iter().position(|e| e.key == key) {
            inner.hits += 1;
            tm_telemetry::counter_add("serve.pool.hits", 1);
            let mut entry = inner.entries.remove(pos);
            entry.last_used = Instant::now();
            let session = Arc::clone(&entry.session);
            inner.entries.insert(0, entry);
            return Ok(session);
        }
        inner.misses += 1;
        tm_telemetry::counter_add("serve.pool.misses", 1);
        let session = Arc::new(Mutex::new(build()?));
        if inner.entries.len() >= self.capacity {
            inner.entries.pop();
            inner.evictions += 1;
            tm_telemetry::counter_add("serve.pool.evictions", 1);
        }
        inner.entries.insert(
            0,
            PoolEntry { key, session: Arc::clone(&session), last_used: Instant::now() },
        );
        Ok(session)
    }

    /// Releases every session whose circuit has not been checked out
    /// within `max_idle` (the `--session-idle-ms` window). Returns the
    /// number evicted; each is counted exactly once under
    /// `serve.pool.idle_evicted`. In-flight users keep their session
    /// alive through its `Arc`; only the pool's reference is dropped.
    pub fn evict_idle(&self, max_idle: Duration) -> usize {
        let now = Instant::now();
        let mut inner = lock_recover(&self.inner);
        let before = inner.entries.len();
        inner.entries.retain(|e| now.duration_since(e.last_used) <= max_idle);
        let evicted = before - inner.entries.len();
        if evicted > 0 {
            inner.idle_evicted += evicted as u64;
            tm_telemetry::counter_add("serve.pool.idle_evicted", evicted as u64);
        }
        evicted
    }

    /// Point-in-time statistics. Sessions are sized outside the pool
    /// lock, so a busy session delays only this reader, not checkouts.
    pub fn stats(&self) -> PoolStats {
        let (sessions, counters) = {
            let inner = lock_recover(&self.inner);
            let sessions: Vec<Arc<Mutex<PooledSession>>> =
                inner.entries.iter().map(|e| Arc::clone(&e.session)).collect();
            (sessions, (inner.hits, inner.misses, inner.evictions, inner.idle_evicted))
        };
        let mut stats = PoolStats {
            sessions: sessions.len(),
            hits: counters.0,
            misses: counters.1,
            evictions: counters.2,
            idle_evicted: counters.3,
            ..PoolStats::default()
        };
        for session in &sessions {
            let s = lock_recover(session);
            stats.bdd_nodes = stats.bdd_nodes.saturating_add(s.node_count());
            stats.bdd_capacity =
                stats.bdd_capacity.saturating_add(s.bdd().unique_capacity() as u64);
            stats.memo_entries = stats.memo_entries.saturating_add(s.memo_entries());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_netlist::generate::{generate, GeneratorSpec};
    use tm_netlist::library::lsi10k_like;

    fn session(i: u64) -> PooledSession {
        let lib = Arc::new(lsi10k_like());
        let spec = GeneratorSpec::sized(format!("pool_{i}"), 6, 2, 12);
        PooledSession::from_netlist(Arc::new(generate(&spec, lib)))
    }

    #[test]
    fn lru_evicts_the_coldest_session() {
        let pool = SessionPool::new(2);
        let build = |i: u64| move || Ok(session(i));
        pool.checkout(1, build(1)).expect("miss 1");
        pool.checkout(2, build(2)).expect("miss 2");
        pool.checkout(1, build(1)).expect("hit 1"); // 1 is now MRU
        pool.checkout(3, build(3)).expect("miss 3: evicts 2");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        assert_eq!(stats.sessions, 2);
        // 2 was the LRU victim; 1 must still be resident.
        let mut built_again = false;
        pool.checkout(1, || {
            built_again = true;
            Ok(session(1))
        })
        .expect("hit 1");
        assert!(!built_again, "session 1 must have survived the eviction");
    }

    #[test]
    fn cyclic_access_beyond_capacity_always_misses() {
        // The classic LRU-thrash pattern the soak test pins exactly:
        // rotating M > capacity circuits misses on every checkout and
        // evicts on every checkout after the pool fills.
        let pool = SessionPool::new(2);
        let rounds = 5;
        for r in 0..rounds {
            for key in [10u64, 11, 12] {
                pool.checkout(key, || Ok(session(key))).expect("checkout");
                let _ = r;
            }
        }
        let stats = pool.stats();
        let requests = 3 * rounds as u64;
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, requests);
        assert_eq!(stats.evictions, requests - 2, "all but the resident two were evicted");
    }

    #[test]
    fn idle_sessions_are_released_exactly_once() {
        let pool = SessionPool::new(4);
        pool.checkout(1, || Ok(session(1))).expect("miss 1");
        pool.checkout(2, || Ok(session(2))).expect("miss 2");
        assert_eq!(pool.evict_idle(Duration::from_secs(3600)), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(pool.evict_idle(Duration::ZERO), 2);
        let stats = pool.stats();
        assert_eq!(stats.sessions, 0);
        assert_eq!(stats.idle_evicted, 2);
        assert_eq!(stats.evictions, 0, "idle release is not a capacity eviction");
        // Idempotent: nothing left to release, count stays exact.
        assert_eq!(pool.evict_idle(Duration::ZERO), 0);
        assert_eq!(pool.stats().idle_evicted, 2);
    }

    #[test]
    fn between_request_gc_keeps_served_spcfs_identical() {
        let mut s = session(42);
        let netlist = Arc::clone(s.netlist());
        let sta = Sta::new(&netlist);
        let target = sta.critical_path_delay() * 0.8;
        let set1 =
            s.compute(Algorithm::ShortPath, &sta, target, Budget::unlimited());
        let export1: Vec<_> = set1.outputs.iter().map(|o| s.bdd().export(o.spcf)).collect();
        // Watermark of 1 node always fires: GC + possible reorder.
        s.maybe_gc(1);
        let set2 =
            s.compute(Algorithm::ShortPath, &sta, target, Budget::unlimited());
        let export2: Vec<_> = set2.outputs.iter().map(|o| s.bdd().export(o.spcf)).collect();
        assert_eq!(export1, export2, "GC must not change served SPCFs");
        assert_eq!(s.computes(), 2);
    }

    #[test]
    fn build_failure_counts_a_miss_but_inserts_nothing() {
        let pool = SessionPool::new(2);
        let err = pool.checkout(9, || Err(TmError::invalid_input("no outputs")));
        assert!(err.is_err());
        let stats = pool.stats();
        assert_eq!((stats.sessions, stats.misses, stats.evictions), (0, 1, 0));
    }
}
