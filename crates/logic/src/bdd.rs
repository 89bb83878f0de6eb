//! Reduced ordered binary decision diagrams (ROBDDs) with complement
//! edges.
//!
//! Speed-path characteristic functions range over *all primary inputs* of
//! a circuit — hundreds of variables with astronomically many satisfying
//! patterns (Table 2 of the paper reports up to 8.8×10¹⁰⁷ critical
//! minterms). BDDs represent and count such sets exactly.
//!
//! The manager is a Shannon-expansion ROBDD tuned for the SPCF hot
//! path (see DESIGN.md "BDD internals & warm sessions"):
//!
//! - **Complement edges.** A [`BddRef`] packs `(node index << 1) |
//!   complement`; a single terminal node represents both constants, and
//!   negation is an O(1) bit flip. Canonicity is kept by the
//!   *low-edge-never-complemented* rule: `mk` that would store a
//!   complemented low edge stores the negated node and returns a
//!   complemented handle instead.
//! - **Struct-of-arrays node store.** `var[]` / `lo[]` / `hi[]` keep
//!   traversal (`sat_fraction`, export, the short-path memo recursion)
//!   cache-friendly.
//! - **Open-addressed unique table.** Power-of-two capacity, linear
//!   probing over FNV-mixed packed keys, and *incremental rehash*: a
//!   growth keeps the previous table alive and migrates a few slots per
//!   insert, so no single `mk` pays a full-table stall.
//! - **Direct-mapped lossy computed caches** for `ite` and the
//!   quantifier recursion: a collision simply overwrites (counted as an
//!   eviction) and a lost entry only costs a recomputation — never a
//!   wrong result.
//!
//! Functions are referenced by [`BddRef`] handles; equal functions
//! always have equal handles (canonicity), so equivalence checking is
//! `==`.

use std::collections::HashMap;
use std::fmt;

use tm_resilience::{Budget, Exhausted};

/// Handle to a BDD function inside a [`Bdd`] manager: a packed edge
/// `(node index << 1) | complement`.
///
/// Handles are only meaningful for the manager that created them.
/// Canonicity guarantees `f == g` iff the functions are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The raw packed edge (node index and complement bit), stable for
    /// the lifetime of the manager.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for BddRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ONE => write!(f, "BddRef(⊤)"),
            ZERO => write!(f, "BddRef(⊥)"),
            e if e & 1 == 1 => write!(f, "BddRef(¬{})", e >> 1),
            e => write!(f, "BddRef({})", e >> 1),
        }
    }
}

/// The constant-true edge: the terminal node (index 0), uncomplemented.
const ONE: u32 = 0;
/// The constant-false edge: the terminal node, complemented.
const ZERO: u32 = 1;
/// Terminal "variable" index: compares greater than every real variable
/// so that terminals sink to the bottom of the order.
const TERMINAL_VAR: u32 = u32::MAX;
/// Node indices must leave room for the complement bit.
const MAX_NODE_INDEX: u32 = (u32::MAX >> 1) - 1;

/// Empty slot sentinel in the unique table: node 0 is the terminal and
/// is never hashed.
const UNIQUE_EMPTY: u32 = 0;
/// Initial unique-table capacity (power of two).
const UNIQUE_INITIAL_CAP: usize = 1 << 10;
/// Old-table slots migrated per insert during an incremental rehash.
const UNIQUE_MIGRATE_PER_INSERT: usize = 8;

/// Invalid-entry sentinel for the ITE cache's `f` field (a normalized
/// `f` is a non-terminal uncomplemented edge, so ≥ 2 and even).
const ITE_INVALID: u32 = u32::MAX;
/// Initial ITE-cache capacity (entries, power of two).
const ITE_INITIAL_CAP: usize = 1 << 13;
/// ITE-cache growth ceiling (entries).
const ITE_MAX_CAP: usize = 1 << 22;
/// Quantifier-cache capacity (entries, power of two). Entries are
/// invalidated wholesale per top-level `exists` via a generation tag.
const QUANT_CAP: usize = 1 << 12;

#[inline]
fn fnv_mix(packed: u64, var: u32) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = (FNV_OFFSET ^ packed).wrapping_mul(FNV_PRIME);
    h = (h ^ var as u64).wrapping_mul(FNV_PRIME);
    // Fold the well-mixed high bits down for short power-of-two masks.
    h ^ (h >> 31)
}

#[inline]
fn hash_node(var: u32, lo: u32, hi: u32) -> u64 {
    fnv_mix((lo as u64) | ((hi as u64) << 32), var)
}

/// One entry of the direct-mapped ITE computed cache.
#[derive(Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const ITE_EMPTY: IteEntry = IteEntry { f: ITE_INVALID, g: 0, h: 0, r: 0 };

/// One entry of the direct-mapped quantifier cache; `gen` ties the
/// entry to one top-level `exists` call.
#[derive(Clone, Copy)]
struct QuantEntry {
    key: u64,
    gen: u32,
    r: u32,
}

/// A BDD manager: owns the node store, unique table and operation caches.
///
/// The variable order is fixed for the manager's lifetime: ascending
/// variable index. Capacity is recovered by [`Bdd::gc`] alone, which
/// reclaims dead nodes and returns a [`BddRemap`] for the live ones.
///
/// # Budgets
///
/// A deterministic [`Budget`] can be installed with [`Bdd::set_budget`];
/// the manager then checks its node count against `max_bdd_nodes` on
/// every allocation and the recursion steps taken since the budget was
/// installed against `max_steps` on every cache miss. The `try_*` operation variants surface
/// exhaustion as a typed [`Exhausted`] error; the plain operations are
/// unchanged under the default unlimited budget and *panic* if a finite
/// budget runs out mid-call (budgeted callers must use `try_*`).
///
/// # Examples
///
/// ```
/// use tm_logic::bdd::Bdd;
///
/// let mut bdd = Bdd::new(3);
/// let x0 = bdd.var(0);
/// let x2 = bdd.var(2);
/// let f = bdd.and(x0, x2);
/// assert_eq!(bdd.sat_count(f), 2.0); // x1 free
/// let g = bdd.or(f, x0);
/// assert_eq!(g, x0); // absorption, found structurally
/// ```
pub struct Bdd {
    num_vars: u32,
    /// Struct-of-arrays node store; entry 0 is the shared terminal.
    /// Node labels are variable indices, ordered by ascending index.
    vars: Vec<u32>,
    los: Vec<u32>,
    his: Vec<u32>,
    /// Open-addressed unique table: slots hold node indices,
    /// [`UNIQUE_EMPTY`] marks a free slot.
    u_slots: Vec<u32>,
    /// Live unique-table entries. Tracks `stats.unique_misses` exactly
    /// until the first [`Bdd::gc`], which rebuilds the table and resets
    /// this to the surviving count (the lifetime miss counter keeps
    /// counting monotonically for telemetry).
    u_len: usize,
    /// Previous table during an incremental rehash (empty otherwise).
    u_old: Vec<u32>,
    /// Next `u_old` slot to migrate.
    u_cursor: usize,
    /// Direct-mapped lossy ITE computed cache.
    ite_cache: Vec<IteEntry>,
    /// Direct-mapped lossy quantifier cache.
    quant_cache: Vec<QuantEntry>,
    quant_gen: u32,
    stats: BddStats,
    /// Stats as of the last [`Bdd::publish_metrics`] call, so repeated
    /// publishes from one manager emit deltas, never double-counts.
    published: BddStats,
    /// Deterministic limits; unlimited unless [`Bdd::set_budget`] is
    /// called.
    budget: Budget,
    /// Budgeted recursion steps taken (ITE and quantifier cache misses).
    steps: u64,
    /// `steps` when the budget was installed: `max_steps` charges only
    /// the steps taken since.
    steps_at_budget: u64,
}

/// Lifetime operation counts of one [`Bdd`] manager.
///
/// Counted unconditionally on plain fields — keeping the hot `mk` /
/// `ite_rec` paths free of any telemetry-gating branches — and pushed
/// into `tm-telemetry` only when [`Bdd::publish_metrics`] is called.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// `mk` calls resolved from the unique table (node already existed).
    pub unique_hits: u64,
    /// `mk` calls that allocated a fresh node.
    pub unique_misses: u64,
    /// Unique-table growths (each starts an incremental rehash).
    pub unique_rehashes: u64,
    /// `ite` recursions resolved from the computed-cache.
    pub ite_cache_hits: u64,
    /// `ite` recursions that had to expand (and then filled the cache).
    pub ite_cache_misses: u64,
    /// Live ITE-cache entries overwritten by a colliding fill (the
    /// direct-mapped cache is lossy: an eviction costs a recomputation
    /// later, never a wrong result).
    pub ite_cache_evictions: u64,
    /// Quantifier recursions resolved from the quantifier cache.
    pub quant_cache_hits: u64,
    /// Quantifier recursions that had to expand.
    pub quant_cache_misses: u64,
    /// Times the operation caches were dropped via
    /// [`Bdd::clear_op_caches`].
    pub op_cache_clears: u64,
    /// Completed [`Bdd::gc`] passes.
    pub gc_runs: u64,
    /// Total dead nodes reclaimed across all GC passes.
    pub gc_reclaimed: u64,
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bdd({} vars, {} nodes)", self.num_vars, self.vars.len())
    }
}

impl Bdd {
    /// Creates a manager for functions over `num_vars` variables, ordered
    /// by ascending index.
    pub fn new(num_vars: usize) -> Self {
        Self::with_cache_capacity(num_vars, ITE_INITIAL_CAP)
    }

    /// Creates a manager with an explicit initial ITE computed-cache
    /// capacity (rounded up to a power of two, minimum 2). Smaller
    /// caches trade hit rate for memory; because the cache is lossy,
    /// capacity never affects any result — only the stats.
    pub fn with_cache_capacity(num_vars: usize, ite_entries: usize) -> Self {
        let ite_cap = ite_entries.next_power_of_two().max(2);
        Bdd {
            num_vars: num_vars as u32,
            vars: vec![TERMINAL_VAR],
            los: vec![ONE],
            his: vec![ONE],
            u_slots: vec![UNIQUE_EMPTY; UNIQUE_INITIAL_CAP],
            u_len: 0,
            u_old: Vec::new(),
            u_cursor: 0,
            ite_cache: vec![ITE_EMPTY; ite_cap],
            quant_cache: vec![QuantEntry { key: 0, gen: 0, r: 0 }; QUANT_CAP],
            quant_gen: 0,
            stats: BddStats::default(),
            published: BddStats::default(),
            budget: Budget::unlimited(),
            steps: 0,
            steps_at_budget: 0,
        }
    }

    /// Installs a computation budget. `max_steps` charges the steps
    /// taken from this call on, so every budgeted phase gets its full
    /// step allowance however much work the manager did before.
    /// `max_bdd_nodes` charges the manager's current size: nodes
    /// already allocated count against it, until a [`Bdd::gc`]
    /// reclaims the dead ones.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.steps_at_budget = self.steps;
    }

    /// The installed budget (unlimited by default).
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Removes any installed budget.
    pub fn clear_budget(&mut self) {
        self.budget = Budget::unlimited();
    }

    /// Budgeted recursion steps taken over the manager's lifetime
    /// (cache misses in apply and quantification); the step budget
    /// charges only those since [`Bdd::set_budget`].
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Unwraps an operation result for the infallible API: only a
    /// finite budget can make this panic.
    #[track_caller]
    fn infallible<T>(r: Result<T, Exhausted>) -> T {
        r.unwrap_or_else(|e| panic!("{e}; budgeted callers must use the try_* API"))
    }

    /// Charges one recursion step against the budget.
    fn charge_step(&mut self) -> Result<(), Exhausted> {
        self.budget.check_steps(self.steps - self.steps_at_budget)?;
        self.steps += 1;
        Ok(())
    }

    /// Number of variables in the manager's space.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Total nodes allocated so far (a capacity/effort metric; includes
    /// the shared terminal).
    pub fn node_count(&self) -> usize {
        self.vars.len()
    }

    /// The constant-false function.
    pub fn zero(&self) -> BddRef {
        BddRef(ZERO)
    }

    /// The constant-true function.
    pub fn one(&self) -> BddRef {
        BddRef(ONE)
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: usize) -> BddRef {
        Self::infallible(self.try_var(var))
    }

    /// Budget-checked [`Bdd::var`].
    pub fn try_var(&mut self, var: usize) -> Result<BddRef, Exhausted> {
        assert!((var as u32) < self.num_vars, "variable {var} out of range");
        Ok(BddRef(self.mk(var as u32, ZERO, ONE)?))
    }

    /// The negated projection of variable `var`.
    pub fn nvar(&mut self, var: usize) -> BddRef {
        Self::infallible(self.try_nvar(var))
    }

    /// Budget-checked [`Bdd::nvar`].
    pub fn try_nvar(&mut self, var: usize) -> Result<BddRef, Exhausted> {
        assert!((var as u32) < self.num_vars, "variable {var} out of range");
        Ok(BddRef(self.mk(var as u32, ONE, ZERO)?))
    }

    /// A literal: variable `var` with the given polarity.
    pub fn literal(&mut self, var: usize, polarity: bool) -> BddRef {
        Self::infallible(self.try_literal(var, polarity))
    }

    /// Budget-checked [`Bdd::literal`].
    pub fn try_literal(&mut self, var: usize, polarity: bool) -> Result<BddRef, Exhausted> {
        if polarity {
            self.try_var(var)
        } else {
            self.try_nvar(var)
        }
    }

    /// Finds-or-creates the node `(var, lo, hi)` and returns its edge,
    /// normalizing to the canonical polarity: the stored low edge is
    /// never complemented (`mk(v, ¬a, b) = ¬mk(v, a, ¬b)`).
    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> Result<u32, Exhausted> {
        if lo == hi {
            return Ok(lo);
        }
        // Canonical polarity: push a complemented low edge to the output.
        let out = lo & 1;
        let (lo, hi) = (lo ^ out, hi ^ out);
        let hash = hash_node(var, lo, hi);
        if let Some(idx) = self.unique_find(hash, var, lo, hi) {
            self.stats.unique_hits += 1;
            return Ok((idx << 1) | out);
        }
        self.budget.check_bdd_nodes(self.vars.len() as u64)?;
        tm_resilience::fault::bdd_alloc_fault()?;
        self.stats.unique_misses += 1;
        let idx = self.vars.len() as u32;
        assert!(idx <= MAX_NODE_INDEX, "BDD node store exceeds 2^31 nodes");
        self.vars.push(var);
        self.los.push(lo);
        self.his.push(hi);
        self.unique_insert(hash, idx);
        Ok((idx << 1) | out)
    }

    /// Probes the unique table (and, mid-rehash, the previous table)
    /// for the node `(var, lo, hi)`.
    #[inline]
    fn unique_find(&self, hash: u64, var: u32, lo: u32, hi: u32) -> Option<u32> {
        let probe = |slots: &[u32]| -> Option<u32> {
            if slots.is_empty() {
                return None;
            }
            let mask = slots.len() - 1;
            let mut i = hash as usize & mask;
            loop {
                let s = slots[i];
                if s == UNIQUE_EMPTY {
                    return None;
                }
                let n = s as usize;
                if self.vars[n] == var && self.los[n] == lo && self.his[n] == hi {
                    return Some(s);
                }
                i = (i + 1) & mask;
            }
        };
        probe(&self.u_slots).or_else(|| probe(&self.u_old))
    }

    /// Inserts a freshly allocated node index, growing (incrementally)
    /// at 3/4 load.
    fn unique_insert(&mut self, hash: u64, idx: u32) {
        // `u_len` counts exactly the live entries; the old table holds
        // a subset of them mid-rehash, never extras.
        if self.u_len * 4 >= self.u_slots.len() * 3 {
            self.unique_grow();
        }
        self.u_len += 1;
        self.unique_migrate(UNIQUE_MIGRATE_PER_INSERT);
        Self::slot_insert(&mut self.u_slots, hash, idx);
    }

    #[inline]
    fn slot_insert(slots: &mut [u32], hash: u64, idx: u32) {
        let mask = slots.len() - 1;
        let mut i = hash as usize & mask;
        while slots[i] != UNIQUE_EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = idx;
    }

    /// Starts an incremental rehash into a table of twice the capacity.
    /// Any rehash still in flight is flushed first.
    fn unique_grow(&mut self) {
        self.unique_migrate(usize::MAX);
        self.stats.unique_rehashes += 1;
        let cap = self.u_slots.len() * 2;
        self.u_old = std::mem::replace(&mut self.u_slots, vec![UNIQUE_EMPTY; cap]);
        self.u_cursor = 0;
    }

    /// Migrates up to `quota` occupied slots from the previous table.
    fn unique_migrate(&mut self, quota: usize) {
        if self.u_old.is_empty() {
            return;
        }
        let mut moved = 0;
        while self.u_cursor < self.u_old.len() && moved < quota {
            let s = self.u_old[self.u_cursor];
            self.u_cursor += 1;
            if s == UNIQUE_EMPTY {
                continue;
            }
            let n = s as usize;
            let hash = hash_node(self.vars[n], self.los[n], self.his[n]);
            // A lookup hit mid-rehash leaves the entry in the old table,
            // so it cannot already be in the new one; insert directly.
            Self::slot_insert(&mut self.u_slots, hash, s);
            moved += 1;
        }
        if self.u_cursor >= self.u_old.len() {
            self.u_old = Vec::new();
            self.u_cursor = 0;
        }
    }

    #[inline]
    fn top_var(&self, e: u32) -> u32 {
        self.vars[(e >> 1) as usize]
    }

    /// Cofactors of edge `e` w.r.t. `var`, complement bit pushed down.
    #[inline]
    fn cofactors(&self, e: u32, var: u32) -> (u32, u32) {
        let i = (e >> 1) as usize;
        if self.vars[i] == var {
            let c = e & 1;
            (self.los[i] ^ c, self.his[i] ^ c)
        } else {
            (e, e)
        }
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)` — the universal
    /// connective all other operations reduce to.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        Self::infallible(self.try_ite(f, g, h))
    }

    /// Budget-checked [`Bdd::ite`].
    pub fn try_ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, g.0, h.0)?))
    }

    /// Doubles the lossy ITE cache (rehashing the surviving entries)
    /// once the node store outgrows it, up to [`ITE_MAX_CAP`]. Called
    /// from operation entry points, never mid-recursion.
    fn ite_cache_maybe_grow(&mut self) {
        let cap = self.ite_cache.len();
        if cap >= ITE_MAX_CAP || self.vars.len() <= cap {
            return;
        }
        let new_cap = (cap * 2).min(ITE_MAX_CAP);
        let old = std::mem::replace(&mut self.ite_cache, vec![ITE_EMPTY; new_cap]);
        let mask = new_cap - 1;
        for e in old {
            if e.f != ITE_INVALID {
                let i = fnv_mix((e.f as u64) | ((e.g as u64) << 32), e.h) as usize & mask;
                self.ite_cache[i] = e;
            }
        }
    }

    fn ite_rec(&mut self, f: u32, mut g: u32, mut h: u32) -> Result<u32, Exhausted> {
        // Terminal cases.
        if f == ONE {
            return Ok(g);
        }
        if f == ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        // Arguments equal (up to complement) to f collapse to constants.
        if g == f {
            g = ONE;
        } else if g == f ^ 1 {
            g = ZERO;
        }
        if h == f {
            h = ZERO;
        } else if h == f ^ 1 {
            h = ONE;
        }
        if g == h {
            return Ok(g);
        }
        if g == ONE && h == ZERO {
            return Ok(f);
        }
        if g == ZERO && h == ONE {
            return Ok(f ^ 1);
        }
        // Normalize: f uncomplemented (swap branches), then g
        // uncomplemented (complement the result) — so each function
        // family occupies one canonical cache line.
        let (f, g, h) = if f & 1 == 1 { (f ^ 1, h, g) } else { (f, g, h) };
        let out = g & 1;
        let (g, h) = (g ^ out, h ^ out);

        let slot = fnv_mix((f as u64) | ((g as u64) << 32), h) as usize & (self.ite_cache.len() - 1);
        let e = self.ite_cache[slot];
        if e.f == f && e.g == g && e.h == h {
            self.stats.ite_cache_hits += 1;
            return Ok(e.r ^ out);
        }
        self.charge_step()?;
        self.stats.ite_cache_misses += 1;
        let v = self.top_var(f).min(self.top_var(g)).min(self.top_var(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite_rec(f0, g0, h0)?;
        let hi = self.ite_rec(f1, g1, h1)?;
        let r = self.mk(v, lo, hi)?;
        let e = &mut self.ite_cache[slot];
        if e.f != ITE_INVALID {
            self.stats.ite_cache_evictions += 1;
        }
        *e = IteEntry { f, g, h, r };
        Ok(r ^ out)
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_and(f, g))
    }

    /// Budget-checked [`Bdd::and`].
    pub fn try_and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, g.0, ZERO)?))
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_or(f, g))
    }

    /// Budget-checked [`Bdd::or`].
    pub fn try_or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, ONE, g.0)?))
    }

    /// Negation — with complement edges, a free bit flip.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        BddRef(f.0 ^ 1)
    }

    /// Budget-checked [`Bdd::not`] (infallible: negation allocates
    /// nothing).
    pub fn try_not(&mut self, f: BddRef) -> Result<BddRef, Exhausted> {
        Ok(BddRef(f.0 ^ 1))
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_xor(f, g))
    }

    /// Budget-checked [`Bdd::xor`].
    pub fn try_xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, g.0 ^ 1, g.0)?))
    }

    /// Exclusive nor (equivalence).
    pub fn xnor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_xnor(f, g))
    }

    /// Budget-checked [`Bdd::xnor`].
    pub fn try_xnor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        let x = self.try_xor(f, g)?;
        self.try_not(x)
    }

    /// Material implication `f ⇒ g`.
    pub fn implies(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_implies(f, g))
    }

    /// Budget-checked [`Bdd::implies`].
    pub fn try_implies(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, g.0, ONE)?))
    }

    /// Difference `f ∧ ¬g`.
    pub fn diff(&mut self, f: BddRef, g: BddRef) -> BddRef {
        Self::infallible(self.try_diff(f, g))
    }

    /// Budget-checked [`Bdd::diff`].
    pub fn try_diff(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, Exhausted> {
        self.ite_cache_maybe_grow();
        Ok(BddRef(self.ite_rec(f.0, g.0 ^ 1, ZERO)?))
    }

    /// Conjunction over an iterator (balanced fold to keep intermediate
    /// BDDs small).
    pub fn and_all<I: IntoIterator<Item = BddRef>>(&mut self, items: I) -> BddRef {
        Self::infallible(self.try_and_all(items))
    }

    /// Budget-checked [`Bdd::and_all`].
    pub fn try_and_all<I: IntoIterator<Item = BddRef>>(
        &mut self,
        items: I,
    ) -> Result<BddRef, Exhausted> {
        let mut v: Vec<BddRef> = items.into_iter().collect();
        if v.is_empty() {
            return Ok(self.one());
        }
        while v.len() > 1 {
            let mut next = Vec::with_capacity(v.len().div_ceil(2));
            for pair in v.chunks(2) {
                next.push(if pair.len() == 2 { self.try_and(pair[0], pair[1])? } else { pair[0] });
            }
            v = next;
        }
        Ok(v[0])
    }

    /// Disjunction over an iterator (balanced fold).
    pub fn or_all<I: IntoIterator<Item = BddRef>>(&mut self, items: I) -> BddRef {
        Self::infallible(self.try_or_all(items))
    }

    /// Budget-checked [`Bdd::or_all`].
    pub fn try_or_all<I: IntoIterator<Item = BddRef>>(
        &mut self,
        items: I,
    ) -> Result<BddRef, Exhausted> {
        let mut v: Vec<BddRef> = items.into_iter().collect();
        if v.is_empty() {
            return Ok(self.zero());
        }
        while v.len() > 1 {
            let mut next = Vec::with_capacity(v.len().div_ceil(2));
            for pair in v.chunks(2) {
                next.push(if pair.len() == 2 { self.try_or(pair[0], pair[1])? } else { pair[0] });
            }
            v = next;
        }
        Ok(v[0])
    }

    /// Whether `f ⊆ g` as sets of satisfying assignments.
    pub fn is_subset(&mut self, f: BddRef, g: BddRef) -> bool {
        Self::infallible(self.try_is_subset(f, g))
    }

    /// Budget-checked [`Bdd::is_subset`].
    pub fn try_is_subset(&mut self, f: BddRef, g: BddRef) -> Result<bool, Exhausted> {
        Ok(self.try_diff(f, g)? == self.zero())
    }

    /// Evaluates the function on an explicit assignment (`assignment[i]` =
    /// value of variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the deepest variable
    /// consulted.
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        let mut e = f.0;
        loop {
            let i = (e >> 1) as usize;
            if i == 0 {
                return e == ONE;
            }
            let next = if assignment[self.vars[i] as usize] { self.his[i] } else { self.los[i] };
            e = next ^ (e & 1);
        }
    }

    /// Number of satisfying assignments over the full `num_vars` space.
    ///
    /// Exact up to `f64` precision; valid for up to ~1000 variables
    /// (2¹⁰⁰⁰ < `f64::MAX`).
    pub fn sat_count(&self, f: BddRef) -> f64 {
        self.sat_fraction(f) * (self.num_vars as f64).exp2()
    }

    /// Satisfying-assignment *fraction* of the full space — numerically
    /// robust beyond 1000 variables.
    ///
    /// With complement edges this is the natural recursion: the
    /// fraction of a node is the mean of its children's fractions, and
    /// a complemented edge contributes `1 − p`. All intermediate values
    /// are dyadic, so counts stay exact as long as they fit a `f64`.
    pub fn sat_fraction(&self, f: BddRef) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.fraction_rec(f.0, &mut memo)
    }

    /// The satisfying fraction of edge `e`; `memo` caches per node
    /// index (the uncomplemented edge's fraction).
    fn fraction_rec(&self, e: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        let i = e >> 1;
        let p = if i == 0 {
            1.0
        } else if let Some(&p) = memo.get(&i) {
            p
        } else {
            let n = i as usize;
            let p = 0.5 * (self.fraction_rec(self.los[n], memo) + self.fraction_rec(self.his[n], memo));
            memo.insert(i, p);
            p
        };
        if e & 1 == 1 {
            1.0 - p
        } else {
            p
        }
    }

    /// One satisfying assignment, or `None` for the zero function. Free
    /// variables are returned as `false`.
    pub fn pick_sat(&self, f: BddRef) -> Option<Vec<bool>> {
        if f.0 == ZERO {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut e = f.0;
        while e >> 1 != 0 {
            let i = (e >> 1) as usize;
            let c = e & 1;
            let lo = self.los[i] ^ c;
            if lo != ZERO {
                e = lo;
            } else {
                assignment[self.vars[i] as usize] = true;
                e = self.his[i] ^ c;
            }
        }
        debug_assert_eq!(e, ONE, "a non-zero function must reach ⊤");
        Some(assignment)
    }

    /// Samples a satisfying assignment approximately uniformly.
    ///
    /// `unit_random` must return values in `[0, 1)`; each call consumes
    /// a few of them. Returns `None` for the zero function. Sampling is
    /// weighted by exact satisfy-fractions, so it is uniform up to `f64`
    /// rounding.
    ///
    /// # Examples
    ///
    /// ```
    /// use tm_logic::bdd::Bdd;
    ///
    /// let mut b = Bdd::new(4);
    /// let x0 = b.var(0);
    /// let x3 = b.var(3);
    /// let f = b.and(x0, x3);
    /// let mut state = 0.7_f64;
    /// let sample = b
    ///     .sample_sat(f, || {
    ///         state = (state * 9301.0 + 49297.0) % 233280.0 / 233280.0;
    ///         state
    ///     })
    ///     .expect("satisfiable");
    /// assert!(b.eval(f, &sample));
    /// ```
    pub fn sample_sat(&self, f: BddRef, mut unit_random: impl FnMut() -> f64) -> Option<Vec<bool>> {
        if f.0 == ZERO {
            return None;
        }
        let mut memo: HashMap<u32, f64> = HashMap::new();
        let mut assignment = vec![false; self.num_vars as usize];
        // Free variables above the root.
        let mut next_var = 0u32;
        let mut e = f.0;
        loop {
            let i = (e >> 1) as usize;
            let node_var = if i == 0 { self.num_vars } else { self.vars[i] };
            while next_var < node_var {
                assignment[next_var as usize] = unit_random() < 0.5;
                next_var += 1;
            }
            if i == 0 {
                break;
            }
            let c = e & 1;
            let lo = self.los[i] ^ c;
            let hi = self.his[i] ^ c;
            let lo_weight = self.fraction_rec(lo, &mut memo);
            let hi_weight = self.fraction_rec(hi, &mut memo);
            let take_hi = unit_random() * (lo_weight + hi_weight) >= lo_weight;
            assignment[node_var as usize] = take_hi;
            e = if take_hi { hi } else { lo };
            next_var = node_var + 1;
        }
        Some(assignment)
    }

    /// Restricts variable `var` to a constant.
    pub fn restrict(&mut self, f: BddRef, var: usize, value: bool) -> BddRef {
        Self::infallible(self.try_restrict(f, var, value))
    }

    /// Budget-checked [`Bdd::restrict`].
    pub fn try_restrict(
        &mut self,
        f: BddRef,
        var: usize,
        value: bool,
    ) -> Result<BddRef, Exhausted> {
        let lit = self.try_literal(var, value)?;
        // restrict(f, v=c) = ∃v. (f ∧ (v=c))
        let g = self.try_and(f, lit)?;
        self.try_exists(g, &[var])
    }

    /// Existential quantification over a set of variables.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 distinct variables are quantified at once or
    /// any index is out of range.
    pub fn exists(&mut self, f: BddRef, vars: &[usize]) -> BddRef {
        Self::infallible(self.try_exists(f, vars))
    }

    /// Budget-checked [`Bdd::exists`].
    pub fn try_exists(&mut self, f: BddRef, vars: &[usize]) -> Result<BddRef, Exhausted> {
        assert!(vars.len() <= 64, "quantify at most 64 variables per call");
        for &v in vars {
            assert!((v as u32) < self.num_vars, "variable {v} out of range");
        }
        let mut sorted: Vec<u32> = vars.iter().map(|&v| v as u32).collect();
        sorted.sort_unstable();
        sorted.dedup();
        self.ite_cache_maybe_grow();
        // Invalidate the quantifier cache wholesale: its keys are only
        // meaningful relative to one sorted variable set.
        self.quant_gen = self.quant_gen.wrapping_add(1);
        Ok(BddRef(self.exists_rec(f.0, &sorted, 0)?))
    }

    /// Quantifier recursion. `from` indexes into the sorted `vars`
    /// suffix still to be quantified — because variables are visited in
    /// order, the remaining set is always a suffix, so the cache key is
    /// the packed `(edge, suffix start)` pair.
    fn exists_rec(&mut self, e: u32, vars: &[u32], mut from: usize) -> Result<u32, Exhausted> {
        if e >> 1 == 0 {
            return Ok(e);
        }
        let i = (e >> 1) as usize;
        let var = self.vars[i];
        // Quantified variables above the root are vacuous.
        while from < vars.len() && vars[from] < var {
            from += 1;
        }
        if from == vars.len() {
            return Ok(e);
        }
        debug_assert!(from < 1 << 32, "suffix index fits the packed key");
        let key = (e as u64) | ((from as u64) << 32);
        let slot = fnv_mix(key, 0x9E) as usize & (self.quant_cache.len() - 1);
        let q = self.quant_cache[slot];
        if q.key == key && q.gen == self.quant_gen {
            self.stats.quant_cache_hits += 1;
            return Ok(q.r);
        }
        self.charge_step()?;
        self.stats.quant_cache_misses += 1;
        let c = e & 1;
        let lo = self.los[i] ^ c;
        let hi = self.his[i] ^ c;
        let r = if vars[from] == var {
            let l = self.exists_rec(lo, vars, from + 1)?;
            let h = self.exists_rec(hi, vars, from + 1)?;
            self.ite_rec(l, ONE, h)?
        } else {
            let l = self.exists_rec(lo, vars, from)?;
            let h = self.exists_rec(hi, vars, from)?;
            self.mk(var, l, h)?
        };
        self.quant_cache[slot] = QuantEntry { key, gen: self.quant_gen, r };
        Ok(r)
    }

    /// The support of `f`: variables it structurally depends on.
    pub fn support(&self, f: BddRef) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.0 >> 1];
        while let Some(i) = stack.pop() {
            if i == 0 || !seen.insert(i) {
                continue;
            }
            let n = i as usize;
            vars.insert(self.vars[n] as usize);
            stack.push(self.los[n] >> 1);
            stack.push(self.his[n] >> 1);
        }
        vars.into_iter().collect()
    }

    /// Number of BDD nodes reachable from `f` (its size): the count of
    /// distinct non-constant subfunctions, i.e. the node count of the
    /// function's plain (complement-free) reduced graph.
    pub fn size(&self, f: BddRef) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.0];
        let mut count = 0;
        while let Some(e) = stack.pop() {
            if e >> 1 == 0 || !seen.insert(e) {
                continue;
            }
            count += 1;
            let i = (e >> 1) as usize;
            let c = e & 1;
            stack.push(self.los[i] ^ c);
            stack.push(self.his[i] ^ c);
        }
        count
    }

    /// Builds the BDD of a cube over manager variables given `(var,
    /// polarity)` literals.
    pub fn cube(&mut self, literals: &[(usize, bool)]) -> BddRef {
        Self::infallible(self.try_cube(literals))
    }

    /// Budget-checked [`Bdd::cube`].
    pub fn try_cube(&mut self, literals: &[(usize, bool)]) -> Result<BddRef, Exhausted> {
        let mut lits = Vec::with_capacity(literals.len());
        for &(v, p) in literals {
            lits.push(self.try_literal(v, p)?);
        }
        self.try_and_all(lits)
    }

    /// Clears the operation caches (the unique table is preserved, so all
    /// existing [`BddRef`]s stay valid). Useful between independent
    /// workloads to bound memory.
    pub fn clear_op_caches(&mut self) {
        self.stats.op_cache_clears += 1;
        self.ite_cache.fill(ITE_EMPTY);
        self.quant_gen = self.quant_gen.wrapping_add(1);
    }

    /// This manager's lifetime operation counts.
    pub fn stats(&self) -> BddStats {
        self.stats
    }

    /// Occupancy of the unique table (reduced, non-terminal nodes).
    pub fn unique_entries(&self) -> usize {
        self.u_len
    }

    /// Slot capacity of the unique table — the store's deterministic
    /// high-water metric (`bdd.store.capacity`).
    pub fn unique_capacity(&self) -> usize {
        self.u_slots.len()
    }

    /// Checks the structural invariants of the node store and unique
    /// table; returns a description of the first violation. Intended
    /// for tests and debugging — cost is linear in the store.
    ///
    /// Invariants: the low edge of every stored node is uncomplemented
    /// (canonical polarity), no node is redundant (`lo == hi`) or
    /// duplicated, variable order is strict along both edges, children
    /// precede parents, and every node is findable in the unique table.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for i in 1..self.vars.len() {
            let (v, lo, hi) = (self.vars[i], self.los[i], self.his[i]);
            if lo & 1 != 0 {
                return Err(format!("node {i}: complemented low edge"));
            }
            if v >= self.num_vars {
                return Err(format!("node {i}: variable {v} out of range"));
            }
            if lo == hi {
                return Err(format!("node {i}: redundant (lo == hi)"));
            }
            for (label, child) in [("lo", lo), ("hi", hi)] {
                let ci = (child >> 1) as usize;
                if ci >= i {
                    return Err(format!("node {i}: {label} child {ci} does not precede it"));
                }
                if ci != 0 && self.vars[ci] <= v {
                    return Err(format!("node {i}: {label} child violates variable order"));
                }
            }
            if !seen.insert((v, lo, hi)) {
                return Err(format!("node {i}: duplicate (var, lo, hi) triple"));
            }
            if self.unique_find(hash_node(v, lo, hi), v, lo, hi) != Some(i as u32) {
                return Err(format!("node {i}: not findable in the unique table"));
            }
        }
        Ok(())
    }

    /// Publishes this manager's counts to `tm-telemetry` under the
    /// `bdd.*` names: counters get the delta since the previous
    /// publish (safe to call repeatedly from nested instrumentation),
    /// gauges get the current node and unique-table occupancy.
    pub fn publish_metrics(&mut self) {
        // Coarse flight-recorder checkpoint: one instant event per
        // publish carrying the manager's size, so request traces show
        // BDD growth without per-operation overhead. Gated separately
        // from the metrics below — the serving daemon records flight
        // events even when thread-local metrics are off.
        if tm_telemetry::flight::recording() {
            tm_telemetry::flight::instant(
                "bdd.publish",
                &[
                    ("nodes", self.vars.len() as f64),
                    ("cache_hits", self.stats.ite_cache_hits as f64),
                    ("cache_misses", self.stats.ite_cache_misses as f64),
                ],
            );
        }
        if !tm_telemetry::enabled() {
            return;
        }
        let s = self.stats;
        let p = self.published;
        self.published = s;
        tm_telemetry::counter_add("bdd.unique.hits", s.unique_hits - p.unique_hits);
        tm_telemetry::counter_add("bdd.unique.misses", s.unique_misses - p.unique_misses);
        tm_telemetry::counter_add("bdd.unique.rehashes", s.unique_rehashes - p.unique_rehashes);
        tm_telemetry::counter_add("bdd.cache.hits", s.ite_cache_hits - p.ite_cache_hits);
        tm_telemetry::counter_add("bdd.cache.misses", s.ite_cache_misses - p.ite_cache_misses);
        tm_telemetry::counter_add(
            "bdd.cache.evictions",
            s.ite_cache_evictions - p.ite_cache_evictions,
        );
        tm_telemetry::counter_add("bdd.cache.clears", s.op_cache_clears - p.op_cache_clears);
        tm_telemetry::counter_add("bdd.quant.hits", s.quant_cache_hits - p.quant_cache_hits);
        tm_telemetry::counter_add("bdd.quant.misses", s.quant_cache_misses - p.quant_cache_misses);
        tm_telemetry::counter_add("bdd.gc.runs", s.gc_runs - p.gc_runs);
        tm_telemetry::counter_add("bdd.gc.reclaimed", s.gc_reclaimed - p.gc_reclaimed);
        tm_telemetry::gauge_set("bdd.nodes", self.vars.len() as f64);
        tm_telemetry::gauge_set("bdd.unique.entries", self.unique_entries() as f64);
        tm_telemetry::gauge_set("bdd.store.live", self.vars.len() as f64);
        tm_telemetry::gauge_set("bdd.store.capacity", self.u_slots.len() as f64);
    }

    /// Exports `f` as a manager-independent [`PortableBdd`].
    ///
    /// The node list is in deterministic *structural* order: a
    /// depth-first walk from the root that finishes the `lo` subgraph
    /// before the `hi` subgraph and emits each node once, children
    /// first. Complement edges are resolved during the walk — each
    /// reachable `(node, parity)` pair is one distinct subfunction and
    /// exports as one plain entry — so the encoding depends only on the
    /// function's reduced graph, never on this manager's node indices,
    /// allocation history, or complement-edge placement. Two managers
    /// holding equal functions export byte-identical `PortableBdd`s.
    /// That is the property the warm-vs-cold and cross-manager
    /// determinism suites compare on: importing the same exports in the
    /// same order replays the same `mk` sequence in the target manager
    /// regardless of which manager produced them.
    pub fn export(&self, f: BddRef) -> PortableBdd {
        let mut ids: HashMap<u32, u32> = HashMap::new();
        ids.insert(ZERO, 0);
        ids.insert(ONE, 1);
        let mut entries: Vec<(u32, u32, u32)> = Vec::new();
        let mut stack = vec![(f.0, false)];
        while let Some((e, expanded)) = stack.pop() {
            if ids.contains_key(&e) {
                continue;
            }
            let i = (e >> 1) as usize;
            let c = e & 1;
            let lo = self.los[i] ^ c;
            let hi = self.his[i] ^ c;
            if expanded {
                entries.push((self.vars[i], ids[&lo], ids[&hi]));
                ids.insert(e, entries.len() as u32 + 1);
            } else {
                stack.push((e, true));
                stack.push((hi, false));
                stack.push((lo, false)); // popped first: lo finishes first
            }
        }
        PortableBdd { num_vars: self.num_vars, entries, root: ids[&f.0] }
    }

    /// Rebuilds an exported function in this manager.
    ///
    /// # Panics
    ///
    /// Panics if the export came from a manager with a different
    /// variable count, or (like every plain operation) if a finite
    /// budget runs out — budgeted callers use [`Bdd::try_import`].
    pub fn import(&mut self, portable: &PortableBdd) -> BddRef {
        Self::infallible(self.try_import(portable))
    }

    /// Budget-checked [`Bdd::import`]: every node materialized in this
    /// manager goes through the same budgeted `mk` as native
    /// operations, so an import cannot overrun an installed [`Budget`].
    pub fn try_import(&mut self, portable: &PortableBdd) -> Result<BddRef, Exhausted> {
        assert_eq!(
            portable.num_vars, self.num_vars,
            "import requires matching variable spaces"
        );
        let mut ids: Vec<u32> = Vec::with_capacity(portable.entries.len() + 2);
        ids.push(ZERO);
        ids.push(ONE);
        for &(var, lo, hi) in &portable.entries {
            let edge = self.mk(var, ids[lo as usize], ids[hi as usize])?;
            ids.push(edge);
        }
        Ok(BddRef(ids[portable.root as usize]))
    }

    /// Mark-and-sweep garbage collection rooted at `roots`: compacts
    /// the node store (order-preserving, so children still precede
    /// parents), rebuilds the unique table over the survivors, and
    /// clears the operation caches (their entries name dead indices).
    ///
    /// Every [`BddRef`] not reachable from `roots` is invalidated; the
    /// returned [`BddRemap`] translates the surviving ones. Reclaimed
    /// nodes are refunded to the installed [`Budget`] implicitly:
    /// `max_bdd_nodes` is checked against the live store size, which
    /// just shrank.
    pub fn gc(&mut self, roots: &[BddRef]) -> BddRemap {
        let n = self.vars.len();
        let mut marked = vec![false; n];
        marked[0] = true;
        let mut stack: Vec<u32> = roots.iter().map(|r| r.0 >> 1).collect();
        while let Some(i) = stack.pop() {
            let i = i as usize;
            if marked[i] {
                continue;
            }
            marked[i] = true;
            stack.push(self.los[i] >> 1);
            stack.push(self.his[i] >> 1);
        }
        let live = marked.iter().filter(|&&m| m).count();
        self.stats.gc_runs += 1;
        if live == n {
            return BddRemap { kind: RemapKind::Identity };
        }
        self.stats.gc_reclaimed += (n - live) as u64;
        // New index = rank among the marked: map[i] <= i, so the
        // in-place forward copy below never clobbers an unread slot.
        let mut map = vec![REMAP_DEAD; n];
        let mut next = 0u32;
        for (i, m) in marked.iter().enumerate() {
            if *m {
                map[i] = next;
                next += 1;
            }
        }
        for i in 0..n {
            if !marked[i] {
                continue;
            }
            let ni = map[i] as usize;
            self.vars[ni] = self.vars[i];
            self.los[ni] = (map[(self.los[i] >> 1) as usize] << 1) | (self.los[i] & 1);
            self.his[ni] = (map[(self.his[i] >> 1) as usize] << 1) | (self.his[i] & 1);
        }
        self.vars.truncate(live);
        self.los.truncate(live);
        self.his.truncate(live);
        self.rebuild_unique_table();
        self.ite_cache.fill(ITE_EMPTY);
        self.quant_gen = self.quant_gen.wrapping_add(1);
        BddRemap { kind: RemapKind::Index(map) }
    }

    /// Rebuilds the unique table from scratch over the current store
    /// (after a GC): capacity re-sized to keep load below
    /// 3/4, any in-flight incremental rehash dropped.
    fn rebuild_unique_table(&mut self) {
        let live = self.vars.len() - 1;
        let mut cap = UNIQUE_INITIAL_CAP;
        while live * 4 >= cap * 3 {
            cap *= 2;
        }
        self.u_slots = vec![UNIQUE_EMPTY; cap];
        self.u_old = Vec::new();
        self.u_cursor = 0;
        self.u_len = live;
        for i in 1..self.vars.len() {
            let h = hash_node(self.vars[i], self.los[i], self.his[i]);
            Self::slot_insert(&mut self.u_slots, h, i as u32);
        }
    }

}

/// Dead-node sentinel in a [`BddRemap`] index table.
const REMAP_DEAD: u32 = u32::MAX;

/// A handle translation returned by [`Bdd::gc`].
///
/// After a GC, every pre-collection [`BddRef`] must be either remapped
/// through this table or dropped.
#[derive(Clone, Debug)]
pub struct BddRemap {
    kind: RemapKind,
}

#[derive(Clone, Debug)]
enum RemapKind {
    /// Nothing moved (a GC that found no garbage).
    Identity,
    /// Old node index → new node index (GC compaction), [`REMAP_DEAD`]
    /// for reclaimed nodes.
    Index(Vec<u32>),
}

impl BddRemap {
    /// Translates a pre-collection handle. `None` means the function
    /// was not live — the caller must drop it.
    pub fn remap(&self, r: BddRef) -> Option<BddRef> {
        match &self.kind {
            RemapKind::Identity => Some(r),
            RemapKind::Index(map) => {
                let new = *map.get((r.0 >> 1) as usize)?;
                if new == REMAP_DEAD {
                    None
                } else {
                    Some(BddRef((new << 1) | (r.0 & 1)))
                }
            }
        }
    }
}

/// A manager-independent encoding of one BDD function, produced by
/// [`Bdd::export`] and consumed by [`Bdd::import`].
///
/// Entry `i` holds `(var, lo, hi)` where `lo`/`hi` are `0` (false),
/// `1` (true), or `j + 2` referring to entry `j < i` — children always
/// precede parents. The encoding is the function's *plain*
/// (complement-free) reduced graph, so it is independent of the
/// exporting manager's complement-edge placement. Equal functions
/// export equal values (see [`Bdd::export`] for the ordering
/// guarantee), which makes this the unit of cross-manager BDD
/// comparison and transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableBdd {
    num_vars: u32,
    entries: Vec<(u32, u32, u32)>,
    root: u32,
}

impl PortableBdd {
    /// Variable-space size of the exporting manager.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Number of internal nodes in the encoding (the function's size).
    pub fn node_count(&self) -> usize {
        self.entries.len()
    }

    /// The `(var, lo, hi)` entries, children before parents (see the
    /// type docs for the reference encoding).
    pub fn entries(&self) -> &[(u32, u32, u32)] {
        &self.entries
    }

    /// The root reference: `0` (false), `1` (true), or entry `root - 2`.
    pub fn root(&self) -> u32 {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut b = Bdd::new(4);
        assert_ne!(b.zero(), b.one());
        let x = b.var(2);
        assert_eq!(b.sat_count(x), 8.0);
        let nx = b.not(x);
        assert_eq!(b.sat_count(nx), 8.0);
        let both = b.and(x, nx);
        assert_eq!(both, b.zero());
        let either = b.or(x, nx);
        assert_eq!(either, b.one());
    }

    #[test]
    fn negation_is_free_and_involutive() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        let nodes = b.node_count();
        let steps = b.steps_taken();
        let nf = b.not(f);
        assert_eq!(b.node_count(), nodes, "complement edges: negation allocates nothing");
        assert_eq!(b.steps_taken(), steps, "negation takes no recursion steps");
        assert_ne!(nf, f);
        let back = b.not(nf);
        assert_eq!(back, f);
        assert_eq!(b.not(b.one()), b.zero());
    }

    #[test]
    fn canonicity_detects_equivalence() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        // x ∨ (x ∧ y) == x (absorption)
        let xy = b.and(x, y);
        let f = b.or(x, xy);
        assert_eq!(f, x);
        // De Morgan
        let nx = b.not(x);
        let ny = b.not(y);
        let and_xy = b.and(x, y);
        let lhs = b.not(and_xy);
        let rhs = b.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn sat_count_various() {
        let mut b = Bdd::new(10);
        let x0 = b.var(0);
        let x9 = b.var(9);
        let f = b.and(x0, x9);
        assert_eq!(b.sat_count(f), 256.0);
        let g = b.or(x0, x9);
        assert_eq!(b.sat_count(g), 768.0);
        let h = b.xor(x0, x9);
        assert_eq!(b.sat_count(h), 512.0);
        assert_eq!(b.sat_count(b.zero()), 0.0);
        assert_eq!(b.sat_count(b.one()), 1024.0);
        assert!((b.sat_fraction(h) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sat_count_wide_space() {
        // Hundreds of variables: counts stay finite in f64.
        let mut b = Bdd::new(900);
        let x = b.var(0);
        let count = b.sat_count(x);
        assert!(count.is_finite());
        assert_eq!(count, (899f64).exp2());
    }

    #[test]
    fn eval_walks_the_graph() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let x2 = b.var(2);
        let t = b.and(x0, x1);
        let f = b.or(t, x2);
        for m in 0..8u64 {
            let a: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let expect = (a[0] && a[1]) || a[2];
            assert_eq!(b.eval(f, &a), expect, "m={m}");
        }
    }

    #[test]
    fn pick_sat_finds_model() {
        let mut b = Bdd::new(4);
        let x1 = b.var(1);
        let nx3 = b.nvar(3);
        let f = b.and(x1, nx3);
        let m = b.pick_sat(f).expect("satisfiable");
        assert!(b.eval(f, &m));
        assert!(b.pick_sat(b.zero()).is_none());
        assert!(b.pick_sat(b.one()).is_some());
    }

    #[test]
    fn restrict_and_exists() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let f = b.xor(x0, x1);
        let r1 = b.restrict(f, 0, true);
        let nx1 = b.not(x1);
        assert_eq!(r1, nx1);
        let e = b.exists(f, &[0]);
        assert_eq!(e, b.one());
        let g = b.and(x0, x1);
        let eg = b.exists(g, &[0]);
        assert_eq!(eg, x1);
        let eg2 = b.exists(g, &[0, 1]);
        assert_eq!(eg2, b.one());
    }

    #[test]
    fn support_and_size() {
        let mut b = Bdd::new(5);
        let x1 = b.var(1);
        let x4 = b.var(4);
        let f = b.xor(x1, x4);
        assert_eq!(b.support(f), vec![1, 4]);
        assert_eq!(b.size(f), 3); // xor of 2 vars: 3 distinct subfunctions
        assert_eq!(b.support(b.one()), Vec::<usize>::new());
    }

    #[test]
    fn cube_builder() {
        let mut b = Bdd::new(4);
        let c = b.cube(&[(0, true), (3, false)]);
        assert_eq!(b.sat_count(c), 4.0);
        assert!(b.eval(c, &[true, false, false, false]));
        assert!(!b.eval(c, &[true, false, false, true]));
        assert_eq!(b.cube(&[]), b.one());
    }

    #[test]
    fn subset_relation() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let f = b.and(x0, x1);
        assert!(b.is_subset(f, x0));
        assert!(!b.is_subset(x0, f));
        let z = b.zero();
        assert!(b.is_subset(z, f));
    }

    #[test]
    fn implies_and_diff() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let imp = b.implies(x, y);
        // x ⇒ y false only on x=1,y=0
        assert_eq!(b.sat_count(imp), 3.0);
        let d = b.diff(x, y);
        assert_eq!(b.sat_count(d), 1.0);
    }

    #[test]
    fn balanced_folds() {
        let mut b = Bdd::new(8);
        let lits: Vec<BddRef> = (0..8).map(|i| b.var(i)).collect();
        let all = b.and_all(lits.clone());
        assert_eq!(b.sat_count(all), 1.0);
        let any = b.or_all(lits);
        assert_eq!(b.sat_count(any), 255.0);
        assert_eq!(b.and_all(Vec::new()), b.one());
        assert_eq!(b.or_all(Vec::new()), b.zero());
    }

    #[test]
    fn xnor_is_negated_xor() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let y = b.var(1);
        let a = b.xnor(x, y);
        let x2 = b.xor(x, y);
        let n = b.not(x2);
        assert_eq!(a, n);
    }

    #[test]
    fn invariants_hold_after_mixed_workload() {
        let mut b = Bdd::new(10);
        let lits: Vec<BddRef> = (0..10).map(|i| b.literal(i, i % 2 == 0)).collect();
        let mut f = b.zero();
        for w in lits.windows(3) {
            let t = b.and(w[0], w[1]);
            let u = b.xor(t, w[2]);
            f = b.or(f, u);
        }
        let _ = b.exists(f, &[0, 3, 7]);
        let _ = b.restrict(f, 5, true);
        b.check_invariants().expect("canonical store");
    }

    #[test]
    fn unique_table_grows_through_incremental_rehash() {
        // Allocate well past several growth thresholds and verify every
        // node stays findable (lookups probe both tables mid-rehash).
        let build = |b: &mut Bdd| {
            let mut acc = b.zero();
            for m in 0..400u64 {
                let bits = m.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let lits: Vec<(usize, bool)> =
                    (0..16).map(|v| (v, (bits >> v) & 1 == 1)).collect();
                let c = b.cube(&lits);
                acc = b.xor(acc, c);
            }
            acc
        };
        let mut b = Bdd::new(16);
        let f = build(&mut b);
        let nodes = b.node_count();
        let g = build(&mut b);
        assert_eq!(f, g, "rebuilt function must hit the unique table, not reallocate");
        assert_eq!(b.node_count(), nodes, "second build allocates nothing");
        assert!(b.stats().unique_rehashes >= 1, "the workload must outgrow the initial table");
        b.check_invariants().expect("canonical store after rehashes");
    }

    #[test]
    fn lossy_cache_changes_stats_never_results() {
        // A 2-entry ITE cache thrashes constantly; results must match a
        // default manager's exactly (compared via structural exports).
        let mut tiny = Bdd::with_cache_capacity(12, 2);
        let mut full = Bdd::new(12);
        let build = |b: &mut Bdd| {
            let lits: Vec<BddRef> = (0..12).map(|i| b.var(i)).collect();
            let mut acc = b.zero();
            for w in lits.windows(4) {
                let t = b.and(w[0], w[1]);
                let u = b.xor(w[2], w[3]);
                let v = b.or(t, u);
                acc = b.xor(acc, v);
            }
            acc
        };
        let f_tiny = build(&mut tiny);
        let f_full = build(&mut full);
        assert_eq!(tiny.export(f_tiny), full.export(f_full));
        assert!(
            tiny.stats().ite_cache_evictions > full.stats().ite_cache_evictions,
            "the 2-entry cache must evict far more: {:?} vs {:?}",
            tiny.stats(),
            full.stats()
        );
        tiny.check_invariants().expect("evictions never corrupt the store");
    }

    #[test]
    fn stats_count_cache_traffic_and_publish_deltas() {
        let _scope = tm_telemetry::Scope::enter();
        let mut b = Bdd::new(6);
        let x0 = b.var(0);
        let x1 = b.var(1);
        let f = b.and(x0, x1);
        let _g = b.and(x0, x1); // identical op: pure cache hits
        let _h = b.or(f, x0);
        let s = b.stats();
        assert!(s.ite_cache_hits >= 1, "repeated op must hit the cache: {s:?}");
        assert!(s.unique_misses >= 3, "x0, x1, and f each allocate: {s:?}");
        assert_eq!(s.unique_misses as usize + 1, b.node_count(), "misses + terminal = nodes");

        b.publish_metrics();
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("bdd.cache.hits"), Some(s.ite_cache_hits));
        assert_eq!(snap.gauge("bdd.nodes"), Some(b.node_count() as f64));

        // A second publish with no new work must add nothing.
        b.publish_metrics();
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("bdd.cache.hits"), Some(s.ite_cache_hits));
    }

    #[test]
    fn node_budget_trips_with_typed_error() {
        use tm_resilience::Resource;
        let mut b = Bdd::new(16);
        b.set_budget(Budget::unlimited().with_max_bdd_nodes(6));
        let mut f = b.one();
        let mut err = None;
        for i in 0..16 {
            let x = match b.try_var(i) {
                Ok(x) => x,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            };
            match b.try_and(f, x) {
                Ok(g) => f = g,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let e = err.expect("a 6-node cap cannot fit a 16-literal cube");
        assert_eq!(e.resource, Resource::BddNodes);
        assert_eq!(e.limit, 6);
        assert!(b.node_count() as u64 <= 6, "cap holds: {} nodes", b.node_count());
    }

    #[test]
    fn step_budget_trips_and_clearing_recovers() {
        let mut b = Bdd::new(10);
        let lits: Vec<BddRef> = (0..10).map(|i| b.var(i)).collect();
        b.set_budget(Budget::unlimited().with_max_steps(3));
        let r = b.try_or_all(lits.clone());
        assert!(r.is_err(), "3 steps cannot disjoin 10 fresh literals");
        assert!(b.steps_taken() >= 3);
        b.clear_budget();
        assert!(b.budget().is_unlimited());
        let f = b.try_or_all(lits).expect("unlimited again");
        assert_eq!(b.sat_count(f), 1023.0);
    }

    #[test]
    fn step_budget_charges_steps_since_installation() {
        let mut b = Bdd::new(10);
        let lits: Vec<BddRef> = (0..10).map(|i| b.var(i)).collect();
        let f = b.or_all(lits[..5].to_vec());
        let before = b.steps_taken();
        assert!(before > 0, "vacuous fixture: no steps before the budget");
        // An allowance the earlier steps already exceed still admits
        // fresh work: only steps taken after `set_budget` count.
        b.set_budget(Budget::unlimited().with_max_steps(before));
        let g = b.try_or(f, lits[5]).expect("the earlier steps are not charged");
        assert!(b.steps_taken() > before, "the op took budgeted steps");
        assert_eq!(b.sat_count(g), 1024.0 - 2f64.powi(4));
    }

    #[test]
    fn unlimited_budget_try_ops_never_fail() {
        let mut b = Bdd::new(6);
        let x = b.try_var(0).unwrap();
        let y = b.try_nvar(5).unwrap();
        let f = b.try_xor(x, y).unwrap();
        let g = b.try_exists(f, &[0]).unwrap();
        assert_eq!(g, b.one());
        let c = b.try_cube(&[(1, true), (2, false)]).unwrap();
        assert!(b.try_is_subset(b.zero(), c).unwrap());
        // f = x0 ⊕ ¬x5, so pinning x5=0 leaves ¬x0.
        let r = b.try_restrict(f, 5, false).unwrap();
        let nx = b.try_not(x).unwrap();
        assert_eq!(r, nx);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut a = Bdd::new(5);
        let x0 = a.var(0);
        let x2 = a.var(2);
        let x4 = a.var(4);
        let t = a.xor(x0, x2);
        let f = a.or(t, x4);
        let p = a.export(f);
        assert_eq!(p.num_vars(), 5);
        assert_eq!(p.node_count(), a.size(f));

        let mut b = Bdd::new(5);
        let g = b.import(&p);
        for m in 0..32u64 {
            let asn: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(a.eval(f, &asn), b.eval(g, &asn), "m={m}");
        }
        // Terminals survive the trip too.
        assert_eq!(b.import(&a.export(a.one())), b.one());
        assert_eq!(b.import(&a.export(a.zero())), b.zero());
    }

    #[test]
    fn export_is_structural_not_historical() {
        // Build the same function with different operation orders (and
        // different junk allocated in between): the exports must be
        // byte-identical, because the encoding depends only on the
        // reduced graph.
        let mut a = Bdd::new(6);
        let f = {
            let x1 = a.var(1);
            let x3 = a.var(3);
            let x5 = a.var(5);
            let t = a.and(x1, x3);
            a.or(t, x5)
        };
        let mut b = Bdd::new(6);
        let g = {
            let x5 = b.var(5);
            let junk1 = b.var(0);
            let junk2 = b.var(2);
            let _ = b.xor(junk1, junk2);
            let x3 = b.var(3);
            let x1 = b.var(1);
            let t = b.or(x5, x3); // different intermediate
            let _ = t;
            let u = b.and(x3, x1);
            b.or(x5, u)
        };
        assert_eq!(a.export(f), b.export(g));
    }

    #[test]
    fn export_resolves_complement_parity() {
        // f and ¬f share every node in the store but export as distinct
        // plain graphs; both round-trip.
        let mut a = Bdd::new(4);
        let x0 = a.var(0);
        let x1 = a.var(1);
        let x3 = a.var(3);
        let t = a.xor(x0, x1);
        let f = a.or(t, x3);
        let nf = a.not(f);
        let (pf, pnf) = (a.export(f), a.export(nf));
        assert_ne!(pf, pnf);
        let mut b = Bdd::new(4);
        let (gf, gnf) = (b.import(&pf), b.import(&pnf));
        assert_eq!(b.not(gf), gnf);
        for m in 0..16u64 {
            let asn: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(a.eval(f, &asn), b.eval(gf, &asn), "m={m}");
        }
    }

    #[test]
    fn import_is_canonical_in_the_target() {
        let mut a = Bdd::new(4);
        let x0 = a.var(0);
        let x1 = a.var(1);
        let f = a.and(x0, x1);
        let p = a.export(f);
        let mut b = Bdd::new(4);
        let y0 = b.var(0);
        let y1 = b.var(1);
        let native = b.and(y0, y1);
        // The function already exists in b: import finds it, allocating
        // nothing new.
        let before = b.node_count();
        assert_eq!(b.import(&p), native);
        assert_eq!(b.node_count(), before);
    }

    #[test]
    fn import_respects_the_budget() {
        use tm_resilience::Resource;
        let mut a = Bdd::new(16);
        let lits: Vec<BddRef> = (0..16).map(|i| a.var(i)).collect();
        let f = a.and_all(lits);
        let p = a.export(f);
        let mut b = Bdd::new(16);
        b.set_budget(Budget::unlimited().with_max_bdd_nodes(6));
        let e = b.try_import(&p).expect_err("16-node cube cannot fit in 6 nodes");
        assert_eq!(e.resource, Resource::BddNodes);
        assert!(b.node_count() as u64 <= 6);
    }

    #[test]
    fn cache_clearing_preserves_refs() {
        let mut b = Bdd::new(3);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        b.clear_op_caches();
        let g = b.and(x, y);
        assert_eq!(f, g);
    }

    /// The classic order-sensitive function: OR of a_i ∧ b_i over k
    /// pairs is exponential under the blocked order a₀…a_{k-1} b₀…b_{k-1}
    /// and linear (3k nodes) interleaved.
    fn blocked_pairs(b: &mut Bdd, k: usize) -> BddRef {
        let mut terms = Vec::with_capacity(k);
        for i in 0..k {
            let a = b.var(i);
            let bi = b.var(k + i);
            terms.push(b.and(a, bi));
        }
        b.or_all(terms)
    }

    #[test]
    fn gc_reclaims_dead_nodes_and_remaps_roots() {
        let mut b = Bdd::new(12);
        let f = blocked_pairs(&mut b, 4);
        let pre = b.export(f);
        // Junk the manager never needs again.
        for m in 0..50u64 {
            let lits: Vec<(usize, bool)> =
                (0..12).map(|v| (v, (m >> v) & 1 == 1)).collect();
            let _ = b.cube(&lits);
        }
        let before = b.node_count();
        let remap = b.gc(&[f]);
        let f2 = remap.remap(f).expect("root survives its own GC");
        assert!(b.node_count() < before, "junk must be reclaimed");
        assert_eq!(b.export(f2), pre, "GC+compaction preserves the function");
        assert_eq!(b.unique_entries(), b.node_count() - 1);
        b.check_invariants().expect("canonical store after GC");
        let s = b.stats();
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.gc_reclaimed as usize, before - b.node_count());
        // The store still works: rebuilding the function finds the
        // surviving nodes in the rebuilt unique table and converges on
        // the exact same packed ref.
        let again = blocked_pairs(&mut b, 4);
        assert_eq!(again, f2, "survivors are findable after the table rebuild");
    }

    #[test]
    fn gc_remap_kills_dead_refs_and_tracks_complements() {
        let mut b = Bdd::new(8);
        let f = blocked_pairs(&mut b, 2);
        let x6 = b.var(6);
        let x7 = b.var(7);
        let dead = b.and(x6, x7);
        let remap = b.gc(&[f]);
        assert!(remap.remap(dead).is_none(), "unrooted function must be reclaimed");
        let nf = b.not(f);
        let f2 = remap.remap(f).unwrap();
        let nf2 = remap.remap(nf).unwrap();
        assert_eq!(b.not(f2), nf2, "complement pairs stay paired through a remap");
    }

    #[test]
    fn gc_refunds_reclaimed_nodes_to_the_budget() {
        let mut b = Bdd::new(12);
        b.set_budget(Budget::unlimited().with_max_bdd_nodes(200));
        let f = blocked_pairs(&mut b, 3);
        // Burn the budget with junk, then reclaim it.
        let mut junk = Vec::new();
        'outer: for m in 0..200u64 {
            let lits: Vec<(usize, bool)> = (0..12).map(|v| (v, (m >> v) & 1 == 1)).collect();
            match b.try_cube(&lits) {
                Ok(c) => junk.push(c),
                Err(_) => break 'outer,
            }
        }
        assert!(b.try_var(11).is_ok() || b.node_count() >= 199, "store is near the cap");
        let remap = b.gc(&[f]);
        let f2 = remap.remap(f).unwrap();
        // Post-GC the same budget admits fresh work again.
        let x = b.try_var(9).expect("reclaimed headroom re-admits allocation");
        let g = b.try_and(f2, x).expect("budget refund covers new nodes");
        assert_ne!(g, b.zero());
    }

    #[test]
    fn publishes_gc_and_store_metrics() {
        let _scope = tm_telemetry::Scope::enter();
        let mut b = Bdd::new(12);
        let f = blocked_pairs(&mut b, 4);
        let _junk = b.cube(&[(9, true), (10, false), (11, true)]);
        let _ = b.gc(&[f]);
        b.publish_metrics();
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("bdd.gc.runs"), Some(b.stats().gc_runs));
        assert_eq!(snap.counter("bdd.gc.reclaimed"), Some(b.stats().gc_reclaimed));
        assert_eq!(snap.gauge("bdd.store.live"), Some(b.node_count() as f64));
        assert_eq!(snap.gauge("bdd.store.capacity"), Some(b.unique_capacity() as f64));
    }
}
