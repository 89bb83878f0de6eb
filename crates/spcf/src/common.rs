//! Shared infrastructure for the SPCF engines: gate prime-implicant
//! caches, global net functions, and the result types.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tm_logic::bdd::{Bdd, BddRef};
use tm_logic::{qm, Cube, TruthTable};
use tm_netlist::netlist::Driver;
use tm_netlist::{CellId, Delay, GateId, NetId, Netlist};
use tm_resilience::Exhausted;

/// Which SPCF algorithm produced a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Static-marking node-based over-approximation (ref \[22\]).
    NodeBased,
    /// Exact path-based timed-waveform analysis (extension of \[22\], in
    /// the spirit of ADD-based timing analysis \[27\]).
    PathBased,
    /// The paper's proposed short-path-based exact recursion (Eqn. 1).
    ShortPath,
    /// Guard-everything over-approximation: the SPCF of every critical
    /// output is the full input space. Trivially sound (a superset of
    /// any exact SPCF), trivially cheap, maximally area-hungry — the
    /// last rung of the resilience degradation ladder (DESIGN.md §7).
    Conservative,
}

impl Algorithm {
    /// The next cheaper rung of the degradation ladder (DESIGN.md §7):
    /// the exact engines fall to the node-based over-approximation,
    /// which falls to guard-everything, the floor. Each rung computes a
    /// superset of the one above it, so stepping down stays sound.
    pub fn fallback(self) -> Option<Algorithm> {
        match self {
            Algorithm::ShortPath | Algorithm::PathBased => Some(Algorithm::NodeBased),
            Algorithm::NodeBased => Some(Algorithm::Conservative),
            Algorithm::Conservative => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::NodeBased => write!(f, "node-based"),
            Algorithm::PathBased => write!(f, "path-based"),
            Algorithm::ShortPath => write!(f, "short-path-based"),
            Algorithm::Conservative => write!(f, "conservative"),
        }
    }
}

/// The SPCF of one critical primary output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputSpcf {
    /// The critical primary output.
    pub output: NetId,
    /// Characteristic function of its speed-path activation patterns
    /// (over the primary-input space of the shared BDD manager).
    pub spcf: BddRef,
}

/// The SPCFs of every critical output of a circuit at one target time.
#[derive(Clone, Debug)]
pub struct SpcfSet {
    /// The algorithm that produced this set.
    pub algorithm: Algorithm,
    /// Target arrival time `Δ_y` the set was computed against.
    pub target: Delay,
    /// Per critical output: the SPCF (outputs with empty SPCFs under
    /// exact analysis are still listed if structurally critical).
    pub outputs: Vec<OutputSpcf>,
    /// Wall-clock time of the computation.
    pub runtime: Duration,
    /// `NetId::index` → position in `outputs`, so [`SpcfSet::spcf_of`]
    /// stays O(1) on wide circuits.
    index: HashMap<usize, usize>,
}

impl SpcfSet {
    /// Assembles a set and its output index.
    pub fn new(
        algorithm: Algorithm,
        target: Delay,
        outputs: Vec<OutputSpcf>,
        runtime: Duration,
    ) -> Self {
        let index =
            outputs.iter().enumerate().map(|(k, o)| (o.output.index(), k)).collect();
        SpcfSet { algorithm, target, outputs, runtime, index }
    }

    /// The SPCF of a specific output, if it is in the set.
    pub fn spcf_of(&self, output: NetId) -> Option<BddRef> {
        self.index.get(&output.index()).map(|&k| self.outputs[k].spcf)
    }

    /// Union of all per-output SPCFs: the patterns that sensitize *some*
    /// speed-path.
    ///
    /// **Cost warning**: the disjunction of many SPCFs with scattered
    /// variable supports can blow up under a fixed variable order; for
    /// reporting, prefer [`SpcfSet::critical_pattern_count`], which sums
    /// per-output counts instead.
    pub fn union(&self, bdd: &mut Bdd) -> BddRef {
        bdd.or_all(self.outputs.iter().map(|o| o.spcf))
    }

    /// Number of critical patterns summed over the critical outputs
    /// (the paper's "number of input patterns in the SPCF over all
    /// critical primary outputs"; a pattern sensitizing speed-paths to
    /// several outputs counts once per output).
    pub fn critical_pattern_count(&self, bdd: &Bdd) -> f64 {
        self.outputs.iter().map(|o| bdd.sat_count(o.spcf)).sum()
    }

    /// Outputs whose SPCF is non-empty.
    pub fn nonempty_outputs(&self, bdd: &Bdd) -> usize {
        let zero = bdd.zero();
        self.outputs.iter().filter(|o| o.spcf != zero).count()
    }
}

/// Cache of on-set/off-set prime implicants per gate *function*.
///
/// Eqn. 1 needs "the set of all prime implicants in the on-set and
/// off-set of f" for every gate; functions repeat, so compute them
/// once. Entries are keyed by a packed-u64 function key (arity tag +
/// raw truth-table bits, injective for the ≤5-input functions library
/// cells have), so structurally identical functions share one entry
/// even across distinct cells or remapped duplicate-fanin gates.
/// Entries are `Arc`-shared: lookups hand out cheap handles instead of
/// forcing cube-vector clones.
#[derive(Debug, Default)]
pub struct GatePrimes {
    cache: HashMap<u64, Arc<(Vec<Cube>, Vec<Cube>)>>,
}

/// Packs a ≤5-input function into an injective u64 cache key: the
/// arity in the top bits, the `2^arity` truth-table bits below. Wider
/// functions (none in the shipped libraries) are not packable and
/// bypass the cache.
fn function_key(tt: &TruthTable) -> Option<u64> {
    let n = tt.num_vars();
    if n > 5 {
        return None;
    }
    let mut bits = 0u64;
    for m in 0..(1u64 << n) {
        bits |= u64::from(tt.eval(m)) << m;
    }
    debug_assert!(bits < 1u64 << (1u64 << n), "table bits exceed the packed arity range");
    Some(((n as u64) << 59) | bits)
}

impl GatePrimes {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(on_primes, off_primes)` of an arbitrary small function,
    /// cached under its packed key.
    pub fn of_function(&mut self, tt: &TruthTable) -> Arc<(Vec<Cube>, Vec<Cube>)> {
        match function_key(tt) {
            Some(key) => Arc::clone(
                self.cache.entry(key).or_insert_with(|| Arc::new(qm::on_off_primes(tt))),
            ),
            None => Arc::new(qm::on_off_primes(tt)),
        }
    }

    /// `(on_primes, off_primes)` of the cell's function, cached.
    pub fn of(&mut self, netlist: &Netlist, cell: CellId) -> Arc<(Vec<Cube>, Vec<Cube>)> {
        self.of_function(netlist.library().cell(cell).function())
    }
}

/// `(on_primes, off_primes)` of a gate over its *distinct* fanins.
///
/// The common case — all fanins distinct — is served straight from the
/// cell-level cache (the remap in [`distinct_fanins`] is the identity
/// there); gates with duplicated fanins get primes of the remapped
/// function.
pub fn gate_on_off_primes(
    netlist: &Netlist,
    primes: &mut GatePrimes,
    gate: GateId,
    distinct: usize,
    tt: &TruthTable,
) -> Arc<(Vec<Cube>, Vec<Cube>)> {
    let g = netlist.gate(gate);
    if distinct == g.inputs().len() {
        primes.of(netlist, g.cell())
    } else {
        primes.of_function(tt)
    }
}

/// Builds the global BDD of every net over the primary-input space (BDD
/// variable `i` = input position `i`); index by `NetId::index`.
///
/// # Panics
///
/// Panics if the manager has fewer variables than the netlist has
/// inputs.
pub fn net_global_bdds(netlist: &Netlist, bdd: &mut Bdd) -> Vec<BddRef> {
    assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
    let mut globals = LazyGlobals::new(netlist);
    (0..netlist.num_nets())
        .map(|idx| globals.of(netlist, bdd, NetId::from_index(idx)))
        .collect()
}

/// Lazily computed global net functions over the primary-input space.
///
/// Only nets actually queried (plus their transitive fanins) are built —
/// engines that touch a small part of the circuit (the node-based pass
/// only needs the fanins of critical gates) avoid the full sweep of
/// [`net_global_bdds`].
#[derive(Debug)]
pub struct LazyGlobals {
    refs: Vec<Option<BddRef>>,
}

impl LazyGlobals {
    /// An empty cache for the given netlist.
    pub fn new(netlist: &Netlist) -> Self {
        LazyGlobals { refs: vec![None; netlist.num_nets()] }
    }

    /// The global function of `net`, building fanin functions on demand.
    ///
    /// # Panics
    ///
    /// Panics if the manager has fewer variables than the netlist has
    /// inputs, or if a finite manager budget runs out (use
    /// [`LazyGlobals::try_of`] under a budget).
    pub fn of(&mut self, netlist: &Netlist, bdd: &mut Bdd, net: NetId) -> BddRef {
        self.try_of(netlist, bdd, net)
            .expect("unbudgeted global construction cannot exhaust")
    }

    /// Budget-checked [`LazyGlobals::of`]: surfaces the manager's
    /// exhaustion instead of panicking.
    pub fn try_of(
        &mut self,
        netlist: &Netlist,
        bdd: &mut Bdd,
        net: NetId,
    ) -> Result<BddRef, Exhausted> {
        if let Some(f) = self.refs[net.index()] {
            return Ok(f);
        }
        let f = match netlist.driver(net) {
            Driver::PrimaryInput => {
                let pos = netlist
                    .input_position(net)
                    .expect("input-driven net is a primary input");
                bdd.try_var(pos)?
            }
            Driver::Gate(gid) => {
                let g = netlist.gate(gid);
                let func = netlist.library().cell(g.cell()).function().clone();
                let mut ins = Vec::with_capacity(g.inputs().len());
                for &i in g.inputs() {
                    ins.push(self.try_of(netlist, bdd, i)?);
                }
                let mut terms = Vec::new();
                for m in 0..(1u64 << ins.len()) {
                    if !func.eval(m) {
                        continue;
                    }
                    let mut lits = Vec::with_capacity(ins.len());
                    for (pin, &w) in ins.iter().enumerate() {
                        lits.push(if (m >> pin) & 1 == 1 { w } else { bdd.try_not(w)? });
                    }
                    terms.push(bdd.try_and_all(lits)?);
                }
                bdd.try_or_all(terms)?
            }
        };
        self.refs[net.index()] = Some(f);
        Ok(f)
    }

    /// Appends every built global function to `roots` (the capacity
    /// tier's GC/reorder root set; see DESIGN.md §14).
    pub fn collect_roots(&self, roots: &mut Vec<tm_logic::bdd::BddRef>) {
        roots.extend(self.refs.iter().flatten().copied());
    }

    /// Rewrites every cached ref through `remap` after a GC or reorder
    /// of the owning manager. Entries the remap dropped fall back to
    /// `None` and rebuild lazily on the next query.
    pub fn remap_refs(&mut self, remap: &tm_logic::bdd::BddRemap) {
        for slot in &mut self.refs {
            if let Some(r) = *slot {
                *slot = remap.remap(r);
            }
        }
    }
}

/// Resolves a gate's fanins to *distinct* nets, pairing each with the
/// worst (largest) pin delay among the pins it drives, and remaps the
/// cell function onto the distinct-net variable order.
///
/// Almost every gate has distinct fanins; duplicates only arise from
/// hand-built netlists, and taking the worst pin delay keeps the timed
/// analyses safe (a literal is only considered settled when its slowest
/// pin has propagated).
pub fn distinct_fanins(
    netlist: &Netlist,
    sta: &tm_sta::Sta<'_>,
    gate: tm_netlist::GateId,
) -> (Vec<NetId>, Vec<Delay>, tm_logic::TruthTable) {
    let g = netlist.gate(gate);
    let mut nets: Vec<NetId> = Vec::new();
    let mut delays: Vec<Delay> = Vec::new();
    let mut pin_to_pos = Vec::with_capacity(g.inputs().len());
    for (pin, &inp) in g.inputs().iter().enumerate() {
        let d = sta.pin_delay(gate, pin);
        match nets.iter().position(|&n| n == inp) {
            Some(pos) => {
                delays[pos] = delays[pos].max(d);
                pin_to_pos.push(pos);
            }
            None => {
                nets.push(inp);
                delays.push(d);
                pin_to_pos.push(nets.len() - 1);
            }
        }
    }
    let cell_tt = netlist.library().cell(g.cell()).function().clone();
    let tt = tm_logic::TruthTable::from_fn(nets.len(), |m| {
        let mut pins = 0u64;
        for (pin, &pos) in pin_to_pos.iter().enumerate() {
            if (m >> pos) & 1 == 1 {
                pins |= 1 << pin;
            }
        }
        cell_tt.eval(pins)
    });
    (nets, delays, tt)
}

/// True when `net` is driven by a gate (not a primary input).
pub fn is_gate_output(netlist: &Netlist, net: NetId) -> bool {
    matches!(netlist.driver(net), Driver::Gate(_))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;

    #[test]
    fn global_bdds_agree_with_eval() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let mut bdd = Bdd::new(4);
        let refs = net_global_bdds(&nl, &mut bdd);
        for m in 0..16u64 {
            let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let vals = nl.eval_all_nets(&a);
            for idx in 0..nl.num_nets() {
                assert_eq!(bdd.eval(refs[idx], &a), vals[idx], "net {idx} m={m}");
            }
        }
    }

    #[test]
    fn gate_primes_cached() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let mut primes = GatePrimes::new();
        let (_, g) = nl.gates().next().unwrap();
        let handle = primes.of(&nl, g.cell());
        let (on, off) = &*handle;
        // INV: on-set prime = x0', off-set = x0.
        assert_eq!(on.len(), 1);
        assert_eq!(off.len(), 1);
        // Cache hit returns a handle to the same shared data.
        let again = primes.of(&nl, g.cell());
        assert!(Arc::ptr_eq(&handle, &again));
    }

    #[test]
    fn distinct_fanins_dedups() {
        use tm_netlist::Netlist;
        let lib = Arc::new(lsi10k_like());
        let mut nl = Netlist::new("dup", lib.clone());
        let a = nl.add_input("a");
        // AND2(a, a) = a
        let y = nl.add_gate(lib.expect("AND2"), &[a, a], "y");
        nl.mark_output(y);
        let sta = tm_sta::Sta::new(&nl);
        let (nets, delays, tt) = distinct_fanins(&nl, &sta, tm_netlist::GateId::from_index(0));
        assert_eq!(nets, vec![a]);
        assert_eq!(delays.len(), 1);
        assert!(tt.eval(1) && !tt.eval(0));
    }
}
