//! The paper's proposed short-path-based SPCF algorithm (Eqn. 1).
//!
//! For a gate `z` with function `f` and target arrival time `Δ_z`, the
//! complement SPCF is
//!
//! ```text
//! Σ̄_z(Δ_z) = ⋁_{p ∈ P} ⋀_{l ∈ L(p)} Σ̄_l(Δ_z − δ_l)
//! ```
//!
//! over the prime implicants `P` of the on-set and off-set of `f`. We
//! carry the phase explicitly: `stab(s, t, v)` is the set of patterns
//! for which signal `s` has settled **to value v** by time `t` (so each
//! literal of a prime is required to settle to the value that makes the
//! prime controlling — the floating-mode exact criterion; see
//! `DESIGN.md`). The recursion is memoized on `(signal, quantized time,
//! phase)` and only ever evaluates the times the target query reaches,
//! which is what makes it cheaper than the full path-based waveform
//! analysis at equal accuracy.

use crate::common::{distinct_fanins, gate_on_off_primes};
use crate::engine::{EngineCx, SpcfEngine};
use crate::Algorithm;
use std::collections::HashMap;
use std::sync::Arc;
use tm_logic::bdd::BddRef;
use tm_logic::Cube;
use tm_netlist::netlist::Driver;
use tm_netlist::NetId;
use tm_resilience::Exhausted;

struct GateInfo {
    fanins: Vec<NetId>,
    delays_q: Vec<i64>,
    /// `(on_primes, off_primes)` over the distinct fanins, shared with
    /// the session's cell-level cache.
    primes: Arc<(Vec<Cube>, Vec<Cube>)>,
}

/// The short-path engine: memoized single-time stabilization queries —
/// the exact SPCF, [`Algorithm::ShortPath`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_logic::Bdd;
/// use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
/// use tm_spcf::{spcf_with, Algorithm};
/// use tm_sta::Sta;
///
/// let nl = comparator2(Arc::new(lsi10k_like()));
/// let sta = Sta::new(&nl);
/// let mut bdd = Bdd::new(4);
/// let set = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
/// // The paper's worked example: Σ_y = ā1 + ā0·b1, 10 of 16 patterns.
/// assert_eq!(set.critical_pattern_count(&bdd), 10.0);
/// ```
#[derive(Default)]
pub struct ShortPathEngine {
    arrivals_q: Vec<i64>,
    /// Earliest possible stabilization per net (shortest-path arrival,
    /// quantized): queries strictly below it are zero without recursion.
    min_arrivals_q: Vec<i64>,
    gate_info: Vec<GateInfo>,
    /// Stabilization memo, keyed by [`memo_key`]-packed
    /// `(net, quantized time, phase)`. None of the three components
    /// mentions the target Δ_y, so the memo survives warm-session
    /// retargets intact.
    memo: HashMap<u64, BddRef>,
    prepared: bool,
    stab_calls: u64,
    memo_hits: u64,
    memo_misses: u64,
    /// `[stab_calls, memo_hits, memo_misses]` as of the last publish, so
    /// each publish adds only the work since the previous one.
    published: [u64; 3],
}

/// Packs a stabilization-memo key `(net, quantized time, phase)` into
/// one u64: net in bits 41.., time in bits 1..41, phase in bit 0.
///
/// Injective for net indices below 2²³ and quantized times in
/// `(0, 2⁴⁰)` — memoized queries are always strictly positive (earlier
/// times short-circuit before the memo) and far below the 2⁴⁰ quantized
/// range (≈ 10⁶ delay units at the 10⁻⁶ quantization step).
#[inline]
fn memo_key(net: u32, qt: i64, phase: bool) -> u64 {
    debug_assert!(net < 1 << 23, "net index {net} exceeds the packed key range");
    debug_assert!((1..1 << 40).contains(&qt), "quantized time {qt} exceeds the packed key range");
    ((net as u64) << 41) | ((qt as u64) << 1) | phase as u64
}

impl ShortPathEngine {
    /// Patterns for which `net` has settled to `phase` by time `qt`
    /// (quantized).
    fn stab(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        net: NetId,
        qt: i64,
        phase: bool,
    ) -> Result<BddRef, Exhausted> {
        self.stab_calls += 1;
        // Settled for sure once the worst-case arrival has passed.
        if qt >= self.arrivals_q[net.index()] {
            let f = cx.globals.try_of(cx.netlist, cx.bdd, net)?;
            return if phase { Ok(f) } else { cx.bdd.try_not(f) };
        }
        // Nothing can settle before the shortest-path arrival.
        if qt < self.min_arrivals_q[net.index()] {
            return Ok(cx.bdd.zero());
        }
        let gate = match cx.netlist.driver(net) {
            // A primary input queried before time 0 (arrival 0 was
            // handled above).
            Driver::PrimaryInput => return Ok(cx.bdd.zero()),
            Driver::Gate(g) => g,
        };
        if qt <= 0 {
            return Ok(cx.bdd.zero()); // positive-delay logic cannot settle by 0
        }
        let key = memo_key(net.index() as u32, qt, phase);
        if let Some(&r) = self.memo.get(&key) {
            self.memo_hits += 1;
            return Ok(r);
        }
        self.memo_misses += 1;
        let info_idx = gate.index();
        let primes = Arc::clone(&self.gate_info[info_idx].primes);
        let plist = if phase { &primes.0 } else { &primes.1 };
        let mut terms = Vec::with_capacity(plist.len());
        for prime in plist {
            let mut lits = Vec::with_capacity(prime.literal_count() as usize);
            for (pos, pol) in prime.literals() {
                let fanin = self.gate_info[info_idx].fanins[pos];
                let dq = self.gate_info[info_idx].delays_q[pos];
                lits.push(self.stab(cx, fanin, qt - dq, pol)?);
            }
            terms.push(cx.bdd.try_and_all(lits)?);
        }
        let r = cx.bdd.try_or_all(terms)?;
        cx.budget.check_memo_entries(self.memo.len() as u64)?;
        tm_resilience::fault::memo_insert_fault()?;
        self.memo.insert(key, r);
        Ok(r)
    }
}

impl SpcfEngine for ShortPathEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::ShortPath
    }

    /// Builds the recursion's static tables: per-gate distinct-fanin
    /// primes (served from the session's cell cache) and worst-/best-
    /// case quantized arrivals. No BDD work happens here; the recursion
    /// itself only ever touches the cones of the queried targets.
    fn prepare(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        _targets: &[NetId],
    ) -> Result<(), Exhausted> {
        let netlist = cx.netlist;
        self.arrivals_q = cx.sta.arrivals().iter().map(|d| d.quantize()).collect();
        self.gate_info = netlist
            .gates()
            .map(|(gid, _)| {
                let (fanins, delays, tt) = distinct_fanins(netlist, cx.sta, gid);
                let primes =
                    gate_on_off_primes(netlist, cx.primes, gid, fanins.len(), &tt);
                GateInfo {
                    fanins,
                    delays_q: delays.iter().map(|d| d.quantize()).collect(),
                    primes,
                }
            })
            .collect();

        // Shortest-path (earliest possible stabilization) arrivals.
        self.min_arrivals_q = vec![0i64; netlist.num_nets()];
        for (gid, g) in netlist.gates() {
            let info = &self.gate_info[gid.index()];
            let min_in = info
                .fanins
                .iter()
                .zip(&info.delays_q)
                .map(|(f, dq)| self.min_arrivals_q[f.index()] + dq)
                .min()
                .unwrap_or(0);
            self.min_arrivals_q[g.output().index()] = min_in;
        }
        self.prepared = true;
        Ok(())
    }

    /// Everything this engine prepares — arrival tables, gate primes,
    /// and the stabilization memo — is independent of Δ_y, so a warm
    /// retarget skips preparation entirely and the new target's
    /// recursion lands on the memoized stabilization sets of every
    /// previous (looser) target.
    fn retarget(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        if self.prepared {
            return Ok(());
        }
        self.prepare(cx, targets)
    }

    fn compute_output(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        output: NetId,
    ) -> Result<BddRef, Exhausted> {
        let qt = cx.target.quantize();
        let s1 = self.stab(cx, output, qt, true)?;
        let s0 = self.stab(cx, output, qt, false)?;
        let settled = cx.bdd.try_or(s1, s0)?;
        cx.bdd.try_not(settled)
    }

    fn publish_metrics(&mut self) {
        if !tm_telemetry::enabled() {
            return;
        }
        let [calls, hits, misses] = self.published;
        self.published = [self.stab_calls, self.memo_hits, self.memo_misses];
        tm_telemetry::counter_add("spcf.short_path.stab_calls", self.stab_calls - calls);
        tm_telemetry::counter_add("spcf.short_path.memo_hit", self.memo_hits - hits);
        tm_telemetry::counter_add("spcf.short_path.memo_miss", self.memo_misses - misses);
        tm_telemetry::gauge_set("spcf.short_path.memo_entries", self.memo.len() as f64);
    }

    fn memo_entries(&self) -> u64 {
        self.memo.len() as u64
    }

    fn collect_roots(&self, roots: &mut Vec<BddRef>) {
        roots.extend(self.memo.values().copied());
    }

    fn remap_refs(&mut self, remap: &tm_logic::bdd::BddRemap) {
        // Keys pack `(net, time, phase)` — no manager indices — so only
        // the values move; a value the remap dropped (never rooted)
        // takes its whole entry with it rather than going stale.
        self.memo.retain(|_, r| match remap.remap(*r) {
            Some(n) => {
                *r = n;
                true
            }
            None => false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spcf_with, try_spcf_with};
    use std::sync::Arc;
    use tm_logic::Bdd;
    use tm_netlist::{Delay, Netlist};
    use tm_resilience::Budget;
    use tm_sta::Sta;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;

    fn setup() -> Netlist {
        comparator2(Arc::new(lsi10k_like()))
    }

    #[test]
    fn comparator_spcf_matches_paper() {
        let nl = setup();
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(set.outputs.len(), 1);
        // Paper: Σ_y(Δ_y) = ā1 + ā0·b1 (inputs a0,a1,b0,b1 = vars 0..3).
        let a1 = bdd.var(1);
        let na1 = bdd.not(a1);
        let a0 = bdd.var(0);
        let na0 = bdd.not(a0);
        let b1 = bdd.var(3);
        let t = bdd.and(na0, b1);
        let expect = bdd.or(na1, t);
        assert_eq!(set.outputs[0].spcf, expect);
        assert_eq!(set.critical_pattern_count(&bdd), 10.0);
    }

    #[test]
    fn relaxed_target_has_no_critical_outputs() {
        let nl = setup();
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(7.0));
        assert!(set.outputs.is_empty());
        assert_eq!(set.critical_pattern_count(&bdd), 0.0);
    }

    #[test]
    fn tight_target_includes_everything_slower() {
        let nl = setup();
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        // Target below every path: every pattern takes > 3.9 to settle?
        // Not necessarily — some patterns settle via 4-unit paths. At
        // target 3.9 the SPCF is the set of patterns settling later than
        // 3.9 (nonempty and bigger than the 6.3 SPCF).
        let tight = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(3.9));
        let loose = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        let tc = tight.critical_pattern_count(&bdd);
        let lc = loose.critical_pattern_count(&bdd);
        assert!(tc >= lc);
        // Monotonicity per output: loose SPCF ⊆ tight SPCF.
        let t = tight.outputs[0].spcf;
        let l = loose.outputs[0].spcf;
        assert!(bdd.is_subset(l, t));
    }

    #[test]
    fn spcf_patterns_really_are_slow() {
        // Dynamic cross-check: every pattern in the SPCF, when applied
        // from at least one predecessor state, produces a transition
        // that settles after the target; patterns outside settle on time
        // from *every* predecessor (floating-mode is a worst-case over
        // previous states).
        let nl = setup();
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        let spcf = set.outputs[0].spcf;
        let sim = tm_sim::timing::TimingSim::new(&nl);
        for m in 0..16u64 {
            let next: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let mut worst_settle = Delay::ZERO;
            for p in 0..16u64 {
                let prev: Vec<bool> = (0..4).map(|i| (p >> i) & 1 == 1).collect();
                let r = sim.transition(&prev, &next, Delay::new(6.3));
                worst_settle = worst_settle.max(r.output_settle[0]);
            }
            let in_spcf = bdd.eval(spcf, &next);
            if !in_spcf {
                // Not a speed-path pattern: settles by the target from
                // every predecessor state.
                assert!(
                    worst_settle <= Delay::new(6.3),
                    "pattern {m} outside SPCF settled at {worst_settle:?}"
                );
            }
        }
    }

    #[test]
    fn session_restores_previous_budget() {
        let nl = setup();
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let outer = Budget::unlimited().with_max_steps(123_456);
        bdd.set_budget(outer);
        // Success path restores.
        let _ = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(bdd.budget(), outer);
        // Exhaustion path restores too (fresh manager: the run above
        // left warm caches that would absorb a tiny step budget).
        let mut cold = Bdd::new(4);
        cold.set_budget(outer);
        let tiny = Budget::unlimited().with_max_steps(1);
        assert!(try_spcf_with(Algorithm::ShortPath, &nl, &sta, &mut cold, Delay::new(6.3), tiny).is_err());
        assert_eq!(cold.budget(), outer);
    }
}
