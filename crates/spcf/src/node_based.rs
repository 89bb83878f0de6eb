//! Node-based over-approximate SPCF computation (the baseline of ref
//! \[22\]).
//!
//! Gates are *statically* marked critical from arrival/required slack
//! before a single topological pass; the pass then computes, per net, an
//! "on-time" function with no time parameter at all:
//!
//! - primary inputs and non-critical gates are always on time;
//! - a critical gate is on time when some prime implicant of its
//!   function is satisfied with every constituent literal itself on
//!   time.
//!
//! Because a multi-fanout gate that is critical along only one fanout is
//! marked critical for *all* fanouts (its required time is the minimum
//! over fanouts), the complement of the on-time function
//! over-approximates the exact SPCF — precisely the inaccuracy the paper
//! attributes to node-based traversal, and the reason Table 1's
//! node-based pattern counts are supersets of the exact ones. The
//! inclusion `Σ_exact ⊆ Σ_node` is proved in `DESIGN.md` and asserted by
//! property tests.

use crate::common::{distinct_fanins, gate_on_off_primes};
use crate::engine::{cone_nets, EngineCx, SpcfEngine};
use crate::Algorithm;
use tm_logic::bdd::BddRef;
use tm_netlist::{Delay, NetId};
use tm_resilience::Exhausted;

/// The node-based engine: one cone-restricted topological pass
/// computing a per-net static "on-time" function —
/// [`Algorithm::NodeBased`], the fastest of the three engines.
///
/// The result is a superset of the exact SPCF per output (equality on
/// circuits without multi-fanout criticality sharing).
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
/// let over = spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, Delay::new(6.3));
/// let exact = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
/// // Over-approximation contains the exact set.
/// let (o, e) = (over.outputs[0].spcf, exact.outputs[0].spcf);
/// assert!(bdd.is_subset(e, o));
/// ```
#[derive(Default)]
pub struct NodeBasedEngine {
    /// `on_time[net]`: patterns for which the net is guaranteed settled
    /// by its static required time.
    on_time: Vec<BddRef>,
}

impl SpcfEngine for NodeBasedEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::NodeBased
    }

    /// The whole algorithm is this one pass; `compute_output` is a
    /// single complement per output. The sweep is restricted to the
    /// fanin cones of `targets`: every statically critical gate lies in
    /// the cone of some critical output (its finite required time comes
    /// from a violating path *to* such an output), so the restriction
    /// changes no result — it only skips logic that feeds non-critical
    /// outputs.
    fn prepare(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        let netlist = cx.netlist;
        let in_cone = cone_nets(netlist, targets);
        let mut critical_gates = 0u64;
        let required = cx.sta.required(cx.target);
        let one = cx.bdd.one();
        let zero = cx.bdd.zero();

        // Primary inputs settle at t = 0, so a PI whose required time
        // went negative (it starts a violating path) is never "on time"
        // — this is where lateness originates.
        let mut on_time: Vec<BddRef> = vec![one; netlist.num_nets()];
        for &pi in netlist.inputs() {
            if required[pi.index()].is_finite() && required[pi.index()] < Delay::ZERO {
                on_time[pi.index()] = zero;
            }
        }
        for (gid, g) in netlist.gates() {
            let out = g.output();
            if !in_cone[out.index()] {
                continue;
            }
            let req_out = required[out.index()];
            let slack_ok = !req_out.is_finite() || cx.sta.arrival(out) <= req_out;
            if slack_ok {
                continue; // non-critical gates meet timing on every pattern
            }
            critical_gates += 1;
            if g.inputs().is_empty() {
                // A critical tie cell is a source like a critical PI:
                // never on time. Its empty prime would make it always on
                // time instead.
                on_time[out.index()] = zero;
                continue;
            }
            let (fanins, delays, tt) = distinct_fanins(netlist, cx.sta, gid);
            let primes = gate_on_off_primes(netlist, cx.primes, gid, fanins.len(), &tt);
            let (on_primes, off_primes) = &*primes;
            let mut terms = Vec::with_capacity(on_primes.len() + off_primes.len());
            for p in on_primes.iter().chain(off_primes) {
                let mut lits = Vec::with_capacity(p.literal_count() as usize);
                for (pos, pol) in p.literals() {
                    let u = fanins[pos];
                    let f = cx.globals.try_of(netlist, cx.bdd, u)?;
                    let value = if pol { f } else { cx.bdd.try_not(f)? };
                    // Static edge check: if the worst arrival through this
                    // edge meets the gate's required time, the literal is
                    // always on time; otherwise fall back to the fanin's own
                    // static on-time set (the node-based approximation).
                    let edge_meets = cx.sta.arrival(u) + delays[pos] <= req_out;
                    let lit = if edge_meets {
                        value
                    } else {
                        cx.bdd.try_and(value, on_time[u.index()])?
                    };
                    lits.push(lit);
                }
                terms.push(cx.bdd.try_and_all(lits)?);
            }
            on_time[out.index()] = cx.bdd.try_or_all(terms)?;
        }
        tm_telemetry::counter_add("spcf.node_based.critical_gates", critical_gates);
        self.on_time = on_time;
        Ok(())
    }

    fn compute_output(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        output: NetId,
    ) -> Result<BddRef, Exhausted> {
        cx.bdd.try_not(self.on_time[output.index()])
    }

    fn collect_roots(&self, roots: &mut Vec<BddRef>) {
        roots.extend(self.on_time.iter().copied());
    }

    fn remap_refs(&mut self, remap: &tm_logic::bdd::BddRemap) {
        // The table is dense per net and `compute_output` indexes into
        // it, so every entry is rooted and must survive the sweep.
        for r in &mut self.on_time {
            *r = remap.remap(*r).expect("rooted on-time function survives GC");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spcf_with;
    use tm_logic::Bdd;
    use tm_netlist::Netlist;
    use tm_sta::Sta;
    use std::sync::Arc;
    use tm_netlist::circuits::{comparator2, mini_alu, priority_encoder, ripple_adder};
    use tm_netlist::library::{lsi10k_like, Library};

    #[test]
    fn comparator_node_based_superset() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let over = spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, Delay::new(6.3));
        let exact = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(over.outputs.len(), 1);
        let o = over.outputs[0].spcf;
        let e = exact.outputs[0].spcf;
        assert!(bdd.is_subset(e, o));
        assert!(over.critical_pattern_count(&bdd) >= exact.critical_pattern_count(&bdd));
    }

    /// `y = AND2(chain, b)` where `chain` is an even inverter chain off
    /// a `TIE1` cell: the tie starts every critical path, so its
    /// required time is negative at any target below Δ, and the exact
    /// SPCF is `b` (the late chain only matters while `b = 1`).
    fn tie_chain(lib: Arc<Library>) -> Netlist {
        let mut nl = Netlist::new("tie_chain", lib.clone());
        let b = nl.add_input("b");
        let mut cur = nl.add_gate(lib.expect("TIE1"), &[], "t");
        for j in 0..4 {
            cur = nl.add_gate(lib.expect("INV"), &[cur], format!("c{j}"));
        }
        let y = nl.add_gate(lib.expect("AND2"), &[cur, b], "y");
        nl.mark_output(y);
        nl
    }

    #[test]
    fn superset_on_many_circuits_and_targets() {
        let lib = Arc::new(lsi10k_like());
        for nl in [
            ripple_adder(lib.clone(), 3),
            mini_alu(lib.clone(), 2),
            priority_encoder(lib.clone(), 5),
            tie_chain(lib.clone()),
        ] {
            let sta = Sta::new(&nl);
            let delta = sta.critical_path_delay();
            for frac in [0.7, 0.85, 0.95] {
                let target = delta * frac;
                let mut bdd = Bdd::new(nl.inputs().len());
                let over = spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, target);
                let exact = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
                assert_eq!(over.outputs.len(), exact.outputs.len());
                for (a, b) in over.outputs.iter().zip(&exact.outputs) {
                    assert_eq!(a.output, b.output);
                    assert!(
                        bdd.is_subset(b.spcf, a.spcf),
                        "{} target {frac}: node-based lost exact patterns",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn no_critical_outputs_above_delta() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::NodeBased, &nl, &sta, &mut bdd, Delay::new(7.5));
        assert!(set.outputs.is_empty());
    }
}
