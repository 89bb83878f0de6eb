//! Exact path-based SPCF computation via timed stabilization waveforms.
//!
//! This is the "proposed path-based extension of \[22\]" column of
//! Table 1: instead of querying stabilization at a single target time
//! (as the short-path algorithm does), it computes — in the spirit of
//! the ADD-based timing analysis of ref \[27\] — the *complete* step
//! function `t ↦ (stab¹(t), stab⁰(t))` of every net, with one breakpoint
//! per distinct path-delay value reaching the net. The SPCF is then a
//! single waveform lookup. The result is exactly the same as the
//! short-path algorithm; the cost of materializing every breakpoint is
//! what makes it measurably slower (the paper reports ~3.5× vs the
//! node-based pass).

use crate::common::{distinct_fanins, gate_on_off_primes};
use crate::engine::{cone_nets, EngineCx, SpcfEngine};
use crate::{Algorithm, GatePrimes};
use tm_logic::bdd::{Bdd, BddRef};
use tm_netlist::{Delay, NetId, Netlist};
use tm_resilience::{Budget, Exhausted};
use tm_sta::Sta;

/// A per-net timed stabilization step function.
///
/// For `t ∈ [times[k], times[k+1])` the set of patterns settled to 1
/// (resp. 0) by `t` is `stab1[k]` (`stab0[k]`); before `times[0]`
/// nothing has settled.
#[derive(Clone, Debug)]
struct Waveform {
    times: Vec<i64>,
    stab1: Vec<BddRef>,
    stab0: Vec<BddRef>,
}

impl Waveform {
    fn lookup(&self, qt: i64, zero: BddRef) -> (BddRef, BddRef) {
        match self.times.partition_point(|&t| t <= qt).checked_sub(1) {
            Some(k) => (self.stab1[k], self.stab0[k]),
            None => (zero, zero),
        }
    }
}

/// The path-based engine: complete timed waveforms over the target
/// cones, one lookup per output — [`Algorithm::PathBased`]. Produces
/// the same SPCFs as the short-path engine (both are exact); it is the
/// accuracy reference and the runtime baseline of Table 1.
#[derive(Default)]
pub struct PathBasedEngine {
    waves: Vec<Option<Waveform>>,
    /// The cone mask the waveforms were built over (empty before the
    /// first `prepare`): a retarget whose targets all fall inside it is
    /// a pure no-op — waveforms cover *every* time at once.
    prepared_cone: Vec<bool>,
    prepared_targets: Vec<NetId>,
    waveform_nodes: u64,
}

impl SpcfEngine for PathBasedEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::PathBased
    }

    fn prepare(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        let in_cone = cone_nets(cx.netlist, targets);
        let (waves, waveform_nodes) = build_waveforms(
            cx.netlist,
            cx.sta,
            cx.bdd,
            cx.primes,
            cx.budget,
            Some(&in_cone),
        )?;
        self.waves = waves;
        self.prepared_cone = in_cone;
        self.prepared_targets = targets.to_vec();
        self.waveform_nodes = waveform_nodes;
        Ok(())
    }

    /// Waveforms are step functions over *all* times, so retargeting
    /// within the prepared cone costs nothing; a tighter target can
    /// make new outputs critical, in which case the waveforms are
    /// rebuilt over the union cone (in a warm manager, the overlap is
    /// pure cache hits).
    fn retarget(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        targets: &[NetId],
    ) -> Result<(), Exhausted> {
        let covered = |t: &NetId| {
            self.prepared_cone.get(t.index()).copied().unwrap_or(false)
        };
        if targets.iter().all(covered) && !self.prepared_cone.is_empty() {
            return Ok(());
        }
        let mut merged = self.prepared_targets.clone();
        for &t in targets {
            if !merged.contains(&t) {
                merged.push(t);
            }
        }
        self.prepare(cx, &merged)
    }

    fn compute_output(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        output: NetId,
    ) -> Result<BddRef, Exhausted> {
        let zero = cx.bdd.zero();
        let qt = cx.target.quantize();
        let (s1, s0) =
            self.waves[output.index()].as_ref().expect("output wave").lookup(qt, zero);
        let settled = cx.bdd.try_or(s1, s0)?;
        cx.bdd.try_not(settled)
    }

    /// Waveform breakpoints stand in for memo entries: they are the
    /// engine-side state a shared budget has to account for.
    fn memo_entries(&self) -> u64 {
        self.waveform_nodes
    }

    fn collect_roots(&self, roots: &mut Vec<BddRef>) {
        for w in self.waves.iter().flatten() {
            roots.extend(w.stab1.iter().copied());
            roots.extend(w.stab0.iter().copied());
        }
    }

    fn remap_refs(&mut self, remap: &tm_logic::bdd::BddRemap) {
        // Every breakpoint of every built waveform is rooted; a lookup
        // may land on any of them at the next retarget.
        for w in self.waves.iter_mut().flatten() {
            for r in w.stab1.iter_mut().chain(w.stab0.iter_mut()) {
                *r = remap.remap(*r).expect("rooted waveform breakpoint survives GC");
            }
        }
    }
}

/// Exact (floating-mode) stabilization delay of every primary output:
/// the smallest time by which *every* input pattern has settled.
///
/// Always ≤ the structural STA arrival; strictly smaller when the
/// longest structural paths are **false paths** (never dynamically
/// sensitized) — the reason some of Table 2's deep circuits report
/// critical outputs with near-empty SPCFs.
pub fn exact_output_delays(
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
) -> Vec<(tm_netlist::NetId, Delay)> {
    assert!(std::ptr::eq(sta.netlist(), netlist), "STA must analyze the same netlist");
    let mut primes = GatePrimes::new();
    let (waves, _) =
        build_waveforms(netlist, sta, bdd, &mut primes, Budget::unlimited(), None)
            .expect("unlimited budget cannot exhaust");
    let one = bdd.one();
    netlist
        .outputs()
        .iter()
        .map(|&o| {
            let w = waves[o.index()].as_ref().expect("output wave");
            let mut exact = *w.times.last().expect("nonempty waveform");
            for (k, &t) in w.times.iter().enumerate() {
                let settled = bdd.or(w.stab1[k], w.stab0[k]);
                if settled == one {
                    exact = t;
                    break;
                }
            }
            (o, Delay::from_quantized(exact))
        })
        .collect()
}

/// Builds the complete timed stabilization waveform of every net (or,
/// with a cone mask, of every net inside it — logic feeding only
/// non-critical outputs is skipped).
///
/// `budget.max_memo_entries` caps the total number of `(stab¹, stab⁰)`
/// breakpoints materialized across all nets — the quantity that
/// explodes on deep circuits with many distinct path delays. Returns
/// the waveforms and that breakpoint total.
fn build_waveforms(
    netlist: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    primes: &mut GatePrimes,
    budget: Budget,
    cone: Option<&[bool]>,
) -> Result<(Vec<Option<Waveform>>, u64), Exhausted> {
    assert!(bdd.num_vars() >= netlist.inputs().len(), "BDD manager too narrow");
    let zero = bdd.zero();
    let in_cone = |net: NetId| cone.map(|c| c[net.index()]).unwrap_or(true);

    let mut waves: Vec<Option<Waveform>> = vec![None; netlist.num_nets()];
    let mut waveform_nodes = 0u64;
    for (pos, &net) in netlist.inputs().iter().enumerate() {
        if !in_cone(net) {
            continue;
        }
        let lit = bdd.try_var(pos)?;
        let nlit = bdd.try_not(lit)?;
        waves[net.index()] = Some(Waveform { times: vec![0], stab1: vec![lit], stab0: vec![nlit] });
    }

    for (gid, g) in netlist.gates() {
        if !in_cone(g.output()) {
            continue;
        }
        let (fanins, delays, tt) = distinct_fanins(netlist, sta, gid);
        let gate_primes = gate_on_off_primes(netlist, primes, gid, fanins.len(), &tt);
        let (on_primes, off_primes) = &*gate_primes;
        let delays_q: Vec<i64> = delays.iter().map(|d| d.quantize()).collect();

        // Candidate breakpoints: every fanin breakpoint shifted by its
        // pin delay. Constant gates settle at time 0.
        let mut times: Vec<i64> = Vec::new();
        if fanins.is_empty() {
            times.push(0);
        }
        for (pos, &f) in fanins.iter().enumerate() {
            let w = waves[f.index()].as_ref().expect("topological order");
            for &t in &w.times {
                times.push(t + delays_q[pos]);
            }
        }
        times.sort_unstable();
        times.dedup();
        // One (stab¹, stab⁰) pair is materialized per breakpoint — the
        // unit of work the short-path memoization avoids.
        budget.check_memo_entries(waveform_nodes)?;
        tm_resilience::fault::memo_insert_fault()?;
        waveform_nodes += times.len() as u64;

        let mut stab1 = Vec::with_capacity(times.len());
        let mut stab0 = Vec::with_capacity(times.len());
        for &t in &times {
            // Look up each fanin's stabilization just in time.
            let fanin_stabs: Vec<(BddRef, BddRef)> = fanins
                .iter()
                .enumerate()
                .map(|(pos, &f)| {
                    waves[f.index()]
                        .as_ref()
                        .expect("topological order")
                        .lookup(t - delays_q[pos], zero)
                })
                .collect();
            let mut on_terms = Vec::with_capacity(on_primes.len());
            for p in on_primes {
                let lits: Vec<BddRef> = p
                    .literals()
                    .map(|(pos, pol)| if pol { fanin_stabs[pos].0 } else { fanin_stabs[pos].1 })
                    .collect();
                on_terms.push(bdd.try_and_all(lits)?);
            }
            let mut off_terms = Vec::with_capacity(off_primes.len());
            for p in off_primes {
                let lits: Vec<BddRef> = p
                    .literals()
                    .map(|(pos, pol)| if pol { fanin_stabs[pos].0 } else { fanin_stabs[pos].1 })
                    .collect();
                off_terms.push(bdd.try_and_all(lits)?);
            }
            stab1.push(bdd.try_or_all(on_terms)?);
            stab0.push(bdd.try_or_all(off_terms)?);
        }

        // Compress runs of identical steps.
        let mut ct = Vec::with_capacity(times.len());
        let mut c1 = Vec::with_capacity(times.len());
        let mut c0 = Vec::with_capacity(times.len());
        for k in 0..times.len() {
            if k == 0 || stab1[k] != c1[ct.len() - 1] || stab0[k] != c0[ct.len() - 1] {
                ct.push(times[k]);
                c1.push(stab1[k]);
                c0.push(stab0[k]);
            }
        }
        waves[g.output().index()] = Some(Waveform { times: ct, stab1: c1, stab0: c0 });
    }
    tm_telemetry::counter_add("spcf.path_based.waveform_nodes", waveform_nodes);
    Ok((waves, waveform_nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spcf_with;
    use std::sync::Arc;
    use tm_netlist::circuits::{comparator2, mini_alu, ripple_adder};
    use tm_netlist::library::lsi10k_like;

    #[test]
    fn comparator_matches_paper_and_short_path() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let pb = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, Delay::new(6.3));
        let sp = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(pb.outputs.len(), 1);
        assert_eq!(pb.outputs[0].spcf, sp.outputs[0].spcf);
        assert_eq!(pb.critical_pattern_count(&bdd), 10.0);
    }

    #[test]
    fn agrees_with_short_path_on_arithmetic() {
        let lib = Arc::new(lsi10k_like());
        for nl in [ripple_adder(lib.clone(), 3), mini_alu(lib.clone(), 2)] {
            let sta = Sta::new(&nl);
            let delta = sta.critical_path_delay();
            for frac in [0.75, 0.9, 0.95] {
                let target = delta * frac;
                let mut bdd = Bdd::new(nl.inputs().len());
                let pb = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, target);
                let sp = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, target);
                assert_eq!(pb.outputs.len(), sp.outputs.len(), "{} {frac}", nl.name());
                for (a, b) in pb.outputs.iter().zip(&sp.outputs) {
                    assert_eq!(a.output, b.output);
                    assert_eq!(a.spcf, b.spcf, "{} output {:?} frac {frac}", nl.name(), a.output);
                }
            }
        }
    }

    #[test]
    fn exact_delay_detects_false_paths() {
        // Classic two-MUX false path: the slow input threads m1's
        // s=1 branch but m2's s=0 branch — no pattern sensitizes the
        // full structural path, so the exact delay is smaller than the
        // structural arrival.
        let lib = Arc::new(lsi10k_like());
        let mut nl = tm_netlist::Netlist::new("falsepath", lib.clone());
        let d = nl.add_input("d");
        let f1 = nl.add_input("f1");
        let f2 = nl.add_input("f2");
        let s = nl.add_input("s");
        let mut slow = d;
        for k in 0..4 {
            slow = nl.add_gate(lib.expect("INV"), &[slow], format!("sl{k}"));
        }
        let m1 = nl.add_gate(lib.expect("MUX2"), &[f1, slow, s], "m1");
        let i1 = nl.add_gate(lib.expect("INV"), &[m1], "i1");
        let i2 = nl.add_gate(lib.expect("INV"), &[i1], "i2");
        let m2 = nl.add_gate(lib.expect("MUX2"), &[i2, f2, s], "m2");
        nl.mark_output(m2);

        let sta = Sta::new(&nl);
        // Structural: d →4×INV→ MUX(2.6) →2×INV→ MUX(2.6) = 11.2.
        assert_eq!(sta.critical_path_delay(), Delay::new(11.2));
        let mut bdd = Bdd::new(4);
        let exact = exact_output_delays(&nl, &sta, &mut bdd);
        assert_eq!(exact.len(), 1);
        // Exact: s=0 path f1 → MUX → 2×INV → MUX = 2.6+2+2.6 = 7.2.
        assert!(
            (exact[0].1.units() - 7.2).abs() < 1e-6,
            "exact delay {:?}, expected 7.2",
            exact[0].1
        );
        // And the SPCF above the exact delay is empty (false paths).
        let set = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, Delay::new(7.2));
        let zero = bdd.zero();
        assert!(set.outputs.iter().all(|o| o.spcf == zero));
    }

    #[test]
    fn exact_delay_equals_structural_when_paths_are_true() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let exact = exact_output_delays(&nl, &sta, &mut bdd);
        assert_eq!(exact[0].1, Delay::new(7.0));
    }

    #[test]
    fn waveform_lookup_boundaries() {
        // Degenerate check through the public API: at target == Δ the
        // SPCF must be empty (all patterns settled by Δ).
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, Delay::new(7.0));
        assert!(set.outputs.is_empty());
        // Just below Δ: the two 7-unit paths give a nonempty SPCF.
        let set = spcf_with(Algorithm::PathBased, &nl, &sta, &mut bdd, Delay::new(6.999));
        assert_eq!(set.outputs.len(), 1);
        assert!(set.critical_pattern_count(&bdd) > 0.0);
    }
}
