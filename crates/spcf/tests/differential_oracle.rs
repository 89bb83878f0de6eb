//! Differential oracle suite for the three SPCF engines.
//!
//! Randomized netlists are pushed through the node-based, path-based
//! and short-path engines (`spcf_with`), and the results are
//! cross-checked three ways:
//!
//! 1. **Engine agreement**: the two exact engines produce identical
//!    BDDs per critical output, and both are contained in the
//!    node-based over-approximation (`short_path == path_based ⊆
//!    node_based`).
//! 2. **Brute-force exhaustive oracle**: for every input pattern of a
//!    small circuit (≤14 inputs), the floating-mode settle time of
//!    each output is computed by a direct pointwise recursion over
//!    satisfied prime implicants — an independent, non-symbolic code
//!    path — and pattern-by-pattern membership must match the exact
//!    SPCFs.
//! 3. **Event-driven containment**: any output that samples wrong at
//!    the target time in the two-vector event simulation must be a
//!    pattern the exact SPCF contains (a specific previous state can
//!    never be slower than the floating-mode worst case).
//!
//! Runs on the in-repo `tm-testkit` property runner; a failing case
//! prints its seed (reproduce with `TM_PROP_SEED=<seed>`).

use std::sync::Arc;
use tm_logic::{qm, Bdd, Cube};
use tm_netlist::generate::{generate, GeneratorSpec};
use tm_netlist::library::lsi10k_like;
use tm_netlist::{Delay, Netlist};
use tm_sim::patterns::random_vectors;
use tm_sim::timing::TimingSim;
use tm_spcf::common::distinct_fanins;
use tm_spcf::{spcf_with, Algorithm, SpcfSet};
use tm_sta::Sta;
use tm_testkit::prop::{check, Config, Gen};
use tm_testkit::{prop_assert, prop_assert_eq};

/// Per-gate data for the brute-force oracle, precomputed once per
/// netlist: distinct fanin nets, their quantized pin delays, and the
/// on-/off-set prime implicants of the remapped cell function.
struct OracleGate {
    out: usize,
    fanins: Vec<usize>,
    delays_q: Vec<i64>,
    on: Vec<Cube>,
    off: Vec<Cube>,
}

fn oracle_gates(nl: &Netlist, sta: &Sta<'_>) -> Vec<OracleGate> {
    nl.topo_order()
        .into_iter()
        .map(|gid| {
            let (nets, delays, tt) = distinct_fanins(nl, sta, gid);
            let (on, off) = qm::on_off_primes(&tt);
            OracleGate {
                out: nl.gate(gid).output().index(),
                fanins: nets.iter().map(|n| n.index()).collect(),
                delays_q: delays.iter().map(|d| d.quantize()).collect(),
                on,
                off,
            }
        })
        .collect()
}

/// Floating-mode settle time of every net for one input pattern, in
/// quantized femto-units. Inputs settle at 0; a gate output settles at
/// the earliest time some prime implicant of its final value's cover
/// has every literal settled (Eqn. 1 evaluated pointwise: min over
/// satisfied primes of max over literals of fanin settle + pin delay).
fn brute_settle_times(
    nl: &Netlist,
    gates: &[OracleGate],
    pattern: &[bool],
) -> Vec<i64> {
    let values = nl.eval_all_nets(pattern);
    let mut settle = vec![0i64; nl.num_nets()];
    for g in gates {
        let mut minterm = 0u64;
        for (pos, &f) in g.fanins.iter().enumerate() {
            if values[f] {
                minterm |= 1 << pos;
            }
        }
        let primes = if values[g.out] { &g.on } else { &g.off };
        let mut best: Option<i64> = None;
        for p in primes {
            if !p.eval(minterm) {
                continue;
            }
            let mut t = 0i64;
            for (var, _) in p.literals() {
                t = t.max(settle[g.fanins[var]] + g.delays_q[var]);
            }
            best = Some(best.map_or(t, |b: i64| b.min(t)));
        }
        settle[g.out] = best.expect("a gate's final value is covered by its prime cover");
    }
    settle
}

fn gen_case(g: &mut Gen, inputs: std::ops::Range<usize>) -> (Netlist, f64) {
    let inputs = g.gen_range(inputs);
    let outputs = g.gen_range(2usize..5);
    let gates = g.gen_range(15usize..45);
    let seed = g.gen_range(0u64..1_000_000);
    let frac = g.gen_range(0.55f64..0.95);
    let mut spec = GeneratorSpec::sized(format!("oracle_{seed}"), inputs, outputs, gates);
    spec.seed = seed;
    (generate(&spec, Arc::new(lsi10k_like())), frac)
}

/// Runs all three engines and checks the structural invariants:
/// identical critical-output lists, `short_path == path_based` per
/// output, both contained in `node_based`, and every unlisted output
/// genuinely non-critical. Returns the three sets for further checks.
fn engines_agree(
    nl: &Netlist,
    sta: &Sta<'_>,
    bdd: &mut Bdd,
    target: Delay,
) -> Result<(SpcfSet, SpcfSet, SpcfSet), String> {
    let sp = spcf_with(Algorithm::ShortPath, nl, sta, bdd, target);
    let pb = spcf_with(Algorithm::PathBased, nl, sta, bdd, target);
    let nb = spcf_with(Algorithm::NodeBased, nl, sta, bdd, target);

    let outs = |s: &SpcfSet| s.outputs.iter().map(|o| o.output).collect::<Vec<_>>();
    prop_assert_eq!(outs(&sp), outs(&pb), "critical-output lists differ (sp vs pb)");
    prop_assert_eq!(outs(&sp), outs(&nb), "critical-output lists differ (sp vs nb)");

    for &o in nl.outputs() {
        if sp.spcf_of(o).is_none() {
            prop_assert!(
                sta.arrival(o) <= target,
                "output {} unlisted but arrives after the target",
                nl.net_name(o)
            );
        }
    }

    for (i, o) in sp.outputs.iter().enumerate() {
        prop_assert!(
            o.spcf == pb.outputs[i].spcf,
            "short-path SPCF != path-based SPCF for output {}",
            nl.net_name(o.output)
        );
        prop_assert!(
            bdd.is_subset(o.spcf, nb.outputs[i].spcf),
            "exact SPCF not contained in node-based SPCF for output {}",
            nl.net_name(o.output)
        );
    }

    // Export differential: the same SPCF exported from an independently
    // grown manager must encode byte-identically — the [`PortableBdd`]
    // encoding is structural (the plain ROBDD of the function), never
    // historical (allocation order, complement parity, cache state).
    let mut fresh = Bdd::new(nl.inputs().len());
    let sp2 = spcf_with(Algorithm::ShortPath, nl, sta, &mut fresh, target);
    for (a, b) in sp.outputs.iter().zip(&sp2.outputs) {
        prop_assert!(
            bdd.export(a.spcf) == fresh.export(b.spcf),
            "PortableBdd export differs between managers for output {}",
            nl.net_name(a.output)
        );
    }
    Ok((sp, pb, nb))
}

/// Exhaustive check of one circuit against the brute-force oracle:
/// every pattern's exact-SPCF membership equals `settle > target`, and
/// the node-based set contains every genuinely slow pattern.
fn exhaustive_matches_oracle(
    nl: &Netlist,
    sta: &Sta<'_>,
    bdd: &Bdd,
    target: Delay,
    sp: &SpcfSet,
    nb: &SpcfSet,
) -> Result<(), String> {
    let qt = target.quantize();
    let gates = oracle_gates(nl, sta);
    let n = nl.inputs().len();
    let mut assignment = vec![false; n];
    for m in 0..(1u64 << n) {
        for (i, a) in assignment.iter_mut().enumerate() {
            *a = (m >> i) & 1 == 1;
        }
        let settle = brute_settle_times(nl, &gates, &assignment);
        for o in &sp.outputs {
            let slow = settle[o.output.index()] > qt;
            prop_assert_eq!(
                bdd.eval(o.spcf, &assignment),
                slow,
                "exact SPCF disagrees with brute-force oracle: output {} pattern {m:#b} \
                 (settle {} vs target {qt})",
                nl.net_name(o.output),
                settle[o.output.index()]
            );
        }
        for o in &nb.outputs {
            if settle[o.output.index()] > qt {
                prop_assert!(
                    bdd.eval(o.spcf, &assignment),
                    "node-based SPCF misses a slow pattern: output {} pattern {m:#b}",
                    nl.net_name(o.output)
                );
            }
        }
    }
    Ok(())
}

/// ≥50 randomized small netlists: engine agreement plus exhaustive
/// brute-force agreement over the full input space.
#[test]
fn differential_oracle_small_exhaustive() {
    check(
        "differential_oracle_small_exhaustive",
        &Config::with_cases(50),
        |g| gen_case(g, 5..9),
        |(nl, frac)| {
            let sta = Sta::new(nl);
            let target = sta.critical_path_delay() * *frac;
            let mut bdd = Bdd::new(nl.inputs().len());
            let (sp, _pb, nb) = engines_agree(nl, &sta, &mut bdd, target)?;
            exhaustive_matches_oracle(nl, &sta, &bdd, target, &sp, &nb)
        },
    );
}

/// A handful of wider circuits (up to 14 inputs — the exhaustive
/// ceiling named in the roadmap): same engine-agreement and
/// brute-force-agreement invariants over all 2^n patterns.
#[test]
fn differential_oracle_larger_circuits() {
    check(
        "differential_oracle_larger_circuits",
        &Config::with_cases(6),
        |g| gen_case(g, 10..15),
        |(nl, frac)| {
            let sta = Sta::new(nl);
            let target = sta.critical_path_delay() * *frac;
            let mut bdd = Bdd::new(nl.inputs().len());
            let (sp, _pb, nb) = engines_agree(nl, &sta, &mut bdd, target)?;
            exhaustive_matches_oracle(nl, &sta, &bdd, target, &sp, &nb)
        },
    );
}

/// Event-driven simulation is a lower bound on the floating-mode
/// oracle, and any output that samples wrong at the target is a
/// pattern the exact SPCF contains.
#[test]
fn event_sim_contained_in_spcf() {
    check(
        "event_sim_contained_in_spcf",
        &Config::with_cases(25),
        |g| {
            let case = gen_case(g, 5..9);
            let vec_seed = g.gen_range(0u64..100_000);
            (case.0, case.1, vec_seed)
        },
        |(nl, frac, vec_seed)| {
            let sta = Sta::new(nl);
            let target = sta.critical_path_delay() * *frac;
            let qt = target.quantize();
            let mut bdd = Bdd::new(nl.inputs().len());
            let sp = spcf_with(Algorithm::ShortPath, nl, &sta, &mut bdd, target);

            let gates = oracle_gates(nl, &sta);
            let sim = TimingSim::new(nl);
            let vectors = random_vectors(nl.inputs().len(), 16, *vec_seed);
            for pair in vectors.windows(2) {
                let r = sim.transition(&pair[0], &pair[1], target);
                let settle = brute_settle_times(nl, &gates, &pair[1]);
                for (pos, &o) in nl.outputs().iter().enumerate() {
                    prop_assert!(
                        r.output_settle[pos].quantize() <= settle[o.index()],
                        "event sim settled output {} after the floating-mode bound",
                        nl.net_name(o)
                    );
                    if r.sampled[pos] != r.settled[pos] {
                        let spcf = sp
                            .spcf_of(o)
                            .ok_or_else(|| format!("erring output {} has no SPCF", nl.net_name(o)))?;
                        prop_assert!(
                            bdd.eval(spcf, &pair[1]),
                            "output {} sampled wrong at the target but its pattern is \
                             outside the exact SPCF (settle {} vs target {qt})",
                            nl.net_name(o),
                            settle[o.index()]
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
