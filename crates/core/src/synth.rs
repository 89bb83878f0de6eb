//! Synthesis of the error-masking circuit (paper §4).
//!
//! Flow, following §4.1:
//!
//! 1. Run STA; compute the SPCF of every critical output at
//!    `Δ_y = target_fraction × Δ` with the short-path engine of §3.
//! 2. Extract the technology-independent network `T` of the original
//!    circuit (complex nodes of 10–15 inputs).
//! 3. For every node in the fanin cone of a critical output, prune the
//!    on-set and off-set covers by **essential weight** against the
//!    node's care set (the union of the SPCFs of the critical outputs
//!    whose cones contain it): cubes in ascending literal-count order; a
//!    cube survives iff it covers care patterns no earlier cube covered.
//!    The reduced covers `n⁰, n¹` give the prediction `ñ = n¹` and the
//!    indicator `e = n⁰ ⊕ n¹` (Eqn. 2), and `e` is re-minimized and
//!    pruned the same way.
//! 4. Assemble the masking network `T̃` (reduced nodes + per-node `e`
//!    nodes + an AND-reduction tree producing `e_y` per output), map it
//!    onto the library, and enforce ≥ `slack_fraction` timing slack over
//!    the original by gate sizing.
//! 5. Attach `T̃` beside the untouched original and insert one 2-to-1
//!    MUX per protected output (`e` on select; Fig. 1).

use crate::design::{MaskedDesign, ProtectedOutput};
use crate::options::{CubeSelection, MaskingOptions};
use crate::report::MaskingReport;
use std::collections::HashMap;
use std::time::Instant;
use tm_logic::bdd::{Bdd, BddRef};
use tm_logic::{qm, Cube, Sop, TruthTable};
use tm_netlist::extract::extract;
use tm_netlist::map::tech_map;
use tm_netlist::sop_network::{SigId, SigKind, SopNetwork};
use tm_netlist::{Delay, NetId, Netlist};
use tm_spcf::{Algorithm, SpcfSet, WarmSession};
use tm_sta::Sta;

/// How far the SPCF engine ladder had to degrade to fit the
/// computation budget (DESIGN.md §7).
///
/// Every rung is *sound*: a coarser rung computes a superset of the
/// exact SPCF, so the synthesized mask still covers every true
/// speed-path activation pattern — degradation costs area, never
/// correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// The exact short-path SPCF fit the budget (the paper's flow).
    Exact,
    /// The exact engine exhausted the budget; the node-based
    /// over-approximation (§3.1) was used instead.
    NodeBased,
    /// Even the node-based pass exhausted the budget; every pattern is
    /// guarded on every structurally critical output (duplication-level
    /// area, full coverage).
    Conservative,
}

impl std::fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradationLevel::Exact => "exact",
            DegradationLevel::NodeBased => "node_based",
            DegradationLevel::Conservative => "conservative",
        })
    }
}

impl From<Algorithm> for DegradationLevel {
    /// The level a run landed on, given the algorithm that succeeded.
    fn from(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::ShortPath | Algorithm::PathBased => DegradationLevel::Exact,
            Algorithm::NodeBased => DegradationLevel::NodeBased,
            Algorithm::Conservative => DegradationLevel::Conservative,
        }
    }
}

/// Everything `synthesize` produces: the design, the SPCFs (with their
/// BDD manager, needed for verification and counting), and the report.
pub struct MaskingResult {
    /// The synthesized masked design.
    pub design: MaskedDesign,
    /// BDD manager the SPCFs (and verification) live in.
    pub bdd: Bdd,
    /// The SPCF set the synthesis protected against.
    pub spcf: SpcfSet,
    /// Metrics mirroring the columns of Table 2.
    pub report: MaskingReport,
}

impl std::fmt::Debug for MaskingResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MaskingResult({:?})", self.report)
    }
}

/// Synthesizes the error-masking circuit for a mapped netlist.
///
/// # Panics
///
/// Panics if the options are invalid (see
/// [`MaskingOptions::validate`]) or internal invariants are violated
/// (cover selection failing to cover its care set indicates a bug, not
/// an input condition).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_masking::{synthesize, MaskingOptions};
/// use tm_netlist::{circuits::comparator2, library::lsi10k_like};
///
/// let nl = comparator2(Arc::new(lsi10k_like()));
/// let result = synthesize(&nl, MaskingOptions::default());
/// assert!(result.design.is_protected());
/// assert!(result.report.slack_percent >= 20.0);
/// ```
pub fn synthesize(netlist: &Netlist, options: MaskingOptions) -> MaskingResult {
    options.validate();
    let _span = tm_telemetry::span!("masking.synthesize");
    let start = Instant::now();
    let sta = Sta::new(netlist);
    let delta = sta.critical_path_delay();
    let target = delta * options.target_fraction;

    // A fresh manager and the degradation ladder: the exact short-path
    // SPCF, or the first coarser rung that fits the budget (DESIGN.md §7).
    let (mut bdd, spcf) = {
        let _s = tm_telemetry::span!("masking.spcf");
        let mut bdd = Bdd::new(netlist.inputs().len().max(1));
        let spcf = WarmSession::new(Algorithm::ShortPath, netlist, &sta, &mut bdd, options.budget)
            .retarget(target);
        (bdd, spcf)
    };
    let (design, report) =
        synthesize_from_spcf(netlist, &mut bdd, &spcf, delta, target, &options, start);
    bdd.publish_metrics();
    MaskingResult { design, bdd, spcf, report }
}

/// One point of [`synthesize_sweep`]: the masked design and its report
/// at one target fraction, plus the SPCF summary statistic the sweep
/// binaries print.
#[derive(Debug)]
pub struct SweepPoint {
    /// The target fraction this point protects (`Δ_y = fraction × Δ`).
    pub fraction: f64,
    /// The synthesized masked design at this point.
    pub design: MaskedDesign,
    /// Metrics at this point ([`MaskingReport::synthesis_time`] is the
    /// per-point compute time, SPCF included).
    pub report: MaskingReport,
    /// Mean per-output SPCF fraction of the input space.
    pub mean_spcf_fraction: f64,
}

/// Synthesizes masking for a ladder of target fractions against **one
/// warm SPCF session**: one BDD manager, one prime cache, one
/// global-BDD cache, and one short-path memo serve every point instead
/// of being rebuilt per threshold.
///
/// Fractions are evaluated in descending-`Δ_y` order (highest fraction
/// first), so each point only extends the memoized stabilization
/// queries of the previous one — the monotonicity
/// `Σ_y(Δ') ⊆ Σ_y(Δ)` for `Δ' ≥ Δ` means a tighter target revisits the
/// same cone with earlier query times that are already partially
/// cached. Points are returned in that evaluation order, tagged with
/// their fraction.
///
/// A point whose exact SPCF exhausts the budget steps down the same
/// degradation ladder as [`synthesize`], on the warm session. A rung is
/// given up only when a fresh engine of it exhausts, so under a memo
/// budget each point lands on the rung — and yields the report — of a
/// cold [`synthesize`] at its fraction. Node and step budgets charge
/// the shared manager, whose warm contents can move a point off the
/// cold rung (cached operations cost no steps; rooted functions of
/// earlier points hold nodes).
///
/// # Panics
///
/// Panics if the options are invalid or `fractions` is empty.
pub fn synthesize_sweep(
    netlist: &Netlist,
    fractions: &[f64],
    options: &MaskingOptions,
) -> Vec<SweepPoint> {
    options.validate();
    assert!(!fractions.is_empty(), "sweep needs at least one fraction");
    let _span = tm_telemetry::span!("masking.sweep");
    let sta = Sta::new(netlist);
    let delta = sta.critical_path_delay();
    let mut ladder = fractions.to_vec();
    ladder.sort_by(|a, b| b.total_cmp(a));

    let mut bdd = Bdd::new(netlist.inputs().len().max(1));
    let mut session =
        WarmSession::new(Algorithm::ShortPath, netlist, &sta, &mut bdd, options.budget);
    let mut points = Vec::with_capacity(ladder.len());
    for frac in ladder {
        let start = Instant::now();
        let target = delta * frac;
        let spcf = session.retarget(target);
        let mean_spcf_fraction = mean_spcf_fraction(session.bdd(), &spcf);
        let (design, report) =
            synthesize_from_spcf(netlist, session.bdd_mut(), &spcf, delta, target, options, start);
        points.push(SweepPoint { fraction: frac, design, report, mean_spcf_fraction });
    }
    drop(session);
    bdd.publish_metrics();
    points
}

/// Mean per-output SPCF fraction of the input space (zero when no
/// output is critical).
fn mean_spcf_fraction(bdd: &Bdd, spcf: &SpcfSet) -> f64 {
    if spcf.outputs.is_empty() {
        return 0.0;
    }
    spcf.outputs.iter().map(|o| bdd.sat_fraction(o.spcf)).sum::<f64>() / spcf.outputs.len() as f64
}

/// The synthesis flow from a computed SPCF set onward: cover
/// selection, masking-network assembly, mapping, slack enforcement,
/// and measurement. Factored out so [`synthesize`] (fresh manager)
/// and [`synthesize_sweep`] (one warm SPCF session across a
/// descending `Δ_y` ladder) share it exactly. The degradation level is
/// the rung `spcf` landed on.
fn synthesize_from_spcf(
    netlist: &Netlist,
    bdd: &mut Bdd,
    spcf: &SpcfSet,
    delta: Delay,
    target: Delay,
    options: &MaskingOptions,
    start: Instant,
) -> (MaskedDesign, MaskingReport) {
    let degradation = DegradationLevel::from(spcf.algorithm);
    // Progress eprintln's are the verbose tier: structured spans and
    // counters cover TM_TRACE=1, the log lines only appear at 2.
    let trace = tm_telemetry::trace_level() >= 2;
    macro_rules! trace {
        ($($arg:tt)*) => { if trace { eprintln!($($arg)*); } };
    }
    trace!("[synth {:?}] spcf ladder settled at {degradation}", start.elapsed());
    // The guard-everything rung has no per-pattern information to prune
    // against, and essential-weight selection would only rediscover the
    // full covers at BDD cost — force the FullCover path, which needs
    // no global BDDs at all.
    let cube_selection = match degradation {
        DegradationLevel::Conservative => CubeSelection::FullCover,
        _ => options.cube_selection,
    };
    let zero = bdd.zero();
    let protected_outputs: Vec<(NetId, BddRef)> = spcf
        .outputs
        .iter()
        .filter(|o| o.spcf != zero)
        .map(|o| (o.output, o.spcf))
        .collect();

    if protected_outputs.is_empty() {
        let design = MaskedDesign::unprotected(netlist.clone());
        let report = MaskingReport::measure(&design, spcf, bdd, delta, target, options.slack_fraction, degradation, start.elapsed());
        return (design, report);
    }

    // Technology-independent view of the original circuit. Global BDDs
    // are only needed to prune covers against care sets, so the
    // FullCover path (including the conservative rung, where they could
    // blow up on exactly the circuits that exhausted the budget) skips
    // building them entirely.
    trace!("[synth {:?}] spcf done", start.elapsed());
    let use_care = cube_selection == CubeSelection::EssentialWeight;
    let extract_span = tm_telemetry::span!("masking.extract");
    let tin = extract(netlist, options.extract);
    trace!("[synth {:?}] extract done ({} nodes)", start.elapsed(), tin.num_nodes());
    let globals: Vec<BddRef> = if use_care { tin.global_bdds(bdd) } else { Vec::new() };
    trace!("[synth {:?}] globals done", start.elapsed());
    drop(extract_span);

    // Structural cone membership gates which nodes get mask logic; the
    // care set per node (union of the SPCFs of critical outputs whose
    // fanin cone contains it) exists only on the essential-weight path.
    // The two gates agree: every protected output has a non-zero SPCF,
    // so `care[sig] != zero` exactly when `in_cone[sig]`.
    let sig_count = tin.num_sigs();
    let mut in_cone = vec![false; sig_count];
    let mut care: Vec<BddRef> = vec![zero; if use_care { sig_count } else { 0 }];
    let mut out_sig_of: HashMap<NetId, SigId> = HashMap::new();
    for (net, sigma) in &protected_outputs {
        let pos = netlist
            .outputs()
            .iter()
            .position(|o| o == net)
            .expect("SPCF output is a primary output");
        let y_sig = tin.outputs()[pos];
        out_sig_of.insert(*net, y_sig);
        for sig in tin.fanin_cone(y_sig) {
            if matches!(tin.kind(sig), SigKind::Node(_)) {
                in_cone[sig.index()] = true;
                if use_care {
                    let c = care[sig.index()];
                    care[sig.index()] = bdd.or(c, *sigma);
                }
            }
        }
    }

    // Per-node reduced covers and indicator covers.
    struct MaskNode {
        prediction: Sop,
        /// `None` when the indicator is tautologically 1.
        indicator: Option<Sop>,
    }
    let mut mask_nodes: HashMap<SigId, MaskNode> = HashMap::new();
    let covers_span = tm_telemetry::span!("masking.covers");
    for sig in tin.node_sigs() {
        if !in_cone[sig.index()] {
            continue;
        }
        let node = tin.node_of(sig).expect("node sig");
        let arity = node.inputs().len();
        let tt = node.truth_table();
        let on_cover = node.cover().sorted_by_literal_count();
        let off_cover = qm::minimize(&!&tt, &TruthTable::zero(arity)).sorted_by_literal_count();

        // BDD context for essential-weight selection; the FullCover
        // path needs none of it.
        let care_ctx = if use_care {
            let input_globals: Vec<BddRef> =
                node.inputs().iter().map(|i| globals[i.index()]).collect();
            Some((input_globals, care[sig.index()]))
        } else {
            None
        };

        let (sel_on, sel_off) = match &care_ctx {
            Some((input_globals, care_sig)) => {
                let f_sig = globals[sig.index()];
                let not_f = bdd.not(f_sig);
                let care_on = bdd.and(*care_sig, f_sig);
                let care_off = bdd.and(*care_sig, not_f);
                (
                    select_cover_by_essential_weight(bdd, &on_cover, input_globals, care_on),
                    select_cover_by_essential_weight(bdd, &off_cover, input_globals, care_off),
                )
            }
            None => (on_cover.clone(), off_cover.clone()),
        };

        // Indicator e = n⁰ ⊕ n¹ (Eqn. 2), then pruned against the care
        // set (the paper's further simplification).
        let on_tt = TruthTable::from_sop(arity, &sel_on);
        let off_tt = TruthTable::from_sop(arity, &sel_off);
        let e_tt = &on_tt ^ &off_tt;
        let e_cover = qm::minimize(&e_tt, &TruthTable::zero(arity)).sorted_by_literal_count();
        let e_final = match &care_ctx {
            Some((input_globals, care_sig)) => {
                select_cover_by_essential_weight(bdd, &e_cover, input_globals, *care_sig)
            }
            None => e_cover,
        };

        if trace && start.elapsed().as_secs() >= 2 {
            trace!("[synth {:?}] node {} arity {} on={} off={} e={}", start.elapsed(), tin.sig_name(sig), arity, sel_on.len(), sel_off.len(), e_final.len());
        }
        // A tautological indicator (e.g. for a node whose on/off covers
        // partition the whole local space, like an inverter) carries no
        // information: skip it so it neither becomes hardware nor an
        // AND-tree input.
        let e_is_tautology = TruthTable::from_sop(arity, &e_final).is_one();
        mask_nodes.insert(
            sig,
            MaskNode {
                prediction: sel_on,
                indicator: if e_is_tautology { None } else { Some(e_final) },
            },
        );
    }
    drop(covers_span);
    tm_telemetry::counter_add("masking.synth.nodes_masked", mask_nodes.len() as u64);
    trace!("[synth {:?}] node covers done ({} nodes)", start.elapsed(), mask_nodes.len());

    // Assemble the masking network: mirrored reduced nodes, per-node e
    // nodes, and an AND tree per protected output.
    let mut mnet = SopNetwork::new(format!("{}_mask", netlist.name()));
    let mut pred_sig: HashMap<SigId, SigId> = HashMap::new();
    let mut e_sig: HashMap<SigId, SigId> = HashMap::new();
    for &pi in tin.inputs() {
        let new = mnet.add_input(tin.sig_name(pi).to_string());
        pred_sig.insert(pi, new);
    }
    for sig in tin.node_sigs() {
        let Some(mask) = mask_nodes.get(&sig) else { continue };
        let node = tin.node_of(sig).expect("node");
        let inputs: Vec<SigId> = node.inputs().iter().map(|i| pred_sig[i]).collect();
        let name = tin.sig_name(sig);
        let p = mnet.add_node(format!("pred_{name}"), inputs.clone(), mask.prediction.clone());
        pred_sig.insert(sig, p);
        if let Some(ind) = &mask.indicator {
            let e = mnet.add_node(format!("e_{name}"), inputs, ind.clone());
            e_sig.insert(sig, e);
        }
    }

    // e_y = AND over the e's of every node in the cone (paper §4.1),
    // reduced through a bounded-arity AND tree.
    let mut masked_meta: Vec<(NetId, usize, usize)> = Vec::new(); // (orig net, ytilde pos, e pos)
    for (net, _sigma) in &protected_outputs {
        let y_sig = out_sig_of[net];
        let cone_es: Vec<SigId> = tin
            .fanin_cone(y_sig)
            .into_iter()
            .filter_map(|s| e_sig.get(&s).copied())
            .collect();
        let name = netlist.net_name(*net);
        let ey = and_tree(&mut mnet, &cone_es, options.and_tree_arity, &format!("ey_{name}"));
        let ytilde = pred_sig[&y_sig];
        let yt_pos = mnet.outputs().len();
        mnet.mark_output(ytilde);
        let e_pos = mnet.outputs().len();
        mnet.mark_output(ey);
        masked_meta.push((*net, yt_pos, e_pos));
    }
    let (mnet, _sig_map) = mnet.sweep();
    trace!("[synth {:?}] masking network assembled ({} nodes)", start.elapsed(), mnet.num_nodes());

    // Map the masking network, clean it up, and enforce the slack
    // budget.
    let map_span = tm_telemetry::span!("masking.map");
    let mapped = tech_map(&mnet, netlist.library().clone(), options.map);
    let (mut masking, cleanup_stats) = tm_netlist::cleanup::cleanup(&mapped);
    drop(map_span);
    trace!(
        "[synth {:?}] mapped ({} gates, cleanup removed {})",
        start.elapsed(),
        masking.num_gates(),
        cleanup_stats.removed()
    );
    let slack_budget = delta * (1.0 - options.slack_fraction);
    {
        let _s = tm_telemetry::span!("masking.slack");
        enforce_slack(&mut masking, slack_budget, options.sizing_iterations);
    }
    trace!("[synth {:?}] slack enforced", start.elapsed());

    let design = assemble_masked_design(netlist, masking, &masked_meta);
    trace!("[synth {:?}] combined built ({} gates)", start.elapsed(), design.combined.num_gates());
    let report = MaskingReport::measure(&design, spcf, bdd, delta, target, options.slack_fraction, degradation, start.elapsed());
    trace!("[synth {:?}] measured", start.elapsed());
    (design, report)
}

/// Assembles the combined masked design (Fig. 1): fresh inputs, the
/// original absorbed untouched, the masking circuit beside it, and one
/// MUX per protected output.
///
/// `masked_meta` pairs each protected original output net with the
/// positions of its `ỹ` and `e` outputs in the masking netlist.
pub(crate) fn assemble_masked_design(
    netlist: &Netlist,
    masking: Netlist,
    masked_meta: &[(NetId, usize, usize)],
) -> MaskedDesign {
    let mut combined =
        Netlist::new(format!("{}_masked", netlist.name()), netlist.library().clone());
    let pis: Vec<NetId> = netlist
        .inputs()
        .iter()
        .map(|&i| combined.add_input(netlist.net_name(i).to_string()))
        .collect();
    let orig_map = combined.absorb(netlist, &pis);
    let mask_map = combined.absorb(&masking, &pis);
    let lib = netlist.library();
    let mux_cell = lib.expect("MUX2");

    let mut protected = Vec::new();
    for (net, yt_pos, e_pos) in masked_meta {
        let ytilde_m = masking.outputs()[*yt_pos];
        let e_m = masking.outputs()[*e_pos];
        let y_c = orig_map[net];
        let yt_c = mask_map[&ytilde_m];
        let e_c = mask_map[&e_m];
        let name = format!("masked_{}", netlist.net_name(*net));
        let masked = combined.add_gate(mux_cell, &[y_c, yt_c, e_c], name);
        protected.push(ProtectedOutput {
            position: netlist.outputs().iter().position(|o| o == net).expect("output"),
            original: *net,
            ytilde: ytilde_m,
            e: e_m,
            masked,
            ytilde_combined: yt_c,
            e_combined: e_c,
            original_combined: y_c,
        });
    }
    for (pos, &o) in netlist.outputs().iter().enumerate() {
        match protected.iter().find(|p| p.position == pos) {
            Some(p) => combined.mark_output(p.masked),
            None => combined.mark_output(orig_map[&o]),
        }
    }

    MaskedDesign { original: netlist.clone(), masking, combined, protected }
}

/// Essential-weight cover selection (paper §4.1): keep the cubes, in
/// ascending literal-count order, that cover care patterns no earlier
/// cube covered; then drop selected cubes made redundant by later picks.
///
/// # Panics
///
/// Panics if the cover does not cover the care set (cannot happen for
/// covers of the node function and care sets within it).
fn select_cover_by_essential_weight(
    bdd: &mut Bdd,
    cover: &Sop,
    input_globals: &[BddRef],
    care: BddRef,
) -> Sop {
    let arity = cover.num_vars();
    tm_telemetry::counter_add("masking.synth.selection_rounds", 1);
    tm_telemetry::counter_add("masking.synth.cubes_considered", cover.cubes().len() as u64);
    let mut remaining = care;
    let mut selected: Vec<(Cube, BddRef)> = Vec::new();
    for cube in cover.cubes() {
        if remaining == bdd.zero() {
            break;
        }
        let cond = cube_condition(bdd, cube, input_globals);
        let hit = bdd.and(remaining, cond);
        if hit != bdd.zero() {
            selected.push((*cube, cond));
            remaining = bdd.diff(remaining, cond);
        }
    }
    assert!(
        remaining == bdd.zero(),
        "cover selection failed to cover its care set (internal invariant)"
    );
    // Irredundancy pass: a cube whose care contribution is covered by
    // the other selected cubes can go (scan largest cubes last so small
    // specific cubes are dropped first).
    let mut keep = vec![true; selected.len()];
    for i in (0..selected.len()).rev() {
        let others: Vec<BddRef> = selected
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i && keep[*j])
            .map(|(_, (_, cond))| *cond)
            .collect();
        let union = bdd.or_all(others);
        let care_i = bdd.and(care, selected[i].1);
        if bdd.is_subset(care_i, union) {
            keep[i] = false;
        }
    }
    let cubes: Vec<Cube> = selected
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|((c, _), _)| c)
        .collect();
    tm_telemetry::counter_add("masking.synth.cubes_kept", cubes.len() as u64);
    Sop::from_cubes(arity, cubes)
}

/// Global condition of a local cube: conjunction of its literals'
/// global functions.
fn cube_condition(bdd: &mut Bdd, cube: &Cube, input_globals: &[BddRef]) -> BddRef {
    let lits: Vec<BddRef> = cube
        .literals()
        .map(|(pos, pol)| {
            let f = input_globals[pos];
            if pol {
                f
            } else {
                bdd.not(f)
            }
        })
        .collect();
    bdd.and_all(lits)
}

/// Builds a bounded-arity AND-reduction tree over `sigs`, returning the
/// root (or a constant-one node for an empty set).
fn and_tree(net: &mut SopNetwork, sigs: &[SigId], arity: usize, name: &str) -> SigId {
    if sigs.is_empty() {
        return net.add_node(format!("{name}_const1"), Vec::new(), Sop::one(0));
    }
    let mut layer: Vec<SigId> = sigs.to_vec();
    let mut level = 0;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(arity));
        for (j, chunk) in layer.chunks(arity).enumerate() {
            if chunk.len() == 1 {
                next.push(chunk[0]);
                continue;
            }
            let k = chunk.len();
            let cube = Cube::from_literals(k, &(0..k).map(|i| (i, true)).collect::<Vec<_>>());
            let sig = net.add_node(
                format!("{name}_l{level}_{j}"),
                chunk.to_vec(),
                Sop::from_cubes(k, vec![cube]),
            );
            next.push(sig);
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// Upsizes gates on the worst paths of `masking` until its critical
/// path delay fits within `budget` (or no further sizing helps).
///
/// Returns `true` when the budget is met.
pub(crate) fn enforce_slack(masking: &mut Netlist, budget: Delay, max_iterations: usize) -> bool {
    for _ in 0..max_iterations {
        let sta = Sta::new(masking);
        let delay = sta.critical_path_delay();
        if delay <= budget {
            return true;
        }
        // Find the worst output and upsize the slowest still-sizable
        // gate on its worst path.
        let worst_out = masking
            .outputs()
            .iter()
            .copied()
            .max_by(|a, b| sta.arrival(*a).units().total_cmp(&sta.arrival(*b).units()))
            .expect("masking circuit has outputs");
        let path = sta.worst_path(worst_out);
        let lib = masking.library().clone();
        let mut resized = false;
        for &(gid, _pin) in &path.gates {
            let cell = masking.gate(gid).cell();
            if let Some(fast) = lib.fast_variant(cell) {
                masking.resize_gate(gid, fast);
                resized = true;
            }
        }
        if !resized {
            return false; // whole worst path already at max drive
        }
    }
    let sta = Sta::new(masking);
    sta.critical_path_delay() <= budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;

    fn comparator_result() -> MaskingResult {
        let nl = comparator2(Arc::new(lsi10k_like()));
        synthesize(&nl, MaskingOptions::default())
    }

    #[test]
    fn comparator_is_protected() {
        let r = comparator_result();
        assert!(r.design.is_protected());
        assert_eq!(r.design.protected.len(), 1);
        assert_eq!(r.report.critical_outputs, 1);
        assert_eq!(r.report.critical_patterns, 10.0);
    }

    #[test]
    fn combined_preserves_function() {
        let r = comparator_result();
        let nl = &r.design.original;
        for m in 0..16u64 {
            let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(r.design.combined.eval(&a), nl.eval(&a), "m={m}");
        }
    }

    #[test]
    fn indicator_covers_spcf_and_prediction_correct_under_e() {
        let r = comparator_result();
        let p = &r.design.protected[0];
        let bdd = &r.bdd;
        // Evaluate ỹ and e as functions via the masking netlist.
        let nl = &r.design.masking;
        for m in 0..16u64 {
            let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let vals = nl.eval_all_nets(&a);
            let e = vals[p.e.index()];
            let yt = vals[p.ytilde.index()];
            let y = r.design.original.eval(&a)[p.position];
            let in_spcf = bdd.eval(r.spcf.outputs[0].spcf, &a);
            if in_spcf {
                assert!(e, "pattern {m} in SPCF but e=0");
            }
            if e {
                assert_eq!(yt, y, "pattern {m}: e=1 but prediction wrong");
            }
        }
    }

    #[test]
    fn masking_circuit_has_required_slack() {
        let r = comparator_result();
        assert!(r.report.slack_met, "slack: {}%", r.report.slack_percent);
        assert!(r.report.slack_percent >= 20.0);
    }

    #[test]
    fn full_cover_ablation_is_bigger() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let essential = synthesize(&nl, MaskingOptions::default());
        let full = synthesize(
            &nl,
            MaskingOptions { cube_selection: CubeSelection::FullCover, ..Default::default() },
        );
        assert!(
            full.design.masking.area() >= essential.design.masking.area(),
            "full {} < essential {}",
            full.design.masking.area(),
            essential.design.masking.area()
        );
        // Both remain functionally safe.
        for m in 0..16u64 {
            let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(full.design.combined.eval(&a), nl.eval(&a));
        }
    }

    #[test]
    fn sweep_matches_cold_per_point_synthesis() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let points = synthesize_sweep(&nl, &[0.5, 0.9, 0.99], &MaskingOptions::default());
        assert_eq!(points.len(), 3);
        // Evaluated (and returned) in descending-Δ_y order.
        assert!(points.windows(2).all(|w| w[0].fraction >= w[1].fraction));
        for p in &points {
            let cold = synthesize(
                &nl,
                MaskingOptions { target_fraction: p.fraction, ..Default::default() },
            );
            assert_eq!(
                p.report.critical_outputs, cold.report.critical_outputs,
                "fraction {}",
                p.fraction
            );
            assert_eq!(p.report.critical_patterns, cold.report.critical_patterns);
            assert_eq!(p.design.combined.num_gates(), cold.design.combined.num_gates());
            assert_eq!(p.report.degradation, DegradationLevel::Exact);
            for m in 0..16u64 {
                let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(p.design.combined.eval(&a), nl.eval(&a), "m={m}");
            }
        }
    }

    #[test]
    fn unprotected_when_target_met() {
        // Target fraction very close to 1.0 with integer delays: no
        // paths between 0.999Δ and Δ except the critical ones... use a
        // circuit-free check instead: raise target_fraction so high that
        // Δ_y ≥ all path delays is impossible (Δ_y < Δ always). Use a
        // balanced circuit where all paths are critical instead.
        let lib = Arc::new(lsi10k_like());
        let nl = tm_netlist::circuits::parity(lib, 4);
        // parity tree: all paths equal length → no path in (0.9Δ, Δ)
        // except the critical ones; every pattern exercises them, so
        // SPCF is the full space and the output is protected.
        let r = synthesize(&nl, MaskingOptions::default());
        assert!(r.design.is_protected());
        for m in 0..16u64 {
            let a: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(r.design.combined.eval(&a), nl.eval(&a));
        }
    }
}
