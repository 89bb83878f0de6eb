//! Ablation baselines for the design choices §4 argues against.
//!
//! The paper rejects *top-down synthesis* — "in the extreme case,
//! duplication of the critical paths of C … the duplicated paths will be
//! as susceptible to timing errors as the critical paths in the original
//! circuit". [`duplication_masking`] implements exactly that baseline:
//! the fanin cones of the critical outputs are copied verbatim, the
//! prediction is the copy's output, and the indicator is constant 1.
//! Functionally it masks perfectly; physically it has (near) zero slack,
//! so under aging it fails together with the original — which the
//! injection experiments demonstrate.
//!
//! The cube-selection ablation (`CubeSelection::FullCover`) lives in
//! [`crate::options`]; extraction-bound and target sweeps are driven by
//! the bench harness with ordinary [`crate::MaskingOptions`].

use crate::options::MaskingOptions;
use crate::report::MaskingReport;
use crate::synth::{assemble_masked_design, DegradationLevel, MaskingResult};
use std::collections::HashMap;
use std::time::Instant;
use tm_logic::Bdd;
use tm_netlist::{NetId, Netlist};
use tm_spcf::{spcf_with, Algorithm};
use tm_sta::Sta;

/// The top-down duplication baseline: copy the critical cones, predict
/// with the copy, indicate always.
///
/// The returned result is drop-in comparable with
/// [`crate::synthesize`]'s: same report fields, same verification
/// interface (it passes — duplication is functionally sound), but
/// `report.slack_met` is false on any circuit whose critical cone *is*
/// the critical path, because a copy cannot be faster than the
/// original.
///
/// # Panics
///
/// Panics on invalid options.
pub fn duplication_masking(netlist: &Netlist, options: MaskingOptions) -> MaskingResult {
    options.validate();
    let start = Instant::now();
    let sta = Sta::new(netlist);
    let delta = sta.critical_path_delay();
    let target = delta * options.target_fraction;

    let mut bdd = Bdd::new(netlist.inputs().len().max(1));
    let spcf = spcf_with(Algorithm::ShortPath, netlist, &sta, &mut bdd, target);
    let zero = bdd.zero();
    let protected: Vec<NetId> = spcf
        .outputs
        .iter()
        .filter(|o| o.spcf != zero)
        .map(|o| o.output)
        .collect();

    if protected.is_empty() {
        let design = crate::design::MaskedDesign::unprotected(netlist.clone());
        let report = MaskingReport::measure(
            &design,
            &spcf,
            &mut bdd,
            delta,
            target,
            options.slack_fraction,
            DegradationLevel::Exact,
            start.elapsed(),
        );
        return MaskingResult { design, bdd, spcf, report };
    }

    // Duplicate the union of the critical cones into a fresh netlist.
    let lib = netlist.library().clone();
    let mut masking = Netlist::new(format!("{}_dup", netlist.name()), lib.clone());
    let mut copy_of: HashMap<NetId, NetId> = HashMap::new();
    for &pi in netlist.inputs() {
        let c = masking.add_input(netlist.net_name(pi).to_string());
        copy_of.insert(pi, c);
    }
    let mut in_cone = vec![false; netlist.num_nets()];
    for &net in &protected {
        let (gates, _) = netlist.fanin_cone(net);
        for g in gates {
            in_cone[netlist.gate(g).output().index()] = true;
        }
    }
    for (_, g) in netlist.gates() {
        let out = g.output();
        if !in_cone[out.index()] {
            continue;
        }
        let inputs: Vec<NetId> = g.inputs().iter().map(|i| copy_of[i]).collect();
        let c = masking.add_gate(g.cell(), &inputs, format!("dup_{}", netlist.net_name(out)));
        copy_of.insert(out, c);
    }

    let tie1 = lib.expect("TIE1");
    let mut masked_meta = Vec::with_capacity(protected.len());
    for &net in &protected {
        let yt = copy_of[&net];
        let yt_pos = masking.outputs().len();
        masking.mark_output(yt);
        let e = masking.add_gate(tie1, &[], format!("e_{}", netlist.net_name(net)));
        let e_pos = masking.outputs().len();
        masking.mark_output(e);
        masked_meta.push((net, yt_pos, e_pos));
    }

    let design = assemble_masked_design(netlist, masking, &masked_meta);
    let report = MaskingReport::measure(
        &design,
        &spcf,
        &mut bdd,
        delta,
        target,
        options.slack_fraction,
        DegradationLevel::Exact,
        start.elapsed(),
    );
    MaskingResult { design, bdd, spcf, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{inject_and_measure, uniform_aging};
    use crate::synth::synthesize;
    use crate::verify::verify;
    use std::sync::Arc;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_sim::patterns::random_vectors;

    #[test]
    fn duplication_is_functionally_sound_but_has_no_slack() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let mut dup = duplication_masking(&nl, MaskingOptions::default());
        let v = verify(&mut dup);
        assert!(v.all_ok(), "duplication masks correctly in the functional domain");
        // But the copy is exactly as slow as the original: no slack.
        assert!(!dup.report.slack_met);
        assert!(dup.report.slack_percent < 20.0);
        // The proposed synthesis meets the budget on the same circuit.
        let proposed = synthesize(&nl, MaskingOptions::default());
        assert!(proposed.report.slack_met);
    }

    #[test]
    fn duplication_fails_under_common_mode_aging() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let dup = duplication_masking(&nl, MaskingOptions::default());
        let proposed = synthesize(&nl, MaskingOptions::default());
        let clock = Sta::new(&nl).critical_path_delay();
        let vectors = random_vectors(4, 500, 99);
        // Common-mode wearout: everything (original + masking) ages 8%.
        let dup_scale = uniform_aging(&dup.design, 1.08).expect("valid factor");
        let dup_out = inject_and_measure(&dup.design, &dup_scale, clock, &vectors)
            .expect("valid run");
        let prop_scale = uniform_aging(&proposed.design, 1.08).expect("valid factor");
        let prop_out = inject_and_measure(&proposed.design, &prop_scale, clock, &vectors)
            .expect("valid run");
        assert!(dup_out.raw_errors > 0);
        // The duplicate is as late as the original: errors escape.
        assert!(
            dup_out.masked_errors > 0,
            "duplication baseline unexpectedly masked everything: {dup_out:?}"
        );
        // The proposed masking circuit rides on its slack: nothing escapes.
        assert_eq!(prop_out.masked_errors, 0, "{prop_out:?}");
    }
}
