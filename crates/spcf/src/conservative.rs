//! The guard-everything SPCF: the floor of the degradation ladder
//! ([`crate::WarmState::point_with_fallback`], DESIGN.md §7).
//!
//! When even the node-based over-approximation exhausts its budget, the
//! ladder falls back to declaring *every* input pattern a speed-path
//! activation pattern for every structurally critical output (the same
//! criticality filter as the real engines). This is the coarsest sound
//! over-approximation: the true SPCF is trivially a subset of the full
//! input space, so a mask synthesized against it still satisfies the
//! coverage invariant `Σ_y ⇒ e_y` — it simply fires on every cycle and
//! pays duplication-level area. No BDD work beyond the constant-true
//! node is performed, so the ladder runs this rung unbudgeted and it
//! cannot fail. Run it directly with
//! [`spcf_with`](crate::spcf_with)`(Algorithm::Conservative, …)`.

use crate::engine::{EngineCx, SpcfEngine};
use crate::Algorithm;
use tm_logic::bdd::BddRef;
use tm_netlist::NetId;
use tm_resilience::Exhausted;

/// The guard-everything engine: every critical output's SPCF is the
/// constant-one function.
pub struct ConservativeEngine;

impl SpcfEngine for ConservativeEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Conservative
    }

    fn compute_output(
        &mut self,
        cx: &mut EngineCx<'_, '_>,
        _output: NetId,
    ) -> Result<BddRef, Exhausted> {
        Ok(cx.bdd.one())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spcf_with;
    use std::sync::Arc;
    use tm_logic::Bdd;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_netlist::Delay;
    use tm_sta::Sta;

    #[test]
    fn guards_exactly_the_critical_outputs() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let set = spcf_with(Algorithm::Conservative, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(set.algorithm, Algorithm::Conservative);
        assert_eq!(set.outputs.len(), 1);
        assert_eq!(set.outputs[0].spcf, bdd.one());
        assert_eq!(set.critical_pattern_count(&bdd), 16.0);
        // Relaxed target: nothing is critical, nothing is guarded.
        let relaxed = spcf_with(Algorithm::Conservative, &nl, &sta, &mut bdd, Delay::new(7.0));
        assert!(relaxed.outputs.is_empty());
    }

    #[test]
    fn contains_the_exact_spcf() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sta = Sta::new(&nl);
        let mut bdd = Bdd::new(4);
        let guard = spcf_with(Algorithm::Conservative, &nl, &sta, &mut bdd, Delay::new(6.3));
        let exact = spcf_with(Algorithm::ShortPath, &nl, &sta, &mut bdd, Delay::new(6.3));
        assert_eq!(guard.outputs.len(), exact.outputs.len());
        for (g, e) in guard.outputs.iter().zip(&exact.outputs) {
            assert_eq!(g.output, e.output);
            assert!(bdd.is_subset(e.spcf, g.spcf));
        }
    }
}
