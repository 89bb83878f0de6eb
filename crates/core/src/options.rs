//! Configuration of the error-masking synthesis flow.

use tm_netlist::extract::ExtractOptions;
use tm_netlist::map::MapOptions;
use tm_resilience::Budget;

/// How node covers are pruned against the SPCF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CubeSelection {
    /// The paper's essential-weight selection (§4.1): cubes sorted by
    /// ascending literal count; a cube survives only if it covers SPCF
    /// patterns no earlier cube covered.
    EssentialWeight,
    /// Keep the full minimized covers (no SPCF-driven pruning). Ablation
    /// baseline: shows how much area the don't-care space saves.
    FullCover,
}

/// Options for [`crate::synthesize`].
#[derive(Clone, Copy, Debug)]
pub struct MaskingOptions {
    /// Target arrival time as a fraction of the critical path delay `Δ`;
    /// the paper protects speed-paths within 10 % of `Δ`, i.e. `0.9`.
    pub target_fraction: f64,
    /// Minimum timing slack of the masking circuit over the original
    /// (paper: at least 20 %, i.e. `0.2`).
    pub slack_fraction: f64,
    /// Technology-independent node support bound (paper: 10–15 inputs).
    pub extract: ExtractOptions,
    /// Technology-mapping options for the masking circuit.
    pub map: MapOptions,
    /// Fan-in bound of the `e_y` AND-reduction tree nodes.
    pub and_tree_arity: usize,
    /// Cube-selection strategy.
    pub cube_selection: CubeSelection,
    /// Maximum gate-sizing iterations when enforcing the slack budget.
    pub sizing_iterations: usize,
    /// Computation budget for the SPCF construction. When a rung of the
    /// engine ladder exhausts it, [`crate::synthesize`] steps down to a
    /// coarser — but still sound — over-approximation instead of
    /// running away (DESIGN.md §7). Unlimited by default.
    pub budget: Budget,
}

impl Default for MaskingOptions {
    fn default() -> Self {
        MaskingOptions {
            target_fraction: 0.9,
            slack_fraction: 0.2,
            extract: ExtractOptions::default(),
            map: MapOptions::default(),
            and_tree_arity: 8,
            cube_selection: CubeSelection::EssentialWeight,
            sizing_iterations: 40,
            budget: Budget::unlimited(),
        }
    }
}

impl MaskingOptions {
    /// Validates option invariants.
    ///
    /// # Panics
    ///
    /// Panics if fractions are outside `(0, 1)` or the AND-tree arity is
    /// smaller than 2.
    pub fn validate(&self) {
        assert!(
            self.target_fraction > 0.0 && self.target_fraction < 1.0,
            "target_fraction must be in (0, 1)"
        );
        assert!(
            self.slack_fraction > 0.0 && self.slack_fraction < 1.0,
            "slack_fraction must be in (0, 1)"
        );
        assert!(self.and_tree_arity >= 2, "AND tree needs arity >= 2");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = MaskingOptions::default();
        assert_eq!(o.target_fraction, 0.9);
        assert_eq!(o.slack_fraction, 0.2);
        assert_eq!(o.cube_selection, CubeSelection::EssentialWeight);
        o.validate();
    }

    #[test]
    #[should_panic(expected = "target_fraction")]
    fn bad_fraction_rejected() {
        let o = MaskingOptions { target_fraction: 1.5, ..Default::default() };
        o.validate();
    }
}
