//! Measurement of masked designs: the columns of the paper's Table 2.

use crate::design::MaskedDesign;
use crate::synth::DegradationLevel;
use std::time::Duration;
use tm_logic::Bdd;
use tm_netlist::Delay;
use tm_sim::power::estimate_power;
use tm_spcf::SpcfSet;
use tm_sta::Sta;

/// Number of random vectors used for power estimation.
const POWER_VECTORS: usize = 512;
/// Seed for the power-estimation workload (fixed for reproducibility).
const POWER_SEED: u64 = 0x70AD;

/// Metrics of one masked design, mirroring Table 2 of the paper.
#[derive(Clone, Debug)]
pub struct MaskingReport {
    /// Circuit name.
    pub circuit: String,
    /// Primary input count of the original circuit.
    pub num_inputs: usize,
    /// Primary output count of the original circuit.
    pub num_outputs: usize,
    /// Gate count of the original circuit.
    pub num_gates: usize,
    /// Number of protected (critical) primary outputs.
    pub critical_outputs: usize,
    /// Number of critical patterns: |⋃ SPCFs| (Table 2 column 5).
    pub critical_patterns: f64,
    /// Critical path delay `Δ` of the original circuit.
    pub delta: Delay,
    /// Target arrival time `Δ_y` the masking protects against.
    pub target: Delay,
    /// Critical path delay of the masking circuit alone.
    pub masking_delay: Delay,
    /// Timing slack of the masking circuit over the original, percent
    /// (Table 2 column 6).
    pub slack_percent: f64,
    /// Whether the configured slack budget was met.
    pub slack_met: bool,
    /// Area of the original circuit (library units).
    pub area_original: f64,
    /// Area overhead of masking logic + MUXes, percent (column 7).
    pub area_overhead_percent: f64,
    /// Dynamic power overhead under a random workload, percent
    /// (column 8).
    pub power_overhead_percent: f64,
    /// How far the SPCF ladder degraded to fit the computation budget
    /// ([`DegradationLevel::Exact`] when the paper's flow ran to
    /// completion).
    pub degradation: DegradationLevel,
    /// Wall-clock time of the whole synthesis.
    pub synthesis_time: Duration,
}

impl MaskingReport {
    /// Measures a masked design.
    ///
    /// `slack_fraction` is the budget the synthesis was asked to meet
    /// (0.2 = 20 %).
    pub fn measure(
        design: &MaskedDesign,
        spcf: &SpcfSet,
        bdd: &mut Bdd,
        delta: Delay,
        target: Delay,
        slack_fraction: f64,
        degradation: DegradationLevel,
        synthesis_time: Duration,
    ) -> Self {
        let original = &design.original;
        let critical_patterns = spcf.critical_pattern_count(bdd);
        let (masking_delay, slack_percent, slack_met) = if design.is_protected() {
            let d = Sta::new(&design.masking).critical_path_delay();
            let slack = (delta - d) / delta * 100.0;
            (d, slack, d <= delta * (1.0 - slack_fraction) + Delay::new(1e-9))
        } else {
            (Delay::ZERO, 100.0, true)
        };

        let power_overhead_percent = if design.is_protected() {
            let p_orig = estimate_power(original, POWER_VECTORS, POWER_SEED);
            let p_comb = estimate_power(&design.combined, POWER_VECTORS, POWER_SEED);
            if p_orig.dynamic_per_vector > 0.0 {
                (p_comb.dynamic_per_vector - p_orig.dynamic_per_vector) / p_orig.dynamic_per_vector
                    * 100.0
            } else {
                0.0
            }
        } else {
            0.0
        };

        MaskingReport {
            circuit: original.name().to_string(),
            num_inputs: original.inputs().len(),
            num_outputs: original.outputs().len(),
            num_gates: original.num_gates(),
            critical_outputs: design.protected.len(),
            critical_patterns,
            delta,
            target,
            masking_delay,
            slack_percent,
            slack_met,
            area_original: original.area(),
            area_overhead_percent: design.area_overhead() * 100.0,
            power_overhead_percent,
            degradation,
            synthesis_time,
        }
    }

    /// Formats the report as one row in the style of Table 2. Rows
    /// whose SPCF degraded below exact are flagged, since their pattern
    /// counts and areas reflect an over-approximation.
    pub fn table2_row(&self) -> String {
        let mut row = format!(
            "{:<18} {:>4}/{:<4} {:>6} {:>9} {:>12.3e} {:>8.1} {:>7.1} {:>7.1}",
            self.circuit,
            self.num_inputs,
            self.num_outputs,
            self.num_gates,
            self.critical_outputs,
            self.critical_patterns,
            self.slack_percent,
            self.area_overhead_percent,
            self.power_overhead_percent,
        );
        if self.degradation != DegradationLevel::Exact {
            row.push_str(&format!("  [degraded: {}]", self.degradation));
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;

    #[test]
    fn unprotected_report_is_neutral() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let design = MaskedDesign::unprotected(nl);
        let mut bdd = Bdd::new(4);
        let spcf = SpcfSet::new(
            tm_spcf::Algorithm::ShortPath,
            Delay::new(6.3),
            Vec::new(),
            Duration::ZERO,
        );
        let r = MaskingReport::measure(
            &design,
            &spcf,
            &mut bdd,
            Delay::new(7.0),
            Delay::new(6.3),
            0.2,
            DegradationLevel::Exact,
            Duration::ZERO,
        );
        assert_eq!(r.critical_outputs, 0);
        assert_eq!(r.area_overhead_percent, 0.0);
        assert_eq!(r.power_overhead_percent, 0.0);
        assert!(r.slack_met);
        assert!(r.table2_row().contains("comparator2"));
    }
}
