//! The replayed numbers of `ablations` and `extensions` as assertions:
//! the dynamic claims EXPERIMENTS.md prints, each driven through the
//! shared replay of the masked design (`tm_masking::replay`).
//!
//! - Ablation 4: under 8 % common-mode aging the top-down duplication
//!   baseline lets every raw error escape (2 of 2 on `cmb`, `x2` and
//!   `cu`), and the proposed circuits let none escape.
//! - Extension 1: the DVS sweep's raw errors grow as the supply drops
//!   while masking lets none escape, so the minimum safe supply is
//!   1.00 V without masking and 0.82 V with it.
//! - Extension 3: the adaptive body-bias controller cuts the masked
//!   errors of an 8-epoch lifetime from 262 to 81 with 3 bias steps.

use tm_bench::{harness_library, run_duplication_row, ExtensionBench};
use tm_masking::MaskingOptions;
use tm_monitor::bias::BiasRun;
use tm_netlist::suites::smoke_suite;

#[test]
fn ablation4_duplication_escapes_and_proposed_masking_does_not() {
    let lib = harness_library();
    for entry in smoke_suite() {
        let row = run_duplication_row(&entry.build(lib.clone()), MaskingOptions::default());
        let expected_raw = if ["cmb", "x2", "cu"].contains(&entry.name) { 2 } else { 0 };
        assert_eq!(row.dup_slack_percent, 0.0, "{}: duplication has slack", entry.name);
        assert_eq!(row.dup.raw_errors, expected_raw, "{}: {:?}", entry.name, row.dup);
        assert_eq!(row.dup.masked_errors, expected_raw, "{}: {:?}", entry.name, row.dup);
        assert_eq!(row.proposed.raw_errors, expected_raw, "{}: {:?}", entry.name, row.proposed);
        assert_eq!(row.proposed.masked_errors, 0, "{}: {:?}", entry.name, row.proposed);
        assert!(row.proposed_slack_percent >= 20.0, "{}: {row:?}", entry.name);
    }
}

#[test]
fn extensions_dvs_and_body_bias() {
    let bench = ExtensionBench::new(harness_library());

    // Extension 1, the printed rows (every second sweep point).
    let (_, sweep) = bench.dvs();
    let raw: Vec<usize> = sweep.points.iter().step_by(2).map(|p| p.raw_errors).collect();
    assert_eq!(raw, [0, 59, 59, 87, 87, 107, 107, 107, 158, 158]);
    assert!(sweep.points.iter().all(|p| p.escapes == 0), "{:?}", sweep.points);
    let volts = |v: Option<f64>| v.map(|v| (v * 100.0).round() / 100.0);
    assert_eq!(volts(sweep.min_safe_unmasked), Some(1.00));
    assert_eq!(volts(sweep.min_safe_masked), Some(0.82));

    // Extension 3.
    let (adapted, frozen) = bench.body_bias();
    let total = |r: &BiasRun| r.epochs.iter().map(|e| e.detected_errors).sum::<usize>();
    assert_eq!(total(&adapted), 81);
    assert_eq!(total(&frozen), 262);
    assert_eq!(adapted.final_bias_steps, 3);
}
