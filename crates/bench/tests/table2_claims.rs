//! Table 2's claims as assertions: every row of the 20-circuit table
//! masks 100 % of its speed-path errors with at least the 20 % slack
//! budget, and the row averages stay inside the bands stated here
//! (measured: slack 63.6 %, area 25.5 %, power 12.8 %; the paper
//! reports 57 %, 18 % and 16 %).

use tm_bench::{harness_library, run_table2_row};
use tm_netlist::suites::table2_suite;

/// Minimum slack of the masking circuit, per row (the synthesis
/// budget the paper states).
const MIN_SLACK_PERCENT: f64 = 20.0;
/// Bands for the row averages, in percent.
const AVG_SLACK_BAND: (f64, f64) = (55.0, 72.0);
const AVG_AREA_BAND: (f64, f64) = (15.0, 35.0);
const AVG_POWER_BAND: (f64, f64) = (8.0, 18.0);

fn assert_in_band(what: &str, value: f64, (lo, hi): (f64, f64)) {
    assert!((lo..=hi).contains(&value), "average {what} {value:.1} % outside [{lo}, {hi}] %");
}

#[test]
fn table2_rows_mask_fully_with_slack_and_averages_hold() {
    let lib = harness_library();
    let suite = table2_suite();
    assert_eq!(suite.len(), 20);
    let (mut slack, mut area, mut power) = (0.0, 0.0, 0.0);
    for entry in &suite {
        let row = run_table2_row(entry, lib.clone());
        let r = &row.result.report;
        assert!(row.verified, "{}: exact verification failed", entry.name);
        assert_eq!(row.coverage, 1.0, "{}: masking coverage below 100 %", entry.name);
        assert!(r.critical_outputs > 0, "{}: no critical outputs to mask", entry.name);
        assert!(
            r.slack_percent >= MIN_SLACK_PERCENT,
            "{}: slack {:.1} % below the {MIN_SLACK_PERCENT} % budget",
            entry.name,
            r.slack_percent
        );
        slack += r.slack_percent;
        area += r.area_overhead_percent;
        power += r.power_overhead_percent;
    }
    let n = suite.len() as f64;
    assert_in_band("slack", slack / n, AVG_SLACK_BAND);
    assert_in_band("area overhead", area / n, AVG_AREA_BAND);
    assert_in_band("power overhead", power / n, AVG_POWER_BAND);
}
