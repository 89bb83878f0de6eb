//! Regenerates Table 2: area and power overhead for 100 % masking of
//! timing errors on speed-paths.
//!
//! Run with: `cargo run -p tm-bench --release --bin table2`. With
//! `TM_METRICS_OUT=<path>` set, the run's telemetry snapshot is written
//! to `<path>` (see [`tm_bench::with_metrics_out`]).

use tm_bench::{harness_library, run_table2_row};
use tm_netlist::suites::table2_suite;

fn main() {
    tm_bench::with_metrics_out(run);
}

fn run() {
    let lib = harness_library();
    println!("Table 2: area and power overhead for 100% masking of timing errors (Δ_y = 0.9Δ)");
    println!("(stand-in circuits with the paper's interfaces; see DESIGN.md §3)");
    println!();
    println!(
        "{:<18} {:>9} {:>6} {:>9} {:>13} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "circuit",
        "I/O",
        "gates",
        "crit POs",
        "crit minterms",
        "slack%",
        "area%",
        "power%",
        "coverage",
        "verified"
    );
    println!("{}", "-".repeat(110));

    let mut slack_sum = 0.0;
    let mut area_sum = 0.0;
    let mut power_sum = 0.0;
    let mut protected_rows = 0usize;
    let mut all_verified = true;
    for entry in table2_suite() {
        let row = run_table2_row(&entry, lib.clone());
        let r = &row.result.report;
        println!(
            "{:<18} {:>4}/{:<4} {:>6} {:>9} {:>13.3e} {:>8.1} {:>8.1} {:>8.1} {:>8.0}% {:>9}",
            r.circuit,
            r.num_inputs,
            r.num_outputs,
            r.num_gates,
            r.critical_outputs,
            r.critical_patterns,
            r.slack_percent,
            r.area_overhead_percent,
            r.power_overhead_percent,
            row.coverage * 100.0,
            if row.verified { "yes" } else { "NO" },
        );
        all_verified &= row.verified;
        if r.critical_outputs > 0 {
            slack_sum += r.slack_percent;
            area_sum += r.area_overhead_percent;
            power_sum += r.power_overhead_percent;
            protected_rows += 1;
        }
    }

    let n = protected_rows.max(1) as f64;
    println!("{}", "-".repeat(110));
    println!(
        "{:<18} {:>9} {:>6} {:>9} {:>13} {:>8.1} {:>8.1} {:>8.1}",
        "Average", "", "", "", "", slack_sum / n, area_sum / n, power_sum / n
    );
    println!();
    println!("paper averages: slack 57%, area 18%, power 16%");
    println!(
        "100% masking coverage on every circuit: {}",
        if all_verified { "achieved ✓" } else { "FAILED" }
    );
}
