//! Benchmark harness regenerating every table and figure of the paper.
//!
//! | experiment | regenerator |
//! |---|---|
//! | Table 1 (SPCF accuracy vs runtime) | `cargo run -p tm-bench --release --bin table1` |
//! | Table 2 (area/power overhead of 100 % masking) | `cargo run -p tm-bench --release --bin table2` |
//! | Fig. 1 / Fig. 2 | `examples/quickstart.rs`, `examples/comparator.rs` |
//! | §4 design-choice ablations | `cargo run -p tm-bench --release --bin ablations` |
//! | §6 future work + §2 baselines | `cargo run -p tm-bench --release --bin extensions` |
//! | protection-band sweep | `cargo run -p tm-bench --release --bin sweep` |
//! | §2.1 wearout & debug | `examples/wearout.rs`, `examples/silicon_debug.rs` |
//!
//! Performance is measured in two places only. The `perfbench` package
//! times four seeded workloads end to end and per layer. The tests
//! under `tests/` pin exact work counts (`work_counts`, which also
//! asserts the Table 1 claims) and bound the cost of dormant
//! instrumentation with a paired in-process A/B (`dormant_sites`).
//! Every workload is deterministic: the suite circuits are seeded
//! stand-ins for the paper's benchmarks (see `DESIGN.md` §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;
use tm_logic::Bdd;
use tm_masking::{synthesize, verify, MaskingOptions, MaskingResult};
use tm_netlist::library::{lsi10k_like, Library};
use tm_netlist::suites::SuiteEntry;
use tm_resilience::Budget;
use tm_spcf::{Algorithm, WarmSession};
use tm_sta::Sta;

/// One algorithm's measurement in a Table 1 row.
#[derive(Clone, Copy, Debug)]
pub struct SpcfMeasurement {
    /// Critical-pattern count (summed over critical outputs).
    pub critical_patterns: f64,
    /// Wall-clock runtime of the engine.
    pub runtime: Duration,
}

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Circuit name.
    pub circuit: String,
    /// Primary input / output counts.
    pub io: (usize, usize),
    /// Gate count of the stand-in (the paper's column is area).
    pub gates: usize,
    /// Node-based over-approximation \[22\].
    pub node_based: SpcfMeasurement,
    /// Exact path-based extension of \[22\].
    pub path_based: SpcfMeasurement,
    /// The proposed short-path-based exact algorithm.
    pub short_path: SpcfMeasurement,
}

/// Runs the three SPCF engines on one suite circuit at `Δ_y = 0.9Δ`.
pub fn run_table1_row(entry: &SuiteEntry, library: Arc<Library>) -> Table1Row {
    let nl = entry.build(library);
    let sta = Sta::new(&nl);
    let target = sta.critical_path_delay() * 0.9;

    // The three engines run as warm sessions over one shared manager,
    // so unique-table nodes (global BDDs, literal cubes) built by one
    // engine are cache hits for the next.
    let mut bdd = Bdd::new(nl.inputs().len());
    let mut measure = |algorithm: Algorithm| -> SpcfMeasurement {
        let mut session = WarmSession::new(algorithm, &nl, &sta, &mut bdd, Budget::unlimited());
        let set = session.retarget(target);
        SpcfMeasurement {
            critical_patterns: set.critical_pattern_count(session.bdd()),
            runtime: set.runtime,
        }
    };
    Table1Row {
        circuit: entry.name.to_string(),
        io: (nl.inputs().len(), nl.outputs().len()),
        gates: nl.num_gates(),
        node_based: measure(Algorithm::NodeBased),
        path_based: measure(Algorithm::PathBased),
        short_path: measure(Algorithm::ShortPath),
    }
}

/// One row of Table 2 (plus the verification columns the paper asserts
/// in prose: 100 % masking coverage).
#[derive(Debug)]
pub struct Table2Row {
    /// The synthesis result (report carries the printed columns).
    pub result: MaskingResult,
    /// Exact masking coverage (1.0 = the paper's 100 %).
    pub coverage: f64,
    /// All exact verification checks passed.
    pub verified: bool,
}

/// Synthesizes and verifies masking for one suite circuit.
pub fn run_table2_row(entry: &SuiteEntry, library: Arc<Library>) -> Table2Row {
    let nl = entry.build(library);
    let mut result = synthesize(&nl, MaskingOptions::default());
    let verdict = verify(&mut result);
    Table2Row {
        coverage: verdict.coverage(),
        verified: verdict.all_ok(),
        result,
    }
}

/// The shared library instance for harness binaries.
pub fn harness_library() -> Arc<Library> {
    Arc::new(lsi10k_like())
}

/// Runs `body` and, when `TM_METRICS_OUT` names a file, collects
/// telemetry on this thread during it and writes the snapshot there.
pub fn with_metrics_out<T>(body: impl FnOnce() -> T) -> T {
    let out = tm_telemetry::metrics_out_env();
    if out.is_some() {
        tm_telemetry::set_thread_enabled(Some(true));
    }
    let result = body();
    if let Some(path) = out {
        match tm_telemetry::write_snapshot(&path) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("tm-bench: could not write {path}: {e}"),
        }
    }
    result
}

/// Formats a duration in seconds like the paper's runtime columns.
pub fn seconds(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_netlist::suites::smoke_suite;

    #[test]
    fn table1_row_invariants() {
        let lib = harness_library();
        let row = run_table1_row(&smoke_suite()[0], lib);
        // Exact engines agree; node-based is a superset count.
        let rel = (row.path_based.critical_patterns - row.short_path.critical_patterns).abs()
            / row.short_path.critical_patterns.max(1.0);
        assert!(rel < 1e-9, "exact engines disagree: {row:?}");
        assert!(row.node_based.critical_patterns >= row.short_path.critical_patterns - 1e-6);
    }

    #[test]
    fn table2_row_is_verified() {
        let lib = harness_library();
        let row = run_table2_row(&smoke_suite()[1], lib);
        assert!(row.verified);
        assert_eq!(row.coverage, 1.0);
        assert!(row.result.report.slack_met);
    }
}
