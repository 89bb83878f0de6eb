//! Ablations of the design choices §4 calls out:
//!
//! 1. **Essential-weight cube selection vs full covers** — how much of
//!    the overhead saving comes from exploiting the SPCF don't-care
//!    space.
//! 2. **Technology-independent node size (extraction bound K)** — the
//!    paper argues for 10–15-input nodes.
//! 3. **Protection-band sweep (Δ_y/Δ)** — cost of protecting deeper
//!    slices of the path distribution.
//! 4. **Top-down duplication baseline** — functionally sound, but with
//!    (near) zero slack it dies of the same wearout as the original.
//!
//! Run with: `cargo run -p tm-bench --release --bin ablations`
//! (`tests/replay_claims.rs` asserts the numbers of ablation 4).

use tm_bench::{harness_library, run_duplication_row};
use tm_masking::{synthesize, CubeSelection, MaskingOptions};
use tm_netlist::extract::ExtractOptions;
use tm_netlist::suites::smoke_suite;

fn main() {
    let lib = harness_library();
    let base = MaskingOptions::default();
    let circuits: Vec<_> = smoke_suite().iter().map(|e| e.build(lib.clone())).collect();

    println!("Ablation 1: essential-weight cube selection vs full covers");
    println!("{:<12} {:>16} {:>16} {:>12}", "circuit", "essential area%", "full-cover area%", "saving");
    for nl in &circuits {
        let essential = synthesize(nl, base);
        let full = synthesize(
            nl,
            MaskingOptions { cube_selection: CubeSelection::FullCover, ..base },
        );
        let ea = essential.report.area_overhead_percent;
        let fa = full.report.area_overhead_percent;
        println!("{:<12} {:>15.1}% {:>15.1}% {:>11.1}%", nl.name(), ea, fa, fa - ea);
    }

    println!("\nAblation 2: technology-independent node size (extraction bound K)");
    println!("{:<12} {:>10} {:>10} {:>10} {:>10}", "circuit", "K=4", "K=8", "K=12", "K=16");
    for nl in &circuits {
        let mut cols = Vec::new();
        for k in [4usize, 8, 12, 16] {
            let opts = MaskingOptions {
                extract: ExtractOptions { max_support: k },
                ..base
            };
            let r = synthesize(nl, opts);
            cols.push(format!("{:>9.1}%", r.report.area_overhead_percent));
        }
        println!("{:<12} {} {} {} {}", nl.name(), cols[0], cols[1], cols[2], cols[3]);
    }

    println!("\nAblation 3: protection band sweep (area% at Δ_y/Δ)");
    println!("{:<12} {:>10} {:>10} {:>10} {:>10}", "circuit", "0.80", "0.85", "0.90", "0.95");
    for nl in &circuits {
        let mut cols = Vec::new();
        for frac in [0.80, 0.85, 0.90, 0.95] {
            let opts = MaskingOptions { target_fraction: frac, ..base };
            let r = synthesize(nl, opts);
            cols.push(format!("{:>9.1}%", r.report.area_overhead_percent));
        }
        println!("{:<12} {} {} {} {}", nl.name(), cols[0], cols[1], cols[2], cols[3]);
    }

    println!("\nAblation 4: top-down duplication baseline vs proposed synthesis");
    println!(
        "{:<12} {:>14} {:>14} {:>18} {:>18}",
        "circuit", "dup slack%", "proposed slack%", "dup escapes(aged)", "proposed escapes"
    );
    for nl in &circuits {
        let row = run_duplication_row(nl, base);
        println!(
            "{:<12} {:>13.1}% {:>14.1}% {:>12}/{:<5} {:>12}/{:<5}",
            nl.name(),
            row.dup_slack_percent,
            row.proposed_slack_percent,
            row.dup.masked_errors,
            row.dup.raw_errors,
            row.proposed.masked_errors,
            row.proposed.raw_errors,
        );
    }
    println!("\n(duplication masks in the functional domain but shares the original's");
    println!(" timing: under 8% common-mode aging its errors escape; the proposed");
    println!(" masking circuit, with ≥20% slack, lets none escape — paper §4, §2)");
}
