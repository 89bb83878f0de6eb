//! Benchmarks for the design-choice ablations (cube selection,
//! extraction bound, duplication baseline), on the in-repo
//! `tm-testkit` harness (JSON report in `target/tm-bench/`).

use std::hint::black_box;
use tm_bench::{harness_library, BenchArgs};
use tm_masking::{duplication_masking, synthesize, CubeSelection, MaskingOptions};
use tm_netlist::extract::ExtractOptions;
use tm_netlist::suites::smoke_suite;
use tm_testkit::bench::BenchGroup;

fn main() {
    let args = BenchArgs::parse();
    let base = MaskingOptions::default();
    let lib = harness_library();

    let nl = smoke_suite()[0].build(lib.clone());
    let mut group = BenchGroup::new("ablation_cube_selection");
    group.sample_size(10);
    args.apply(&mut group);
    group.bench("essential_weight", || {
        black_box(synthesize(&nl, base).design.masking.area())
    });
    group.bench("full_cover", || {
        let opts = MaskingOptions { cube_selection: CubeSelection::FullCover, ..base };
        black_box(synthesize(&nl, opts).design.masking.area())
    });
    group.bench("duplication_baseline", || {
        black_box(duplication_masking(&nl, base).design.masking.area())
    });
    group.finish();

    let nl = smoke_suite()[3].build(lib);
    let mut group = BenchGroup::new("ablation_extraction_bound");
    group.sample_size(10);
    args.apply(&mut group);
    for k in [4usize, 8, 12, 16] {
        group.bench(&format!("max_support/{k}"), || {
            let opts = MaskingOptions {
                extract: ExtractOptions { max_support: k },
                ..base
            };
            black_box(synthesize(&nl, opts).design.masking.area())
        });
    }
    group.finish();
    args.write_metrics();
}
