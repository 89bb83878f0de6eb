//! Benchmarks for the end-to-end masking synthesis flow (Table 2
//! kernel) and its exact verification, on the in-repo `tm-testkit`
//! harness (JSON report in `target/tm-bench/`).

use std::hint::black_box;
use tm_bench::{harness_library, BenchArgs};
use tm_masking::{synthesize, verify, MaskingOptions};
use tm_netlist::suites::smoke_suite;
use tm_testkit::bench::BenchGroup;

fn main() {
    let args = BenchArgs::parse();
    let lib = harness_library();
    let options = MaskingOptions::default();

    let mut group = BenchGroup::new("masking_synthesis");
    group.sample_size(10);
    args.apply(&mut group);
    for entry in smoke_suite() {
        let nl = entry.build(lib.clone());
        group.bench(&format!("synthesize/{}", entry.name), || {
            black_box(synthesize(&nl, options).report.critical_outputs)
        });
    }
    group.finish();

    let mut group = BenchGroup::new("masking_verification");
    group.sample_size(10);
    args.apply(&mut group);
    let nl = smoke_suite()[0].build(lib);
    group.bench("verify_i1", || {
        let mut result = synthesize(&nl, options);
        black_box(verify(&mut result).all_ok())
    });
    group.finish();
    args.write_metrics();
}
