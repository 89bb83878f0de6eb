//! Benchmarks for the §2.1 runtime applications — wearout epoch
//! simulation and trace-buffer debug sessions — on the in-repo
//! `tm-testkit` harness (JSON report in `target/tm-bench/`).

use std::hint::black_box;
use tm_bench::{harness_library, BenchArgs};
use tm_masking::{synthesize, uniform_aging, MaskingOptions};
use tm_monitor::trace::{CapturePolicy, DebugSession};
use tm_monitor::wearout::{run_lifetime, LifetimeConfig};
use tm_netlist::suites::smoke_suite;
use tm_sim::patterns::random_vectors;
use tm_testkit::bench::BenchGroup;

fn main() {
    let args = BenchArgs::parse();
    let lib = harness_library();
    let nl = smoke_suite()[0].build(lib);
    let design = synthesize(&nl, MaskingOptions::default()).design;

    let mut group = BenchGroup::new("monitor");
    group.sample_size(10);
    args.apply(&mut group);

    let config = LifetimeConfig {
        epochs: 4,
        max_stress: 0.9,
        vectors_per_epoch: 100,
        ..Default::default()
    };
    group.bench("wearout_lifetime_4_epochs", || {
        black_box(run_lifetime(&design, &config).expect("valid config").len())
    });

    let session = DebugSession::new(&design);
    let scale = uniform_aging(&design, 1.0).expect("valid factor");
    let vectors = random_vectors(nl.inputs().len(), 500, 3);
    group.bench("trace_session_selective", || {
        black_box(
            session
                .run(&scale, &vectors, 32, CapturePolicy::OnSpeedPath)
                .expect("valid session")
                .window,
        )
    });

    group.finish();
    args.write_metrics();
}
