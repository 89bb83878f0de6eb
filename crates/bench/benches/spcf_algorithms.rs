//! Benchmarks for the three SPCF engines (Table 1 kernels), on the
//! in-repo `tm-testkit` harness (JSON report in `target/tm-bench/`).
//!
//! Flags (see [`BenchArgs`]): `--samples N`, `--metrics-out PATH`,
//! and `--smoke` to run the small smoke suite instead of the three
//! largest Table 1 circuits.

use std::hint::black_box;
use tm_bench::{harness_library, BenchArgs};
use tm_logic::Bdd;
use tm_netlist::suites::{smoke_suite, table1_suite};
use tm_resilience::Budget;
use tm_spcf::{spcf_with, Algorithm, WarmSession};
use tm_sta::Sta;
use tm_testkit::bench::BenchGroup;

fn main() {
    let args = BenchArgs::parse();
    let lib = harness_library();
    let mut group = BenchGroup::new("spcf_algorithms");
    group.sample_size(10);
    args.apply(&mut group);
    // Node-store variant for the BENCH_spcf.json perf trajectory:
    // 0 = HashMap plain ROBDD (seed), 1 = complement-edge SoA store.
    group.meta("variant", 1.0);
    let suite = if args.smoke { smoke_suite() } else { table1_suite() };
    for entry in suite.iter().take(3) {
        let nl = entry.build(lib.clone());
        let sta = Sta::new(&nl);
        let target = sta.critical_path_delay() * 0.9;
        for (id, algorithm) in [
            ("node_based", Algorithm::NodeBased),
            ("path_based", Algorithm::PathBased),
            ("short_path", Algorithm::ShortPath),
        ] {
            group.bench(&format!("{id}/{}", entry.name), || {
                let mut bdd = Bdd::new(nl.inputs().len());
                black_box(spcf_with(algorithm, &nl, &sta, &mut bdd, target).outputs.len())
            });
        }
        // The 8-point protection-band sweep kernel (sweep.rs inner
        // loop): short-path SPCF across a descending Δ_y ladder, one
        // warm session per sweep — the manager, prime cache, global
        // BDDs, and short-path memo carry across all eight targets.
        let delta = sta.critical_path_delay();
        group.bench(&format!("sweep8_short_path/{}", entry.name), || {
            let mut crit = 0usize;
            let mut bdd = Bdd::new(nl.inputs().len());
            let mut session =
                WarmSession::new(Algorithm::ShortPath, &nl, &sta, &mut bdd, Budget::unlimited());
            for pct in [99u32, 95, 90, 85, 80, 70, 60, 50] {
                let set = session.retarget(delta * (pct as f64 / 100.0));
                crit += set.outputs.len();
            }
            black_box(crit)
        });
    }
    group.finish();
    args.write_metrics();
}
