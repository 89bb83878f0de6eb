//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench --compare A.jsonl B.jsonl
//! perfbench --self-test
//! perfbench --conformance
//! ```
//!
//! A run executes one seeded workload (`table2_masking`, `table1_spcf`,
//! `serve_closed`, `fleet_lifetime`) in this process and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries run details (tail
//! percentile, sample counts, warm-up ops, failure messages). `--out`
//! appends both, tagged with the workload and seed, to a JSON-lines
//! file that `--compare` reads.

mod compare;
mod corpus;
mod fleet;
mod metrics;
mod runner;
mod selftest;
mod serve;
mod stats;
mod table1;
mod table2;
mod trace;

use runner::{run_workload, RunResult};
use std::io::Write as _;
use tm_testkit::json::Json;

/// Every workload, in the order `--conformance` and `--self-test` run
/// them.
pub const WORKLOADS: [&str; 4] = [
    "table2_masking",
    "table1_spcf",
    "serve_closed",
    "fleet_lifetime",
];

/// Runs `workload` and returns its raw result. `smoke` shrinks the
/// inputs to a minimal size; `corrupt` corrupts the oracles after they
/// are computed (the self-test).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    corrupt: bool,
) -> Result<RunResult, String> {
    let mut res = match workload {
        "table2_masking" => run_workload(
            &mut table2::Table2::new(seed, smoke),
            seconds,
            traced,
            corrupt,
        ),
        "table1_spcf" => run_workload(
            &mut table1::Table1::new(seed, smoke),
            seconds,
            traced,
            corrupt,
        ),
        "fleet_lifetime" => run_workload(
            &mut fleet::Fleet::new(seed, smoke),
            seconds,
            traced,
            corrupt,
        ),
        "serve_closed" => serve::run(seed, smoke, seconds, traced, corrupt),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    res.peak_rss_mb = peak_rss_mb();
    Ok(res)
}

/// Puts the allocator in its steady state before anything is timed.
///
/// glibc raises its mmap and trim thresholds the first time a large
/// mmapped block is freed, after which allocations stay on the heap and
/// the heap is not trimmed between ops. Left to the workload, when that
/// happens depends on the sizes its seeded inputs allocate, and op
/// times on the same machine differed by a fifth between seeds. Freeing
/// one untouched 32 MiB block (the largest threshold glibc adopts) at
/// start makes every seed run in the same state; the block is never
/// written, so it adds nothing to resident memory.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 32 << 20]));
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The printed metrics of a run: end-to-end untraced, per-layer traced.
pub fn metric_values(res: &RunResult, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    if traced {
        metrics::per_layer(res)
    } else {
        metrics::end_to_end(res)
    }
}

/// The contract's result object.
pub fn result_json(res: &RunResult, traced: bool) -> Json {
    let attempted = res.plain.attempted + res.traced.attempted;
    let failed = res.plain.failed + res.traced.failed;
    let metrics = metric_values(res, traced)
        .into_iter()
        .map(|(name, v, unit)| {
            (
                name.to_string(),
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Run details that do not fit the result object.
fn detail_json(workload: &str, seed: u64, traced: bool, res: &RunResult) -> Json {
    let mut lat = res.plain.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (tail_p, _) = stats::tail(&lat);
    let failures = res
        .plain
        .failures
        .iter()
        .chain(&res.traced.failures)
        .map(|f| Json::str(f.clone()));
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(traced)),
        ("tail_percentile", Json::Num(tail_p)),
        ("samples", Json::Num(lat.len() as f64)),
        ("warmup_ops", Json::Num(res.warmup as f64)),
        ("setup_passes", Json::Num(res.setup_s.len() as f64)),
        ("traced_ops", Json::Num(res.traced.attempted as f64)),
        ("failures", Json::Arr(failures.collect())),
    ])
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
         \x20      perfbench --compare A.jsonl B.jsonl\n\
         \x20      perfbench --self-test | --conformance\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut out = None;
    let mut smoke = false;
    let mut corrupt = false;
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => workload = Some(next(&mut i)),
            "--seed" => seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => traced = next(&mut i) == "1",
            "--out" => out = Some(next(&mut i)),
            // Minimal inputs and corrupted oracles: the conformance
            // check and the self-test run the binary with these.
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            "--compare" => {
                let a = next(&mut i);
                let b = next(&mut i);
                std::process::exit(compare::run(&a, &b));
            }
            "--self-test" => std::process::exit(selftest::self_test()),
            "--conformance" => std::process::exit(selftest::conformance()),
            _ => usage(),
        }
        i += 1;
    }
    let Some(workload) = workload else { usage() };
    settle_allocator();
    let res = run(&workload, seed, seconds, traced, smoke, corrupt).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let detail = detail_json(&workload, seed, traced, &res);
    let result = result_json(&res, traced);
    for (name, v, unit) in metric_values(&res, traced) {
        eprintln!("perfbench: {workload} {name} = {v} {unit}");
    }
    if let Some(path) = out {
        let line = Json::obj([("detail", detail.clone()), ("result", result.clone())]).render();
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("perfbench: cannot append to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", Json::obj([("detail", detail)]).render());
    println!("{}", result.render());
}
