//! Dormant instrumentation must cost (next to) nothing: a paired,
//! interleaved in-process A/B of every dormant entry point that hot
//! code calls, against an empty loop.
//!
//! Each pair times one block of the site and one block of the empty
//! loop back to back, alternating which runs first, so drift in clock
//! speed or machine load hits both sides alike. The per-pair
//! difference, in nanoseconds per call, is summarised by its median
//! and quartiles; a site fails when the median exceeds [`BOUND_NS`].
//! The self-test runs the same harness on a site with an injected spin
//! and requires the check to trip.
//!
//! Wall-clock numbers mean nothing in a debug build, so both tests are
//! ignored by default; run them in release, with `TM_TRACE` unset and no
//! fault plane armed:
//!
//! ```text
//! cargo test --release --offline -p tm-bench --test dormant_sites -- --ignored
//! ```

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tm_resilience::fault;
use tm_telemetry::flight;

/// Largest median per-call cost a dormant site may show.
const BOUND_NS: f64 = 15.0;
/// Calls per timed block.
const BLOCK: u32 = 20_000;
/// Site/empty block pairs per reading.
const PAIRS: usize = 201;
/// The self-test's injected per-call work.
const SPIN: Duration = Duration::from_nanos(50);

/// The two tests time the same cores; they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Median and quartiles of the per-pair cost, ns per call.
struct Reading {
    median: f64,
    q1: f64,
    q3: f64,
}

/// Nanoseconds per call of `site` over one block.
fn block_ns(site: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for i in 0..BLOCK {
        black_box(i);
        site();
    }
    start.elapsed().as_nanos() as f64 / f64::from(BLOCK)
}

/// Times `site` against an empty loop in [`PAIRS`] interleaved pairs.
fn measure(mut site: impl FnMut()) -> Reading {
    let mut empty = || {};
    for _ in 0..8 {
        block_ns(&mut site);
        block_ns(&mut empty);
    }
    let mut diffs: Vec<f64> = (0..PAIRS)
        .map(|p| {
            if p % 2 == 0 {
                let base = block_ns(&mut empty);
                block_ns(&mut site) - base
            } else {
                let cost = block_ns(&mut site);
                cost - block_ns(&mut empty)
            }
        })
        .collect();
    diffs.sort_by(f64::total_cmp);
    let at = |q: f64| diffs[((PAIRS - 1) as f64 * q).round() as usize];
    Reading {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
    }
}

/// Prints a site's reading and fails it above the bound.
fn check(name: &str, site: impl FnMut()) -> Result<(), String> {
    let r = measure(site);
    println!(
        "{name:<24} median {:>7.2} ns/call  quartiles [{:.2}, {:.2}]  bound {BOUND_NS} ns",
        r.median, r.q1, r.q3
    );
    if r.median > BOUND_NS {
        Err(format!(
            "{name}: {:.2} ns/call dormant, bound {BOUND_NS} ns",
            r.median
        ))
    } else {
        Ok(())
    }
}

#[test]
#[ignore = "wall-clock check; run in release with --ignored"]
fn dormant_sites_cost_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    assert!(
        !tm_telemetry::enabled(),
        "telemetry is collecting; unset TM_TRACE"
    );
    assert!(
        !flight::recording(),
        "the flight recorder is on; unset TM_TRACE"
    );
    assert!(!fault::armed(), "a fault plane is armed");

    let failures: Vec<String> = [
        check("counter_add", || {
            tm_telemetry::counter_add("bdd.cache.hits", black_box(1))
        }),
        check("digest_record", || {
            tm_telemetry::digest_record("spcf.short_path.output_ns", black_box(100))
        }),
        check("span!", || {
            drop(black_box(tm_telemetry::span!("spcf.short_path")))
        }),
        check("flight::phase", || {
            drop(black_box(flight::phase("spcf.output")))
        }),
        check("fault::bdd_alloc_fault", || {
            let _ = black_box(fault::bdd_alloc_fault());
        }),
        check("fault::memo_insert_fault", || {
            let _ = black_box(fault::memo_insert_fault());
        }),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    assert!(
        failures.is_empty(),
        "dormant sites over budget: {failures:?}"
    );
}

#[test]
#[ignore = "wall-clock check; run in release with --ignored"]
fn check_trips_on_injected_spin() {
    let _serial = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    let spin = || {
        let start = Instant::now();
        while start.elapsed() < SPIN {}
    };
    assert!(
        check("injected 50 ns spin", spin).is_err(),
        "the check missed a 50 ns site"
    );
}
