//! The fleet driver: runs a population of virtual chips through
//! [`tm_fleet::run_fleet`] on the packed monitor kernel and prints the
//! lifetime summary.
//!
//! ```text
//! fleet [--chips N] [--epochs N] [--cycles N] [--jobs N] [--classes N]
//!       [--seed N] [--max-stress F] [--smoke]
//! ```
//!
//! `--smoke` is the CI-sized run; it exits nonzero when no chip is
//! flagged (a dead trend detector). With `TM_METRICS_OUT=<path>` set,
//! telemetry is collected during the run and its snapshot written
//! there. Timing the fleet is perfbench's `fleet_lifetime` workload;
//! the packed kernel's bit-identity with the scalar reference kernel is
//! held by `crates/fleet/tests/determinism.rs`.

use tm_fleet::{run_fleet, FleetConfig};
use tm_masking::{synthesize, MaskingOptions};
use tm_netlist::circuits::comparator2;
use tm_netlist::library::lsi10k_like;

fn usage() -> ! {
    eprintln!(
        "usage: fleet [--chips N] [--epochs N] [--cycles N] [--jobs N] [--classes N] \
         [--seed N] [--max-stress F] [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut chips: Option<usize> = None;
    let mut epochs: Option<usize> = None;
    let mut cycles: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut classes: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut max_stress: Option<f64> = None;
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |dst: &mut Option<usize>| {
            *dst = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
        };
        match arg.as_str() {
            "--chips" => num(&mut chips),
            "--epochs" => num(&mut epochs),
            "--cycles" => num(&mut cycles),
            "--jobs" => num(&mut jobs),
            "--classes" => num(&mut classes),
            "--seed" => {
                seed = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--max-stress" => {
                max_stress =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }

    let metrics_out = tm_telemetry::metrics_out_env();
    if metrics_out.is_some() {
        tm_telemetry::set_thread_enabled(Some(true));
    }

    let mut config = FleetConfig::default();
    if smoke {
        config.chips = 2048;
        config.epochs = 6;
        config.cycles_per_epoch = 8;
        config.jobs = 4;
    } else {
        config.chips = 1_000_000;
        config.epochs = 12;
        config.cycles_per_epoch = 16;
        config.jobs = 8;
    }
    if let Some(v) = chips {
        config.chips = v;
    }
    if let Some(v) = epochs {
        config.epochs = v;
    }
    if let Some(v) = cycles {
        config.cycles_per_epoch = v;
    }
    if let Some(v) = jobs {
        config.jobs = v;
    }
    if let Some(v) = classes {
        config.delay_classes = v;
    }
    if let Some(v) = seed {
        config.seed = v;
    }
    if let Some(v) = max_stress {
        config.max_stress = v;
    }

    let nl = comparator2(std::sync::Arc::new(lsi10k_like()));
    let design = synthesize(&nl, MaskingOptions::default()).design;

    eprintln!(
        "fleet: {} chips x {} epochs x {} cycles, jobs {}",
        config.chips, config.epochs, config.cycles_per_epoch, config.jobs
    );
    let result = run_fleet(&design, &config).unwrap_or_else(|e| {
        eprintln!("fleet: invalid config: {e}");
        std::process::exit(2);
    });
    let detected: u64 = result.epochs.iter().map(|a| a.detected).sum();
    let escapes: u64 = result.epochs.iter().map(|a| a.escapes).sum();
    println!(
        "fleet: {detected} detected errors, {escapes} escapes ({} before a flag), {} of {} chips flagged",
        result.escapes_before_flag, result.flagged_chips, config.chips
    );

    if let Some(path) = metrics_out {
        if let Err(e) = tm_telemetry::write_snapshot(&path) {
            eprintln!("fleet: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fleet: wrote metrics to {path}");
    }

    if smoke && result.flagged_chips == 0 {
        eprintln!("fleet: FAIL smoke run flagged no chips (trend detector dead?)");
        std::process::exit(1);
    }
}
