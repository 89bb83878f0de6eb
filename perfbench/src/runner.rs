//! The timing loop shared by the single-threaded workloads, and the
//! result every workload hands back to `main`.

use crate::trace::{self, Breakdown};
use std::time::{Duration, Instant};

/// An op slower than this counts as failed (timed out).
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Length of one untraced / traced slice of a traced run.
pub const SLICE: Duration = Duration::from_millis(500);

/// A single-threaded workload: an idempotent preparation, oracles
/// computed before timing, and a cyclic schedule of checked ops.
pub trait Workload {
    /// What one op returns for checking.
    type Out;
    /// One idempotent preparation pass (timed repeatedly for `setup_s`).
    fn prepare(&mut self);
    /// Computes the oracles (excluded from `setup_s`).
    fn references(&mut self);
    /// Ops in one pass over the schedule.
    fn round(&self) -> usize;
    /// Ops excluded from timing at the start of the run.
    fn warmup(&self) -> usize {
        self.round()
    }
    /// Runs op `k` (timed).
    fn run(&mut self, k: usize) -> Self::Out;
    /// Checks op `k`'s output against its oracle (untimed).
    fn check(&mut self, k: usize, out: &Self::Out) -> Result<(), String>;
    /// Folds op `k`'s traced figures into the breakdown (untimed).
    fn fold(&mut self, _k: usize, _out: &Self::Out, _bd: &mut Breakdown) {}
    /// Corrupts one reference, so the next check of every op fails
    /// (the self-test).
    fn corrupt(&mut self);
}

/// Measured ops of one mode (untraced or traced).
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of each attempted op in ms (failed ops as +inf).
    pub lat_ms: Vec<f64>,
    /// Ops attempted after warm-up.
    pub attempted: u64,
    /// Ops whose check failed, returned an error or timed out.
    pub failed: u64,
    /// Timed wall time, s.
    pub wall_s: f64,
    /// First failure messages (at most 5).
    pub failures: Vec<String>,
}

impl Measured {
    /// Records one op.
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) if ms <= OP_TIMEOUT.as_secs_f64() * 1e3 => self.lat_ms.push(ms),
            other => {
                self.failed += 1;
                self.lat_ms.push(f64::INFINITY);
                if self.failures.len() < 5 {
                    self.failures.push(
                        other
                            .err()
                            .unwrap_or_else(|| format!("timed out ({ms:.0} ms)")),
                    );
                }
            }
        }
    }

    /// Checked ops completed per second of timed wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s.max(1e-12)
    }
}

/// What a workload run produces.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Untraced ops (the end-to-end figures).
    pub plain: Measured,
    /// Traced ops (traced runs only).
    pub traced: Measured,
    /// Per-layer figures (traced runs only).
    pub breakdown: Breakdown,
    /// Timed preparation passes, s.
    pub setup_s: Vec<f64>,
    /// Warm-up ops excluded from timing.
    pub warmup: u64,
    /// Peak resident memory, MB.
    pub peak_rss_mb: f64,
}

/// Most set-up passes timed in one window.
const MAX_SETUP_PASSES: usize = 100;

/// How long one window of set-up passes runs.
const SETUP_WINDOW: Duration = Duration::from_millis(750);

/// Times set-up passes for one [`SETUP_WINDOW`] (at least three
/// passes) and returns each pass's duration, s. `pass` runs one pass
/// and returns the time to count. A run times one window before its
/// ops and one after them, so `setup_s` does not hang on the machine's
/// state in one moment.
pub fn time_setup(mut pass: impl FnMut() -> Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (start.elapsed() < SETUP_WINDOW && out.len() < MAX_SETUP_PASSES) {
        out.push(pass().as_secs_f64());
    }
    out
}

/// Runs a single-threaded workload: set-up passes, oracles, warm-up,
/// then `seconds` of checked ops. A traced run alternates untraced and
/// traced slices of [`SLICE`], so both modes see the same conditions.
pub fn run_workload<W: Workload>(
    w: &mut W,
    seconds: f64,
    traced: bool,
    corrupt: bool,
) -> RunResult {
    let mut res = RunResult::default();
    // Set-up: the first pass runs traced in a traced run so the set-up
    // layers (STA) are attributed; it is then repeated untraced.
    if traced {
        trace::set_enabled(true);
        trace::begin_op(0);
        w.prepare();
        trace::set_enabled(false);
        let mut bd = Breakdown::default();
        bd.fold_spans(&trace::take());
        res.breakdown.values = bd.values;
    }
    let setup_pass = |w: &mut W| {
        let t = Instant::now();
        w.prepare();
        t.elapsed()
    };
    res.setup_s = time_setup(|| setup_pass(w));
    w.references();
    if corrupt {
        w.corrupt();
    }

    let round = w.round().max(1);
    let mut k = 0usize;
    for _ in 0..w.warmup() {
        let out = w.run(k % round);
        let _ = w.check(k % round, &out);
        k += 1;
    }
    res.warmup = k as u64;

    let total = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut timed = [Duration::ZERO; 2];
    while start.elapsed() < total {
        let mode = if traced {
            ((start.elapsed().as_nanos() / SLICE.as_nanos()) % 2) as usize
        } else {
            0
        };
        let on = mode == 1;
        trace::set_enabled(on);
        if on {
            trace::begin_op(k as u64 + 1);
        }
        let t = Instant::now();
        let out = w.run(k % round);
        let dt = t.elapsed();
        trace::set_enabled(false);
        timed[mode] += dt;
        let ms = dt.as_secs_f64() * 1e3;
        let outcome = w.check(k % round, &out);
        if on {
            res.breakdown.ops += 1;
            res.breakdown.wall_ms += ms;
            res.breakdown.fold_spans(&trace::take());
            res.breakdown.fold_library(&tm_telemetry::snapshot());
            for (metric, v) in trace::take_notes() {
                res.breakdown.add(metric, v);
            }
            w.fold(k % round, &out, &mut res.breakdown);
            res.traced.record(ms, outcome);
        } else {
            res.plain.record(ms, outcome);
        }
        k += 1;
    }
    res.plain.wall_s = timed[0].as_secs_f64();
    res.traced.wall_s = timed[1].as_secs_f64();
    res.setup_s.extend(time_setup(|| setup_pass(w)));
    res
}
