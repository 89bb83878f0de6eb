//! Trace-buffer-based in-system silicon debug (paper §2.1).
//!
//! Trace buffers store a limited number of signal snapshots per debug
//! session. The paper proposes gating capture on the masking circuit's
//! indicator outputs — "by storing debug information only when `y_i` is
//! vulnerable to timing errors, the window size of the trace buffers can
//! be expanded significantly". [`DebugSession`] replays a workload
//! through the masked design under both capture policies and reports the
//! observation-window expansion.

use tm_masking::{CaptureModel, MaskedDesign};
use tm_netlist::Delay;
use tm_resilience::{Context, TmError, TmResult};
use tm_sim::timing::TimingSim;
use tm_sta::Sta;

/// When the trace buffer stores a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapturePolicy {
    /// Store every cycle (the conventional baseline).
    Always,
    /// Store only cycles where some indicator `e` sampled 1 — the
    /// paper's selective capture.
    OnSpeedPath,
}

/// One stored trace entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle index the snapshot was taken at.
    pub cycle: usize,
    /// Sampled values of the traced outputs (raw `y`, `ỹ`, `e` per
    /// protected output, in protection order).
    pub signals: Vec<bool>,
}

/// A bounded trace buffer.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    capacity: usize,
    entries: Vec<TraceEntry>,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs nonzero capacity");
        TraceBuffer { capacity, entries: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// Stores an entry; returns `false` when full. A rejected entry is
    /// counted in [`TraceBuffer::dropped`] — overflow is data loss, not
    /// a silent no-op.
    pub fn push(&mut self, entry: TraceEntry) -> bool {
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Whether the buffer is full.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Stored entries in capture order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries rejected because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Result of one debug session.
#[derive(Clone, Debug)]
pub struct SessionResult {
    /// The filled (or partially filled) buffer.
    pub buffer: TraceBuffer,
    /// Number of workload cycles observed before the buffer filled (the
    /// whole workload if it never filled) — the observation window.
    pub window: usize,
    /// Total cycles in the workload.
    pub total_cycles: usize,
    /// Capture-worthy cycles lost to buffer overflow — nonzero means
    /// the session's record of the workload is incomplete.
    pub dropped: u64,
}

/// A debug session over a masked design.
#[derive(Debug)]
pub struct DebugSession<'a> {
    design: &'a MaskedDesign,
    clock: Delay,
}

impl<'a> DebugSession<'a> {
    /// A session clocked at the original circuit's critical path delay.
    pub fn new(design: &'a MaskedDesign) -> Self {
        let clock = Sta::new(&design.original).critical_path_delay();
        DebugSession { design, clock }
    }

    /// Overrides the clock period.
    pub fn with_clock(design: &'a MaskedDesign, clock: Delay) -> Self {
        DebugSession { design, clock }
    }

    /// Replays `vectors` (with per-gate delay factors `scale` over the
    /// combined netlist) and captures into a buffer of `capacity` under
    /// the given policy.
    ///
    /// # Errors
    ///
    /// Returns [`TmError`] when the design is unprotected (nothing to
    /// trace), `capacity` is zero, `scale` does not have one finite
    /// positive entry per gate, or a vector's arity is wrong.
    pub fn run(
        &self,
        scale: &[f64],
        vectors: &[Vec<bool>],
        capacity: usize,
        policy: CapturePolicy,
    ) -> TmResult<SessionResult> {
        if !self.design.is_protected() {
            return Err(TmError::invalid_input("debug session needs protected outputs"));
        }
        if capacity == 0 {
            return Err(TmError::invalid_input("trace buffer needs nonzero capacity"));
        }
        let _span = tm_telemetry::span!("monitor.trace.session", cycles = vectors.len());
        // Every output samples at the clock and each cycle's signals are
        // kept, so the session stays on the scalar simulator; the input
        // check is the shared replay's.
        let capture = CaptureModel::new(self.design);
        capture.check_inputs(scale, vectors)?;
        let sim = TimingSim::with_scale(capture.netlist(), scale.to_vec());
        let mut buffer = TraceBuffer::new(capacity);
        let mut window = 0usize;
        let mut overflowed = false;
        let total_cycles = vectors.len().saturating_sub(1);
        for (cycle, pair) in vectors.windows(2).enumerate() {
            let r = sim.transition(&pair[0], &pair[1], self.clock);
            let mut signals = Vec::with_capacity(capture.probes().len() * 3);
            let mut vulnerable = false;
            for p in capture.probes() {
                let e = r.sampled[p.e_position];
                signals.push(r.sampled[p.raw_position]);
                signals.push(r.sampled[p.ytilde_position]);
                signals.push(e);
                vulnerable |= e;
            }
            let capture = match policy {
                CapturePolicy::Always => true,
                CapturePolicy::OnSpeedPath => vulnerable,
            };
            // The window ends at the first overflow, but the rest of
            // the workload still runs so every lost capture is counted
            // (a full buffer used to end the session silently).
            if capture && !buffer.push(TraceEntry { cycle, signals }) && !overflowed {
                window = cycle;
                overflowed = true;
            }
            if !overflowed {
                window = cycle + 1;
            }
        }
        tm_telemetry::counter_add("monitor.trace.captured", buffer.entries().len() as u64);
        tm_telemetry::counter_add("monitor.trace.dropped", buffer.dropped());
        let dropped = buffer.dropped();
        Ok(SessionResult { buffer, window, total_cycles, dropped })
    }

    /// Runs both policies on the same workload and returns the window
    /// expansion factor `selective_window / always_window`.
    ///
    /// # Errors
    ///
    /// Propagates [`DebugSession::run`] errors.
    pub fn window_expansion(
        &self,
        scale: &[f64],
        vectors: &[Vec<bool>],
        capacity: usize,
    ) -> TmResult<f64> {
        let always = self
            .run(scale, vectors, capacity, CapturePolicy::Always)
            .context("window expansion: always-capture baseline")?;
        let selective = self
            .run(scale, vectors, capacity, CapturePolicy::OnSpeedPath)
            .context("window expansion: selective capture")?;
        Ok(selective.window as f64 / always.window.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_masking::{synthesize, uniform_aging, MaskingOptions};
    use tm_netlist::circuits::comparator2;
    use tm_netlist::library::lsi10k_like;
    use tm_sim::patterns::random_vectors;

    fn setup() -> tm_masking::MaskedDesign {
        let nl = comparator2(Arc::new(lsi10k_like()));
        synthesize(&nl, MaskingOptions::default()).design
    }

    #[test]
    fn buffer_respects_capacity() {
        let mut b = TraceBuffer::new(2);
        assert!(b.push(TraceEntry { cycle: 0, signals: vec![true] }));
        assert_eq!(b.dropped(), 0);
        assert!(b.push(TraceEntry { cycle: 1, signals: vec![false] }));
        assert!(!b.push(TraceEntry { cycle: 2, signals: vec![true] }));
        assert!(!b.push(TraceEntry { cycle: 3, signals: vec![true] }));
        assert!(b.is_full());
        assert_eq!(b.entries().len(), 2);
        assert_eq!(b.capacity(), 2);
        assert_eq!(b.dropped(), 2, "every rejected entry must be counted");
    }

    #[test]
    fn overflow_session_reports_every_lost_capture() {
        let _scope = tm_telemetry::Scope::enter();
        let design = setup();
        let session = DebugSession::new(&design);
        let scale = uniform_aging(&design, 1.0).unwrap();
        let vectors = random_vectors(4, 100, 7);
        let r = session.run(&scale, &vectors, 10, CapturePolicy::Always).unwrap();
        // 99 cycles, 10 stored: the other 89 are lost and say so.
        assert_eq!(r.window, 10);
        assert_eq!(r.total_cycles, 99);
        assert_eq!(r.dropped, 89);
        assert_eq!(r.buffer.dropped(), 89);
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("monitor.trace.captured"), Some(10));
        assert_eq!(snap.counter("monitor.trace.dropped"), Some(89));
        assert_eq!(snap.span("monitor.trace.session").unwrap().calls, 1);
    }

    #[test]
    fn always_capture_window_equals_capacity() {
        let design = setup();
        let session = DebugSession::new(&design);
        let scale = uniform_aging(&design, 1.0).unwrap();
        let vectors = random_vectors(4, 100, 7);
        let r = session.run(&scale, &vectors, 10, CapturePolicy::Always).unwrap();
        assert_eq!(r.window, 10);
        assert!(r.buffer.is_full());
    }

    #[test]
    fn selective_capture_expands_window() {
        let design = setup();
        let session = DebugSession::new(&design);
        let scale = uniform_aging(&design, 1.0).unwrap();
        let vectors = random_vectors(4, 200, 13);
        let expansion = session.window_expansion(&scale, &vectors, 10).unwrap();
        // The comparator's e fires on 10/16 of the input space under the
        // simplified indicator — but only *sampled* activity counts; the
        // window must expand or at worst match.
        assert!(expansion >= 1.0, "expansion {expansion}");
    }

    #[test]
    fn selective_entries_are_vulnerable_cycles() {
        let design = setup();
        let session = DebugSession::new(&design);
        let scale = uniform_aging(&design, 1.0).unwrap();
        let vectors = random_vectors(4, 120, 19);
        let r = session.run(&scale, &vectors, 50, CapturePolicy::OnSpeedPath).unwrap();
        for entry in r.buffer.entries() {
            // Every third signal is an e probe; at least one fired.
            let any_e = entry.signals.iter().skip(2).step_by(3).any(|&e| e);
            assert!(any_e, "captured a non-vulnerable cycle");
        }
    }

    #[test]
    fn small_workload_never_fills() {
        let design = setup();
        let session = DebugSession::new(&design);
        let scale = uniform_aging(&design, 1.0).unwrap();
        let vectors = random_vectors(4, 5, 29);
        let r = session.run(&scale, &vectors, 100, CapturePolicy::Always).unwrap();
        assert!(!r.buffer.is_full());
        assert_eq!(r.window, 4);
        assert_eq!(r.total_cycles, 4);
    }
}
