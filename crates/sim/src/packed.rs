//! Bit-parallel (64-lane) *timed* simulation: the packed monitor
//! kernel.
//!
//! [`crate::timing::TimingSim`] replays one input transition per call,
//! event by event. This module evaluates **64 transitions per word
//! op**: each `u64` lane carries an independent transition through the
//! same netlist under the same per-gate delay realization. The two use
//! cases (see DESIGN.md §15):
//!
//! - **64 vectors, one chip** — `tm_masking::replay` plays a workload
//!   through the masked design in blocks of 64 consecutive transitions
//!   (injection, body bias and wearout logging all run on it);
//! - **64 chips, one delay class** — the fleet simulator buckets
//!   per-chip aged delay realizations into discrete classes, so all
//!   chips of a class share one compiled schedule and differ only in
//!   their workload lanes.
//!
//! # Bit-identity with the scalar simulator
//!
//! The packed kernel is a drop-in for [`TimingSim`]: for every lane,
//! `sampled` and `settled` are **bit-identical** to
//! [`TimingSim::transition_with_sample_times`] on that lane's vectors
//! (enforced by the differential suite below). Three details make this
//! exact rather than approximate:
//!
//! - Events carry a **lane mask**: when a net changes in some lanes,
//!   the readers' rescheduled outputs claim only those lanes. Without
//!   the mask, a lane whose inputs did *not* change at the trigger
//!   time could observe a downstream value one pin-delay early
//!   (transport-delay anticipation through another lane's trigger).
//! - Event times replicate the scalar float path op for op:
//!   `Delay::from_quantized(qt) + pin_delay`, then
//!   [`Delay::quantize`] — quantization rounding accumulates per gate
//!   hop exactly as in the scalar heap.
//! - Pop order is `(quantized time, sequence)`, and sequence numbers
//!   are assigned in the same causal order as the scalar simulator
//!   (initial input events in input order, reader events in reader
//!   order), so same-instant supersessions resolve identically.
//!
//! # The compiled schedule
//!
//! Everything that does not depend on the vectors is compiled once per
//! `(netlist, scale)` in [`PackedTimingSim::with_scale`]: per-net
//! reader lists with pre-multiplied pin delays, per-gate polarity
//! plans, the output-position table, and the levelized settle pass
//! that seeds each block's initial arrival/settle words. Per block,
//! only lanes that actually change generate events.
//!
//! # The event loop
//!
//! - **Event keys and the arena.** The heap holds one `u128` per
//!   event: the quantized time with its sign bit flipped in the high
//!   half (so unsigned order equals signed time order) and the
//!   sequence number in the low half. Integer order on the key is
//!   exactly `(quantized time, seq)`. The payload `(net, word, mask)`
//!   lives in a per-call arena indexed by `seq`, so each heap sift
//!   step moves 16 bytes.
//! - **Polarity plans.** Each gate is compiled from the smaller of its
//!   on-set and off-set minterm lists plus an output-inversion word
//!   (off-set plans evaluate the complement, then flip it). Literals
//!   are selected without branches: `w ^ (bit - 1)` is `w` for a
//!   positive literal and `!w` for a negative one. NAND4 is one
//!   off-set term instead of fifteen on-set terms.
//! - **Push-time supersession.** A gate whose pins all share one
//!   (scaled) delay emits output events whose fire times are monotone
//!   in their push times, and equal fire times pop in `seq` (= push)
//!   order: its output events pop **in push order**. For such a gate
//!   the kernel keeps a `projected` word on its output net — the value
//!   the net holds once every pending event has popped — and an event
//!   claims only the lanes where it differs from `projected`; an event
//!   that differs in no lane is never pushed. This is exact because, in
//!   push order, a dropped lane would find the net already at its value
//!   when it popped and would change nothing. Gates with skewed pin
//!   delays can pop their output events out of push order (a late push
//!   through a fast pin overtakes an early push through a slow one), so
//!   they keep the unfiltered push. The pop-time `changed == 0` check
//!   stays for every gate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tm_netlist::{Delay, Netlist};

use crate::func::PatternBlock;

/// Hard cap on packed events per transition block; mirrors the scalar
/// simulator's budget (a combinational netlist settles long before
/// this, cyclic ones do not).
const MAX_EVENTS: usize = 50_000_000;

/// Sampling guard band — must equal the scalar simulator's constant
/// (see `crate::timing`), or sampled words drift off the scalar result
/// by one quantization step.
const SAMPLING_GUARD: Delay = Delay::from_units_const(1e-3);

/// Flipping the sign bit maps `i64` order onto `u64` order.
const TIME_SIGN: u64 = 1 << 63;

/// The heap key of an event: `(quantized time, seq)` as one integer.
#[inline]
fn event_key(qt: i64, seq: usize) -> u128 {
    (u128::from(qt as u64 ^ TIME_SIGN) << 64) | seq as u128
}

/// The quantized time and arena index of an event key.
#[inline]
fn split_key(key: u128) -> (i64, usize) {
    (((key >> 64) as u64 ^ TIME_SIGN) as i64, key as u64 as usize)
}

/// An event's payload: the net it drives, the new word, and the lanes
/// it claims.
#[derive(Clone, Copy, Debug)]
struct Event {
    net: u32,
    word: u64,
    mask: u64,
}

/// One gate reading a net: which gate re-evaluates and after how long
/// its output event fires.
#[derive(Clone, Copy, Debug)]
struct PackedReader {
    /// Gate index (into [`PackedTimingSim::gates`]).
    gate: u32,
    /// Pre-multiplied pin delay (`cell.pin_delay(pin) * scale[gate]`);
    /// kept as a [`Delay`] so the fire-time float math matches the
    /// scalar simulator exactly.
    delay: Delay,
}

/// One gate's compiled evaluation plan.
#[derive(Clone, Debug)]
struct GatePlan {
    /// Input net indices, in pin order.
    inputs: Vec<u32>,
    /// The smaller of the cell's on-set and off-set minterm lists.
    terms: Vec<u64>,
    /// `u64::MAX` when `terms` is the off-set (the SOP evaluates the
    /// complement), else 0.
    invert: u64,
    /// Output net index.
    out: u32,
    /// Every pin has the same scaled delay, so the gate's output
    /// events pop in push order and push-time supersession is exact.
    fifo: bool,
}

impl GatePlan {
    /// Evaluates the gate's output word from the current net words.
    #[inline]
    fn eval(&self, values: &[u64]) -> u64 {
        let mut out = 0u64;
        for &m in self.terms.iter() {
            let mut term = u64::MAX;
            for (pin, &inp) in self.inputs.iter().enumerate() {
                term &= values[inp as usize] ^ ((m >> pin) & 1).wrapping_sub(1);
            }
            out |= term;
        }
        out ^ self.invert
    }
}

/// Result of simulating one block of up to 64 input transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedTransition {
    /// Number of live lanes (≤ 64); bits above this are zero.
    pub lanes: usize,
    /// Per primary output (output order): lane `k`'s value latched at
    /// that output's sample time.
    pub sampled: Vec<u64>,
    /// Per primary output: lane `k`'s settled value (= functional
    /// evaluation of that lane's `next` vector).
    pub settled: Vec<u64>,
}

impl PackedTransition {
    /// Per-output timing-error words: lanes where the sampled value
    /// differs from the settled value.
    pub fn errors(&self) -> Vec<u64> {
        self.sampled.iter().zip(&self.settled).map(|(&s, &f)| s ^ f).collect()
    }

    /// Lane `k`'s sampled value at output `pos`.
    pub fn sampled_bit(&self, pos: usize, lane: usize) -> bool {
        (self.sampled[pos] >> lane) & 1 == 1
    }

    /// Lane `k`'s settled value at output `pos`.
    pub fn settled_bit(&self, pos: usize, lane: usize) -> bool {
        (self.settled[pos] >> lane) & 1 == 1
    }
}

/// A 64-lane timed simulator bound to one netlist and one per-gate
/// delay realization (the compiled schedule).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_netlist::{circuits::comparator2, library::lsi10k_like, Delay};
/// use tm_sim::func::PatternBlock;
/// use tm_sim::packed::PackedTimingSim;
///
/// let nl = comparator2(Arc::new(lsi10k_like()));
/// let sim = PackedTimingSim::new(&nl);
/// let prev = PatternBlock::from_patterns(&[vec![false; 4], vec![false; 4]]);
/// let next = PatternBlock::from_patterns(&[
///     vec![false, false, true, false], // 7-unit path: errors at 6.3
///     vec![false, true, false, false], // 4-unit path: clean at 6.3
/// ]);
/// let r = sim.transition_block(&prev, &next, &[Delay::new(6.3)]);
/// assert_eq!(r.errors()[0], 0b01);
/// ```
#[derive(Debug)]
pub struct PackedTimingSim<'a> {
    netlist: &'a Netlist,
    /// Per net: compiled reader list.
    readers: Vec<Vec<PackedReader>>,
    /// Per gate, in topological order (= the levelized settle pass).
    gates: Vec<GatePlan>,
    /// Per net: primary-output position, if the net is an output.
    out_pos: Vec<Option<u32>>,
}

impl<'a> PackedTimingSim<'a> {
    /// Compiles the schedule with nominal delays.
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::with_scale(netlist, &vec![1.0; netlist.num_gates()])
    }

    /// Compiles the schedule with per-gate delay multipliers (one aged
    /// delay realization — in the fleet, one delay class).
    ///
    /// # Panics
    ///
    /// Panics if the scale vector length differs from the gate count or
    /// contains non-positive factors.
    pub fn with_scale(netlist: &'a Netlist, scale: &[f64]) -> Self {
        assert_eq!(scale.len(), netlist.num_gates(), "one scale factor per gate");
        assert!(scale.iter().all(|s| s.is_finite() && *s > 0.0), "bad scale factor");
        let lib = netlist.library();
        let mut readers: Vec<Vec<PackedReader>> = vec![Vec::new(); netlist.num_nets()];
        let mut gates = Vec::with_capacity(netlist.num_gates());
        for (gid, g) in netlist.gates() {
            let cell = lib.cell(g.cell());
            let f = cell.function();
            let minterms = 1u64 << g.inputs().len();
            let onset: Vec<u64> = (0..minterms).filter(|&m| f.eval(m)).collect();
            // Off-set plan when it is strictly smaller.
            let inverted = 2 * onset.len() as u64 > minterms;
            let terms =
                if inverted { (0..minterms).filter(|&m| !f.eval(m)).collect() } else { onset };
            for (pin, &inp) in g.inputs().iter().enumerate() {
                readers[inp.index()].push(PackedReader {
                    gate: gid.index() as u32,
                    delay: cell.pin_delay(pin) * scale[gid.index()],
                });
            }
            // Equal library pin delays stay equal under one per-gate
            // scale factor.
            let fifo = (1..g.inputs().len()).all(|pin| cell.pin_delay(pin) == cell.pin_delay(0));
            gates.push(GatePlan {
                inputs: g.inputs().iter().map(|i| i.index() as u32).collect(),
                terms,
                invert: if inverted { u64::MAX } else { 0 },
                out: g.output().index() as u32,
                fifo,
            });
        }
        let mut out_pos = vec![None; netlist.num_nets()];
        for (pos, &o) in netlist.outputs().iter().enumerate() {
            out_pos[o.index()] = Some(pos as u32);
        }
        PackedTimingSim { netlist, readers, gates, out_pos }
    }

    /// The compiled netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The levelized settle pass: one word per net, functional
    /// evaluation of the block (gate order is topological).
    fn eval_block(&self, block: &PatternBlock) -> Vec<u64> {
        let mut values = vec![0u64; self.netlist.num_nets()];
        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            values[net.index()] = block.words()[pos];
        }
        for g in &self.gates {
            values[g.out as usize] = g.eval(&values);
        }
        values
    }

    /// Simulates up to 64 transitions at once: lane `k` moves from
    /// `prev.pattern(k)` to `next.pattern(k)`, and every primary output
    /// is latched at its per-output sample time (output order, same
    /// convention as [`crate::timing::TimingSim::transition_with_sample_times`]).
    ///
    /// # Panics
    ///
    /// Panics if the blocks' arities differ from the input count, their
    /// lane counts disagree, `sample_times` is not one per output, or
    /// the event budget is exhausted (cyclic netlist).
    pub fn transition_block(
        &self,
        prev: &PatternBlock,
        next: &PatternBlock,
        sample_times: &[Delay],
    ) -> PackedTransition {
        let num_inputs = self.netlist.inputs().len();
        assert_eq!(prev.words().len(), num_inputs, "prev arity mismatch");
        assert_eq!(next.words().len(), num_inputs, "next arity mismatch");
        assert_eq!(prev.len(), next.len(), "lane count mismatch");
        let outputs = self.netlist.outputs();
        assert_eq!(sample_times.len(), outputs.len(), "one sample time per output");
        let lanes = prev.len();
        let lane_mask = if lanes == 64 { u64::MAX } else { (1u64 << lanes) - 1 };

        // Arrival/settle words on the previous vectors: the state the
        // transition launches from.
        let mut values = self.eval_block(prev);
        let mut sampled: Vec<u64> =
            outputs.iter().map(|&o| values[o.index()] & lane_mask).collect();
        // Per net: the word once every pending event has popped (read
        // and written only on the outputs of FIFO gates).
        let mut projected = values.clone();

        // Min-heap of event keys; `arena[seq]` holds each payload.
        let mut heap: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
        let mut arena: Vec<Event> = Vec::new();
        for (pos, &net) in self.netlist.inputs().iter().enumerate() {
            let p = prev.words()[pos] & lane_mask;
            let n = next.words()[pos] & lane_mask;
            if p != n {
                heap.push(Reverse(event_key(0, arena.len())));
                arena.push(Event { net: net.index() as u32, word: n, mask: p ^ n });
            }
        }

        let mut events = 0usize;
        while let Some(Reverse(key)) = heap.pop() {
            events += 1;
            assert!(events <= MAX_EVENTS, "event budget exhausted; netlist cyclic?");
            let (qt, seq) = split_key(key);
            let Event { net, word, mask } = arena[seq];
            let net_idx = net as usize;
            let changed = (values[net_idx] ^ word) & mask;
            if changed == 0 {
                continue; // superseded or redundant in every claimed lane
            }
            values[net_idx] = (values[net_idx] & !changed) | (word & changed);
            let t = Delay::from_quantized(qt);
            if let Some(pos) = self.out_pos[net_idx] {
                let pos = pos as usize;
                // Same latch rule as the scalar history walk: the last
                // change at or before the sample time (plus guard)
                // wins; event times are non-decreasing off the heap.
                if t <= sample_times[pos] + SAMPLING_GUARD {
                    sampled[pos] = (sampled[pos] & !changed) | (word & changed);
                }
            }
            for r in &self.readers[net_idx] {
                let g = &self.gates[r.gate as usize];
                let out_w = g.eval(&values);
                let mut claim = changed;
                if g.fifo {
                    // Lanes where the net already ends at `out_w` would
                    // pop as no-ops; drop them at push time.
                    let p = &mut projected[g.out as usize];
                    claim &= *p ^ out_w;
                    if claim == 0 {
                        continue;
                    }
                    *p ^= claim;
                }
                let fire = (t + r.delay).quantize();
                heap.push(Reverse(event_key(fire, arena.len())));
                arena.push(Event { net: g.out, word: out_w, mask: claim });
            }
        }

        tm_telemetry::counter_add("sim.packed.blocks", 1);
        tm_telemetry::counter_add("sim.packed.events", events as u64);

        let settled: Vec<u64> =
            outputs.iter().map(|&o| values[o.index()] & lane_mask).collect();
        PackedTransition { lanes, sampled, settled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingSim;
    use std::sync::Arc;
    use tm_netlist::circuits::{comparator2, parity, ripple_adder};
    use tm_netlist::generate::{generate, GeneratorSpec};
    use tm_netlist::library::lsi10k_like;
    use tm_testkit::rng::Rng;

    fn random_block(inputs: usize, lanes: usize, rng: &mut Rng) -> PatternBlock {
        let pats: Vec<Vec<bool>> =
            (0..lanes).map(|_| (0..inputs).map(|_| rng.next_bool()).collect()).collect();
        PatternBlock::from_patterns(&pats)
    }

    /// The differential gate: every lane of the packed kernel must
    /// reproduce the scalar event-driven simulator bit for bit.
    fn assert_matches_scalar(
        nl: &Netlist,
        scale: &[f64],
        prev: &PatternBlock,
        next: &PatternBlock,
        sample_times: &[Delay],
    ) {
        let packed = PackedTimingSim::with_scale(nl, scale);
        let scalar = TimingSim::with_scale(nl, scale.to_vec());
        let r = packed.transition_block(prev, next, sample_times);
        for k in 0..prev.len() {
            let s = scalar.transition_with_sample_times(
                &prev.pattern(k),
                &next.pattern(k),
                sample_times,
            );
            for (pos, (&sam, &set)) in s.sampled.iter().zip(&s.settled).enumerate() {
                assert_eq!(r.sampled_bit(pos, k), sam, "sampled lane {k} output {pos}");
                assert_eq!(r.settled_bit(pos, k), set, "settled lane {k} output {pos}");
            }
        }
    }

    #[test]
    fn doc_example_paths() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let prev = PatternBlock::from_patterns(&[vec![false; 4], vec![false; 4]]);
        let next = PatternBlock::from_patterns(&[
            vec![false, false, true, false],
            vec![false, true, false, false],
        ]);
        let late = sim.transition_block(&prev, &next, &[Delay::new(7.0)]);
        assert_eq!(late.errors()[0], 0);
        let early = sim.transition_block(&prev, &next, &[Delay::new(6.3)]);
        assert_eq!(early.errors()[0], 0b01, "only the 7-unit lane mis-samples");
    }

    #[test]
    fn full_diagonal_matches_scalar_on_comparator() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        // All 16x16 transitions in four 64-lane blocks, sampled right
        // in the glitch window.
        let pats: Vec<Vec<bool>> = (0..256u64)
            .map(|m| {
                let (from, _to) = (m / 16, m % 16);
                (0..4).map(|i| (from >> i) & 1 == 1).collect()
            })
            .collect();
        let nexts: Vec<Vec<bool>> = (0..256u64)
            .map(|m| {
                let to = m % 16;
                (0..4).map(|i| (to >> i) & 1 == 1).collect()
            })
            .collect();
        for chunk in 0..4 {
            let lo = chunk * 64;
            let prev = PatternBlock::from_patterns(&pats[lo..lo + 64]);
            let next = PatternBlock::from_patterns(&nexts[lo..lo + 64]);
            for sample in [0.0, 2.5, 4.0, 6.3, 7.0, 100.0] {
                assert_matches_scalar(
                    &nl,
                    &vec![1.0; nl.num_gates()],
                    &prev,
                    &next,
                    &[Delay::new(sample)],
                );
            }
        }
    }

    #[test]
    fn glitchy_adder_matches_scalar_under_aging() {
        let lib = Arc::new(lsi10k_like());
        let nl = ripple_adder(lib, 4);
        let mut rng = Rng::seed_from_u64(0xADD3);
        for round in 0..6 {
            let scale: Vec<f64> =
                (0..nl.num_gates()).map(|_| 1.0 + rng.next_f64() * 0.4).collect();
            let lanes = [64, 17, 1][round % 3];
            let prev = random_block(9, lanes, &mut rng);
            let next = random_block(9, lanes, &mut rng);
            let times: Vec<Delay> = (0..nl.outputs().len())
                .map(|_| Delay::new(rng.gen_range(1.0..24.0)))
                .collect();
            assert_matches_scalar(&nl, &scale, &prev, &next, &times);
        }
    }

    #[test]
    fn generated_circuits_match_scalar() {
        let lib = Arc::new(lsi10k_like());
        let mut rng = Rng::seed_from_u64(0x9ACD);
        for seed in 0..4u64 {
            let mut spec = GeneratorSpec::sized(format!("pk{seed}"), 12, 6, 40);
            spec.seed = 0xC0FFEE ^ seed;
            let nl = generate(&spec, lib.clone());
            let scale: Vec<f64> =
                (0..nl.num_gates()).map(|_| 0.8 + rng.next_f64() * 0.6).collect();
            let prev = random_block(nl.inputs().len(), 64, &mut rng);
            let next = random_block(nl.inputs().len(), 64, &mut rng);
            // Mixed per-output sample times, including mid-flight ones.
            let times: Vec<Delay> = (0..nl.outputs().len())
                .map(|_| Delay::new(rng.gen_range(0.5..12.0)))
                .collect();
            assert_matches_scalar(&nl, &scale, &prev, &next, &times);
        }
    }

    #[test]
    fn settled_equals_functional_evaluation() {
        let nl = parity(Arc::new(lsi10k_like()), 7);
        let sim = PackedTimingSim::new(&nl);
        let mut rng = Rng::seed_from_u64(3);
        let prev = random_block(7, 64, &mut rng);
        let next = random_block(7, 64, &mut rng);
        let r = sim.transition_block(&prev, &next, &[Delay::new(1000.0)]);
        let functional = crate::func::simulate_outputs(&nl, &next);
        assert_eq!(r.settled, functional);
        assert_eq!(r.sampled, r.settled, "late sample is error-free");
    }

    #[test]
    fn no_change_lanes_stay_quiet() {
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let v = PatternBlock::from_patterns(&vec![vec![true, false, true, false]; 8]);
        let r = sim.transition_block(&v, &v, &[Delay::ZERO]);
        assert_eq!(r.errors()[0], 0);
        assert_eq!(r.lanes, 8);
    }

    #[test]
    fn plans_take_the_smaller_polarity_and_flag_fifo_gates() {
        use tm_netlist::library::{Cell, Library};
        let base = lsi10k_like();
        let mut lib = Library::new("plans");
        let nand4 = lib.add(base.cell(base.expect("NAND4")).clone());
        let xor2 = lib.add(base.cell(base.expect("XOR2")).clone());
        let and2 = base.cell(base.expect("AND2"));
        let skewed = lib.add(Cell::new(
            "AND2_SKEW",
            and2.function().clone(),
            and2.area(),
            and2.switch_power(),
            vec![Delay::new(2.0), Delay::new(2.5)],
        ));
        let mut nl = Netlist::new("plans", Arc::new(lib));
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let a = nl.add_gate(nand4, &ins, "a");
        let b = nl.add_gate(xor2, &ins[..2], "b");
        let c = nl.add_gate(skewed, &[a, b], "c");
        nl.mark_output(c);
        let sim = PackedTimingSim::new(&nl);
        let shape: Vec<(usize, u64, bool)> =
            sim.gates.iter().map(|g| (g.terms.len(), g.invert, g.fifo)).collect();
        assert_eq!(shape, [(1, u64::MAX, true), (2, 0, true), (1, 0, false)]);
        // Same-valued pins under a per-gate scale stay FIFO.
        let scaled = PackedTimingSim::with_scale(&nl, &[1.3, 0.7, 1.1]);
        assert!(scaled.gates[0].fifo && !scaled.gates[2].fifo);
        let mut rng = Rng::seed_from_u64(0x9A7);
        let prev = random_block(4, 64, &mut rng);
        let next = random_block(4, 64, &mut rng);
        assert_matches_scalar(&nl, &[1.3, 0.7, 1.1], &prev, &next, &[Delay::new(4.0)]);
    }

    #[test]
    fn telemetry_counts_blocks_and_events() {
        let _scope = tm_telemetry::Scope::enter();
        let nl = comparator2(Arc::new(lsi10k_like()));
        let sim = PackedTimingSim::new(&nl);
        let prev = PatternBlock::from_patterns(&[vec![false; 4]]);
        let next = PatternBlock::from_patterns(&[vec![true; 4]]);
        let _ = sim.transition_block(&prev, &next, &[Delay::new(7.0)]);
        let snap = tm_telemetry::snapshot();
        assert_eq!(snap.counter("sim.packed.blocks"), Some(1));
        assert!(snap.counter("sim.packed.events").unwrap_or(0) > 0);
    }
}
