//! `fleet_lifetime`: the fleet simulator on a masked design. One op is
//! one `FleetSim::run_epoch` over the whole fleet at two shards; the
//! last epoch of each lifetime also assesses the cohorts.

use crate::corpus;
use crate::runner::Workload;
use crate::trace::{self, Breakdown};
use std::sync::Arc;
use tm_fleet::{CohortAssessment, FleetConfig, FleetKernel, FleetSim, ShardAggregate};
use tm_masking::{synthesize, MaskedDesign, MaskingOptions};
use tm_netlist::library::lsi10k_like;
use tm_netlist::suites::table2_suite;
use tm_resilience::TmResult;
use tm_testkit::rng::Rng;

/// The monitored design: the Table 2 `cu` stand-in (≤ 64 inputs, so
/// one chip's vector fits a lane word). The seed drives the fleet
/// (every chip's aging rate and workload), not the design, so the
/// epoch cost does not swing with the design's size.
const PROFILE: &str = "cu";

/// Chips per reference chunk; one seeded chunk replays on the scalar
/// kernel.
const CHUNK: usize = 256;

pub struct Fleet {
    seed: u64,
    config: FleetConfig,
    design: Option<MaskedDesign>,
    sim: Option<FleetSim>,
    lifetime: Vec<ShardAggregate>,
    reference: Vec<ShardAggregate>,
    reference_cohorts: Vec<CohortAssessment>,
}

/// One op's output: the epoch's aggregate, and the cohort assessment
/// after a lifetime's last epoch.
pub type EpochOut = (
    usize,
    TmResult<ShardAggregate>,
    Option<Vec<CohortAssessment>>,
);

impl Fleet {
    pub fn new(seed: u64, smoke: bool) -> Fleet {
        let config = FleetConfig {
            chips: if smoke { 2 * CHUNK } else { 8_192 },
            epochs: if smoke { 3 } else { 12 },
            cycles_per_epoch: 16,
            seed,
            jobs: 2,
            ..FleetConfig::default()
        };
        Fleet {
            seed,
            config,
            design: None,
            sim: None,
            lifetime: Vec::new(),
            reference: Vec::new(),
            reference_cohorts: Vec::new(),
        }
    }

    fn fresh_sim(&self) -> FleetSim {
        FleetSim::new(self.design.as_ref().expect("prepared"), &self.config)
            .unwrap_or_else(|e| panic!("fleet config rejected: {e}"))
    }
}

impl Workload for Fleet {
    type Out = EpochOut;

    /// Synthesizes the masked design and compiles the fleet schedules.
    fn prepare(&mut self) {
        let entry = corpus::profiles(table2_suite(), &[PROFILE]).remove(0);
        let nl = entry.build(Arc::new(lsi10k_like()));
        self.design = Some(synthesize(&nl, MaskingOptions::default()).design);
        self.sim = Some(self.fresh_sim());
        self.lifetime.clear();
    }

    /// The lifetime's epoch aggregates, computed chunk by chunk on one
    /// thread, with one seeded chunk on the scalar kernel, then merged.
    fn references(&mut self) {
        let chunks = self.config.chips.div_ceil(CHUNK);
        let scalar_chunk =
            Rng::seed_from_u64(self.seed ^ 0x5CA1A4).gen_range(0..chunks as u64) as usize;
        let design = self.design.as_ref().expect("prepared");
        let mut merged: Vec<ShardAggregate> = (0..self.config.epochs)
            .map(|e| ShardAggregate::empty(e, self.config.delay_classes))
            .collect();
        for c in 0..chunks {
            let config = FleetConfig {
                chips: CHUNK.min(self.config.chips - c * CHUNK),
                chip_base: (c * CHUNK) as u64,
                jobs: 1,
                kernel: if c == scalar_chunk {
                    FleetKernel::Scalar
                } else {
                    FleetKernel::Packed
                },
                ..self.config.clone()
            };
            let mut sim = FleetSim::new(design, &config).expect("chunk config is valid");
            for agg in merged.iter_mut() {
                agg.merge(&sim.run_epoch().expect("epoch within range"));
            }
        }
        self.reference_cohorts = self.fresh_sim().assess_cohorts(&merged);
        self.reference = merged;
    }

    fn round(&self) -> usize {
        self.config.epochs
    }

    fn run(&mut self, k: usize) -> Self::Out {
        let sim = self.sim.as_mut().expect("prepared");
        let agg = trace::span("fleet.run_epoch", || sim.run_epoch());
        if let Ok(a) = &agg {
            self.lifetime.push(a.clone());
        }
        let cohorts = (k + 1 == self.config.epochs)
            .then(|| trace::span("monitor.assess", || sim.assess_cohorts(&self.lifetime)));
        (k, agg, cohorts)
    }

    fn check(&mut self, k: usize, (_, agg, cohorts): &Self::Out) -> Result<(), String> {
        if k + 1 == self.config.epochs {
            // Next lifetime: a fresh simulator, outside any op.
            self.sim = Some(self.fresh_sim());
            self.lifetime.clear();
        }
        let agg = agg.as_ref().map_err(|e| format!("epoch {k}: {e}"))?;
        if *agg != self.reference[k] {
            return Err(format!(
                "epoch {k}: fleet aggregate differs from the chunked reference"
            ));
        }
        if let Some(c) = cohorts {
            if *c != self.reference_cohorts {
                return Err("cohort assessment differs from the reference".into());
            }
        }
        Ok(())
    }

    fn fold(&mut self, k: usize, (_, agg, _): &Self::Out, bd: &mut Breakdown) {
        let events = tm_telemetry::flight::drain_thread();
        let shards: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "fleet.shard")
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect();
        let merge: f64 = events
            .iter()
            .filter(|e| e.name == "fleet.merge")
            .map(|e| e.dur_ns as f64 / 1e6)
            .sum();
        let slowest = shards.iter().copied().fold(0.0, f64::max);
        let fastest = shards.iter().copied().fold(f64::INFINITY, f64::min);
        // The epoch call's self time covers the wait for the slowest
        // shard and the merge; move those to their own layers.
        bd.add_self("fleet.epoch.ms", -(slowest + merge));
        bd.add_self("fleet.shard_ms", slowest);
        bd.add_self("fleet.merge_ms", merge);
        if fastest > 0.0 && fastest.is_finite() {
            bd.add("fleet.shard_imbalance", slowest / fastest);
        }
        let snap = tm_telemetry::snapshot();
        let packed_events = snap.counter("sim.packed.events").unwrap_or(0) as f64;
        bd.add("sim.packed.events", packed_events);
        bd.add("_sim.packed.events", packed_events);
        bd.add("_sim.packed.shard_ns", shards.iter().sum::<f64>() * 1e6);
        if let (Ok(a), true) = (agg, k + 1 == self.config.epochs) {
            bd.add("_fleet.flagged", a.flagged_total as f64);
            bd.add("_fleet.chips", a.chips as f64);
        }
    }

    fn corrupt(&mut self) {
        for agg in &mut self.reference {
            agg.detected += 1;
        }
    }
}
