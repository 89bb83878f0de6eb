//! `table2_masking`: the paper's Table 2 flow. One op synthesizes the
//! masking circuit for one seeded circuit and verifies it exactly.

use crate::corpus;
use crate::runner::Workload;
use crate::trace::{self, Breakdown};
use std::sync::Arc;
use tm_masking::{
    synthesize, verify, DegradationLevel, MaskingOptions, MaskingResult, VerificationReport,
};
use tm_netlist::extract::{extract, ExtractOptions};
use tm_netlist::library::{lsi10k_like, Library};
use tm_netlist::suites::table2_suite;
use tm_netlist::Netlist;
use tm_testkit::rng::Rng;

/// Table 2 profiles whose op takes one to a few milliseconds on every
/// seeded variant (two-level minimisation of small extractions).
pub const SMALL: [&str; 3] = ["cmb", "x2", "cu"];

/// Table 2 profiles whose op takes about 0.4–0.6 s on every seeded
/// variant, almost all of it extraction. Left out: rows whose op cost
/// spreads tenfold between seeded variants (`i1`, `alu2`, `alu4`,
/// `apex4`, `frg1`), which would make one seed's figures unlike
/// another's, and the largest rows (`apex6` up to `sparc_ifu_ifqdp`,
/// 0.7–4.3 s per op), which would leave too few ops in a run for its
/// tail percentile.
pub const MEDIUM: [&str; 3] = ["too_large", "C432", "C880"];

/// Seeded variants of each small profile.
const SMALL_VARIANTS: u64 = 60;

/// Seeded variants of each medium profile.
const MEDIUM_VARIANTS: u64 = 6;

/// One op in this many is a medium circuit: the median then falls
/// inside the small ops and the tail percentile (p95 at this run
/// length) inside the medium ones.
const MEDIUM_EVERY: usize = 10;

/// The paper's slack requirement on the masking logic, percent.
const MIN_SLACK_PERCENT: f64 = 20.0;

pub struct Table2 {
    seed: u64,
    smoke: bool,
    library: Arc<Library>,
    circuits: Vec<Netlist>,
    schedule: Vec<usize>,
    extract_nodes: Vec<Option<usize>>,
    corrupted: bool,
}

impl Table2 {
    pub fn new(seed: u64, smoke: bool) -> Table2 {
        Table2 {
            seed,
            smoke,
            library: Arc::new(lsi10k_like()),
            circuits: Vec::new(),
            schedule: Vec::new(),
            extract_nodes: Vec::new(),
            corrupted: false,
        }
    }
}

impl Workload for Table2 {
    type Out = (MaskingResult, VerificationReport);

    /// Generates the seeded corpus.
    fn prepare(&mut self) {
        let classes: [(&[&str], u64); 2] = if self.smoke {
            [(&SMALL[..3], 1), (&[], 0)]
        } else {
            [(&SMALL, SMALL_VARIANTS), (&MEDIUM, MEDIUM_VARIANTS)]
        };
        let suite = table2_suite();
        let mut circuits = Vec::new();
        let mut class_of = Vec::new();
        for (class, (names, variants)) in classes.into_iter().enumerate() {
            for e in corpus::profiles(suite.clone(), names) {
                for v in 0..variants {
                    circuits.push(corpus::build(&e, self.seed, v, self.library.clone()));
                    class_of.push(class);
                }
            }
        }
        self.circuits = circuits;
        // Every MEDIUM_EVERY-th op is a medium circuit, so any prefix of
        // the schedule (a run ends on a clock, not a round) holds the
        // two classes in the same proportion; order within a class is
        // seeded.
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x7AB1E2);
        let mut pick = |class: usize| {
            let mut v: Vec<usize> = (0..class_of.len())
                .filter(|&i| class_of[i] == class)
                .collect();
            rng.shuffle(&mut v);
            v
        };
        let (small, medium) = (pick(0), pick(1));
        let len = small.len() + small.len() / (MEDIUM_EVERY - 1);
        let (mut small, mut medium) = (small.into_iter().cycle(), medium.into_iter().cycle());
        self.schedule = (0..len)
            .map(|p| {
                let next_medium = if p % MEDIUM_EVERY == MEDIUM_EVERY - 1 {
                    medium.next()
                } else {
                    None
                };
                next_medium
                    .or_else(|| small.next())
                    .expect("the corpus has a small circuit")
            })
            .collect();
        self.extract_nodes = vec![None; self.circuits.len()];
    }

    /// `verify` is the oracle: nothing to precompute.
    fn references(&mut self) {}

    fn round(&self) -> usize {
        self.schedule.len()
    }

    fn warmup(&self) -> usize {
        8.min(self.round())
    }

    fn run(&mut self, k: usize) -> Self::Out {
        let nl = &self.circuits[self.schedule[k]];
        let mut result = trace::span("masking.synthesize", || {
            synthesize(nl, MaskingOptions::default())
        });
        if self.corrupted {
            // A corrupted oracle: claim every input pattern sensitizes
            // a speed-path of the first protected output.
            let one = result.bdd.one();
            if let Some(o) = result.spcf.outputs.first_mut() {
                o.spcf = one;
            }
        }
        let verdict = trace::span("masking.verify", || verify(&mut result));
        (result, verdict)
    }

    fn check(&mut self, k: usize, (result, verdict): &Self::Out) -> Result<(), String> {
        let r = &result.report;
        let name = &r.circuit;
        if !verdict.all_ok() {
            return Err(format!("{name}: exact verification failed (k = {k})"));
        }
        if verdict.coverage() != 1.0 {
            return Err(format!(
                "{name}: masking coverage {} < 1",
                verdict.coverage()
            ));
        }
        if !r.slack_met || r.slack_percent < MIN_SLACK_PERCENT {
            return Err(format!(
                "{name}: slack {:.1}% < {MIN_SLACK_PERCENT}%",
                r.slack_percent
            ));
        }
        if r.degradation != DegradationLevel::Exact {
            return Err(format!("{name}: degraded to the {} rung", r.degradation));
        }
        if !result.design.is_protected() {
            return Err(format!("{name}: no output protected"));
        }
        Ok(())
    }

    fn fold(&mut self, k: usize, (result, _): &Self::Out, bd: &mut Breakdown) {
        let c = self.schedule[k];
        let nodes = *self.extract_nodes[c].get_or_insert_with(|| {
            extract(&self.circuits[c], ExtractOptions::default()).num_nodes()
        });
        bd.add("netlist.extract.nodes", nodes as f64);
        let snap = tm_telemetry::snapshot();
        bd.add(
            "_masking.cubes_considered",
            snap.counter("masking.synth.cubes_considered").unwrap_or(0) as f64,
        );
        bd.add(
            "_masking.cubes_kept",
            snap.counter("masking.synth.cubes_kept").unwrap_or(0) as f64,
        );
        crate::metrics::fold_bdd(&result.bdd, bd);
    }

    fn corrupt(&mut self) {
        self.corrupted = true;
    }
}
