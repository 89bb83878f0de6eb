//! `table1_spcf`: the paper's Table 1. One op runs one SPCF engine over
//! a descending Δ_y ladder in a warm session, from a fresh manager.

use crate::corpus;
use crate::runner::Workload;
use crate::trace::{self, Breakdown};
use std::sync::Arc;
use tm_logic::bdd::{Bdd, PortableBdd};
use tm_netlist::library::{lsi10k_like, Library};
use tm_netlist::suites::table1_suite;
use tm_netlist::Netlist;
use tm_resilience::Budget;
use tm_spcf::{Algorithm, SpcfSet, WarmSession};
use tm_sta::Sta;
use tm_testkit::rng::Rng;

/// The Δ_y ladder, as fractions of the critical-path delay Δ.
pub const LADDER: [f64; 4] = [0.95, 0.90, 0.85, 0.80];

/// Seeded variants of each Table 1 profile; a run averages over all
/// of them (each circuit runs about thirty times).
const VARIANTS: u64 = 16;

const ENGINES: [Algorithm; 3] = [
    Algorithm::NodeBased,
    Algorithm::PathBased,
    Algorithm::ShortPath,
];

/// Per ladder point, per critical output: the output's net index and
/// its exported SPCF.
type Exports = Vec<Vec<(usize, PortableBdd)>>;

/// Exports every point of a ladder from the manager its sets live in.
fn export(sets: &[SpcfSet], bdd: &Bdd) -> Exports {
    sets.iter()
        .map(|set| {
            set.outputs
                .iter()
                .map(|o| (o.output.index(), bdd.export(o.spcf)))
                .collect()
        })
        .collect()
}

/// One prepared circuit: the netlist and its critical-path delay (the
/// STA is redone per op's ladder from the prepared netlist).
struct Circuit {
    netlist: Netlist,
    delta: tm_netlist::Delay,
}

pub struct Table1 {
    seed: u64,
    smoke: bool,
    library: Arc<Library>,
    circuits: Vec<Circuit>,
    /// `(circuit, engine)` per op.
    schedule: Vec<(usize, Algorithm)>,
    /// Per circuit: path-based and short-path exports.
    exact: Vec<[Exports; 2]>,
}

impl Table1 {
    pub fn new(seed: u64, smoke: bool) -> Table1 {
        Table1 {
            seed,
            smoke,
            library: Arc::new(lsi10k_like()),
            circuits: Vec::new(),
            schedule: Vec::new(),
            exact: Vec::new(),
        }
    }
}

/// Runs `algorithm`'s ladder on `c` from a fresh manager.
fn ladder(c: &Circuit, algorithm: Algorithm) -> (Vec<SpcfSet>, Bdd) {
    let nl = &c.netlist;
    let sta = trace::span("sta.new", || Sta::new(nl));
    let mut bdd = Bdd::new(nl.inputs().len());
    let mut sets = Vec::with_capacity(LADDER.len());
    {
        let mut session = WarmSession::new(algorithm, nl, &sta, &mut bdd, Budget::unlimited());
        for (i, &f) in LADDER.iter().enumerate() {
            let name = engine_span(algorithm);
            let t = std::time::Instant::now();
            let set = trace::span(name, || session.retarget(c.delta * f));
            if trace::enabled() {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (sum, calls) = if i == 0 {
                    ("_spcf.retarget_cold.sum", "_spcf.retarget_cold.calls")
                } else {
                    ("_spcf.retarget_warm.sum", "_spcf.retarget_warm.calls")
                };
                trace::note(sum, ms);
                trace::note(calls, 1.0);
            }
            sets.push(set);
        }
    }
    (sets, bdd)
}

fn engine_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::NodeBased => "spcf.node_based",
        Algorithm::PathBased => "spcf.path_based",
        _ => "spcf.short_path",
    }
}

impl Workload for Table1 {
    type Out = (Algorithm, Vec<SpcfSet>, Bdd);

    /// Generates the seeded corpus and runs STA on every circuit.
    fn prepare(&mut self) {
        let mut suite = table1_suite();
        let variants = if self.smoke { 1 } else { VARIANTS };
        if self.smoke {
            suite.truncate(1);
        }
        let mut circuits = Vec::new();
        for v in 0..variants {
            for e in &suite {
                let netlist = corpus::build(e, self.seed, v, self.library.clone());
                let delta = trace::span("sta.new", || Sta::new(&netlist).critical_path_delay());
                circuits.push(Circuit { netlist, delta });
            }
        }
        self.circuits = circuits;
        let mut schedule: Vec<(usize, Algorithm)> = (0..self.circuits.len())
            .flat_map(|c| ENGINES.iter().map(move |&a| (c, a)))
            .collect();
        Rng::seed_from_u64(self.seed ^ 0x7AB1E1).shuffle(&mut schedule);
        self.schedule = schedule;
    }

    /// The two exact engines' exports, per circuit, computed cold.
    fn references(&mut self) {
        self.exact = self
            .circuits
            .iter()
            .map(|c| {
                [Algorithm::PathBased, Algorithm::ShortPath].map(|a| {
                    let (sets, bdd) = ladder(c, a);
                    export(&sets, &bdd)
                })
            })
            .collect();
    }

    fn round(&self) -> usize {
        self.schedule.len()
    }

    fn warmup(&self) -> usize {
        60.min(self.round())
    }

    fn run(&mut self, k: usize) -> Self::Out {
        let (c, algorithm) = self.schedule[k];
        let (sets, bdd) = ladder(&self.circuits[c], algorithm);
        (algorithm, sets, bdd)
    }

    /// Path-based and short-path must export bit-identical SPCFs (each
    /// is checked against the *other* engine's reference); node-based
    /// must contain them.
    fn check(&mut self, k: usize, (algorithm, sets, bdd): &Self::Out) -> Result<(), String> {
        let got = &export(sets, bdd);
        let (c, _) = self.schedule[k];
        let name = self.circuits[c].netlist.name().to_string();
        let [pb, sp] = &self.exact[c];
        match algorithm {
            Algorithm::PathBased if got != sp => {
                Err(format!("{name}: path-based differs from short-path"))
            }
            Algorithm::ShortPath if got != pb => {
                Err(format!("{name}: short-path differs from path-based"))
            }
            Algorithm::NodeBased => {
                if got.len() != LADDER.len() {
                    return Err(format!(
                        "{name}: node-based ladder has {} points",
                        got.len()
                    ));
                }
                let mut bdd = Bdd::new(self.circuits[c].netlist.inputs().len());
                for (point, (nb, exact)) in got.iter().zip(sp).enumerate() {
                    for (out, e) in exact {
                        let f = bdd.import(e);
                        let g = match nb.iter().find(|(o, _)| o == out) {
                            Some((_, g)) => bdd.import(g),
                            None => bdd.zero(),
                        };
                        if !bdd.is_subset(f, g) {
                            return Err(format!(
                                "{name}: node-based misses exact patterns of output {out} at point {point}"
                            ));
                        }
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn fold(&mut self, _k: usize, (_, _, bdd): &Self::Out, bd: &mut Breakdown) {
        let snap = tm_telemetry::snapshot();
        let c = |n: &str| snap.counter(n).unwrap_or(0) as f64;
        bd.add("spcf.stab_calls", c("spcf.short_path.stab_calls"));
        bd.add("_spcf.memo_hits", c("spcf.short_path.memo_hit"));
        bd.add(
            "_spcf.memo_lookups",
            c("spcf.short_path.memo_hit") + c("spcf.short_path.memo_miss"),
        );
        crate::metrics::fold_bdd(bdd, bd);
    }

    fn corrupt(&mut self) {
        // Replace every exact reference by the tautology: no exact
        // engine exports it, and node-based does not contain it.
        for (c, refs) in self.circuits.iter().zip(self.exact.iter_mut()) {
            let bdd = Bdd::new(c.netlist.inputs().len());
            let one = bdd.export(bdd.one());
            for exports in refs.iter_mut() {
                for point in exports.iter_mut() {
                    for (_, f) in point.iter_mut() {
                        *f = one.clone();
                    }
                }
            }
        }
    }
}
