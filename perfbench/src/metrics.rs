//! Every metric the benchmark reports: names, units and how the
//! traced run's per-layer values are derived from a [`Breakdown`].

use crate::runner::RunResult;
use crate::stats;
use crate::trace::Breakdown;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer metric is derived.
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    /// Self time summed over traced ops, divided by the op count. These
    /// partition op wall time together with `trace.unattributed_ms`.
    SelfPerOp,
    /// A value summed over traced ops, divided by the op count.
    PerOp,
    /// A value summed over the traced run.
    Total,
    /// The largest value seen.
    Max,
    /// `values[num] / values[den]`.
    Ratio(&'static str, &'static str),
}

/// One per-layer metric.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub agg: Agg,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, agg: Agg) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        agg,
    }
}

use Agg::*;

/// Per-layer metrics, printed by every traced run (0 where a workload
/// bypasses the layer).
pub const PER_LAYER: &[LayerMetric] = &[
    m("netlist.extract.ms", "ms", "lower", SelfPerOp),
    m("netlist.extract.nodes", "count", "lower", PerOp),
    m("netlist.blif.parse_ms", "ms", "lower", SelfPerOp),
    m("sta.ms", "ms", "lower", SelfPerOp),
    m("sta.setup_ms", "ms", "lower", Total),
    m("logic.bdd.nodes_created", "count", "lower", PerOp),
    m(
        "logic.bdd.cache_hit_ratio",
        "ratio",
        "higher",
        Ratio("_bdd.ite_hits", "_bdd.ite_lookups"),
    ),
    m("logic.bdd.peak_nodes", "count", "lower", Max),
    m("spcf.node_based.ms", "ms", "lower", SelfPerOp),
    m("spcf.path_based.ms", "ms", "lower", SelfPerOp),
    m("spcf.short_path.ms", "ms", "lower", SelfPerOp),
    m(
        "spcf.retarget_cold.ms",
        "ms",
        "lower",
        Ratio("_spcf.retarget_cold.sum", "_spcf.retarget_cold.calls"),
    ),
    m(
        "spcf.retarget_warm.ms",
        "ms",
        "lower",
        Ratio("_spcf.retarget_warm.sum", "_spcf.retarget_warm.calls"),
    ),
    m(
        "spcf.memo_hit_ratio",
        "ratio",
        "higher",
        Ratio("_spcf.memo_hits", "_spcf.memo_lookups"),
    ),
    m("spcf.stab_calls", "count", "lower", PerOp),
    m("masking.synthesize.ms", "ms", "lower", SelfPerOp),
    m("masking.spcf.ms", "ms", "lower", SelfPerOp),
    m("masking.covers.ms", "ms", "lower", SelfPerOp),
    m(
        "masking.cubes_kept_ratio",
        "ratio",
        "lower",
        Ratio("_masking.cubes_kept", "_masking.cubes_considered"),
    ),
    m("masking.map.ms", "ms", "lower", SelfPerOp),
    m("masking.slack.ms", "ms", "lower", SelfPerOp),
    m("masking.verify.ms", "ms", "lower", SelfPerOp),
    m(
        "client.connect_ms",
        "ms",
        "lower",
        Ratio("_client.connect.sum", "_client.connect.calls"),
    ),
    m("server.request_ms", "ms", "lower", SelfPerOp),
    m("server.queue_ms", "ms", "lower", SelfPerOp),
    m("server.parse_ms", "ms", "lower", SelfPerOp),
    m(
        "server.pool.hit_ratio",
        "ratio",
        "higher",
        Ratio("_server.pool.hits", "_server.pool.checkouts"),
    ),
    m("server.pool.lookup_ms", "ms", "lower", SelfPerOp),
    m("server.pool.build_ms", "ms", "lower", SelfPerOp),
    m("server.pool.evictions", "count", "lower", PerOp),
    m("server.compute_ms", "ms", "lower", SelfPerOp),
    m(
        "server.compute_hit_ms",
        "ms",
        "lower",
        Ratio("_server.compute_hit.sum", "_server.compute_hit.calls"),
    ),
    m(
        "server.compute_miss_ms",
        "ms",
        "lower",
        Ratio("_server.compute_miss.sum", "_server.compute_miss.calls"),
    ),
    m("server.mask_ms", "ms", "lower", SelfPerOp),
    m("server.serialize_ms", "ms", "lower", SelfPerOp),
    m("server.degraded", "count", "lower", Total),
    m("fleet.epoch.ms", "ms", "lower", SelfPerOp),
    m("fleet.shard_ms", "ms", "lower", SelfPerOp),
    m("fleet.shard_imbalance", "ratio", "lower", PerOp),
    m("fleet.merge_ms", "ms", "lower", SelfPerOp),
    m("sim.packed.events", "count", "lower", PerOp),
    m(
        "sim.packed.ns_per_event",
        "ns",
        "lower",
        Ratio("_sim.packed.shard_ns", "_sim.packed.events"),
    ),
    m("monitor.assess_ms", "ms", "lower", SelfPerOp),
    m(
        "fleet.flagged_frac",
        "ratio",
        "lower",
        Ratio("_fleet.flagged", "_fleet.chips"),
    ),
    m("trace.op_wall_ms", "ms", "lower", PerOp),
    m("trace.unattributed_ms", "ms", "lower", PerOp),
    m("trace.attributed_frac", "ratio", "higher", PerOp),
    m("telemetry.overhead_frac", "ratio", "lower", Total),
];

/// The end-to-end metric values of an untraced run.
pub fn end_to_end(res: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat = res.plain.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    let (_, tail) = stats::tail(&lat);
    let values = [
        res.plain.ops_per_s(),
        stats::percentile(&lat, 50.0),
        tail,
        stats::median(&res.setup_s),
        res.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

/// The per-layer metric values of a traced run.
pub fn per_layer(res: &RunResult) -> Vec<(&'static str, f64, &'static str)> {
    let bd: &Breakdown = &res.breakdown;
    let ops = bd.ops.max(1) as f64;
    let attributed: f64 = bd.self_ms.values().sum();
    let value = |k: &str| bd.values.get(k).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|lm| {
            let v = match (lm.name, lm.agg) {
                ("trace.op_wall_ms", _) => bd.wall_ms / ops,
                ("trace.unattributed_ms", _) => (bd.wall_ms - attributed) / ops,
                ("trace.attributed_frac", _) => attributed / bd.wall_ms.max(1e-12),
                ("telemetry.overhead_frac", _) => {
                    1.0 - res.traced.ops_per_s() / res.plain.ops_per_s().max(1e-12)
                }
                (name, SelfPerOp) => bd.self_ms.get(name).copied().unwrap_or(0.0) / ops,
                (name, PerOp) => value(name) / ops,
                (name, Total | Max) => value(name),
                (_, Ratio(num, den)) => {
                    let d = value(den);
                    if d > 0.0 {
                        value(num) / d
                    } else {
                        0.0
                    }
                }
            };
            (lm.name, v, lm.unit)
        })
        .collect()
}

/// Folds a BDD manager's lifetime counters into the breakdown.
pub fn fold_bdd(bdd: &tm_logic::bdd::Bdd, bd: &mut Breakdown) {
    let s = bdd.stats();
    bd.add("logic.bdd.nodes_created", s.unique_misses as f64);
    bd.add("_bdd.ite_hits", s.ite_cache_hits as f64);
    bd.add(
        "_bdd.ite_lookups",
        (s.ite_cache_hits + s.ite_cache_misses) as f64,
    );
    bd.max("logic.bdd.peak_nodes", bdd.node_count() as f64);
}
