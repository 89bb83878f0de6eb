//! `--compare A B`: the delta of every metric between two sets of runs,
//! workload by workload, with each side's median, quartiles and
//! run-to-run spread (quartile distance over the median).

use crate::stats;
use std::collections::BTreeMap;
use tm_testkit::json::Json;

/// `(workload, metric)` → `(unit, values in file order)`.
type Side = BTreeMap<(String, String), (String, Vec<f64>)>;

/// Reads a JSON-lines file written by `--out`.
fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut side = Side::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = doc
            .get("detail")
            .and_then(|d| d.get("workload"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no detail.workload", n + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no result.metrics", n + 1));
        };
        for (name, m) in metrics {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Json::as_num),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            let e = side
                .entry((workload.to_string(), name.clone()))
                .or_default();
            e.0 = unit.to_string();
            e.1.push(v);
        }
    }
    Ok(side)
}

/// `BENCHMARK.json` end-to-end metric → (better, bound), when the file
/// is in the working directory.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_num()?,
                ),
            ))
        })
        .collect()
}

/// `median [q1, q3] spread%` of one side's values.
fn summary(values: &[f64]) -> (f64, String) {
    let med = stats::median(values);
    let text = match stats::quartiles(values) {
        Some((q1, q3)) => {
            let spread = (q3 - q1) / med.abs().max(1e-300) * 100.0;
            format!("{med:.6} [{q1:.6}, {q3:.6}] {spread:.1}%")
        }
        None => format!("{med:.6} (1 run)"),
    };
    (med, text)
}

pub fn run(a: &str, b: &str) -> i32 {
    let (sa, sb) = match (read_side(a), read_side(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let bounds = bounds();
    println!("workload metric unit | A: median [q1, q3] spread | B: median [q1, q3] spread | delta | verdict");
    let keys: std::collections::BTreeSet<_> = sa.keys().chain(sb.keys()).cloned().collect();
    for key in keys {
        let (workload, metric) = &key;
        let (unit, va) = sa.get(&key).cloned().unwrap_or_default();
        let (unit_b, vb) = sb.get(&key).cloned().unwrap_or_default();
        let unit = if unit.is_empty() { unit_b } else { unit };
        if va.is_empty() || vb.is_empty() {
            println!("{workload} {metric} {unit} | only on one side");
            continue;
        }
        let (ma, ta) = summary(&va);
        let (mb, tb) = summary(&vb);
        let delta = (mb - ma) / ma.abs().max(1e-300);
        let verdict = match bounds.get(metric) {
            Some((better, bound)) => {
                let spread = stats::quartiles(&va).map(|(q1, q3)| (q3 - q1) / ma.abs().max(1e-300));
                let worse = if better == "lower" { delta } else { -delta };
                if spread.is_some_and(|s| s > *bound) {
                    "unresolved (spread above bound)"
                } else if worse > *bound {
                    "worse beyond bound"
                } else {
                    "within bound"
                }
            }
            None => "",
        };
        println!(
            "{workload} {metric} {unit} | {ta} | {tb} | {:+.2}% | {verdict}",
            delta * 100.0
        );
    }
    0
}
