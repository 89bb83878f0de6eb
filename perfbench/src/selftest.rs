//! `--self-test` and `--conformance`: each workload runs at minimal
//! size in a child process of this binary.
//!
//! - The self-test corrupts every workload's oracle after it is
//!   computed and requires every op to be counted as failed.
//! - The conformance check runs every workload untraced and traced and
//!   requires every metric named in `BENCHMARK.json` with its unit,
//!   nothing else, every check passing and zero failed ops.

use crate::WORKLOADS;
use std::process::Command;
use tm_testkit::json::Json;

/// Runs one smoke-size workload in a child process and returns its
/// result object.
fn child(workload: &str, traced: bool, corrupt: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--smoke",
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the benchmark: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("printed nothing")?;
    Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn report(label: &str, problems: &[String]) -> bool {
    if problems.is_empty() {
        println!("PASS {label}");
    } else {
        for p in problems {
            println!("FAIL {label}: {p}");
        }
    }
    problems.is_empty()
}

pub fn self_test() -> i32 {
    let mut ok = true;
    for w in WORKLOADS {
        let problems = match child(w, false, true) {
            Err(e) => vec![e],
            Ok(doc) => {
                let (attempted, failed) = (num(&doc, "attempted"), num(&doc, "failed"));
                let mut p = Vec::new();
                if !(attempted >= 1.0 && failed == attempted) {
                    p.push(format!(
                        "corrupted oracle: {failed} of {attempted} ops failed"
                    ));
                }
                if doc.get("correct") != Some(&Json::Bool(false)) {
                    p.push("corrupted oracle still reported correct".into());
                }
                p
            }
        };
        ok &= report(
            &format!("{w}: a corrupted oracle fails every op"),
            &problems,
        );
    }
    if ok {
        0
    } else {
        1
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

pub fn conformance() -> i32 {
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => {
            println!("FAIL BENCHMARK.json: {e}");
            return 1;
        }
    };
    let mut ok = true;
    let declared_workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect();
    ok &= report(
        "BENCHMARK.json names every workload",
        &if declared_workloads == WORKLOADS {
            vec![]
        } else {
            vec![format!("{declared_workloads:?}")]
        },
    );
    let layers: Vec<(String, String, String)> = spec
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some((field("name")?, field("unit")?, field("better")?))
        })
        .collect();
    let want: Vec<(String, String, String)> = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    ok &= report(
        "BENCHMARK.json per_layer matches the metric table",
        &if layers == want {
            vec![]
        } else {
            vec!["names, units or directions differ".to_string()]
        },
    );
    for w in WORKLOADS {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(&spec, list);
            let problems = match child(w, traced, false) {
                Err(e) => vec![e],
                Ok(doc) => {
                    let mut p = Vec::new();
                    if doc.get("correct") != Some(&Json::Bool(true)) || num(&doc, "failed") != 0.0 {
                        p.push(format!(
                            "{} of {} ops failed",
                            num(&doc, "failed"),
                            num(&doc, "attempted")
                        ));
                    }
                    let got: Vec<(String, String)> = match doc.get("metrics") {
                        Some(Json::Obj(ms)) => ms
                            .iter()
                            .map(|(n, m)| {
                                (
                                    n.clone(),
                                    m.get("unit")
                                        .and_then(Json::as_str)
                                        .unwrap_or("")
                                        .to_string(),
                                )
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    for m in &want {
                        if !got.contains(m) {
                            p.push(format!("metric {} [{}] missing", m.0, m.1));
                        }
                    }
                    for m in &got {
                        if !want.contains(m) {
                            p.push(format!("metric {} [{}] not in BENCHMARK.json", m.0, m.1));
                        }
                    }
                    p
                }
            };
            ok &= report(&format!("{w} {list}"), &problems);
        }
    }
    if ok {
        0
    } else {
        1
    }
}
