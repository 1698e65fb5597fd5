//! Toy-size runs of every workload, traced and untraced, checked against
//! the metric lists in `BENCHMARK.json` and parsed back from the result line.

use rocksbench::report::json::{parse, Value};
use rocksbench::report::{result_line, sanitize};
use rocksbench::workloads::{self as w, Workload, END_TO_END, PER_LAYER};
use rocksbench::{Outcome, RunConfig};
use std::collections::BTreeMap;

fn toy(workload: Workload, trace: bool) -> Outcome {
    let cfg = RunConfig { seed: 7, seconds: 0.05, trace };
    let mut out = match workload {
        Workload::KsStorm => w::ks_storm::run(&cfg, &w::ks_storm::Size { racks: 2, per_rack: 8 }),
        Workload::Integrate => {
            w::integrate::run(&cfg, &w::integrate::Size { racks: 2, per_rack: 4 })
        }
        Workload::RollingReinstall => {
            w::rolling_reinstall::run(&cfg, &w::rolling_reinstall::Size { nodes: 24 })
        }
        Workload::FederatedWave => {
            w::federated_wave::run(&cfg, &w::federated_wave::Size { nodes: 256, threads: 2 })
        }
    };
    sanitize(&mut out);
    out
}

fn parsed_metrics(out: &Outcome) -> (Value, BTreeMap<String, Value>) {
    let Value::Obj(top) = parse(&result_line(out)).expect("result line parses") else {
        panic!("result line is not an object")
    };
    let Value::Obj(metrics) = top["metrics"].clone() else { panic!("metrics is not an object") };
    (top["correct"].clone(), metrics)
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    let mut v: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
    v.sort();
    v
}

#[test]
fn every_workload_runs_clean_at_toy_size() {
    for workload in Workload::ALL {
        let out = toy(workload, false);
        assert!(out.correct(), "{}: {:?}", workload.name(), out.gate_failures);
        assert!(out.attempted >= 1);
        let (correct, metrics) = parsed_metrics(&out);
        assert_eq!(correct, Value::Bool(true));
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), names(&END_TO_END));
        for (name, unit) in END_TO_END {
            let Value::Obj(m) = &metrics[name] else { panic!("{name}") };
            assert_eq!(m["unit"], Value::Str(unit.to_string()));
            let Value::Num(v) = m["value"] else { panic!("{name} is not a number") };
            assert!(v > 0.0, "{}: {name} = {v} should never be 0", workload.name());
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let out = toy(workload, true);
        // A toy run times a few dozen operations, so one preemption inside
        // an operation can decide the attribution check; it is meaningful
        // only at full size (and `spans` tests the arithmetic).
        let other_failures: Vec<&String> =
            out.gate_failures.iter().filter(|g| !g.contains("of the traced total")).collect();
        assert!(other_failures.is_empty(), "{}: {other_failures:?}", workload.name());
        let (_, metrics) = parsed_metrics(&out);
        assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), names(&PER_LAYER));
        let spans = out.spans_tsv.as_deref().expect("traced runs dump their spans");
        assert!(spans.lines().count() > 1, "{}: no spans recorded", workload.name());
    }
}

/// The metric and workload lists in `BENCHMARK.json` are the ones the code
/// reports.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let Value::Obj(spec) = parse(&text).expect("BENCHMARK.json parses") else { panic!() };
    let listed = |key: &str| -> Vec<(String, String)> {
        let Value::Arr(items) = &spec[key] else { panic!("{key} is not a list") };
        items
            .iter()
            .map(|item| {
                let Value::Obj(o) = item else { panic!("{key} entry is not an object") };
                let Value::Str(name) = &o["name"] else { panic!("{key} entry has no name") };
                let unit = match o.get("unit") {
                    Some(Value::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                (name.clone(), unit)
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), expect(&END_TO_END));
    assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    // `ks_storm` runs on request only: see the README for why it is not
    // listed.
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, ["integrate", "rolling_reinstall", "federated_wave"]);
    assert!(workloads.iter().all(|n| Workload::parse(n).is_some()));
}
