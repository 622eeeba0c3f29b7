//! Smoke test: every workload, one short run untraced and one traced.
//!
//! Each run must exit 0 and end with a result line that reports
//! `correct: true`, no failures, and a finite value for every metric
//! `BENCHMARK.json` names for that kind of run — and the benchmark's own
//! metric tables must match `BENCHMARK.json` name for name.

use std::process::Command;

use perf_ledger::ledger::{END_TO_END, PER_LAYER};
use perf_ledger::stats::Json;
use perf_ledger::workloads::Workload;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("named entry"))
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    let doc = benchmark_json();
    let table = |t: &[(&'static str, &'static str, &'static str)]| -> Vec<&'static str> {
        t.iter().map(|&(name, _, _)| name).collect()
    };
    assert_eq!(names(&doc, "end_to_end"), table(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
}

#[test]
fn every_workload_reports_every_metric() {
    let doc = benchmark_json();
    for workload in Workload::ALL {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
                .args(["--workload", workload.name(), "--seed", "7"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{} --trace {trace}", workload.name());
            assert!(
                out.status.success(),
                "{what} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).unwrap_or_else(|e| panic!("{what}: {e}: {last}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) > Some(0),
                "{what}"
            );
            let metrics = result.get("metrics").expect("metrics");
            for name in names(&doc, section) {
                let value = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                assert!(value.is_finite(), "{what}: {name} = {value}");
            }
        }
    }
}
