//! The metrics a run prints are exactly those `BENCHMARK.json` declares:
//! every `end_to_end` metric without tracing, every `per_layer` metric
//! with it.

use perfbench::run::{end_to_end, per_layer, set_up, write_input, Outcome, Plan, Source};
use perfbench::workload::{Scale, Workload};
use std::path::PathBuf;

/// Metric names listed in one section of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_owned()).collect()
}

fn names(outcome: &Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn runs_print_the_declared_metrics() {
    let plan = Plan { seconds: 0.2, width: 2 };
    for workload in [Workload::RoadSparse, Workload::RmatDynamic] {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("contract-{}.el", workload.name()));
        write_input(workload, Scale::Small, 1, &path).expect("write input");
        let source = Source { workload, path: &path };

        let (inputs, dynamic, first) = set_up(source, 1).expect("load input");
        let outcome = end_to_end(source, &inputs, dynamic, &first, plan).expect("run");
        assert_eq!(outcome.failed, 0);
        assert_eq!(names(&outcome), declared("end_to_end"));
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "an end-to-end metric reads 0");

        let (inputs, dynamic, first) = set_up(source, 1).expect("load input");
        let outcome = per_layer(source, &inputs, dynamic, &first, plan).expect("run");
        assert_eq!(outcome.failed, 0);
        assert_eq!(names(&outcome), declared("per_layer"));
        assert_eq!(outcome.get("obs.dropped"), Some(0.0));
    }
}
