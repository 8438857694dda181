//! For a fixed seed the engine's counts repeat exactly, run after run;
//! another seed changes the inputs.

use perfbench::run::{per_layer, set_up, write_input, Plan, Source};
use perfbench::workload::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The per-layer metrics that count work rather than time it.
fn is_count(name: &str) -> bool {
    let layer = ["peel.", "sampling.", "maintain."].iter().any(|p| name.starts_with(p));
    layer && !name.contains("_ms") && name != "maintain.batch_per_recompute"
}

fn input_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("determinism-{}-{seed}.el", workload.name()))
}

fn counts(workload: Workload, seed: u64) -> BTreeMap<String, f64> {
    let path = input_path(workload, seed);
    write_input(workload, Scale::Small, seed, &path).expect("write input");
    let source = Source { workload, path: &path };
    let (inputs, dynamic, first) = set_up(source, seed).expect("load input");
    let plan = Plan { seconds: 0.2, width: 2 };
    let outcome = per_layer(source, &inputs, dynamic, &first, plan).expect("run");
    assert_eq!(outcome.failed, 0, "{} seed {seed}: an output failed its check", workload.name());
    outcome.metrics.into_iter().filter(|m| is_count(&m.name)).map(|m| (m.name, m.value)).collect()
}

#[test]
fn counts_repeat_for_a_seed_and_inputs_change_with_it() {
    for workload in Workload::ALL {
        let first = counts(workload, 7);
        assert!(first["peel.rounds"] > 0.0, "{}: no rounds counted", workload.name());
        // Each layer's counts must be live where the workload runs it.
        match workload {
            Workload::RmatOnline => assert!(first["sampling.validate_calls"] > 0.0),
            Workload::RmatDynamic => assert!(first["maintain.insert.candidates"] > 0.0),
            _ => {}
        }
        assert_eq!(first, counts(workload, 7), "{}: counts differ between runs", workload.name());

        let other = input_path(workload, 8);
        write_input(workload, Scale::Small, 8, &other).expect("write input");
        let same_graph =
            std::fs::read(input_path(workload, 7)).unwrap() == std::fs::read(&other).unwrap();
        if workload.is_dynamic() {
            // One graph; the seed picks the batches.
            assert!(same_graph);
            assert_ne!(
                first,
                counts(workload, 8),
                "{}: seed does not change the batches",
                workload.name()
            );
        } else {
            assert!(!same_graph, "{}: seed does not change the graph", workload.name());
        }
    }
}
