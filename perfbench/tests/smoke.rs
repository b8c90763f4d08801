//! Smoke size: every workload and the traced run at tiny sizes.
//!
//! Asserts that every named metric is emitted with its unit and that the
//! correctness checks pass with 0 failed operations. Asserts no timing
//! value: at these sizes the numbers mean nothing.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::sync::Arc;

use edea_perfbench::trace::Tracer;
use edea_perfbench::{
    per_layer_metrics, probes, run, Outcome, Size, Workload, DEFAULT_SEED, END_TO_END,
};

fn assert_emits(outcome: &Outcome, expected: &[(String, &str)]) {
    let emitted: BTreeSet<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    let expected: BTreeSet<(String, String)> = expected
        .iter()
        .map(|(n, u)| (n.clone(), (*u).to_owned()))
        .collect();
    assert_eq!(emitted, expected);
    assert_eq!(
        outcome.metrics.len(),
        expected.len(),
        "a metric is emitted twice"
    );
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    let line = outcome.to_json().expect("finite metrics render");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

fn assert_correct(outcome: &Outcome) {
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.correct());
}

#[test]
fn every_workload_emits_the_end_to_end_metrics_with_no_failed_operation() {
    let expected: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    for workload in Workload::ALL {
        let outcome = run(workload, &Size::smoke(), DEFAULT_SEED, 0.0)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_correct(&outcome);
        assert_emits(&outcome, &expected);
    }
}

#[test]
fn traced_run_of_every_workload_emits_every_per_layer_metric_and_a_chrome_trace() {
    for workload in Workload::ALL {
        traced_run_emits_every_per_layer_metric_and_a_chrome_trace(workload);
    }
}

fn traced_run_emits_every_per_layer_metric_and_a_chrome_trace(workload: Workload) {
    let tracer = Arc::new(Tracer::new());
    let outcome =
        probes::traced(workload, &Size::smoke(), DEFAULT_SEED, &tracer).expect("traced run");
    assert_correct(&outcome);
    assert_emits(&outcome, &per_layer_metrics());

    let trace = tracer.chrome_trace("{\"seed\":1}");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("\"otherData\":{\"seed\":1}}"));
    for name in [
        "accelerator.L12",
        "plan.check_layer",
        "serve.stream",
        "pool.serve",
        "serve.backend",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{name}\"")),
            "no {name} span"
        );
    }
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn benchmark_json_lists_every_workload_and_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    let metrics = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .chain(per_layer_metrics());
    for (name, unit) in metrics {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
