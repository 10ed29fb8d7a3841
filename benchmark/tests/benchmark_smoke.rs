//! Keeps the benchmark from rotting between the changes that use it:
//! runs all four workloads and the traced pass at smoke size through the
//! binary, and checks what they print against `BENCHMARK.json`.

use caai_benchmark::report::{self, MetricSpec, END_TO_END, FAILED_SHARE, PER_LAYER, RUN_SECONDS};
use caai_benchmark::workloads::NAMES;
use serde::Value;
use std::path::Path;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_caai-benchmark");

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    report::field(value, name).unwrap_or_else(|| panic!("no `{name}` in {value:?}"))
}

fn number(value: &Value) -> f64 {
    report::number(value).unwrap_or_else(|| panic!("not a number: {value:?}"))
}

fn text(value: &Value) -> &str {
    value
        .as_str()
        .unwrap_or_else(|| panic!("not a string: {value:?}"))
}

fn parse(json: &str) -> Value {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("unreadable JSON ({e}): {json}"))
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn run(args: &[&str]) -> Output {
    let output = Command::new(EXE)
        .args(args)
        .output()
        .expect("start the benchmark");
    assert!(
        output.status.success(),
        "caai-benchmark {args:?} ended with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn the_binary_and_benchmark_json_name_the_same_things() {
    let file = benchmark_json();
    assert_eq!(number(field(&file, "run_seconds")), RUN_SECONDS);

    let workloads: Vec<&str> = field(&file, "workloads")
        .as_seq()
        .expect("an array")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, NAMES);

    let same = |listed: &Value, specs: &[MetricSpec]| {
        let listed = listed.as_seq().expect("an array");
        assert_eq!(listed.len(), specs.len());
        for (entry, spec) in listed.iter().zip(specs) {
            assert_eq!(text(field(entry, "name")), spec.name);
            assert_eq!(text(field(entry, "unit")), spec.unit, "{}", spec.name);
            assert_eq!(
                text(field(entry, "better")),
                spec.better.name(),
                "{}",
                spec.name
            );
            if let Some(bound) = spec.bound {
                assert_eq!(number(field(entry, "bound")), bound, "{}", spec.name);
            }
        }
    };
    same(field(&file, "end_to_end"), &END_TO_END);
    same(field(&file, "per_layer"), &PER_LAYER);

    // The command builds and runs this very package.
    let command: Vec<&str> = field(&file, "command")
        .as_seq()
        .expect("an array")
        .iter()
        .map(text)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"caai-benchmark"));
}

#[test]
fn every_workload_and_the_traced_pass_report_every_metric() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-result.json");
    let out = out.to_str().expect("UTF-8 path");
    run(&["--smoke", "--seconds", "0.1", "--seed", "7", "--out", out]);
    let result = parse(&std::fs::read_to_string(out).expect("the result file"));

    // What makes two files comparable travels with the numbers.
    let host = field(&result, "host");
    for key in ["cpu_model", "git_rev", "rustc", "profile"] {
        assert!(!text(field(host, key)).is_empty(), "host.{key}");
    }
    assert!(number(field(host, "nproc")) >= 1.0);
    assert_eq!(number(field(&result, "seed")), 7.0);

    let workloads = field(&result, "workloads").as_seq().expect("an array");
    assert_eq!(workloads.len(), NAMES.len());
    for (workload, name) in workloads.iter().zip(NAMES) {
        assert_eq!(text(field(workload, "name")), name);
        assert_eq!(field(workload, "correct"), &Value::Bool(true), "{name}");
        assert_eq!(number(field(workload, "failed")), 0.0, "{name}");
        assert!(number(field(workload, "attempted")) >= 1.0, "{name}");
        assert!(
            number(field(field(workload, "shape"), "repetitions")) >= 1.0,
            "{name}"
        );
        let metrics = field(workload, "end_to_end");
        for spec in &END_TO_END {
            let metric = field(metrics, spec.name);
            for key in ["q1", "q3", "min", "max"] {
                assert!(number(field(metric, key)).is_finite(), "{name}.{key}");
            }
            assert!(number(field(metric, "n")) >= 1.0, "{name}.n");
            assert!(
                number(field(metric, "median")) > 0.0,
                "{name}.{} must never be 0",
                spec.name
            );
        }
        let failed_share = field(metrics, FAILED_SHARE.name);
        assert_eq!(number(field(failed_share, "median")), 0.0, "{name}");
    }

    let traced = field(&result, "traced");
    assert_eq!(field(traced, "correct"), &Value::Bool(true));
    assert_eq!(number(field(traced, "failed")), 0.0);
    assert_eq!(
        field(traced, "core_sum_holds"),
        &Value::Bool(true),
        "gather + verdict must account for a probe: gap {:?}",
        field(traced, "core_sum_gap")
    );
    let rows = field(traced, "per_layer");
    let finite = |row: &str| {
        assert!(
            number(field(field(rows, row), "value")).is_finite(),
            "{row}"
        )
    };
    for spec in &PER_LAYER {
        finite(spec.name);
    }

    // A file agrees with itself on every workload and metric.
    let output = run(&["compare", out, out]);
    let table = String::from_utf8_lossy(&output.stdout);
    let ok_rows = table.lines().filter(|line| line.ends_with("ok")).count();
    assert_eq!(ok_rows, NAMES.len() * (END_TO_END.len() + 1), "{table}");
}

#[test]
fn a_run_ends_with_the_result_line_the_driver_reads() {
    for (trace, specs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let output = run(&[
            "--workload",
            "identify_follow",
            "--smoke",
            "--seed",
            "9",
            "--seconds",
            "0.1",
            "--trace",
            trace,
        ]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = parse(stdout.lines().last().expect("a last line"));
        let keys: Vec<&str> = line
            .as_map()
            .expect("an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
        assert!(matches!(field(&line, "attempted"), Value::U64(n) if *n >= 1));
        assert_eq!(field(&line, "failed"), &Value::U64(0));
        let metrics = field(&line, "metrics").as_map().expect("an object");
        assert_eq!(metrics.len(), specs.len());
        for ((name, metric), spec) in metrics.iter().zip(specs) {
            assert_eq!(name, spec.name);
            assert_eq!(text(field(metric, "unit")), spec.unit, "{name}");
            assert!(number(field(metric, "value")).is_finite(), "{name}");
        }
    }
}

#[test]
fn bad_arguments_end_with_an_error_and_no_result() {
    for args in [
        &["--workload", "census"][..],
        &["--frobnicate", "1"],
        &["--trace", "2"],
        &["compare", "only-one.json"],
    ] {
        let output = Command::new(EXE).args(args).output().expect("start");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
