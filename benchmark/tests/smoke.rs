//! Self-tests: `BENCHMARK.json` is well-formed, and a smoke run of every
//! workload in both modes prints exactly the metrics it names.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::Path;
use std::process::Command;

use json::Value;

fn spec() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj().iter().map(|(k, _)| k.as_str()).collect()
}

fn names(section: &Value) -> Vec<&str> {
    section
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_meets_the_contract() {
    let spec = spec();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<_> = spec
        .get("paths")
        .unwrap()
        .as_arr()
        .iter()
        .map(Value::as_str)
        .collect();
    assert_eq!(paths, [Some("benchmark")]);
    let seconds = spec.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = spec.get("workloads").unwrap();
    assert!((2..=8).contains(&workloads.as_arr().len()));
    for w in workloads.as_arr() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }

    let end_to_end = spec.get("end_to_end").unwrap();
    let per_layer = spec.get("per_layer").unwrap();
    assert!((1..=16).contains(&end_to_end.as_arr().len()));
    assert!((1..=128).contains(&per_layer.as_arr().len()));
    for m in end_to_end.as_arr() {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for m in per_layer.as_arr() {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    let setup = end_to_end
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));

    let mut all: Vec<&str> = [workloads, end_to_end, per_layer]
        .iter()
        .flat_map(|s| names(s))
        .collect();
    for name in &all {
        assert!(valid_name(name), "name {name}");
    }
    for m in end_to_end.as_arr().iter().chain(per_layer.as_arr()) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap();
        assert!(
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit}"
        );
        let better = m.get("better").and_then(Value::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
    }
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "every name is used once");
}

/// Runs the benchmark binary and returns its exit status and the last
/// line of its standard output.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nimage-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), last)
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let spec = spec();
    let mut digests = Vec::new();
    for workload in names(spec.get("workloads").unwrap()) {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, last) = bench(&["--workload", workload, "--trace", trace, "--smoke"]);
            assert!(ok, "{workload} --trace {trace} failed");
            let result = json::parse(&last).expect("the last line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let declared = spec.get(section).unwrap();
            let metrics = result.get("metrics").unwrap();
            assert_eq!(keys(metrics), names(declared), "{workload} --trace {trace}");
            for decl in declared.as_arr() {
                let name = decl.get("name").and_then(Value::as_str).unwrap();
                let printed = metrics.get(name).unwrap();
                assert_eq!(keys(printed), ["value", "unit"]);
                assert_eq!(printed.get("unit"), decl.get("unit"), "{name}");
                let value = printed.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {printed:?}");
                if section == "end_to_end" {
                    assert!(value != Some(0.0), "{name} is 0 on {workload}");
                }
            }
            if trace == "1" {
                // Two workers cannot be more than twice as fast as one.
                let speedup = metrics.get("par.speedup_2t").unwrap().get("value");
                assert!(speedup.and_then(Value::as_f64).unwrap() <= 2.0);
                let dropped = metrics.get("trace.dropped").unwrap().get("value");
                assert_eq!(dropped.and_then(Value::as_f64), Some(0.0));
            } else if workload.starts_with("micro_") {
                let record = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("{workload}.run.json"));
                let record = json::parse(&std::fs::read_to_string(record).unwrap()).unwrap();
                digests.push(
                    record
                        .get("digest")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string(),
                );
            }
        }
    }
    // Cold, warm and populate evaluate the same matrix: bit-identical
    // results whatever the cache temperature.
    assert_eq!(digests.len(), 3);
    assert!(digests.iter().all(|d| *d == digests[0]), "{digests:?}");
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let (ok, last) = bench(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(json::parse(&last).is_err(), "no result line: {last}");
}
