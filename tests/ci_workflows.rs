//! CI workflow hygiene. The root package has no binary targets and is one
//! of 15 crates, so a workflow step that does not say where to look runs on
//! the wrong thing: `cargo run --bin nimage` fails with "no bin target named
//! `nimage` in default-run packages" — which is how the nightly 17-workload
//! gate silently stopped running — and `cargo clippy` lints the facade
//! package only. Every `cargo run … --bin` line must say which package (or
//! manifest) the binary lives in, and every clippy line must say
//! `--workspace`.

use std::fs;
use std::path::Path;

/// Every line of every workflow file, as `(file:line, text)`.
fn workflow_lines() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows");
    let mut lines = vec![];
    for entry in fs::read_dir(&dir).expect("workflow directory exists") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_none_or(|e| e != "yml") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable workflow");
        for (n, line) in text.lines().enumerate() {
            lines.push((
                format!("{}:{}", path.display(), n + 1),
                line.trim().to_string(),
            ));
        }
    }
    lines
}

#[test]
fn workflow_cargo_run_lines_name_their_package() {
    let mut checked = 0;
    for (at, line) in workflow_lines() {
        if !(line.contains("cargo run") && line.contains("--bin")) {
            continue;
        }
        checked += 1;
        let names_package = line
            .split_whitespace()
            .any(|w| w == "-p" || w == "--package" || w.starts_with("--manifest-path"));
        assert!(
            names_package,
            "{at}: `cargo run --bin` without -p/--manifest-path: {line}"
        );
    }
    assert!(checked > 0, "found no `cargo run --bin` line to check");
}

#[test]
fn workflow_clippy_lines_lint_the_whole_workspace() {
    let mut checked = 0;
    for (at, line) in workflow_lines() {
        if !line.contains("cargo clippy") {
            continue;
        }
        checked += 1;
        assert!(
            line.split_whitespace().any(|w| w == "--workspace"),
            "{at}: `cargo clippy` without --workspace lints the root package only: {line}"
        );
    }
    assert!(checked > 0, "found no `cargo clippy` line to check");
}

/// Whether `ci.yml` has a step that runs exactly `step`.
fn ci_runs(step: &str) -> bool {
    workflow_lines()
        .iter()
        .any(|(at, line)| at.contains("ci.yml") && line == &format!("run: {step}"))
}

/// CI runs the interpreter-dispatch bench once, so its steady-state runs
/// (regular, instrumented, arithmetic) keep compiling and keep executing.
#[test]
fn ci_runs_the_dispatch_bench() {
    let step = "cargo bench -p nimage-bench --bench crit_dispatch -- --test";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// CI runs the trace bench once, so trace replay and trace-file decode
/// keep compiling and keep executing.
#[test]
fn ci_runs_the_replay_bench() {
    let step = "cargo bench -p nimage-bench --bench crit_replay -- --test";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// CI runs the decode bench once, so the disk decoders it times (the heap
/// snapshot among them) keep compiling and keep executing.
#[test]
fn ci_runs_the_decode_bench() {
    let step = "cargo bench -p nimage-bench --bench crit_decode -- --test";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// CI runs the order bench once, so the ordering kernels and the program
/// index they join over keep compiling and keep executing.
#[test]
fn ci_runs_the_order_bench() {
    let step = "cargo bench -p nimage-bench --bench crit_order -- --test";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// CI runs the fingerprint bench once, so the program-fingerprint kernels
/// — the hash every workload's cache keys hang off — keep compiling and
/// keep executing.
#[test]
fn ci_runs_the_fingerprint_bench() {
    let step = "cargo bench -p nimage-bench --bench crit_fingerprint -- --test";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// `tests/paper_figures.rs` pins Fig. 2–5 and Sec. 7.4 but is ignored
/// in debug builds (the full matrix is too slow unoptimized), so CI's
/// release workspace step is the one that runs it.
#[test]
fn ci_runs_the_release_workspace_tests() {
    let step = "cargo test --workspace -q --release";
    assert!(ci_runs(step), "ci.yml lost the `{step}` step");
}

/// Tier-1's plain `cargo test` at the root runs every crate's suites,
/// in debug: the root manifest's `default-members` names the facade and
/// `crates/*`, and leaves the vendored stand-ins out.
#[test]
fn plain_cargo_test_runs_every_crate() {
    let manifest = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .expect("readable root manifest");
    let setting = r#"default-members = [".", "crates/*"]"#;
    assert!(
        manifest.lines().any(|l| l.trim() == setting),
        "the root Cargo.toml lost `{setting}`"
    );
}

/// The warm-cache job gates on what a warm engine does: interpret nothing
/// and lower nothing, since each build executes once and that run is a
/// disk hit, and order nothing, since all eight strategy plans are disk
/// hits and no identity map is looked up. It must not gate on the retired
/// per-CU `lower` disk stage, nor on `nimage bench`'s retired per-stage
/// serial-vs-parallel rows (`stage_speedups`: below the fan-out cutoffs
/// both arms ran the same serial code, so the `>= 1.0` gate could not
/// fail) — and the report schema must not describe them.
#[test]
fn warm_cache_gate_checks_that_nothing_was_executed_or_lowered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("readable ci.yml");
    for gate in [
        "counters.get('vm.executions', 0) == 0",
        "shards['lazy'] == 0 and shards['eager'] == 0",
        "'lower' not in stages",
        "'assign-ids' not in stages",
        "stages['order']['hits'] == 8",
    ] {
        assert!(ci.contains(gate), "ci.yml lost the warm gate `{gate}`");
    }
    for retired in ["stages.get('lower'", "shards['cus']", "stage_speedups"] {
        assert!(!ci.contains(retired), "ci.yml still gates on `{retired}`");
    }
    let schema =
        fs::read_to_string(root.join("ci/report_schema.json")).expect("readable report schema");
    assert!(
        !schema.contains("stage_speedups"),
        "the report schema still describes stage_speedups"
    );
}

/// The cold run lowers on demand only: every shard it realizes is faulted
/// in by the interpreter on first call into its CU (`lazy`), and none is
/// lowered ahead of execution (`eager`).
#[test]
fn cold_gate_checks_that_shards_are_lowered_on_demand() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("readable ci.yml");
    let gate = "cold_shards['eager'] == 0 and cold_shards['lazy'] > 0";
    assert!(ci.contains(gate), "ci.yml lost the cold gate `{gate}`");
}

/// Two `nimage bench` processes share one cache directory at once: both
/// must finish with no rejected entry and identical results, and no
/// temporary file may be left behind.
#[test]
fn warm_cache_job_races_two_processes_on_one_cache_dir() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("readable ci.yml");
    let bench = "./target/release/nimage bench micronaut --threads 2 --cache-dir .nimage-race";
    for run in [
        format!("{bench} --json BENCH_race_a.json &"),
        format!("{bench} --json BENCH_race_b.json"),
    ] {
        assert!(
            workflow_lines()
                .iter()
                .any(|(at, line)| at.contains("ci.yml") && *line == run),
            "ci.yml lost the concurrent run `{run}`"
        );
    }
    for gate in [
        "wait \"$first\"",
        "run['report']['disk']['rejected'] == 0",
        "a['faults'] == b['faults']",
        "a['report']['cells'] == b['report']['cells']",
        "'.tmp.' in p.name",
    ] {
        assert!(ci.contains(gate), "ci.yml lost the race gate `{gate}`");
    }
}
