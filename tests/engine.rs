//! Acceptance for the evaluation engine: the parallel, cached matrix
//! evaluation must be indistinguishable — cell for cell, field for field —
//! from the serial uncached loop it replaced, and the cache must actually
//! share the per-workload artifacts across strategies.

use nimage::vm::StopWhen;
use nimage::workloads::{Awfy, RuntimeScale};
use nimage::{BuildOptions, Engine, EngineOptions, EvalRequest, Pipeline, Strategy, WorkloadSpec};

/// Every observable field of an evaluation, rendered deterministically for
/// comparison: plain Debug for the value-like fields, and the call-count
/// profile in sorted order (its backing `HashMap` iterates in seed order).
fn render(strategy: Strategy, eval: &nimage::Evaluation) -> String {
    let report = |r: &nimage::vm::RunReport| {
        let mut counts: Vec<(&str, u64)> = r.call_counts.iter().collect();
        counts.sort_unstable();
        format!(
            "ops={} probe_ops={} faults={:?} first_response={:?} exit={:?} ret={:?} \
             native={:?} text={:?} heap={:?} stats={:?} counts={counts:?}",
            r.ops,
            r.probe_ops,
            r.faults,
            r.first_response,
            r.exit,
            r.entry_return,
            r.native_touch_pages,
            r.text_page_states,
            r.heap_page_states,
            r.session_stats,
        )
    };
    format!(
        "{strategy:?} base[{}] opt[{}]",
        report(&eval.baseline),
        report(&eval.optimized)
    )
}

#[test]
fn parallel_matrix_matches_serial_loop_row_for_row() {
    let scale = RuntimeScale::small();
    let programs = [
        ("Sieve", Awfy::Sieve.program_at(&scale)),
        ("Towers", Awfy::Towers.program_at(&scale)),
    ];
    let strategies = Strategy::all();

    // The reference: the serial uncached path, which re-runs the VM for
    // every image.
    let mut expected: Vec<(String, String)> = Vec::new();
    for (name, program) in &programs {
        let pipeline = Pipeline::new(program, BuildOptions::default());
        let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
        for eval in pipeline
            .evaluate(&artifacts, &strategies, StopWhen::Exit)
            .unwrap()
        {
            expected.push((name.to_string(), render(eval.strategy, &eval)));
        }
    }

    // The engine, forced onto several worker threads.
    let engine = Engine::new(EngineOptions {
        n_threads: 4,
        disk: None,
        trace: Default::default(),
    });
    let specs: Vec<WorkloadSpec<'_>> = programs
        .iter()
        .map(|(name, program)| {
            WorkloadSpec::new(*name, program, BuildOptions::default(), StopWhen::Exit)
        })
        .collect();
    let cells = engine.evaluate_matrix(&specs, &strategies).unwrap();

    assert_eq!(cells.len(), expected.len(), "row-major cell count");
    for (cell, (name, rendered)) in cells.iter().zip(&expected) {
        assert_eq!(&cell.workload, name, "deterministic row order");
        assert_eq!(
            &render(cell.strategy, &cell.eval),
            rendered,
            "{name}/{}: parallel cell must equal the serial loop's",
            cell.strategy.name()
        );
    }
}

#[test]
fn engine_computes_shared_artifacts_once_per_workload() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let engine = Engine::new(EngineOptions {
        n_threads: 2,
        disk: None,
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("Sieve", &program, BuildOptions::default(), StopWhen::Exit);
    let strategies = Strategy::all();
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();

    let by_name = |name: &str| {
        engine
            .report(&EvalRequest::new(), &[])
            .cache
            .iter()
            .find(|m| m.name == name)
            .copied()
            .unwrap_or_else(|| panic!("no memo named {name}"))
    };
    // One workload: the profiling run and the baseline measurement each
    // miss exactly once; the other five strategies hit. The layout memo
    // misses once — the baseline layout; the instrumented build lives only
    // inside the profile's compute — and the plan memo once per strategy.
    assert_eq!(by_name("profile").misses, 1);
    assert_eq!(by_name("layout").misses, 1);
    assert_eq!(by_name("order").misses as usize, strategies.len());
    assert_eq!(by_name("baseline-run").misses, 1);
    assert_eq!(by_name("profile").hits as usize, strategies.len() - 1);
    // The optimized compile and snapshot only: one miss each.
    assert_eq!(by_name("compile").misses, 1);
    assert_eq!(by_name("snapshot").misses, 1);
    // Identity maps of the optimized snapshot only, one per scheme: the
    // profile names the instrumented snapshot's touched objects directly.
    assert_eq!(by_name("assign-ids").misses, 3);
    // Two interpretations — the profiling run and the optimized build's
    // one run — and every strategy cell pages that run's log instead.
    let counters = engine.tracer().metrics().counters;
    let counter = |key: &str| counters.get(key).copied().unwrap_or(0);
    assert_eq!(counter("vm.executions"), 2);
    assert_eq!(counter("vm.relayouts"), strategies.len() as u64);

    // A second pass over the same workload is answered from the cache:
    // no stage misses again.
    let misses_before: u64 = engine.report(&EvalRequest::new(), &[]).cache_misses();
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();
    assert_eq!(
        engine.report(&EvalRequest::new(), &[]).cache_misses(),
        misses_before,
        "fully warm cache must not recompute anything"
    );
    // The memoised profile holds no trace: the replay consumed it.
    let profile = engine.workload(&spec).profile().unwrap();
    assert!(profile.instrumented_report.trace.is_none());
}

#[test]
fn engine_reports_stage_times_for_computed_work() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let engine = Engine::default();
    let spec = WorkloadSpec::new("Sieve", &program, BuildOptions::default(), StopWhen::Exit);
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
        .unwrap();
    let stages = engine.report(&EvalRequest::new(), &[]).stages;
    assert!(stages.iter().map(|s| s.exclusive_ns).sum::<u64>() > 0);
    for required in ["analyze", "compile", "snapshot", "order", "layout", "run"] {
        let stage = stages.iter().find(|s| s.name == required).unwrap();
        assert!(
            stage.exclusive_ns > 0,
            "stage {required} must have recorded wall-clock"
        );
    }
}

/// What a second `nimage eval --cache-dir <same>` does: a fresh engine over
/// a cache directory another engine filled finds every persisted stage
/// under the same keys (nothing stored, nothing rejected) and — compile
/// being a disk hit — never runs reachability analysis; with both runs
/// disk hits, it never interprets or lowers anything either, and with
/// every strategy's plan a disk hit it never orders anything.
#[test]
fn second_engine_on_a_warm_cache_dir_stores_rejects_and_analyzes_nothing() {
    let dir = std::env::temp_dir().join(format!("nimage-warm-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let spec = WorkloadSpec::new("Sieve", &program, BuildOptions::default(), StopWhen::Exit);
    let run = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 2,
            disk: Some(nimage_core::DiskCacheOptions::at(&dir)),
            trace: Default::default(),
        });
        let cells = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .unwrap();
        let rows: Vec<String> = cells.iter().map(|c| render(c.strategy, &c.eval)).collect();
        let stats = engine.report(&EvalRequest::new(), &[]);
        let spans = nimage_trace::aggregate(&engine.tracer().events());
        let count = |name: &str| spans.get(name).map_or(0, |a| a.count);
        let executions = engine
            .tracer()
            .metrics()
            .counters
            .get("vm.executions")
            .copied()
            .unwrap_or(0);
        let warm_work = (executions, stats.lowered_shards, stats.disk_stages);
        let disk = stats.disk.expect("disk tier configured");
        (
            rows,
            disk,
            count("analyze"),
            count("fingerprint"),
            count("order") + count("optimize"),
            warm_work,
        )
    };

    let (cold_rows, cold, cold_analyze, _, _, cold_work) = run();
    assert!(
        cold.stores > 0 && cold.hits == 0,
        "cold run fills the cache"
    );
    assert_eq!(cold_analyze, 1, "one workload, one analysis");
    // Both runs lower on demand, each build's code living only as long as
    // its run: 101 of the two builds' 197 shards are ever called into, and
    // the engine sums each run's counts as the run ends.
    let shards = cold_work.1;
    assert_eq!(
        (shards.lazy, shards.eager, shards.cus),
        (101, 0, 197),
        "{shards:?}"
    );
    // The optimized snapshot's three identity maps; none of the
    // instrumented snapshot's.
    let cold_stages = cold_work.2.expect("disk tier configured");
    assert_eq!(cold_stages["assign-ids"].stores, 3, "{cold_stages:?}");
    // The optimized build's compile and snapshot; the profiling build is
    // never persisted.
    assert_eq!(cold_stages["compile"].stores, 1, "{cold_stages:?}");
    assert_eq!(cold_stages["snapshot"].stores, 1, "{cold_stages:?}");

    let (warm_rows, warm, warm_analyze, warm_fingerprints, warm_orders, warm_work) = run();
    let (executions, shards, stages) = warm_work;
    assert_eq!(warm.stores, 0, "a key moved between engines");
    assert_eq!(warm.rejected, 0);
    assert_eq!(warm.misses, 0);
    // Fewer hits than stores: with every plan a hit, no identity map is
    // looked up.
    assert!(warm.hits > 0 && warm.hits <= cold.stores);
    assert_eq!(warm_analyze, 0, "a disk-hit compile must not analyze");
    assert_eq!(warm_fingerprints, 1, "one fingerprint span per workload");
    // Both runs are disk hits: nothing is interpreted, nothing lowered,
    // and no per-CU lowering is persisted or looked up.
    assert_eq!(executions, 0, "a warm engine executed the VM");
    assert_eq!((shards.lazy, shards.eager), (0, 0), "{shards:?}");
    let stages = stages.expect("disk tier configured");
    assert!(!stages.contains_key("lower"), "{stages:?}");
    // Every strategy's plan is a disk hit, so no identity map is looked up.
    assert_eq!(warm_orders, 0, "a warm engine ordered a strategy");
    assert!(!stages.contains_key("assign-ids"), "{stages:?}");
    assert_eq!(stages["order"].hits as usize, Strategy::all().len());
    assert_eq!(cold_rows, warm_rows);
    let _ = std::fs::remove_dir_all(&dir);
}
