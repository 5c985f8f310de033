//! Acceptance: the determinism audit passes on a full AWFY pipeline.
//!
//! Two builds of the same program — with the allocator deliberately perturbed
//! between them — must produce byte-identical images and identical ordering
//! CSVs, both with and without ordering profiles from a real profiling run.

use nimage::verify::determinism::perturb_allocator;
use nimage::verify::{audit_determinism, DeterminismInputs};
use nimage::vm::StopWhen;
use nimage::workloads::{Awfy, RuntimeScale};
use nimage::{BuildOptions, Engine, EngineOptions, Pipeline, Strategy, WorkloadSpec};

#[test]
fn unprofiled_awfy_pipeline_is_deterministic() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let report = audit_determinism(&program, &DeterminismInputs::default());
    assert!(report.is_deterministic(), "{:?}", report.diagnostics);
    assert!(report.image_identical);
    assert!(report.cu_order_identical);
    assert!(report.object_order_identical);
}

#[test]
fn profiled_awfy_pipeline_is_deterministic() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, BuildOptions::default());
    let prof = pipeline
        .profiling_run(StopWhen::Exit)
        .expect("profiling run succeeds");
    let strategy = Strategy::CuPlusHeapPath;
    let heap_strategy = strategy.heap_strategy().expect("strategy orders the heap");
    let inputs = DeterminismInputs {
        cu_profile: Some(&prof.cu_profile),
        heap_profile: Some(&prof.heap_profiles[&heap_strategy]),
        heap_strategy: Some(heap_strategy),
    };
    let report = audit_determinism(&program, &inputs);
    assert!(report.is_deterministic(), "{:?}", report.diagnostics);
}

/// The engine's content-keyed cache and worker threads must not leak
/// allocator or hash-seed state into results: a fresh engine after a
/// deliberate allocator perturbation reproduces every cell verbatim.
#[test]
fn cached_engine_evaluation_is_allocator_independent() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let evaluate = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 2,
            disk: None,
            trace: Default::default(),
        });
        let spec = WorkloadSpec::new("Sieve", &program, BuildOptions::default(), StopWhen::Exit);
        let rows: Vec<_> = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .expect("evaluation succeeds")
            .into_iter()
            .map(|c| (c.strategy, c.eval))
            .collect();
        let report = |r: &nimage::vm::RunReport| {
            let mut counts: Vec<(&str, u64)> = r.call_counts.iter().collect();
            counts.sort_unstable();
            format!(
                "ops={} faults={:?} exit={:?} ret={:?} text={:?} heap={:?} counts={counts:?}",
                r.ops, r.faults, r.exit, r.entry_return, r.text_page_states, r.heap_page_states,
            )
        };
        rows.iter()
            .map(|(s, e)| {
                format!(
                    "{s:?} base[{}] opt[{}]",
                    report(&e.baseline),
                    report(&e.optimized)
                )
            })
            .collect::<Vec<String>>()
    };
    let first = evaluate();
    perturb_allocator(0x35);
    let second = evaluate();
    assert_eq!(
        first, second,
        "perturbed allocator must not change cached evaluation results"
    );
}
