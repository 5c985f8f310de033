//! Tracing is observation, not participation: turning VM-level trace
//! events on must not change a single measured bit, must not move any
//! cache fingerprint, and two traced runs of the same evaluation must
//! record the same logical span tree.

use nimage_core::{
    BuildOptions, DiskCacheOptions, Engine, EngineOptions, EvalRequest, Strategy, TraceOptions,
    WorkloadSpec,
};
use nimage_trace::{canonical_shape, logical_roots};
use nimage_vm::StopWhen;
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn engine(n_threads: usize, vm_events: bool, disk: Option<DiskCacheOptions>) -> Engine {
    Engine::new(EngineOptions {
        n_threads,
        disk,
        trace: TraceOptions {
            vm_events,
            ..Default::default()
        },
    })
}

/// Debug-renders every cell of one full evaluation — covers every field
/// of both run reports bit for bit.
fn evaluate(engine: &Engine, program: &nimage_ir::Program, stop: StopWhen) -> Vec<String> {
    let spec = WorkloadSpec::new("wl", program, BuildOptions::default(), stop);
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
        .expect("evaluation succeeds")
        .iter()
        .map(|c| format!("{} {:?} {:?}", c.workload, c.strategy, c.eval))
        .collect()
}

/// Recording VM fault instants must leave every evaluated number — fault
/// counts, page states, op counts, call counts — bit-identical at every
/// worker count.
#[test]
fn vm_events_are_bit_neutral_across_thread_counts() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    for threads in [1, 2, 4] {
        let off = evaluate(&engine(threads, false, None), &program, StopWhen::Exit);
        let on = evaluate(&engine(threads, true, None), &program, StopWhen::Exit);
        assert_eq!(off, on, "vm_events changed results at {threads} threads");
    }
}

#[test]
fn vm_events_are_bit_neutral_on_a_microservice() {
    let program = Microservice::Micronaut.program();
    let off = evaluate(&engine(2, false, None), &program, StopWhen::FirstResponse);
    let on = evaluate(&engine(2, true, None), &program, StopWhen::FirstResponse);
    assert_eq!(off, on, "vm_events changed a microservice evaluation");
}

/// An event ring too small for the evaluation overflows: the report counts
/// the dropped events, and the results stay an untraced engine's. So a
/// report's `dropped == 0` is a real check, not one that cannot fail.
#[test]
fn an_overflowing_event_ring_reports_drops_and_changes_no_result() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let tiny = Engine::new(EngineOptions {
        n_threads: 1,
        disk: None,
        trace: TraceOptions {
            vm_events: true,
            capacity: 8,
        },
    });
    let spec = WorkloadSpec::new("wl", &program, BuildOptions::default(), StopWhen::Exit);
    let outcome = tiny
        .evaluate(
            &EvalRequest::new()
                .workload(spec)
                .strategies(Strategy::all()),
        )
        .expect("evaluation succeeds");
    assert!(
        outcome.report.trace.dropped > 0,
        "an 8-event ring held a whole evaluation: {:?}",
        outcome.report.trace
    );
    let traced: Vec<String> = outcome
        .cells
        .iter()
        .map(|c| format!("{} {:?} {:?}", c.workload, c.strategy, c.eval))
        .collect();
    let untraced = evaluate(&engine(1, false, None), &program, StopWhen::Exit);
    assert_eq!(untraced, traced, "an overflowing ring changed results");
}

/// Trace options never enter cache fingerprints: a traced engine must get
/// pure disk hits (no stores, no misses on the persisted stages) for
/// artifacts an untraced engine persisted.
#[test]
fn trace_options_do_not_move_cache_fingerprints() {
    let dir = std::env::temp_dir().join(format!("nimage-trace-neutral-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = || Some(DiskCacheOptions::at(&dir));
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());

    let cold = engine(2, false, disk());
    let cold_rows = evaluate(&cold, &program, StopWhen::Exit);
    let stats = cold
        .report(&EvalRequest::new(), &[])
        .disk
        .expect("disk tier configured");
    assert!(stats.stores > 0, "cold run persists artifacts");

    let warm = engine(2, true, disk());
    let warm_rows = evaluate(&warm, &program, StopWhen::Exit);
    let stats = warm
        .report(&EvalRequest::new(), &[])
        .disk
        .expect("disk tier configured");
    assert!(stats.hits > 0, "traced engine must hit untraced entries");
    assert_eq!(
        stats.stores, 0,
        "tracing forked a cache fingerprint: the traced run re-stored"
    );
    assert_eq!(cold_rows, warm_rows, "warm traced results differ");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two traced runs of the same evaluation record the same logical span
/// tree (names, nesting, root/instant structure) — recording order across
/// worker threads may differ, the canonical shape may not.
#[test]
fn traced_runs_have_a_deterministic_span_shape() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let shape = |threads: usize| {
        let e = engine(threads, true, None);
        let rows = evaluate(&e, &program, StopWhen::Exit);
        let shape = canonical_shape(&logical_roots(&e.tracer().events()));
        (rows, shape)
    };
    let (rows_a, shape_a) = shape(2);
    let (rows_b, shape_b) = shape(2);
    assert_eq!(rows_a, rows_b);
    assert_eq!(shape_a, shape_b, "span tree shape moved between runs");
    // The shape covers the whole pipeline: every stage name shows up.
    for stage in nimage_core::StageTimes::NAMES {
        assert!(
            shape_a.contains(stage),
            "stage {stage} missing from span shape:\n{shape_a}"
        );
    }
}
