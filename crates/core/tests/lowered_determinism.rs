//! Engine equivalence: the pre-lowered execution engine (`Vm::run`) must
//! be observably indistinguishable from the reference tree-walking
//! interpreter (`Vm::run_reference`). Every run report — op counts,
//! per-section fault counts, trace bytes, call counts, page states — is
//! compared through its `Debug` rendering, which covers every field bit
//! for bit. The lowered engine may only change how fast the VM steps,
//! never what it computes.

use std::sync::Arc;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, BuiltImage, Parallelism, Pipeline, RunParts, Strategy};
use nimage_ir::Program;
use nimage_vm::{HeapTemplate, LoweredProgram, StopWhen, VmBuilder, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn opts(threads: usize) -> BuildOptions {
    BuildOptions {
        threads: Parallelism::threads(threads),
        ..BuildOptions::default()
    }
}

/// Runs one built image on both engines and returns the two reports'
/// `Debug` renderings, `(reference, lowered)`.
fn both_engines(
    program: &Program,
    built: &BuiltImage,
    vm: &VmConfig,
    stop: StopWhen,
) -> (String, String) {
    let vm = || {
        VmBuilder::new(
            program,
            &built.compiled,
            &built.snapshot,
            &built.image,
            vm.clone(),
        )
        .build()
    };
    let reference = vm().run_reference(stop).unwrap();
    let lowered = vm().run(stop).unwrap();
    (format!("{reference:?}"), format!("{lowered:?}"))
}

/// Builds the image with the given instrumentation and runs it on both
/// engines. `FULL` is the profiling half of the pipeline, where every
/// interpreter feature is exercised (path profiling, probe costs, paging,
/// the trace itself is part of the report); `NONE` is the measurement half.
fn built_on_both_engines(
    program: &Program,
    o: &BuildOptions,
    instrument: InstrumentConfig,
    stop: StopWhen,
) -> (String, String) {
    let built = Pipeline::new(program, o.clone())
        .build_instrumented(instrument)
        .unwrap();
    both_engines(program, &built, &o.vm, stop)
}

#[test]
fn lowered_matches_reference_on_all_awfy_workloads() {
    let scale = RuntimeScale::small();
    for wl in Awfy::all() {
        let program = wl.program_at(&scale);
        for (instrument, what) in [
            (InstrumentConfig::FULL, "instrumented"),
            (InstrumentConfig::NONE, "regular"),
        ] {
            let (reference, lowered) =
                built_on_both_engines(&program, &opts(1), instrument, StopWhen::Exit);
            assert_eq!(
                reference, lowered,
                "{what} run of {wl:?} differs between engines"
            );
        }
    }
}

#[test]
fn lowered_matches_reference_on_all_microservices() {
    for wl in Microservice::all() {
        let program = wl.program();
        // Microservices park in an infinite accept loop, so `Exit` only
        // returns via the ops budget; cap it so the budget path (and the
        // multi-threaded park loop) is compared without a 500M-op run.
        for (stop, max_ops) in [
            (StopWhen::FirstResponse, None),
            (StopWhen::Exit, Some(2_000_000)),
        ] {
            let mut o = opts(1);
            if let Some(cap) = max_ops {
                o.vm.max_ops = cap;
            }
            let (reference, lowered) =
                built_on_both_engines(&program, &o, InstrumentConfig::FULL, stop);
            assert_eq!(
                reference, lowered,
                "instrumented run of {wl:?} ({stop:?}) differs between engines"
            );
        }
    }
}

/// Fault counts, trace and profiles must agree between the engines across
/// every worker-thread count: the build stages fan out differently but the
/// VM result may not move.
#[test]
fn engine_matrix_is_identical_across_thread_counts() {
    let program = Microservice::Micronaut.program();
    let stop = StopWhen::FirstResponse;
    let (ref_dbg, _) = built_on_both_engines(&program, &opts(1), InstrumentConfig::FULL, stop);
    for threads in [1, 2, 4, 8] {
        let (reference, lowered) =
            built_on_both_engines(&program, &opts(threads), InstrumentConfig::FULL, stop);
        assert_eq!(
            ref_dbg, reference,
            "reference-engine report differs at {threads} threads"
        );
        assert_eq!(
            ref_dbg, lowered,
            "lowered-engine report differs at {threads} threads"
        );
    }
}

/// The optimizing half agrees between the engines too: the PGO-compiled
/// Bounce build (profile-driven inlining changes the CUs) under the default
/// layout and reordered by `cu+heap path` — the build variants none of the
/// other cases run.
#[test]
fn pgo_reordered_image_matches_between_engines() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let o = opts(1);
    let p = Pipeline::new(&program, o.clone());
    let artifacts = p.profiling_run(StopWhen::Exit).unwrap();
    for strategy in [None, Some(Strategy::CuPlusHeapPath)] {
        let built = p.build_optimized(&artifacts, strategy).unwrap();
        let (reference, lowered) = both_engines(&program, &built, &o.vm, StopWhen::Exit);
        assert_eq!(
            reference, lowered,
            "optimized run ({strategy:?}) differs between engines"
        );
    }
}

/// Concurrent runs sharing one `Arc<LoweredProgram>` and one
/// `Arc<HeapTemplate>` (the engine's matrix sharding) must each report
/// exactly what an isolated serial run reports.
#[test]
fn shared_lowered_program_runs_are_isolated() {
    let program = Microservice::Micronaut.program();
    let o = opts(1);
    let p = Pipeline::new(&program, o.clone());
    let built = p.build_instrumented(InstrumentConfig::NONE).unwrap();
    let template = Arc::new(HeapTemplate::from_build_heap(built.snapshot.heap()));
    let lowered = Arc::new(LoweredProgram::build(
        &program,
        &built.compiled,
        o.vm.max_paths,
    ));
    let run_one = || {
        p.run(
            RunParts::new(&built.compiled, &built.snapshot, &built.image)
                .heap(Some(template.clone()))
                .lowered(Some(lowered.clone())),
            StopWhen::FirstResponse,
        )
        .unwrap()
    };
    let reference = format!("{:?}", run_one());
    let reports = nimage_par::parallel_map(4, 6, |_| format!("{:?}", run_one()));
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(&reference, r, "sharded run {i} differs from serial");
    }
}
