//! Criterion microbench of interpreter dispatch: the pre-lowered
//! execution engine (`Vm::run`) vs the reference tree-walking interpreter
//! (`Vm::run_reference`, DESIGN.md §11), on the same built image.
//!
//! Three views:
//! - `dispatch/{legacy,lowered}` — a fresh VM per iteration, including
//!   per-VM setup (the lowered engine pays lowering here when no shared
//!   `LoweredProgram` is supplied). `legacy` is the reference interpreter;
//!   the name is kept so the series stays comparable across PRs.
//! - `dispatch/lowered_shared` — the engine's steady state: one
//!   `Arc<LoweredProgram>` built up front and shared across iterations
//!   (the VM reads the snapshot heap in place), so the measured cost is
//!   pure step-loop dispatch. This is the configuration the eval matrix
//!   runs in.
//! - `dispatch/instrumented_shared` — the same steady state on the
//!   `InstrumentConfig::FULL` Bounce build: path profiling, heap tracing
//!   and probe costs, about two thirds of AWFY interpreter time.
//! - `dispatch/arith_shared` — the steady state on Mandelbrot-small, a
//!   loop of `Double` arithmetic and branches on locals.
//! - `dispatch/int_shared` — the steady state on Queens-small, whose hot
//!   loops are `Int` arithmetic, comparisons and array reads.
//! - `lowering/build` — the one-time lowering pass itself.
//! - `vm_build/micronaut` — `VmBuilder::build` on micronaut's optimized
//!   build: the per-run setup every execution pays before its first
//!   instruction, the runtime heap over the snapshot included.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_bench::eval_options;
use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline, RunParts};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{LoweredProgram, StopWhen, VmBuilder};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Benches runs of `program`'s `instrument` build with the lowered program
/// built once and shared, as the engine runs a build.
fn bench_shared(c: &mut Criterion, id: &str, program: &Program, instrument: InstrumentConfig) {
    let o = BuildOptions::default();
    let p = Pipeline::new(program, o.clone());
    let built = p.build_instrumented(instrument).unwrap();
    let lowered = Arc::new(LoweredProgram::build(
        program,
        &built.compiled,
        o.vm.max_paths,
    ));
    c.bench_function(id, |b| {
        b.iter(|| {
            p.run(
                RunParts::new(
                    std::hint::black_box(&built.compiled),
                    &built.snapshot,
                    &built.image,
                )
                .lowered(Some(lowered.clone())),
                StopWhen::Exit,
            )
            .unwrap()
        })
    });
}

fn bench_dispatch(c: &mut Criterion) {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let o = BuildOptions::default();
    let p = Pipeline::new(&program, o.clone());
    let built = p.build_instrumented(InstrumentConfig::NONE).unwrap();
    let vm = || {
        let built = std::hint::black_box(&built);
        VmBuilder::new(
            &program,
            &built.compiled,
            &built.snapshot,
            &built.image,
            o.vm.clone(),
        )
        .build()
    };
    c.bench_function("dispatch/legacy", |b| {
        b.iter(|| vm().run_reference(StopWhen::Exit).unwrap())
    });
    c.bench_function("dispatch/lowered", |b| {
        b.iter(|| vm().run(StopWhen::Exit).unwrap())
    });

    // Steady state: lowering amortized away.
    bench_shared(
        c,
        "dispatch/lowered_shared",
        &program,
        InstrumentConfig::NONE,
    );
    bench_shared(
        c,
        "dispatch/instrumented_shared",
        &program,
        InstrumentConfig::FULL,
    );
    let mandelbrot = Awfy::Mandelbrot.program_at(&RuntimeScale::small());
    bench_shared(
        c,
        "dispatch/arith_shared",
        &mandelbrot,
        InstrumentConfig::NONE,
    );
    let queens = Awfy::Queens.program_at(&RuntimeScale::small());
    bench_shared(c, "dispatch/int_shared", &queens, InstrumentConfig::NONE);
}

fn bench_lowering(c: &mut Criterion) {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let o = BuildOptions::default();
    let p = Pipeline::new(&program, o.clone());
    let built = p.build_instrumented(InstrumentConfig::NONE).unwrap();
    c.bench_function("lowering/build", |b| {
        b.iter(|| {
            LoweredProgram::build(
                std::hint::black_box(&program),
                &built.compiled,
                o.vm.max_paths,
            )
        })
    });
}

fn bench_vm_build(c: &mut Criterion) {
    let program = Microservice::Micronaut.program();
    let pipeline = Pipeline::new(&program, eval_options(DumpMode::MemoryMapped));
    let artifacts = pipeline
        .profiling_run(StopWhen::FirstResponse)
        .expect("profiling run");
    let built = pipeline
        .build_optimized(&artifacts, None)
        .expect("optimized build");
    c.bench_function("vm_build/micronaut", |b| {
        b.iter(|| {
            let built = std::hint::black_box(&built);
            VmBuilder::new(
                &program,
                &built.compiled,
                &built.snapshot,
                &built.image,
                pipeline.options().vm.clone(),
            )
            .build()
        })
    });
}

criterion_group!(benches, bench_dispatch, bench_lowering, bench_vm_build);
criterion_main!(benches);
