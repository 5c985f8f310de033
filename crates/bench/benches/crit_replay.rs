//! Criterion microbench of the trace-replay kernel,
//! `replay_first_access`, on the instrumented traces of two small-scale
//! AWFY programs: Bounce (≈ 44 k records) and Mandelbrot (≈ 107 k, the
//! largest small-scale trace). The instrumented build, its run and the
//! identity map are built once, outside the timed loop.
//!
//! `read_trace/{Bounce,Mandelbrot}-small` times the decode the disk tier
//! pays for the same traces: parsing the trace file `write_trace` wrote.

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_bench::eval_options;
use nimage_compiler::InstrumentConfig;
use nimage_core::Pipeline;
use nimage_order::{assign_ids, replay_first_access, HeapStrategy};
use nimage_profiler::{read_trace, write_trace, DumpMode};
use nimage_vm::StopWhen;
use nimage_workloads::{Awfy, RuntimeScale};

fn bench_replay(c: &mut Criterion) {
    for awfy in [Awfy::Bounce, Awfy::Mandelbrot] {
        let program = awfy.program_at(&RuntimeScale::small());
        let opts = eval_options(DumpMode::OnFull);
        let max_paths = opts.vm.max_paths;
        let pipeline = Pipeline::new(&program, opts);
        let built = pipeline
            .build_instrumented(InstrumentConfig::FULL)
            .expect("instrumented build");
        let report = pipeline
            .run_image(&built, StopWhen::Exit)
            .expect("instrumented run");
        let trace = report
            .trace
            .as_ref()
            .expect("instrumented run records a trace");
        let ids = assign_ids(&program, &built.snapshot, HeapStrategy::HeapPath);
        let records: usize = trace.threads.iter().map(|t| t.len()).sum();
        println!("{}-small: {records} trace records", awfy.name());
        c.bench_function(&format!("replay_first_access/{}-small", awfy.name()), |b| {
            b.iter(|| {
                replay_first_access(std::hint::black_box(&program), trace, &ids, max_paths)
                    .expect("replay")
            })
        });
        let file = write_trace(trace);
        c.bench_function(&format!("read_trace/{}-small", awfy.name()), |b| {
            b.iter(|| read_trace(std::hint::black_box(&file)).expect("trace file decodes"))
        });
    }
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
