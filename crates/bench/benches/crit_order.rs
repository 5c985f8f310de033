//! Criterion microbenches of the two ordering kernels a cold evaluation
//! pays for per program: object identities and the layout optimizer.
//!
//! Inputs are micronaut's, built the way the evaluation builds them
//! (memory-mapped trace dump, stop at the first response):
//! - `assign_ids/<scheme>` — every identity scheme over the optimized
//!   build's snapshot.
//! - `optimize_layout/cu+heap-path` — the clustered cu + heap-path
//!   strategy's candidate search: first-touch CU and object orders with
//!   their hot prefixes, sizes and measured object spans.
//! - `optimize_layout/cu` — the clustered cu strategy's code-only search.

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_bench::profile_program;
use nimage_core::Strategy;
use nimage_image::optimize::{optimize_layout, CodeInput, HeapInput};
use nimage_order::{
    assign_ids, order_cus_split, order_objects_split_spans, CodeGranularity, HeapStrategy,
};
use nimage_profiler::DumpMode;
use nimage_vm::StopWhen;
use nimage_workloads::Microservice;

fn bench_order(c: &mut Criterion) {
    let program = Microservice::Micronaut.program();
    let (pipeline, artifacts) =
        profile_program(&program, StopWhen::FirstResponse, DumpMode::MemoryMapped);
    let built = pipeline
        .build_optimized(&artifacts, None)
        .expect("optimized build");
    let (compiled, snap) = (&built.compiled, &built.snapshot);

    for scheme in [
        HeapStrategy::IncrementalId,
        HeapStrategy::structural_default(),
        HeapStrategy::HeapPath,
        HeapStrategy::HeapPathSalted,
    ] {
        c.bench_function(&format!("assign_ids/{}", scheme.name()), |b| {
            b.iter(|| assign_ids(std::hint::black_box(&program), snap, scheme))
        });
    }

    // The clustered strategies' optimizer inputs, as the ordering stage
    // assembles them.
    let opts = pipeline.options();
    let (cu_first_touch, cu_hot) = order_cus_split(
        &program,
        compiled,
        &artifacts.cu_profile,
        CodeGranularity::Cu,
    );
    let mut cu_sizes = vec![0u64; compiled.cus.len()];
    for cu in &compiled.cus {
        cu_sizes[cu.id.index()] = u64::from(cu.size);
    }
    let code = CodeInput {
        first_touch: &cu_first_touch,
        hot: cu_hot,
        sizes: &cu_sizes,
        native_pages: &artifacts.native_pages,
    };
    let hs = opts
        .heap_strategy_for(Strategy::CuClusteredPlusHeapPath)
        .expect("a heap strategy");
    let (obj_first_touch, obj_hot, hot_spans) = order_objects_split_spans(
        snap,
        &assign_ids(&program, snap, hs),
        &artifacts.heap_profiles[&hs],
    );
    let mut obj_sizes = vec![0u64; snap.entries().len()];
    for e in snap.entries() {
        if e.obj.index() >= obj_sizes.len() {
            obj_sizes.resize(e.obj.index() + 1, 0);
        }
        obj_sizes[e.obj.index()] = u64::from(e.size);
    }
    let mut spans = vec![Vec::new(); obj_sizes.len()];
    for (&obj, s) in obj_first_touch[..obj_hot].iter().zip(hot_spans) {
        spans[obj.index()] = s;
    }
    let heap = HeapInput {
        first_touch: &obj_first_touch,
        hot: obj_hot,
        sizes: &obj_sizes,
        spans: &spans,
    };
    let (image, window) = (&opts.image, opts.vm.paging.fault_around_pages);
    println!(
        "optimize_layout inputs: {} CUs ({cu_hot} hot), {} objects ({obj_hot} hot)",
        cu_first_touch.len(),
        obj_first_touch.len()
    );
    c.bench_function("optimize_layout/cu+heap-path", |b| {
        b.iter(|| optimize_layout(std::hint::black_box(&code), Some(&heap), image, window))
    });
    c.bench_function("optimize_layout/cu", |b| {
        b.iter(|| optimize_layout(std::hint::black_box(&code), None, image, window))
    });
}

criterion_group!(benches, bench_order);
criterion_main!(benches);
