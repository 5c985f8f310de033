//! Criterion microbenches of the ordering kernels a cold evaluation pays
//! for per program: object identities, the profile joins, the program
//! index they read and the layout optimizer.
//!
//! Inputs are micronaut's, built the way the evaluation builds them
//! (memory-mapped trace dump, stop at the first response):
//! - `assign_ids/<scheme>` — every identity scheme over the optimized
//!   build's snapshot.
//! - `index/build` — a fresh program index's whole-program tables:
//!   signatures (which every join below reads) and field layouts.
//! - `order_cus_split/cu`, `order_cus_split/method` — the *cu* and
//!   *method* profiles joined to the optimized build's CUs over a built
//!   index.
//! - `order_objects_split_spans/heap path` — the *heap path* profile
//!   joined to the optimized build's snapshot.
//! - `optimize_layout/cu+heap-path` — the clustered cu + heap-path
//!   strategy's candidate search: first-touch CU and object orders with
//!   their hot prefixes, sizes and measured object spans.
//! - `optimize_layout/cu` — the clustered cu strategy's code-only search.

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_bench::profile_program;
use nimage_compiler::ProgramIndex;
use nimage_core::Strategy;
use nimage_image::optimize::{optimize_layout, CodeInput, HeapInput};
use nimage_ir::ClassId;
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

    let opts = pipeline.options();
    let max_paths = opts.vm.max_paths;
    c.bench_function("index/build", |b| {
        b.iter(|| {
            let index = ProgramIndex::new(std::hint::black_box(&program), max_paths);
            (index.n_sigs(), index.layout(ClassId(0)).len())
        })
    });
    let index = ProgramIndex::new(&program, max_paths);
    // Build the signature table outside the timed joins.
    index.n_sigs();
    for (name, profile, granularity) in [
        ("cu", &artifacts.cu_profile, CodeGranularity::Cu),
        ("method", &artifacts.method_profile, CodeGranularity::Method),
    ] {
        c.bench_function(&format!("order_cus_split/{name}"), |b| {
            b.iter(|| order_cus_split(std::hint::black_box(&index), compiled, profile, granularity))
        });
    }

    // The clustered strategies' optimizer inputs, as the ordering stage
    // assembles them.
    let (cu_first_touch, cu_hot) =
        order_cus_split(&index, compiled, &artifacts.cu_profile, CodeGranularity::Cu);
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
    let ids = assign_ids(&program, snap, hs);
    let heap_profile = &artifacts.heap_profiles[&hs];
    c.bench_function(&format!("order_objects_split_spans/{}", hs.name()), |b| {
        b.iter(|| order_objects_split_spans(std::hint::black_box(snap), &ids, heap_profile))
    });
    let (obj_first_touch, obj_hot, hot_spans) = order_objects_split_spans(snap, &ids, heap_profile);
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
