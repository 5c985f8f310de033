//! Criterion microbench of what a warm evaluation pays per disk hit after
//! the read: the codec decode — the "codec decode" kernel of ROADMAP
//! aim 1.
//!
//! Inputs are micronaut's optimized build and its cu + heap-path plan,
//! built the way the evaluation builds them and encoded once, outside the
//! timed loop:
//! - `decode/snapshot` — `HeapSnapshot::decode`, ending in `from_parts`
//!   (which builds the dense object index).
//! - `decode/order` — `LayoutOrders::decode` plus `LayoutOrders::fits`
//!   against the build, as the engine checks a plan loaded from disk.
//! - `snapshot/entry` — `HeapSnapshot::entry` for every heap object, the
//!   lookup the layout makes per placed object.
//! - `snapshot/fits` — `HeapSnapshot::fits` against the program, as the
//!   engine checks a snapshot loaded from disk.

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_bench::eval_options;
use nimage_core::diskcache::Reader;
use nimage_core::{DiskCodec, LayoutOrders, Pipeline, Strategy};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_profiler::DumpMode;
use nimage_vm::StopWhen;
use nimage_workloads::Microservice;

fn bench_decode(c: &mut Criterion) {
    let program = Microservice::Micronaut.program();
    let pipeline = Pipeline::new(&program, eval_options(DumpMode::MemoryMapped));
    let artifacts = pipeline
        .profiling_run(StopWhen::FirstResponse)
        .expect("profiling run");
    let built = pipeline
        .build_optimized(&artifacts, None)
        .expect("optimized build");
    let (compiled, snap) = (&built.compiled, &built.snapshot);
    let plan = pipeline.order_stage(
        &artifacts,
        compiled,
        snap,
        Some(Strategy::CuClusteredPlusHeapPath),
        None,
    );
    let image = &pipeline.options().image;
    assert!(plan.object_order.is_some() && plan.fits(compiled, snap, image));

    let mut snap_bytes = Vec::new();
    snap.encode(&mut snap_bytes);
    let mut plan_bytes = Vec::new();
    plan.encode(&mut plan_bytes);
    println!(
        "micronaut: snapshot {} entries over {} objects, {} bytes; plan {} bytes",
        snap.entries().len(),
        snap.heap().len(),
        snap_bytes.len(),
        plan_bytes.len()
    );

    c.bench_function("decode/snapshot", |b| {
        b.iter(|| {
            HeapSnapshot::decode(&mut Reader::new(std::hint::black_box(&snap_bytes)))
                .expect("snapshot decodes")
        })
    });
    c.bench_function("decode/order", |b| {
        b.iter(|| {
            let plan = LayoutOrders::decode(&mut Reader::new(std::hint::black_box(&plan_bytes)))
                .expect("plan decodes");
            assert!(plan.fits(compiled, snap, image));
            plan
        })
    });
    let n = snap.heap().len() as u32;
    c.bench_function("snapshot/entry", |b| {
        b.iter(|| {
            (0..n)
                .filter_map(|o| std::hint::black_box(snap).entry(ObjId(o)))
                .map(|e| u64::from(e.size))
                .sum::<u64>()
        })
    });
    c.bench_function("snapshot/fits", |b| {
        b.iter(|| std::hint::black_box(snap).fits(&program))
    });
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
