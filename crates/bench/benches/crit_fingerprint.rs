//! Criterion microbench of program fingerprinting — the "ID hashing"
//! kernel of ROADMAP aim 1: what `Engine` pays per workload before any
//! cache key exists.
//!
//! Two arms per program, on the largest bundled microservice and one
//! small AWFY program:
//! - `fingerprint/<program>/of_hash` — what the engine runs:
//!   `CacheKey::of_hash("program", ..)`, the derived `Hash` streamed into
//!   MurmurHash3.
//! - `fingerprint/<program>/of_debug` — the reference arm, what it ran
//!   until PR 14: render `{:?}` into a `String`, hash the text.
//!
//! Each arm prints ns per program (the `bench` line) and throughput over
//! the bytes that arm actually hashes.

use std::hash::Hash;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_core::CacheKey;
use nimage_ir::Program;
use nimage_order::murmur3::Hasher128;
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn arm(c: &mut Criterion, id: &str, bytes: u64, mut f: impl FnMut() -> CacheKey) {
    let mut iters = 0u32;
    let started = Instant::now();
    c.bench_function(id, |b| {
        b.iter(|| {
            iters += 1;
            f()
        })
    });
    let ns = started.elapsed().as_nanos() as f64 / f64::from(iters.max(1));
    println!(
        "bench {id}: {:.0} MB/s over {bytes} bytes",
        bytes as f64 / ns * 1e3
    );
}

fn bench_program(c: &mut Criterion, name: &str, program: &Program) {
    let mut h = Hasher128::with_seed(0);
    program.hash(&mut h);
    arm(c, &format!("fingerprint/{name}/of_hash"), h.len(), || {
        CacheKey::of_hash("program", std::hint::black_box(program))
    });
    let rendered = format!("{program:?}").len() as u64;
    arm(c, &format!("fingerprint/{name}/of_debug"), rendered, || {
        CacheKey::of_debug("program", std::hint::black_box(program))
    });
}

fn bench_fingerprint(c: &mut Criterion) {
    bench_program(c, "micronaut", &Microservice::Micronaut.program());
    bench_program(
        c,
        "Bounce",
        &Awfy::Bounce.program_at(&RuntimeScale::small()),
    );
}

criterion_group!(benches, bench_fingerprint);
criterion_main!(benches);
