//! Criterion microbenches of the core algorithms: MurmurHash3, the three
//! identity strategies and the structural hash at depths 0–4, Ball–Larus
//! numbering, the layout computation and the IR dataflow lints.

use criterion::{criterion_group, criterion_main, Criterion};
use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{
    compile, InlineConfig, InstrumentConfig, PathNumbering, ProfilingCfg, ProgramIndex,
    DEFAULT_MAX_PATHS,
};
use nimage_heap::{snapshot, HeapBuildConfig};
use nimage_order::{assign_ids, murmur3, HeapStrategy};
use nimage_workloads::{Awfy, RuntimeScale};

fn bench_murmur(c: &mut Criterion) {
    let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    c.bench_function("murmur3_4k", |b| {
        b.iter(|| murmur3::hash64(std::hint::black_box(&data)))
    });
}

fn bench_strategies(c: &mut Criterion) {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let reach = analyze(&program, &AnalysisConfig::default());
    let compiled = compile(
        &ProgramIndex::new(&program, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(&program, DEFAULT_MAX_PATHS),
        &compiled,
        &HeapBuildConfig::default(),
    )
    .unwrap();
    for strat in [
        HeapStrategy::IncrementalId,
        HeapStrategy::structural_default(),
        HeapStrategy::HeapPath,
    ] {
        c.bench_function(&format!("assign_ids/{}", strat.name()), |b| {
            b.iter(|| assign_ids(std::hint::black_box(&program), &snap, strat))
        });
    }
    // The structural hash's MAX_DEPTH trade-off (Sec. 5.2): deeper
    // encodings cost more to compute (EXPERIMENTS.md's
    // `abl_structural_depth` has what they buy).
    for max_depth in 0..=4 {
        let strat = HeapStrategy::StructuralHash { max_depth };
        c.bench_function(&format!("assign_ids/structural/depth={max_depth}"), |b| {
            b.iter(|| assign_ids(std::hint::black_box(&program), &snap, strat))
        });
    }
}

fn bench_path_numbering(c: &mut Criterion) {
    let program = Awfy::Havlak.program_at(&RuntimeScale::small());
    let entry = program.entry.unwrap();
    c.bench_function("ball_larus_numbering", |b| {
        b.iter(|| {
            let cfg = ProfilingCfg::build(program.method(entry));
            PathNumbering::compute(&cfg, 1 << 14)
        })
    });
}

fn bench_compile(c: &mut Criterion) {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    c.bench_function("compile_small_image", |b| {
        b.iter(|| {
            let reach = analyze(&program, &AnalysisConfig::default());
            compile(
                &ProgramIndex::new(std::hint::black_box(&program), DEFAULT_MAX_PATHS),
                reach,
                &InlineConfig::default(),
                InstrumentConfig::NONE,
                None,
            )
        })
    });
}

fn bench_irlint(c: &mut Criterion) {
    // Havlak has the branchiest method bodies — the use-before-def
    // fixpoint (interleaved bitvector arena) dominates this lint.
    let program = Awfy::Havlak.program_at(&RuntimeScale::small());
    c.bench_function("irlint_program", |b| {
        b.iter(|| nimage_verify::irlint::lint_program(std::hint::black_box(&program)))
    });
}

criterion_group!(
    benches,
    bench_murmur,
    bench_strategies,
    bench_path_numbering,
    bench_compile,
    bench_irlint
);
criterion_main!(benches);
