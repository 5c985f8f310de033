//! What one `Figures::evaluate` leaves on its engine. The matrix and the
//! Sec. 7.4 overheads share one handle per workload, so each workload is
//! fingerprinted and indexed once; and only optimized builds are
//! memoised: the profiling builds and the overheads' builds live only as
//! long as their runs, so the engine's memos hold nothing of theirs.

use nimage::Engine;
use nimage_bench::Figures;

#[test]
fn figures_index_each_workload_once_and_keep_no_overhead_build() {
    let engine = Engine::default();
    Figures::evaluate(&engine);
    let counters = engine.tracer().metrics().counters;
    // 17 matrix rows, which the overheads share, 9 fault-around and
    // native-tail variants, and the counter ablation's two programs. The
    // depth ablation reads Bounce through its matrix row's handle.
    assert_eq!(counters.get("index.builds"), Some(&28));
    let stats = engine.cache().stats();
    let misses = |name: &str| stats.iter().find(|m| m.name == name).unwrap().misses;
    // An optimized build per matrix row and variant: none of the
    // instrumented builds (theirs, the depth ablation's or the counter
    // ablation's) and none of the overheads' 68.
    assert_eq!(misses("compile"), 17 + 9);
    assert_eq!(misses("snapshot"), 17 + 9);
}
