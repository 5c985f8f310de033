//! What one `Figures::evaluate` leaves on its engine. The matrix and the
//! Sec. 7.4 overheads share one handle per workload, so each workload is
//! fingerprinted and indexed once; and the overheads' builds live only as
//! long as their runs, so the engine's memos hold the matrix's builds and
//! nothing of theirs.

use nimage::Engine;
use nimage_bench::Figures;

#[test]
fn figures_index_each_workload_once_and_keep_no_overhead_build() {
    let engine = Engine::default();
    Figures::evaluate(&engine);
    let counters = engine.tracer().metrics().counters;
    // 17 matrix rows, which the overheads share, 9 fault-around and
    // native-tail variants, and the counter ablation's two programs. The
    // depth ablation's Bounce handle reads only memoised builds.
    assert_eq!(counters.get("index.builds"), Some(&28));
    let stats = engine.cache().stats();
    let misses = |name: &str| stats.iter().find(|m| m.name == name).unwrap().misses;
    // An instrumented and an optimized build per matrix row and variant,
    // and the two ablation programs' instrumented builds: none of the
    // overheads' 68.
    assert_eq!(misses("compile"), 2 * 17 + 2 * 9 + 2);
    assert_eq!(misses("snapshot"), 2 * 17 + 2 * 9 + 2);
}
