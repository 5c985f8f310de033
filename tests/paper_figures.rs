//! The paper's Sec. 7 tables, pinned. `Figures` evaluates all 17
//! workloads × 8 strategies on one engine plus each workload's Sec. 7.4
//! profiling overhead. Each of its five tables must equal, byte for byte,
//! the first fenced block under its EXPERIMENTS.md heading, and the
//! geo.mean rows must keep the shape the paper's artifact appendix (B.3)
//! expects. A change that moves a cell re-pins EXPERIMENTS.md.

use std::sync::OnceLock;

use nimage::Engine;
use nimage_bench::{Figures, Table};

/// The five tables, evaluated once per test binary.
fn tables() -> &'static [Table; 5] {
    static TABLES: OnceLock<[Table; 5]> = OnceLock::new();
    TABLES.get_or_init(|| Figures::evaluate(&Engine::default()).tables())
}

/// The first fenced block under the EXPERIMENTS.md heading that starts
/// with `heading`.
fn pinned_block(experiments: &str, heading: &str) -> String {
    let block: Vec<&str> = experiments
        .lines()
        .skip_while(|l| !l.starts_with(&format!("## {heading} ")))
        .skip_while(|l| *l != "```")
        .skip(1)
        .take_while(|l| *l != "```")
        .collect();
    assert!(
        !block.is_empty(),
        "EXPERIMENTS.md has no block under {heading}"
    );
    block.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the full matrix takes ~20 s unoptimized; run with --release"
)]
fn experiments_md_pins_every_table_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let experiments = std::fs::read_to_string(path).expect("readable EXPERIMENTS.md");
    let stale: Vec<String> = tables()
        .iter()
        .filter(|t| t.render() != pinned_block(&experiments, t.heading))
        .map(|t| format!("{} now renders as:\n{}", t.heading, t.render()))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md differs from the generated tables:\n{}",
        stale.join("\n")
    );
}

const HEAP_STRATEGIES: [&str; 3] = ["incremental id", "structural hash", "heap path"];

/// The six strategies the paper evaluates (the clustered two are beyond
/// it).
const PAPER_STRATEGIES: [&str; 6] = [
    "cu",
    "method",
    "incremental id",
    "structural hash",
    "heap path",
    "cu+heap path",
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the full matrix takes ~20 s unoptimized; run with --release"
)]
fn geomeans_keep_the_shape_of_appendix_b3() {
    let [fig2, fig3, fig4, fig5, overhead] = tables();

    // No strategy adds faults or slows a run, and no probe is free.
    for t in tables() {
        for v in t.values() {
            assert!(v >= 1.0, "{}: a factor below 1.0 ({v:.3})", t.heading);
        }
    }

    // Code ordering beats heap ordering, and cu ≥ method.
    for t in [fig2, fig3] {
        let g = |s: &str| t.geomean(0, s);
        for h in HEAP_STRATEGIES {
            assert!(
                g("cu") > g(h),
                "{}: cu {} ≤ {h} {}",
                t.heading,
                g("cu"),
                g(h)
            );
            assert!(
                g("method") > g(h),
                "{}: method {} ≤ {h} {}",
                t.heading,
                g("method"),
                g(h)
            );
        }
        assert!(g("cu") >= g("method"), "{}: cu < method", t.heading);
    }

    // AWFY: structural hash ≈ heap path, both ahead of incremental id.
    let g = |s: &str| fig2.geomean(0, s);
    let (structural, path, incremental) =
        (g("structural hash"), g("heap path"), g("incremental id"));
    assert!(
        (structural - path).abs() <= 0.1,
        "Fig. 2: structural hash {structural} and heap path {path} are more than 0.1 apart"
    );
    assert!(
        structural > incremental && path > incremental,
        "Fig. 2: incremental id is not last"
    );

    // Microservices: the structural hash degrades to the worst heap strategy.
    let g = |s: &str| fig3.geomean(0, s);
    for h in ["incremental id", "heap path"] {
        assert!(
            g("structural hash") < g(h),
            "Fig. 3: structural hash {} ≥ {h} {}",
            g("structural hash"),
            g(h)
        );
    }

    // cu+heap path has the largest speedup of the paper's six strategies.
    for t in [fig4, fig5] {
        let g = |s: &str| t.geomean(0, s);
        for s in PAPER_STRATEGIES.iter().filter(|&&s| s != "cu+heap path") {
            assert!(
                g("cu+heap path") > g(s),
                "{}: cu+heap path {} ≤ {s} {}",
                t.heading,
                g("cu+heap path"),
                g(s)
            );
        }
    }

    // Overhead: method > heap > cu in both classes, and dump mode 2
    // (microservices, group 1) costs more than mode 1 (AWFY, group 0).
    for group in [0, 1] {
        let g = |m: &str| overhead.geomean(group, m);
        assert!(
            g("method") > g("heap") && g("heap") > g("cu"),
            "Sec. 7.4 group {group}: method {}, heap {}, cu {}",
            g("method"),
            g("heap"),
            g("cu")
        );
    }
    for mode in ["cu", "method", "heap"] {
        let (mode1, mode2) = (overhead.geomean(0, mode), overhead.geomean(1, mode));
        assert!(
            mode2 > mode1,
            "Sec. 7.4 {mode}: mode 2 {mode2} ≤ mode 1 {mode1}"
        );
    }
}
