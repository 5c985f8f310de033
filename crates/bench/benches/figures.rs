//! Every table of EXPERIMENTS.md: Fig. 2–6, the Sec. 7.4 profiling
//! overhead, the ablations and the native-tail extension, from one engine.
//! `tests/paper_figures.rs` pins each block byte for byte.

fn main() {
    let figures = nimage_bench::Figures::evaluate(&nimage_core::Engine::default());
    print!("{}", figures.render());
}
