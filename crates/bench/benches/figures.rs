//! Fig. 2–5 and the Sec. 7.4 profiling-overhead table: page-fault
//! reductions and speedups of every ordering strategy on AWFY and the
//! microservices, from one matrix on one engine. EXPERIMENTS.md carries
//! the output, and `tests/paper_figures.rs` pins it byte for byte.

fn main() {
    let figures = nimage_bench::Figures::evaluate(&nimage_core::Engine::default());
    print!("{}", figures.render());
}
