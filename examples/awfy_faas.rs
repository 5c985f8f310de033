//! FaaS-model evaluation on an AWFY benchmark: profile once, then compare
//! every ordering strategy, like one column group of the paper's Fig. 2/5.
//!
//! ```sh
//! cargo run --release --example awfy_faas -- [benchmark]
//! ```
//!
//! `benchmark` defaults to `Bounce`; any of the 14 AWFY names works
//! (case-insensitive).

use nimage::vm::{CostModel, StopWhen};
use nimage::workloads::Awfy;
use nimage::{BuildOptions, Pipeline, PipelineError, Strategy};

fn main() -> Result<(), PipelineError> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "Bounce".into());
    let bench = Awfy::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| {
            eprintln!(
                "unknown benchmark {wanted}; available: {}",
                Awfy::all().map(|b| b.name()).join(", ")
            );
            std::process::exit(2);
        });

    println!("building {} at full runtime scale…", bench.name());
    let program = bench.program();
    println!(
        "  {} classes, {} methods, {} KiB of code",
        program.classes().len(),
        program.methods().len(),
        program.total_code_size() / 1024
    );

    let pipeline = Pipeline::new(&program, BuildOptions::default());
    println!("profiling run (instrumented binary, dump mode 1)…");
    let artifacts = pipeline.profiling_run(StopWhen::Exit)?;
    println!(
        "  profiles: {} CU entries, {} method entries, {} object ids (heap path)",
        artifacts.cu_profile.sigs.len(),
        artifacts.method_profile.sigs.len(),
        artifacts.heap_profiles[&nimage::order::HeapStrategy::HeapPath]
            .ids
            .len()
    );

    let cm = CostModel::ssd();
    println!(
        "\n{:<16} {:>12} {:>12} {:>10} {:>9}",
        "strategy", "base faults", "opt faults", "reduction", "speedup"
    );
    for eval in pipeline.evaluate(&artifacts, &Strategy::all(), StopWhen::Exit)? {
        println!(
            "{:<16} {:>12} {:>12} {:>9.2}x {:>8.2}x",
            eval.strategy.name(),
            eval.baseline.faults.total(),
            eval.optimized.faults.total(),
            eval.reported_fault_reduction(),
            eval.speedup(&cm),
        );
    }
    Ok(())
}

trait Join {
    fn join(self, sep: &str) -> String;
}

impl<const N: usize> Join for [&'static str; N] {
    fn join(self, sep: &str) -> String {
        self.as_slice().join(sep)
    }
}
