//! Ablation — how the kernel's fault-around window changes the picture:
//! larger windows amortize scattered faults, shrinking (but not erasing)
//! the benefit of reordering.

use nimage_core::{BuildOptions, Pipeline, Strategy};
use nimage_profiler::DumpMode;
use nimage_vm::{PagingConfig, StopWhen, VmConfig};
use nimage_workloads::Awfy;

fn main() {
    let program = Awfy::Bounce.program();
    println!("\n=== Ablation: fault-around window (Bounce, cu+heap path) ===");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "pages", "base faults", "opt faults", "reduction"
    );
    for window in [1u64, 2, 4, 8, 16, 32, 64] {
        let opts = BuildOptions {
            vm: VmConfig {
                paging: PagingConfig {
                    fault_around_pages: window,
                },
                dump_mode: DumpMode::OnFull,
                ..VmConfig::default()
            },
            ..BuildOptions::default()
        };
        let pipeline = Pipeline::new(&program, opts);
        let artifacts = pipeline.profiling_run(StopWhen::Exit).expect("profile");
        let eval = pipeline
            .evaluate(&artifacts, &[Strategy::CuPlusHeapPath], StopWhen::Exit)
            .expect("eval")
            .remove(0);
        println!(
            "{:>8} {:>12} {:>12} {:>10.2}",
            window,
            eval.baseline.faults.total(),
            eval.optimized.faults.total(),
            eval.total_fault_reduction()
        );
    }
}
