//! Extension — the paper's Appendix A future work: also reorder the pages
//! of the statically linked native tail using the instrumented run's
//! first-touch order. Compares `cu+heap path` with and without the
//! extension.

use nimage_core::{BuildOptions, Pipeline, Strategy};
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::Awfy;

fn main() {
    println!("\n=== Extension: native-tail reordering (Appendix A future work) ===");
    println!(
        "{:<12} {:>14} {:>14} {:>12}",
        "benchmark", "cu+hp faults", "+native faults", "extra gain"
    );
    for b in [Awfy::Bounce, Awfy::Mandelbrot, Awfy::Towers] {
        let program = b.program();
        let mut results = vec![];
        for reorder_native in [false, true] {
            let opts = BuildOptions {
                vm: VmConfig {
                    dump_mode: DumpMode::OnFull,
                    ..VmConfig::default()
                },
                reorder_native,
                ..BuildOptions::default()
            };
            let pipeline = Pipeline::new(&program, opts);
            let artifacts = pipeline.profiling_run(StopWhen::Exit).expect("profile");
            let eval = pipeline
                .evaluate(&artifacts, &[Strategy::CuPlusHeapPath], StopWhen::Exit)
                .expect("eval")
                .remove(0);
            results.push(eval.optimized.faults.total());
        }
        println!(
            "{:<12} {:>14} {:>14} {:>11.2}x",
            b.name(),
            results[0],
            results[1],
            results[0] as f64 / results[1] as f64
        );
    }
}
