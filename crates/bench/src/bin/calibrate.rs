//! Calibration probe: run the full pipeline on selected workloads and print
//! the paper-style factors.
use nimage_core::{BuildOptions, Evaluation, Pipeline, Strategy};
use nimage_profiler::DumpMode;
use nimage_vm::{CostModel, StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice};

fn main() {
    let cm = CostModel::ssd();
    for b in [Awfy::Bounce, Awfy::Mandelbrot, Awfy::Storage] {
        let p = b.program();
        let pipe = Pipeline::new(&p, BuildOptions::default());
        let t0 = std::time::Instant::now();
        let artifacts = pipe.profiling_run(StopWhen::Exit).unwrap();
        let evals = pipe
            .evaluate(&artifacts, &Strategy::all(), StopWhen::Exit)
            .unwrap();
        print!("{:12}", b.name());
        print_factors(&evals, &cm);
        let base = &evals[0].baseline;
        println!(
            "  [{:?} base faults t={} h={} ops={}] {:.1?}",
            (),
            base.faults.text,
            base.faults.svm_heap,
            base.ops,
            t0.elapsed()
        );
    }
    for m in Microservice::all() {
        let p = m.program();
        let opts = BuildOptions {
            vm: VmConfig {
                dump_mode: DumpMode::MemoryMapped,
                ..VmConfig::default()
            },
            ..BuildOptions::default()
        };
        let pipe = Pipeline::new(&p, opts);
        let t0 = std::time::Instant::now();
        let artifacts = pipe.profiling_run(StopWhen::FirstResponse).unwrap();
        let evals = pipe
            .evaluate(&artifacts, &Strategy::all(), StopWhen::FirstResponse)
            .unwrap();
        print!("{:12}", m.name());
        print_factors(&evals, &cm);
        println!(" {:.1?}", t0.elapsed());
    }
}

/// Prints each strategy's reported fault reduction and speedup.
fn print_factors(evals: &[Evaluation], cm: &CostModel) {
    for e in evals {
        print!(
            " {}={:.2}/{:.2}",
            e.strategy.name(),
            e.reported_fault_reduction(),
            e.speedup(cm)
        );
    }
}
