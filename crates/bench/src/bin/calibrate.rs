//! Calibration probe: run the full pipeline on selected workloads and print
//! the paper-style factors.
use nimage_core::{BuildOptions, EvalInputs, Pipeline, Strategy};
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
        let base = pipe.baseline(&artifacts, StopWhen::Exit).unwrap();
        print!("{:12}", b.name());
        for s in Strategy::all() {
            let e = pipe
                .evaluate_strategy(
                    EvalInputs {
                        artifacts: &artifacts,
                        baseline: &base,
                    },
                    s,
                    StopWhen::Exit,
                )
                .unwrap();
            print!(
                " {}={:.2}/{:.2}",
                s.name(),
                e.reported_fault_reduction(),
                e.speedup(&cm)
            );
        }
        println!(
            "  [{:?} base faults t={} h={} ops={}] {:.1?}",
            (),
            base.report.faults.text,
            base.report.faults.svm_heap,
            base.report.ops,
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
        let base = pipe.baseline(&artifacts, StopWhen::FirstResponse).unwrap();
        print!("{:12}", m.name());
        for s in Strategy::all() {
            let e = pipe
                .evaluate_strategy(
                    EvalInputs {
                        artifacts: &artifacts,
                        baseline: &base,
                    },
                    s,
                    StopWhen::FirstResponse,
                )
                .unwrap();
            print!(
                " {}={:.2}/{:.2}",
                s.name(),
                e.reported_fault_reduction(),
                e.speedup(&cm)
            );
        }
        println!(" {:.1?}", t0.elapsed());
    }
}
