//! Ablation — SSD vs NFS cost models: the paper "executed the same
//! experiments employing an NFS and obtained similar results" (Sec. 7.1).
//! Fault *counts* are storage-independent; the speedups grow with per-fault
//! latency but keep the same ordering.

use nimage_bench::{eval_options, geomean};
use nimage_core::{Engine, Strategy, WorkloadSpec};
use nimage_profiler::DumpMode;
use nimage_vm::{CostModel, StopWhen};
use nimage_workloads::Awfy;

fn main() {
    println!("\n=== Ablation: SSD vs NFS cost models (speedups) ===");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "cu (SSD)", "cu (NFS)", "combined SSD", "combined NFS"
    );
    let ssd = CostModel::ssd();
    let nfs = CostModel::nfs();
    let programs = [Awfy::Bounce, Awfy::Sieve, Awfy::Storage].map(|b| (b.name(), b.program()));
    let specs: Vec<WorkloadSpec<'_>> = programs
        .iter()
        .map(|(name, program)| {
            WorkloadSpec::new(
                *name,
                program,
                eval_options(DumpMode::OnFull),
                StopWhen::Exit,
            )
        })
        .collect();
    let strategies = [Strategy::Cu, Strategy::CuPlusHeapPath];
    let cells = Engine::default()
        .evaluate_matrix(&specs, &strategies)
        .expect("storage ablation evaluation");
    let mut cols: [Vec<f64>; 4] = [vec![], vec![], vec![], vec![]];
    for row in cells.chunks(strategies.len()) {
        let (cu, both) = (&row[0].eval, &row[1].eval);
        let vals = [
            cu.speedup(&ssd),
            cu.speedup(&nfs),
            both.speedup(&ssd),
            both.speedup(&nfs),
        ];
        for (c, v) in cols.iter_mut().zip(vals) {
            c.push(v);
        }
        println!(
            "{:<12} {:>11.2}x {:>11.2}x {:>11.2}x {:>11.2}x",
            row[0].workload, vals[0], vals[1], vals[2], vals[3]
        );
    }
    println!(
        "{:<12} {:>11.2}x {:>11.2}x {:>11.2}x {:>11.2}x",
        "geo.mean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2]),
        geomean(&cols[3])
    );
}
