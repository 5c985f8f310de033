//! Microservice cold start: measure time-to-first-response of a helloworld
//! service before and after reordering, and demonstrate why the profiler's
//! memory-mapped dump mode matters when the service is killed right after
//! the first response (Sec. 6.1 / 7.1).
//!
//! ```sh
//! cargo run --release --example microservice -- [micronaut|quarkus|spring]
//! ```

use nimage::compiler::InstrumentConfig;
use nimage::profiler::DumpMode;
use nimage::vm::{CostModel, StopWhen, VmConfig};
use nimage::workloads::Microservice;
use nimage::{BuildOptions, Pipeline, PipelineError, Strategy};

fn options(dump_mode: DumpMode) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

fn main() -> Result<(), PipelineError> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "spring".into());
    let service = Microservice::all()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| {
            eprintln!("unknown service {wanted}; use micronaut, quarkus or spring");
            std::process::exit(2);
        });
    let program = service.program();

    // First, the cautionary tale: with dump mode 1 the SIGKILL after the
    // first response throws the buffered trace away.
    let naive = Pipeline::new(&program, options(DumpMode::OnFull));
    let built = naive.build_instrumented(InstrumentConfig::FULL)?;
    let report = naive.run_image(&built, StopWhen::FirstResponse)?;
    let stats = report.session_stats.expect("instrumented run");
    println!(
        "dump mode 1 (flush on exit): {} records lost to the kill",
        stats.lost_records
    );

    // The paper's answer: memory-mapped buffers survive the kill.
    // The profiles consume the trace, so its thread count is read first.
    let pipeline = Pipeline::new(&program, options(DumpMode::MemoryMapped));
    let built = pipeline.build_instrumented(InstrumentConfig::FULL)?;
    let report = pipeline.run_image(&built, StopWhen::FirstResponse)?;
    let stats = report.session_stats.expect("instrumented run");
    println!(
        "dump mode 2 (memory-mapped): 0 lost, {} remaps, {} threads traced\n",
        stats.remaps,
        report.trace.as_ref().map_or(0, |t| t.threads.len())
    );
    let artifacts = pipeline.replay_stage(report, &built.snapshot)?;

    let cm = CostModel::ssd();
    println!("{} helloworld, time to first response:", service.name());
    let strategies = [Strategy::Cu, Strategy::HeapPath, Strategy::CuPlusHeapPath];
    for eval in pipeline.evaluate(&artifacts, &strategies, StopWhen::FirstResponse)? {
        let base = eval
            .baseline
            .time_to_first_response_ns(&cm)
            .expect("baseline responded");
        let opt = eval
            .optimized
            .time_to_first_response_ns(&cm)
            .expect("optimized responded");
        println!(
            "  {:<14} {:>7.2} ms -> {:>6.2} ms  ({:.2}x, faults {} -> {})",
            eval.strategy.name(),
            base / 1e6,
            opt / 1e6,
            eval.speedup(&cm),
            eval.baseline.faults.total(),
            eval.optimized.faults.total(),
        );
    }
    Ok(())
}
