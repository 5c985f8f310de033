//! Seeded end-to-end pins of the clustered strategies: the layout
//! optimizer must beat plain first-touch ordering by an exact, deterministic
//! fault margin on the bundled workloads (the win comes from hot/cold
//! splitting the native tail, which the cost model predicts page-exactly),
//! and its ordering stage must never predict worse than first touch.

use std::collections::HashMap;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline, Strategy};
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn opts(dump: DumpMode) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode: dump,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

/// Measured total major faults (text + heap) per strategy.
fn measure(
    program: &nimage_ir::Program,
    options: BuildOptions,
    stop: StopWhen,
) -> HashMap<Strategy, u64> {
    let pipeline = Pipeline::new(program, options);
    let artifacts = pipeline.profiling_run(stop).unwrap();
    let strategies = [
        Strategy::Cu,
        Strategy::CuClustered,
        Strategy::CuPlusHeapPath,
        Strategy::CuClusteredPlusHeapPath,
    ];
    pipeline
        .evaluate(&artifacts, &strategies, stop)
        .unwrap()
        .into_iter()
        .map(|eval| (eval.strategy, eval.optimized.faults.total()))
        .collect()
}

/// Bounce (AWFY, FaaS model): the exact fault counts the evaluation
/// reports, pinning the clustered margin over first touch.
#[test]
fn bounce_clustered_fault_counts_are_pinned() {
    let program = Awfy::Bounce.program();
    let faults = measure(&program, opts(DumpMode::OnFull), StopWhen::Exit);
    assert_eq!(faults[&Strategy::Cu], 42);
    assert_eq!(faults[&Strategy::CuClustered], 38);
    assert_eq!(faults[&Strategy::CuPlusHeapPath], 35);
    assert_eq!(faults[&Strategy::CuClusteredPlusHeapPath], 31);
}

/// micronaut (microservice, time-to-first-response): same pin on the
/// framework-startup-shaped workload.
#[test]
fn micronaut_clustered_fault_counts_are_pinned() {
    let program = Microservice::Micronaut.program();
    let faults = measure(
        &program,
        opts(DumpMode::MemoryMapped),
        StopWhen::FirstResponse,
    );
    assert_eq!(faults[&Strategy::Cu], 28);
    assert_eq!(faults[&Strategy::CuClustered], 23);
    assert_eq!(faults[&Strategy::CuPlusHeapPath], 23);
    assert_eq!(faults[&Strategy::CuClusteredPlusHeapPath], 18);
}

/// The optimizer's ordering stage — run through `Pipeline::order_stage`
/// with real profiles — never predicts more faults than first touch and
/// splits the native tail.
#[test]
fn clustered_order_stage_predicts_no_worse_than_first_touch() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let o = BuildOptions::default();
    let p = Pipeline::new(&program, o.clone());
    let artifacts = p.profiling_run(StopWhen::Exit).unwrap();
    let reach = p.analyze_stage();
    let compiled = p.compile_stage(reach, InstrumentConfig::NONE, Some(&artifacts.call_counts));
    let snap = p.snapshot_stage(&compiled, &o.heap_optimized).unwrap();
    for strategy in [Strategy::CuClustered, Strategy::CuClusteredPlusHeapPath] {
        let orders = p.order_stage(&artifacts, &compiled, &snap, Some(strategy), None);
        let predicted = orders
            .predicted
            .expect("clustered strategies carry a prediction");
        assert!(predicted.optimized.total() <= predicted.first_touch.total());
        assert!(orders.native_order.is_some(), "native tail must be split");
    }
}
