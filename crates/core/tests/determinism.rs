//! Thread-count invariance: every parallel stage must produce artifacts
//! bit-identical to its serial run, at any worker count. Parallelism may
//! change only how fast things are computed, never what — the artifact
//! cache (memory and disk) shares entries across thread counts on that
//! guarantee.

use std::collections::HashSet;
use std::sync::Arc;

use nimage_analysis::CallSite;
use nimage_compiler::{initial_roots, CompiledProgram, InstrumentConfig};
use nimage_core::{
    BuildOptions, EvalInputs, EvalRequest, LayoutOrders, Parallelism, Pipeline, RunParts, Strategy,
    WorkloadSpec,
};
use nimage_heap::HeapSnapshot;
use nimage_ir::{Callee, Instr, MethodId, Program};
use nimage_order::assign_ids;
use nimage_par::{cutoff, host_parallelism, workers_for};
use nimage_vm::{RunReport, StopWhen};
use nimage_workloads::{Awfy, RuntimeScale};

fn program() -> nimage_ir::Program {
    Awfy::Bounce.program_at(&RuntimeScale::small())
}

fn opts(threads: usize) -> BuildOptions {
    BuildOptions {
        threads: Parallelism::threads(threads),
        ..BuildOptions::default()
    }
}

#[test]
fn compile_stage_is_thread_count_invariant() {
    let p = program();
    let serial = Pipeline::new(&p, opts(1));
    let reach = serial.analyze_stage();
    let base = serial.compile_stage(reach.clone(), InstrumentConfig::FULL, None);
    for n in [2, 4, 8] {
        let par = Pipeline::new(&p, opts(n));
        let c = par.compile_stage(reach.clone(), InstrumentConfig::FULL, None);
        assert_eq!(
            format!("{:?}", base.cus),
            format!("{:?}", c.cus),
            "compile differs at {n} threads"
        );
    }
}

/// The serial instrumented build and its profiling run — the shared input
/// of the replay tests below.
fn instrumented_run(p: &Program) -> (CompiledProgram, HeapSnapshot, RunReport) {
    let o = opts(1);
    let serial = Pipeline::new(p, o.clone());
    let reach = serial.analyze_stage();
    let compiled = serial.compile_stage(reach, InstrumentConfig::FULL, None);
    let snap = serial
        .snapshot_stage(&compiled, &o.heap_instrumented)
        .unwrap();
    let image = serial
        .layout_stage(&compiled, &snap, LayoutOrders::default(), None)
        .unwrap();
    let report = serial
        .run(RunParts::new(&compiled, &snap, &image), StopWhen::Exit)
        .unwrap();
    (compiled, snap, report)
}

/// Sizes of the compile worklist's waves, reconstructed from the compiled
/// program: wave 0 is [`initial_roots`], and every direct call a CU did
/// not inline roots a CU of the next wave.
fn compile_wave_sizes(p: &Program, compiled: &CompiledProgram) -> Vec<usize> {
    let reach = &compiled.reachability;
    let mut frontier = initial_roots(p, reach);
    let mut seen: HashSet<MethodId> = frontier.iter().copied().collect();
    let mut sizes = vec![];
    while !frontier.is_empty() {
        sizes.push(frontier.len());
        let mut next = vec![];
        for &root in &frontier {
            let cu = compiled.cu(compiled.cu_of_root(root).expect("every root has a CU"));
            for node in &cu.nodes {
                for (block, b) in p.method(node.method).blocks.iter().enumerate() {
                    for (instr, ins) in b.instrs.iter().enumerate() {
                        let Instr::Call { callee, .. } = ins else {
                            continue;
                        };
                        let site = CallSite {
                            method: node.method,
                            block,
                            instr,
                        };
                        let target = match callee {
                            Callee::Static(m) => Some(*m),
                            Callee::Virtual { .. } => reach
                                .virtual_targets
                                .get(&site)
                                .filter(|ts| ts.len() == 1)
                                .map(|ts| ts[0]),
                        };
                        if let Some(t) = target {
                            if node.child_at(site).is_none() && seen.insert(t) {
                                next.push(t);
                            }
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    sizes
}

/// Guards the thread-invariance tests of this suite against going vacuous:
/// each one compares a serial run with a "parallel" run, which is only a
/// comparison of two code paths if the input it uses actually crosses the
/// stage's fan-out cutoff. (On a single-core host `workers_for` caps every
/// stage at one worker and nothing can be asserted.)
#[test]
fn live_cutoffs() {
    let crosses =
        |work: usize, min_work: usize| host_parallelism() < 2 || workers_for(2, work, min_work) > 1;
    let p = program();
    let (compiled, _, report) = instrumented_run(&p);

    // compile_stage_is_thread_count_invariant: some wave must fan out.
    let waves = compile_wave_sizes(&p, &compiled);
    assert_eq!(
        waves.iter().sum::<usize>(),
        compiled.cus.len(),
        "wave reconstruction must account for every CU: {waves:?}"
    );
    let widest = waves.iter().copied().max().unwrap_or(0);
    assert!(
        crosses(widest, cutoff::COMPILE_MIN_ROOTS),
        "widest compile wave {widest} of {waves:?} is under the cutoff"
    );

    // trace_replay_is_thread_count_invariant: the trace must be chunked.
    let records: usize = report
        .trace
        .as_ref()
        .map_or(0, |t| t.threads.iter().map(Vec::len).sum());
    assert!(
        crosses(records, cutoff::REPLAY_MIN_RECORDS),
        "{records} trace records are under the replay cutoff"
    );

    // The engine-level identity suites (`lowered_determinism`,
    // `trace_neutral`, `clustered_faults`, the root `engine` tests) rest
    // on the remaining two: the cell matrix must shard, and the hot-CU
    // pre-lowering wave of a small-scale Awfy program must fan out.
    let strategies = [Strategy::Cu, Strategy::CuPlusHeapPath];
    assert!(crosses(strategies.len(), cutoff::RUN_MIN_CELLS));
    let outcome = EvalRequest::new()
        .workload(WorkloadSpec::new(
            "Bounce",
            &p,
            BuildOptions::default(),
            StopWhen::Exit,
        ))
        .strategies(strategies)
        .threads(2)
        .run()
        .unwrap();
    let hot_cus = outcome.report.metrics.counters["lower.prelowered_cus"] as usize;
    assert!(
        crosses(hot_cus, cutoff::PRELOWER_MIN_CUS),
        "{hot_cus} pre-lowered CUs are under the cutoff"
    );
}

#[test]
fn trace_replay_is_thread_count_invariant() {
    let p = program();
    let serial = Pipeline::new(&p, opts(1));
    let (_, snap, report) = instrumented_run(&p);

    let base = serial
        .post_process(report.clone(), &mut |hs| {
            Arc::new(assign_ids(&p, &snap, hs))
        })
        .unwrap();
    for n in [2, 4, 8] {
        let par = Pipeline::new(&p, opts(n));
        let a = par
            .post_process(report.clone(), &mut |hs| {
                Arc::new(assign_ids(&p, &snap, hs))
            })
            .unwrap();
        assert_eq!(
            base.cu_profile, a.cu_profile,
            "cu order differs at {n} threads"
        );
        assert_eq!(
            base.method_profile, a.method_profile,
            "method order differs at {n} threads"
        );
        assert_eq!(
            base.heap_profiles, a.heap_profiles,
            "heap profiles differ at {n} threads"
        );
        assert_eq!(base.call_counts, a.call_counts);
    }
}

#[test]
fn full_pipeline_is_thread_count_invariant() {
    let p = program();
    let serial = Pipeline::new(&p, opts(1));
    let parallel = Pipeline::new(&p, opts(4));

    let a1 = serial.profiling_run(StopWhen::Exit).unwrap();
    let a4 = parallel.profiling_run(StopWhen::Exit).unwrap();
    assert_eq!(a1.cu_profile, a4.cu_profile);
    assert_eq!(a1.method_profile, a4.method_profile);
    assert_eq!(a1.heap_profiles, a4.heap_profiles);

    let b1 = serial.baseline(&a1, StopWhen::Exit).unwrap();
    let b4 = parallel.baseline(&a4, StopWhen::Exit).unwrap();
    for s in [Strategy::Cu, Strategy::CuPlusHeapPath] {
        let e1 = serial
            .evaluate_strategy(
                EvalInputs {
                    artifacts: &a1,
                    baseline: &b1,
                },
                s,
                StopWhen::Exit,
            )
            .unwrap();
        let e4 = parallel
            .evaluate_strategy(
                EvalInputs {
                    artifacts: &a4,
                    baseline: &b4,
                },
                s,
                StopWhen::Exit,
            )
            .unwrap();
        assert_eq!(e1.baseline.faults, e4.baseline.faults, "{}", s.name());
        assert_eq!(e1.optimized.faults, e4.optimized.faults, "{}", s.name());
        assert_eq!(e1.optimized.ops, e4.optimized.ops, "{}", s.name());
        assert_eq!(
            e1.optimized.entry_return,
            e4.optimized.entry_return,
            "{}",
            s.name()
        );
    }
}
