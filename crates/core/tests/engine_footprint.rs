//! What an evaluation engine holds once its matrix is evaluated: every
//! memoised artifact (compiles, snapshots, images, runs, plans, profiles)
//! and the tracer's rings, but no lowered code — each build runs once, so
//! its lowering lives only as long as that run. The bound is in bytes per
//! IR instruction of the evaluated program.
//!
//! The engine's workers allocate on their own threads, so the allocator
//! counts the whole process; this binary therefore holds only this test.

#[path = "support/live_alloc.rs"]
mod live_alloc;
use live_alloc::process_retained_bytes;

use nimage_core::{BuildOptions, Engine, EngineOptions, Strategy, WorkloadSpec};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::Microservice;

fn instructions(p: &Program) -> usize {
    p.methods()
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.instrs.len())
        .sum()
}

/// Heap bytes a 2-worker engine retains per IR instruction of micronaut
/// after evaluating it under all eight strategies.
///
/// Measured at 53.1 bytes (15 529 656 for 292 713 instructions); an
/// engine that kept each build's lowered code until it was dropped
/// retained 79.2. The bound leaves 10 % headroom over the measured value.
/// The allocator counts requested sizes, so the figure does not depend on
/// the host or the system allocator.
const MAX_BYTES_PER_INSTR: f64 = 58.4;

#[test]
fn an_evaluated_engine_retains_at_most_a_budget_of_bytes_per_instruction() {
    let program = Microservice::Micronaut.program();
    let opts = BuildOptions {
        vm: VmConfig {
            dump_mode: DumpMode::MemoryMapped,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    };
    let spec = WorkloadSpec::new("micronaut", &program, opts, StopWhen::FirstResponse);
    let (engine, bytes) = process_retained_bytes(|| {
        let engine = Engine::new(EngineOptions {
            n_threads: 2,
            disk: None,
            trace: Default::default(),
        });
        engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .unwrap();
        engine
    });
    let n = instructions(&program);
    let per_instr = bytes as f64 / n as f64;
    assert!(
        per_instr <= MAX_BYTES_PER_INSTR,
        "{bytes} bytes retained for {n} instructions is {per_instr:.1} per instruction, \
         over {MAX_BYTES_PER_INSTR}"
    );
    drop(engine);
}
