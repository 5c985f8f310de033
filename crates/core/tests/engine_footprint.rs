//! What an evaluation engine holds once its matrix is evaluated: the
//! optimized builds' memoised artifacts (compiles, snapshots, images,
//! runs, plans), the profiles and the tracer's rings, but no lowered code —
//! each build runs once, so its lowering lives only as long as that run —
//! and nothing of the profiling builds or their traces, which live only
//! inside the profile's compute. The bounds are in bytes per IR
//! instruction of the evaluated programs.
//!
//! The engine's workers allocate on their own threads, so the allocator
//! counts the whole process; the tests of this binary therefore measure
//! one at a time, under one lock.

#[path = "support/live_alloc.rs"]
mod live_alloc;
use live_alloc::process_retained_bytes;

use std::sync::Mutex;

use nimage_core::{BuildOptions, Engine, EngineOptions, Strategy, WorkloadSpec};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Held for the whole of each test, so no other test allocates while one
/// measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn instructions(p: &Program) -> usize {
    p.methods()
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.instrs.len())
        .sum()
}

fn options(dump_mode: DumpMode) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

/// Heap bytes a 2-worker engine retains per IR instruction of `specs`'
/// programs after evaluating them under all eight strategies, with the
/// retained bytes.
fn retained_per_instruction(specs: &[WorkloadSpec<'_>]) -> (f64, usize) {
    let (engine, bytes) = process_retained_bytes(|| {
        let engine = Engine::new(EngineOptions {
            n_threads: 2,
            disk: None,
            trace: Default::default(),
        });
        engine.evaluate_matrix(specs, &Strategy::all()).unwrap();
        engine
    });
    drop(engine);
    let n: usize = specs.iter().map(|s| instructions(s.program)).sum();
    (bytes as f64 / n as f64, bytes)
}

/// Micronaut, to its first response.
///
/// Measured at 40.0 bytes (11 708 844 for 292 713 instructions). An engine
/// that also kept the profiling build and its trace retained 51.6; one that
/// also kept the profiling snapshot's identity maps, 53.1; one that also
/// kept each build's lowered code, 79.2. The bound leaves 10 % headroom
/// over the measured value. The allocator counts requested sizes, so the
/// figure does not depend on the host or the system allocator.
const MAX_BYTES_PER_INSTR: f64 = 44.0;

/// The 14 AWFY programs at the small runtime scale, run to exit.
///
/// Measured at 69.6 bytes (10 938 067 for about 157 100 instructions); an
/// engine that also kept the profiling builds and their traces retained
/// 184.8. The bound leaves 10 % headroom over the measured value.
const MAX_AWFY_BYTES_PER_INSTR: f64 = 76.6;

#[test]
fn an_evaluated_engine_retains_at_most_a_budget_of_bytes_per_instruction() {
    let _only = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let program = Microservice::Micronaut.program();
    let opts = options(DumpMode::MemoryMapped);
    let spec = WorkloadSpec::new("micronaut", &program, opts, StopWhen::FirstResponse);
    let (per_instr, bytes) = retained_per_instruction(std::slice::from_ref(&spec));
    assert!(
        per_instr <= MAX_BYTES_PER_INSTR,
        "{bytes} bytes retained is {per_instr:.1} per instruction, over {MAX_BYTES_PER_INSTR}"
    );
}

#[test]
fn an_evaluated_awfy_engine_retains_at_most_a_budget_of_bytes_per_instruction() {
    let _only = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let programs = Awfy::all().map(|a| (a.name(), a.program_at(&RuntimeScale::small())));
    let specs: Vec<WorkloadSpec<'_>> = (programs.iter())
        .map(|(name, p)| WorkloadSpec::new(*name, p, options(DumpMode::OnFull), StopWhen::Exit))
        .collect();
    let (per_instr, bytes) = retained_per_instruction(&specs);
    assert!(
        per_instr <= MAX_AWFY_BYTES_PER_INSTR,
        "{bytes} bytes retained is {per_instr:.1} per instruction, over {MAX_AWFY_BYTES_PER_INSTR}"
    );
}
