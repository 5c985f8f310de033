//! Sharded-lowering equivalence: a run against the lazy per-CU container
//! (shards faulted in on first call) must be observably indistinguishable
//! from one against the whole-program eager lowering. Reports are compared
//! through their `Debug` rendering, which covers every field bit for bit —
//! shard realization order may only change when bodies are flattened,
//! never what the VM computes. The lazy container must also leave CUs the
//! run never enters unlowered; that gap is the whole point of sharding.

use std::sync::Arc;

use nimage_compiler::{CuId, InstrumentConfig};
use nimage_core::{BuildOptions, Pipeline, RunParts};
use nimage_ir::Program;
use nimage_vm::{LoweredProgram, StopWhen};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Builds once, then runs the image twice over shared parts: once with a
/// fresh lazy container and once with the whole-program eager lowering.
/// Returns both debug-rendered reports plus the (now populated) lazy
/// container for shard-count assertions.
fn lazy_vs_eager(
    program: &Program,
    o: &BuildOptions,
    instrument: InstrumentConfig,
    stop: StopWhen,
) -> (String, String, Arc<LoweredProgram>) {
    let p = Pipeline::new(program, o.clone());
    let built = p.build_instrumented(instrument).unwrap();
    let lazy = Arc::new(LoweredProgram::new(
        program,
        &built.compiled,
        o.vm.max_paths,
    ));
    let eager = Arc::new(LoweredProgram::build(
        program,
        &built.compiled,
        o.vm.max_paths,
    ));
    let run = |lp: &Arc<LoweredProgram>| {
        let r = p
            .run(
                RunParts::new(&built.compiled, &built.snapshot, &built.image)
                    .lowered(Some(lp.clone())),
                stop,
            )
            .unwrap();
        format!("{r:?}")
    };
    (run(&lazy), run(&eager), lazy)
}

#[test]
fn lazy_matches_eager_on_all_awfy_workloads() {
    let scale = RuntimeScale::small();
    for wl in Awfy::all() {
        let program = wl.program_at(&scale);
        for instrument in [InstrumentConfig::FULL, InstrumentConfig::NONE] {
            let (lazy, eager, _) = lazy_vs_eager(
                &program,
                &BuildOptions::default(),
                instrument,
                StopWhen::Exit,
            );
            assert_eq!(lazy, eager, "{wl:?} ({instrument:?}) differs lazy vs eager");
        }
    }
}

#[test]
fn lazy_matches_eager_on_all_microservices() {
    for wl in Microservice::all() {
        let program = wl.program();
        for instrument in [InstrumentConfig::FULL, InstrumentConfig::NONE] {
            let (lazy, eager, _) = lazy_vs_eager(
                &program,
                &BuildOptions::default(),
                instrument,
                StopWhen::FirstResponse,
            );
            assert_eq!(lazy, eager, "{wl:?} ({instrument:?}) differs lazy vs eager");
        }
    }
}

/// A startup-bounded run must fault in strictly fewer shards than the
/// program has CUs, and every CU the run never entered must still be
/// unlowered afterwards — lazily sharding that never skips work would be
/// eager lowering with extra bookkeeping.
#[test]
fn untouched_cus_are_never_lowered() {
    let program = Microservice::Micronaut.program();
    let (_, _, lazy) = lazy_vs_eager(
        &program,
        &BuildOptions::default(),
        InstrumentConfig::NONE,
        StopWhen::FirstResponse,
    );
    let lowered = lazy.shards_lowered_lazy();
    assert!(lowered > 0, "the run must fault in at least one shard");
    assert_eq!(lazy.shards_lowered_eager(), 0, "no eager path ran here");
    assert!(
        lowered < lazy.n_cus() as u64,
        "startup touched all {} CUs; sharding saved nothing",
        lazy.n_cus()
    );
    let untouched = (0..lazy.n_cus() as u32)
        .filter(|&cu| !lazy.is_cu_lowered(CuId(cu)))
        .count();
    assert_eq!(
        untouched as u64,
        lazy.n_cus() as u64 - lowered,
        "every unlowered CU is observable through is_cu_lowered"
    );
}
