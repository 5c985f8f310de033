//! Smoke test of the trace replay every ordering profile rests on: the
//! instrumented runs of micronaut and small-scale Bounce, replayed into
//! first-occurrence lists, digest to pinned values. The exhaustive version
//! (all 17 bundled workloads) is `crates/core/tests/golden_replay.rs`,
//! whose micronaut row is copied here.

use std::hash::Hasher;

use nimage::compiler::InstrumentConfig;
use nimage::ir::Program;
use nimage::order::murmur3::Hasher128;
use nimage::order::{assign_ids, replay_first_access, HeapStrategy};
use nimage::profiler::DumpMode;
use nimage::vm::{StopWhen, VmConfig};
use nimage::workloads::{Awfy, Microservice, RuntimeScale};
use nimage::{BuildOptions, Pipeline};

/// `[cu_order, method_order, object_order]` digests of one replay.
fn digests(program: &Program, dump_mode: DumpMode, stop: StopWhen) -> [u64; 3] {
    let opts = BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    };
    let max_paths = opts.vm.max_paths;
    let p = Pipeline::new(program, opts);
    let built = p.build_instrumented(InstrumentConfig::FULL).unwrap();
    let report = p.run_image(&built, stop).unwrap();
    let ids = assign_ids(program, &built.snapshot, HeapStrategy::HeapPath);
    let trace = report
        .trace
        .as_ref()
        .expect("instrumented run records a trace");
    let summary = replay_first_access(program, trace, &ids, max_paths).unwrap();
    let sigs = |list: &[String]| {
        let mut h = Hasher128::with_seed(0);
        h.write_u64(list.len() as u64);
        for s in list {
            h.write_u32(s.len() as u32);
            h.write(s.as_bytes());
        }
        h.finish()
    };
    let mut objects = Hasher128::with_seed(0);
    objects.write_u64(summary.object_order.len() as u64);
    for o in &summary.object_order {
        objects.write_u32(o.0);
    }
    [
        sigs(&summary.cu_order),
        sigs(&summary.method_order),
        objects.finish(),
    ]
}

#[test]
fn micronaut_and_small_bounce_replays_are_pinned() {
    assert_eq!(
        digests(
            &Microservice::Micronaut.program(),
            DumpMode::MemoryMapped,
            StopWhen::FirstResponse
        ),
        [0x41891729963b59c7, 0x59c7f15614f5e838, 0x3d869bef35c3bf65],
        "micronaut"
    );
    assert_eq!(
        digests(
            &Awfy::Bounce.program_at(&RuntimeScale::small()),
            DumpMode::OnFull,
            StopWhen::Exit
        ),
        [0xd80e74e8123fc3e1, 0x5d59ac9d6ac21119, 0xd8488995e1eb6385],
        "Bounce (small scale)"
    );
}
