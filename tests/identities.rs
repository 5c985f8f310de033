//! Smoke test of the object identities every heap order rests on: the
//! instrumented and optimized snapshots of micronaut and Bounce, under all
//! four identity schemes, digest to pinned values. The exhaustive version
//! (all 17 workloads) is `crates/core/tests/golden_ids.rs`, whose table
//! these two rows are copied from.

use std::hash::Hasher;

use nimage::compiler::InstrumentConfig;
use nimage::heap::HeapSnapshot;
use nimage::ir::Program;
use nimage::order::murmur3::Hasher128;
use nimage::order::{assign_ids, HeapStrategy};
use nimage::profiler::DumpMode;
use nimage::vm::{StopWhen, VmConfig};
use nimage::workloads::{Awfy, Microservice};
use nimage::{BuildOptions, Pipeline};

/// `[instrumented × schemes, optimized × schemes]`, schemes in the order
/// incremental, structural (depth 2), heap path, salted heap path.
fn digests(program: &Program, dump_mode: DumpMode, stop: StopWhen) -> [u64; 8] {
    let opts = BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    };
    let p = Pipeline::new(program, opts);
    let instrumented = p.build_instrumented(InstrumentConfig::FULL).unwrap();
    let artifacts = p.profiling_run(stop).unwrap();
    let optimized = p.build_optimized(&artifacts, None).unwrap();
    let digest = |snap: &HeapSnapshot, scheme| {
        let ids = assign_ids(program, snap, scheme);
        let mut h = Hasher128::with_seed(0);
        for e in snap.entries() {
            h.write_u32(e.obj.0);
            h.write_u64(ids[&e.obj]);
        }
        h.finish()
    };
    let mut out = [0; 8];
    for (k, snap) in [&instrumented.snapshot, &optimized.snapshot]
        .into_iter()
        .enumerate()
    {
        for (s, scheme) in [
            HeapStrategy::IncrementalId,
            HeapStrategy::StructuralHash { max_depth: 2 },
            HeapStrategy::HeapPath,
            HeapStrategy::HeapPathSalted,
        ]
        .into_iter()
        .enumerate()
        {
            out[k * 4 + s] = digest(snap, scheme);
        }
    }
    out
}

#[test]
fn micronaut_and_bounce_identities_are_pinned() {
    assert_eq!(
        digests(
            &Microservice::Micronaut.program(),
            DumpMode::MemoryMapped,
            StopWhen::FirstResponse
        ),
        [
            0x0110bd9c7cecea24,
            0x90579cd73ff02bd6,
            0xe80aa43d35762edc,
            0x64b563f28387a1dc,
            0x25fc6a8a2eb2ea8f,
            0x230d1ab20c1eb9d4,
            0xaa52f64ebb20fb0e,
            0xeb25c64844ea24a5,
        ],
        "micronaut"
    );
    assert_eq!(
        digests(&Awfy::Bounce.program(), DumpMode::OnFull, StopWhen::Exit),
        [
            0x60c5037eedf0b9a3,
            0xf5e0131424c6d36d,
            0xd128ed7dc5da8e19,
            0x0c8987762c7aaf2e,
            0xacc7e6ec56d980c4,
            0xc30c2e7b654dc4ec,
            0xd875265304bb67d5,
            0xdf59c5df6f7648d0,
        ],
        "Bounce"
    );
}
