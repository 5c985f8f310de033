//! Golden trace replays: every bundled workload's instrumented run, and
//! small-scale Bounce's, replayed into a [`ReplaySummary`] and digested as
//! its three
//! first-occurrence lists (CU order, method order, object order). The
//! table pins the replay — and with it every profile, plan, fault count
//! and disk entry derived from it — so a faster replay must reproduce the
//! slower one's output exactly.
//!
//! On a mismatch the test prints the full actual table in source form.

use std::hash::Hasher;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline};
use nimage_ir::Program;
use nimage_order::murmur3::Hasher128;
use nimage_order::{assign_ids, replay_first_access, HeapStrategy, ReplaySummary};
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// `(workload, [cu_order, method_order, object_order])` digests.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3]); 18] = [
    ("Bounce", [0xfc6ab99eda16551d, 0xa7bf021af50d0cf4, 0xeef4f9d89369654d]),
    ("CD", [0xdeb9455fd7b8eaed, 0xcc44c46c6dbb32d2, 0x0db9f5e4c9a365f3]),
    ("DeltaBlue", [0x23dcc66f2e9bbf90, 0xc39d0af5a4e5ec81, 0xb56a2bb3cea4574b]),
    ("Havlak", [0x8fea1c3dc0a5d2e3, 0xd7dd197e3c32cab4, 0xdc4e2efca1c29f30]),
    ("Json", [0xd3d70e1999bf8010, 0x25418e467ae46fe2, 0xcec231013a068bf2]),
    ("List", [0x0b624bf7d7d8f58e, 0x1fdacfb2c4d60700, 0x7b21771e49455911]),
    ("Mandelbrot", [0x542806fc9a7de7b9, 0x8ef51f576e93b16a, 0x1b909702ecdda4ef]),
    ("NBody", [0xb089b809da9dbe04, 0x37decc64848fe256, 0xcba84a3699a3fd03]),
    ("Permute", [0xd20b2aa9d8b61822, 0x6ce71cbae26c0722, 0x7dd174ea79999b57]),
    ("Queens", [0xd5038331300bc7ae, 0x8ea63f9f1d625a05, 0x5eedb2c78d39850b]),
    ("Richards", [0xdc8be5213cf0750e, 0x0054cc54028183d1, 0x6c58e5fc3d92c9f1]),
    ("Sieve", [0x1d47ce9359507cf7, 0xbf0428bd9d1907ab, 0x5fc41891d8c82e05]),
    ("Storage", [0xe17c48f4b4afc1a5, 0xd8468749d295c989, 0x444c99a6d03ce180]),
    ("Towers", [0x6d423098ffa177ec, 0x896a5e40a73b323d, 0x2f453d0c3faf718d]),
    ("micronaut", [0x41891729963b59c7, 0x59c7f15614f5e838, 0x3d869bef35c3bf65]),
    ("quarkus", [0xba71e944e9a3ddbb, 0x444d500db97f0be7, 0x0ad24b50093d2c81]),
    ("spring", [0x00aae3cd80ee0451, 0x9068d6b58bb30e80, 0xc9fb6fbdf54c1af6]),
    ("Bounce (small scale)", [0xd80e74e8123fc3e1, 0x5d59ac9d6ac21119, 0xd8488995e1eb6385]),
];

fn digest_sigs(sigs: &[String]) -> u64 {
    let mut h = Hasher128::with_seed(0);
    h.write_u64(sigs.len() as u64);
    for s in sigs {
        h.write_u32(s.len() as u32);
        h.write(s.as_bytes());
    }
    h.finish()
}

fn digest(summary: &ReplaySummary) -> [u64; 3] {
    let mut objects = Hasher128::with_seed(0);
    objects.write_u64(summary.object_order.len() as u64);
    for o in &summary.object_order {
        objects.write_u32(o.0);
    }
    [
        digest_sigs(&summary.cu_order),
        digest_sigs(&summary.method_order),
        objects.finish(),
    ]
}

fn replay_digest(program: &Program, dump_mode: DumpMode, stop: StopWhen) -> [u64; 3] {
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
    digest(&replay_first_access(program, trace, &ids, max_paths).unwrap())
}

#[test]
fn replays_match_the_golden_table() {
    let mut actual: Vec<(&str, [u64; 3])> = Vec::new();
    for a in Awfy::all() {
        actual.push((
            a.name(),
            replay_digest(&a.program(), DumpMode::OnFull, StopWhen::Exit),
        ));
    }
    for m in Microservice::all() {
        actual.push((
            m.name(),
            replay_digest(
                &m.program(),
                DumpMode::MemoryMapped,
                StopWhen::FirstResponse,
            ),
        ));
    }
    actual.push((
        "Bounce (small scale)",
        replay_digest(
            &Awfy::Bounce.program_at(&RuntimeScale::small()),
            DumpMode::OnFull,
            StopWhen::Exit,
        ),
    ));
    if actual[..] != GOLDEN[..] {
        let mut table = String::new();
        for (name, d) in &actual {
            let cells: Vec<String> = d.iter().map(|v| format!("{v:#018x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        panic!("replay digests differ from the golden table; actual:\n{table}");
    }
}
