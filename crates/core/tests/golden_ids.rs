//! Golden object identities: every bundled workload's instrumented and
//! optimized snapshots, under all three identity schemes, digested as the
//! `(object index, id)` sequence in snapshot order. The table pins the
//! identities — and with them every heap order, plan and disk entry built
//! from them — to the values the original string-building encoder
//! produced; any change to the byte stream an id hashes shows up here.
//!
//! On a mismatch the test prints the full actual table in source form.

use std::collections::HashMap;
use std::hash::Hasher;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_ir::Program;
use nimage_order::murmur3::Hasher128;
use nimage_order::{assign_ids, HeapStrategy};
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice};

/// `(workload, [instrumented × HeapStrategy::all(), optimized ×
/// HeapStrategy::all()])`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 6]); 17] = [
    ("Bounce", [0x60c5037eedf0b9a3, 0xf5e0131424c6d36d, 0xd128ed7dc5da8e19, 0xacc7e6ec56d980c4, 0xc30c2e7b654dc4ec, 0xd875265304bb67d5]),
    ("CD", [0x0bc6fe7d8b5d36e6, 0x1ac9102f1726b83e, 0x1507eb585cf50ad2, 0x6212debf5a1b3b09, 0xb7ec069838f70b3a, 0x78d0c6a937fef409]),
    ("DeltaBlue", [0x300c17c139db148e, 0xdc1811be9e5b6718, 0x68f1665bb149c682, 0x09db7544a45724e3, 0x8a60dbbc517ca376, 0x7459b0be7e08d3b9]),
    ("Havlak", [0x3a5071b8891dd7d4, 0xa02b07b8be232538, 0x98d2371520d2f77e, 0x3822bdf9053fb6e1, 0xb1681d366d60eb78, 0x04a9f66063cfea71]),
    ("Json", [0xaa9003428dbd4846, 0xb07f0e27d3c2ff6d, 0xc3eb26ef651a0bea, 0xe3c460900e36bcdc, 0xd750025787b424e5, 0xfeb840cfaf5d40ac]),
    ("List", [0x0e093e97741b9baa, 0x04540b24f599f351, 0xafc300e683621602, 0xc3a12ebaae92113b, 0x42d8a439302acf77, 0xc6cbca658e7a93ac]),
    ("Mandelbrot", [0x47e340fc92bb4abc, 0x79903ce44379512b, 0xaeeee936aba81e1e, 0xd916183089231a5b, 0xa06fac4fddb81790, 0xd1e435ebac0c41e9]),
    ("NBody", [0x9a5922691cb086eb, 0x9628f2c8b278992b, 0xfce6993ab1341253, 0x9249020198eaea19, 0xd81180683c60da5b, 0x1e7c27de39512b6a]),
    ("Permute", [0xa19042e97f90a282, 0x1f6f404724108a8b, 0x1297c79aae2bf47c, 0xdced75d00a318c49, 0x81605aedf0f5fcab, 0x1bb82d50e1776522]),
    ("Queens", [0xf419af9772583d86, 0xe157286a8d4676cf, 0x83785e3e29932d0e, 0x286b5f25ef591dfe, 0xf0dd179e3e190060, 0x13747c11353ebcfc]),
    ("Richards", [0xe3320c67b062a33a, 0x9eae855d145e2e56, 0xbb0f56685750bdda, 0x67f28c229666d48a, 0x82afbad9dd149972, 0x847d08c0709880fd]),
    ("Sieve", [0x477968fb937ba642, 0xe2d2f630db9b5e9a, 0x4872e079f58a8732, 0x033dccdea5abb947, 0x2a5026a399bf098e, 0xaaaf34888a7e2448]),
    ("Storage", [0x2ad06ecfd28cf69b, 0xbca9bcf1cfc8f645, 0x2096f955791f1d54, 0x4ff2f748ab399e97, 0x9269c5f3e2c4cce5, 0x297b782f8ee1d134]),
    ("Towers", [0xacb9241a5bbcb5ef, 0xa65c289c88dd6bd3, 0x37b703e4ddb962a1, 0x5c3d8f72f6fe0dbe, 0x3682f0b5323c0eac, 0x2f0295964cc214b9]),
    ("micronaut", [0x0110bd9c7cecea24, 0x90579cd73ff02bd6, 0xe80aa43d35762edc, 0x25fc6a8a2eb2ea8f, 0x230d1ab20c1eb9d4, 0xaa52f64ebb20fb0e]),
    ("quarkus", [0x3b4964c14c522f80, 0xdb8dc0b6a7e09615, 0x1ab87f376d00b504, 0x0143cbc179d86a74, 0x855a526d562b6b76, 0x47eadd7ad1881f2b]),
    ("spring", [0xeafc0647294b3eb4, 0x08a04407b2e3bdf6, 0x0b1d2d7edf7dce9b, 0x0093bfa48339f839, 0x714115d01bb9c6ae, 0xa0bcd7ddcfa8c63d]),
];

fn digest(snap: &HeapSnapshot, ids: &HashMap<ObjId, u64>) -> u64 {
    let mut h = Hasher128::with_seed(0);
    for e in snap.entries() {
        h.write_u32(e.obj.0);
        h.write_u64(ids[&e.obj]);
    }
    h.finish()
}

fn snapshot_digests(program: &Program, dump_mode: DumpMode, stop: StopWhen) -> [u64; 6] {
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
    let mut out = [0u64; 6];
    for (k, snap) in [&instrumented.snapshot, &optimized.snapshot]
        .into_iter()
        .enumerate()
    {
        for (s, scheme) in HeapStrategy::all().into_iter().enumerate() {
            out[k * 3 + s] = digest(snap, &assign_ids(program, snap, scheme));
        }
    }
    out
}

#[test]
fn identities_match_the_golden_table() {
    let mut actual: Vec<(&str, [u64; 6])> = Vec::new();
    for a in Awfy::all() {
        actual.push((
            a.name(),
            snapshot_digests(&a.program(), DumpMode::OnFull, StopWhen::Exit),
        ));
    }
    for m in Microservice::all() {
        actual.push((
            m.name(),
            snapshot_digests(
                &m.program(),
                DumpMode::MemoryMapped,
                StopWhen::FirstResponse,
            ),
        ));
    }
    if actual[..] != GOLDEN[..] {
        let mut table = String::new();
        for (name, d) in &actual {
            let cells: Vec<String> = d.iter().map(|v| format!("{v:#018x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        panic!("identity digests differ from the golden table; actual:\n{table}");
    }
}
