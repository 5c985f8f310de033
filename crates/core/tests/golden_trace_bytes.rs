//! Golden trace files: every bundled workload's instrumented run, written
//! with [`write_trace`] and digested with [`Hasher128`]. The table pins
//! the on-disk trace format byte for byte — a change to how traces are
//! held in memory must leave the file it writes unchanged, or bump
//! `DISK_FORMAT_VERSION` and regenerate this table.
//!
//! The 14 AWFY programs run at the small runtime scale with
//! [`DumpMode::OnFull`]; the 3 microservices run to their first response
//! with [`DumpMode::MemoryMapped`]. On a mismatch the test prints the full
//! actual table in source form.

use std::hash::Hasher;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline};
use nimage_ir::Program;
use nimage_order::murmur3::Hasher128;
use nimage_profiler::{write_trace, DumpMode};
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// `(workload, trace file length, trace file digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64); 17] = [
    ("Bounce", 1165033, 0xbb36a6d39cd1ffdc),
    ("CD", 648723, 0x006632261ddea3e3),
    ("DeltaBlue", 351232, 0xd8abb7f6d45b88eb),
    ("Havlak", 159703, 0x59fc0f8bba5a3bc4),
    ("Json", 100025, 0xfc83fdf9861cb102),
    ("List", 2086939, 0x06d31fb69dfba3e2),
    ("Mandelbrot", 2241764, 0xc6a8e7653051d51d),
    ("NBody", 169901, 0x5d720a92d22c0533),
    ("Permute", 440525, 0x5a3ff38fe960d84b),
    ("Queens", 1837179, 0x69e3aae97a615df4),
    ("Richards", 118719, 0xbda839e98ef2b424),
    ("Sieve", 941461, 0x7cfb7a116b1370f6),
    ("Storage", 367829, 0xda99ac85a5001968),
    ("Towers", 596469, 0xfa90c724125fd052),
    ("micronaut", 130056, 0x438e42003475f9b7),
    ("quarkus", 91239, 0xdb453084cc4bab6f),
    ("spring", 156437, 0x116bf093c455fddf),
];

fn trace_file_digest(program: &Program, dump_mode: DumpMode, stop: StopWhen) -> (usize, u64) {
    let opts = BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    };
    let p = Pipeline::new(program, opts);
    let built = p.build_instrumented(InstrumentConfig::FULL).unwrap();
    let report = p.run_image(&built, stop).unwrap();
    let trace = report
        .trace
        .as_ref()
        .expect("instrumented run records a trace");
    let bytes = write_trace(trace);
    let mut h = Hasher128::with_seed(0);
    h.write(&bytes);
    (bytes.len(), h.finish())
}

#[test]
fn trace_files_match_the_golden_table() {
    let mut actual: Vec<(&str, usize, u64)> = Vec::new();
    for a in Awfy::all() {
        let (len, digest) = trace_file_digest(
            &a.program_at(&RuntimeScale::small()),
            DumpMode::OnFull,
            StopWhen::Exit,
        );
        actual.push((a.name(), len, digest));
    }
    for m in Microservice::all() {
        let (len, digest) = trace_file_digest(
            &m.program(),
            DumpMode::MemoryMapped,
            StopWhen::FirstResponse,
        );
        actual.push((m.name(), len, digest));
    }
    if actual[..] != GOLDEN[..] {
        let mut table = String::new();
        for (name, len, digest) in &actual {
            table.push_str(&format!("    (\"{name}\", {len}, {digest:#018x}),\n"));
        }
        panic!("trace files differ from the golden table; actual:\n{table}");
    }
}
