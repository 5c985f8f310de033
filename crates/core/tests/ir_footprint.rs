//! Every program's whole IR stays in memory for the length of a run (the
//! pipeline builds each program twice), so its footprint is guarded here:
//! `Instr` is 16 bytes (a compile-time assertion in `nimage-ir`), the
//! builder stores every list at exact length, and a bundled service holds
//! at most a fixed number of heap bytes per instruction. The lowered form
//! the VM runs is held to the same standard: `LoweredInstr` is 16 bytes (a
//! compile-time assertion in `nimage-vm`) and every lowered list is exact.

#[path = "support/live_alloc.rs"]
mod live_alloc;
use live_alloc::retained_bytes;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline};
use nimage_ir::{Instr, MethodId, Program};
use nimage_vm::lower::LoweredInstr;
use nimage_vm::LoweredProgram;
use nimage_workloads::{Awfy, Microservice};

/// Spare capacity: room allocated beyond what a list holds. A boxed slice
/// has none by construction; a `Vec` or `String` may.
trait Slack {
    fn slack(&self) -> usize;
}

impl<T> Slack for Vec<T> {
    fn slack(&self) -> usize {
        self.capacity() - self.len()
    }
}

impl<T> Slack for Box<[T]> {
    fn slack(&self) -> usize {
        0
    }
}

impl Slack for String {
    fn slack(&self) -> usize {
        self.capacity() - self.len()
    }
}

fn bundled() -> Vec<(&'static str, Program)> {
    let micro = Microservice::all().map(|m| (m.name(), m.program()));
    let awfy = Awfy::all().map(|a| (a.name(), a.program()));
    micro.into_iter().chain(awfy).collect()
}

fn instructions(p: &Program) -> usize {
    p.methods()
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.instrs.len())
        .sum()
}

/// Each method's block list, each block's instruction list and the
/// argument list or string of each boxed payload holds exactly its
/// contents: the builder hands over no growth buffer.
#[test]
fn every_block_of_every_bundled_program_is_exact_size() {
    for (name, p) in bundled() {
        for (mi, m) in p.methods().iter().enumerate() {
            assert_eq!(m.blocks.slack(), 0, "{name} m{mi}: block list");
            for (bi, b) in m.blocks.iter().enumerate() {
                let at = format!("{name} m{mi} b{bi}");
                assert_eq!(b.instrs.slack(), 0, "{at}: instruction list");
                for ins in &b.instrs[..] {
                    let slack = match ins {
                        Instr::ConstStr(_, s) => s.slack(),
                        Instr::Call(c) => c.args.slack(),
                        Instr::Intrinsic(c) => c.args.slack(),
                        Instr::Spawn(s) => s.args.slack(),
                        _ => 0,
                    };
                    assert_eq!(slack, 0, "{at}: {ins:?}");
                }
            }
        }
    }
}

/// Every method of every bundled program, lowered whole (every CU's shard
/// and every method outside one), holds its code, its block table and the
/// argument list of each boxed payload at exact length.
#[test]
fn every_lowered_method_of_every_bundled_program_is_exact_size() {
    for (name, p) in bundled() {
        let opts = BuildOptions::default();
        let pipeline = Pipeline::new(&p, opts.clone());
        let compiled =
            pipeline.compile_stage(pipeline.analyze_stage(), InstrumentConfig::NONE, None);
        let lowered = LoweredProgram::build(&p, &compiled, opts.vm.max_paths);
        for mi in 0..p.methods().len() {
            let m = lowered.method(MethodId(mi as u32));
            let at = format!("{name} m{mi}");
            assert_eq!(m.code.slack(), 0, "{at}: code");
            assert_eq!(m.block_start.slack(), 0, "{at}: block starts");
            for ins in &m.code[..] {
                let slack = match ins {
                    LoweredInstr::Call(c) => c.args.slack(),
                    LoweredInstr::Intrinsic(c) => c.args.slack(),
                    LoweredInstr::Spawn(s) => s.args.slack(),
                    _ => 0,
                };
                assert_eq!(slack, 0, "{at}: {ins:?}");
            }
        }
    }
}

/// Heap bytes a built service program holds per IR instruction: its
/// instruction slots (16 bytes each) plus everything else it owns —
/// boxed payloads, block and method tables, names, classes — spread over
/// the instruction count.
///
/// Measured at 18.2 (micronaut), 18.5 (quarkus) and 17.9 (spring) bytes;
/// with a 40-byte `Instr` and the builder's growth buffers it was 63.1,
/// 68.8 and 57.4. The bound leaves 8 % headroom over the largest. The
/// allocator counts requested sizes, so the figure does not depend on the
/// host or the system allocator.
const MAX_BYTES_PER_INSTR: f64 = 20.0;

#[test]
fn bundled_services_hold_at_most_a_budget_of_bytes_per_instruction() {
    for m in Microservice::all() {
        let (p, bytes) = retained_bytes(|| m.program());
        let n = instructions(&p);
        let per_instr = bytes as f64 / n as f64;
        assert!(
            per_instr <= MAX_BYTES_PER_INSTR,
            "{}: {bytes} bytes for {n} instructions is {per_instr:.1} per instruction, \
             over {MAX_BYTES_PER_INSTR}",
            m.name()
        );
    }
}
