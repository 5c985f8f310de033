//! Byte-identity pins for the codec branches no cache stage reaches on
//! quickstart (`golden_entry_bytes.rs` covers those): every CU shard of a
//! few bundled programs (no stage persists `LoweredShard`), plus a tiny
//! one that writes a static field at run time (the bundled programs do so
//! only in build-time initializers), and the same programs' heap
//! snapshots, one [`Hasher128`] digest per program and
//! codec. The set is checked to hold every `LoweredInstr` and every
//! `HObjectKind` variant, so each instruction and object encoding is
//! pinned byte for byte. On a mismatch the test prints the full actual
//! table in source form.

use std::hash::Hasher;

use nimage_compiler::{CuId, InstrumentConfig};
use nimage_core::{BuildOptions, DiskCodec, Pipeline};
use nimage_heap::HObjectKind;
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_order::murmur3::Hasher128;
use nimage_vm::lower::LoweredInstr;
use nimage_vm::LoweredProgram;
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// `(program, shards, shard bytes, shard digest, snapshot bytes,
/// snapshot digest)`.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, usize, u64, usize, u64); 5] = [
    ("micronaut", 640, 1763600, 0x2c1123f1177cac83, 524533, 0xb5f6c4c5004010fa),
    ("Json", 103, 207168, 0x410e25a289502203, 23835, 0xff033ba263f42990),
    ("NBody", 102, 198523, 0x0df3a9337c2ae5de, 24316, 0x0d349c5f71e17012),
    ("Richards", 104, 204402, 0x719a706d3b9b4ca5, 23516, 0xb10e9e4fdc31a0c9),
    ("static-store", 1, 98, 0x42778d79983245e8, 20, 0x4039366601e7e709),
];

/// A program whose entry point stores to a static field.
fn static_store() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Main", None);
    let fld = pb.add_static_field(c, "N", TypeRef::Int);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = f.iconst(7);
    f.put_static(fld, v);
    let v = f.get_static(fld);
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

/// The pinned programs, the bundled ones at the small runtime scale.
fn programs() -> Vec<(&'static str, Program)> {
    let scale = RuntimeScale::small();
    vec![
        ("micronaut", Microservice::Micronaut.program_at(&scale)),
        ("Json", Awfy::Json.program_at(&scale)),
        ("NBody", Awfy::NBody.program_at(&scale)),
        ("Richards", Awfy::Richards.program_at(&scale)),
        ("static-store", static_store()),
    ]
}

/// The position of `ins`'s variant in declaration order; exhaustive, so
/// a new variant fails to compile until it is counted here.
fn instr_variant(ins: &LoweredInstr) -> usize {
    match ins {
        LoweredInstr::ConstInt(..) => 0,
        LoweredInstr::ConstDouble(..) => 1,
        LoweredInstr::ConstBool(..) => 2,
        LoweredInstr::ConstStr(..) => 3,
        LoweredInstr::ConstNull(..) => 4,
        LoweredInstr::Move(..) => 5,
        LoweredInstr::Bin(..) => 6,
        LoweredInstr::Un(..) => 7,
        LoweredInstr::New(..) => 8,
        LoweredInstr::NewArray(..) => 9,
        LoweredInstr::GetField(..) => 10,
        LoweredInstr::PutField(..) => 11,
        LoweredInstr::GetStatic(..) => 12,
        LoweredInstr::PutStatic(..) => 13,
        LoweredInstr::ArrayGet(..) => 14,
        LoweredInstr::ArraySet(..) => 15,
        LoweredInstr::ArrayLen(..) => 16,
        LoweredInstr::StrLen(..) => 17,
        LoweredInstr::StrCharAt(..) => 18,
        LoweredInstr::StrConcat(..) => 19,
        LoweredInstr::Call { .. } => 20,
        LoweredInstr::Intrinsic { .. } => 21,
        LoweredInstr::Spawn { .. } => 22,
        LoweredInstr::Ret(..) => 23,
        LoweredInstr::Jump(..) => 24,
        LoweredInstr::Br { .. } => 25,
    }
}
const INSTR_VARIANTS: usize = 26;

/// The position of `kind`'s variant in declaration order; exhaustive.
fn object_variant(kind: &HObjectKind) -> usize {
    match kind {
        HObjectKind::Instance { .. } => 0,
        HObjectKind::Array { .. } => 1,
        HObjectKind::Str(..) => 2,
        HObjectKind::Boxed(..) => 3,
        HObjectKind::Blob { .. } => 4,
    }
}
const OBJECT_VARIANTS: usize = 5;

/// Feeds one length-delimited payload to `h`.
fn absorb(h: &mut Hasher128, payload: &[u8]) {
    h.write(&(payload.len() as u64).to_le_bytes());
    h.write(payload);
}

#[test]
fn shard_and_snapshot_payloads_match_the_pinned_table() {
    let mut instrs = [false; INSTR_VARIANTS];
    let mut objects = [false; OBJECT_VARIANTS];
    let mut actual = vec![];
    for (name, program) in programs() {
        let opts = BuildOptions::default();
        let pipeline = Pipeline::new(&program, opts.clone());
        // Full instrumentation, so the shards carry path tables too.
        let compiled =
            pipeline.compile_stage(pipeline.analyze_stage(), InstrumentConfig::FULL, None);
        let lowered = LoweredProgram::new(&program, &compiled, opts.vm.max_paths);
        let (mut h, mut shard_bytes) = (Hasher128::with_seed(0), 0);
        for cu in 0..compiled.cus.len() as u32 {
            let shard = lowered.extract_shard(&program, &compiled, CuId(cu));
            for (_, m) in &shard.methods {
                for ins in &m.code {
                    instrs[instr_variant(ins)] = true;
                }
            }
            let mut payload = vec![];
            shard.encode(&mut payload);
            shard_bytes += payload.len();
            absorb(&mut h, &payload);
        }
        let shard_digest = h.finish();

        let snapshot = pipeline
            .snapshot_stage(&compiled, &opts.heap_instrumented)
            .expect("snapshot builds");
        for obj in snapshot.heap().objects() {
            objects[object_variant(&obj.kind)] = true;
        }
        let mut payload = vec![];
        snapshot.encode(&mut payload);
        let mut h = Hasher128::with_seed(0);
        absorb(&mut h, &payload);
        actual.push((
            name,
            compiled.cus.len(),
            shard_bytes,
            shard_digest,
            payload.len(),
            h.finish(),
        ));
    }
    let missing: Vec<usize> = (0..INSTR_VARIANTS).filter(|&v| !instrs[v]).collect();
    assert!(
        missing.is_empty(),
        "LoweredInstr variants never pinned: {missing:?}"
    );
    let missing: Vec<usize> = (0..OBJECT_VARIANTS).filter(|&v| !objects[v]).collect();
    assert!(
        missing.is_empty(),
        "HObjectKind variants never pinned: {missing:?}"
    );
    if actual[..] != GOLDEN[..] {
        let mut table = String::new();
        for (name, n, sb, sd, hb, hd) in &actual {
            table.push_str(&format!(
                "    (\"{name}\", {n}, {sb}, {sd:#018x}, {hb}, {hd:#018x}),\n"
            ));
        }
        panic!("shard or snapshot payloads differ from the pinned table; actual:\n{table}");
    }
}
