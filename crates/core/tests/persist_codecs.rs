//! Property tests for the fine-grained disk codecs: the compiled program,
//! the heap snapshot and the `baseline-run` entry (a run report plus its
//! access log) must round-trip bit-exactly through their `DiskCodec`
//! encodings for any pipeline-producible artifact, and the decoders must
//! be total — arbitrary or truncated bytes are rejected, never a panic or
//! an oversized allocation. Damaged copies of valid entries of every codec
//! (bit flips, truncations, a splice of two entries) must decode to `None`
//! or to a value that survives its own re-encoding unchanged, and no
//! damaged decode may make an allocation larger than [`ALLOC_FACTOR`]
//! times its input plus [`ALLOC_SLACK`] bytes: a counting allocator
//! records the largest single allocation while each decode runs.
//!
//! Debug builds try fewer sampled positions than release builds.

use proptest::prelude::*;

use std::collections::HashMap;

use nimage_compiler::{CompiledProgram, InstrumentConfig};
use nimage_core::diskcache::Reader;
use nimage_core::{
    BuildOptions, DiskCodec, Engine, LayoutOrders, Pipeline, ProfiledArtifacts, RunParts, Strategy,
    WorkloadSpec,
};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_order::{assign_ids, HeapStrategy};
use nimage_vm::lower::LoweredInstr;
use nimage_vm::{AccessLog, LoweredProgram, LoweredShard, RunReport, StopWhen, Touch};
use nimage_workloads::{Awfy, RuntimeScale};

#[path = "support/peak_alloc.rs"]
mod peak_alloc;
use peak_alloc::largest_allocation;

/// The `baseline-run` disk entry.
type LoggedRun = (RunReport, AccessLog);

/// The `assign-ids` disk entry.
type HeapIds = HashMap<ObjId, u64>;

/// A small synthetic program family parameterized enough to vary CU
/// counts, inline trees, array contents and interned strings.
fn program(n_helpers: usize, arr_len: u32) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Main", None);
    let fld = pb.add_static_field(c, "S", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(c);
    let mut f = pb.body(cl);
    let n = f.iconst(i64::from(arr_len));
    let arr = f.new_array(TypeRef::Int, n);
    let from = f.iconst(0);
    f.for_range(from, n, |f, i| {
        f.array_set(arr, i, i);
    });
    f.put_static(fld, arr);
    f.ret(None);
    pb.finish_body(cl, f);

    let mut helpers = Vec::new();
    for h in 0..n_helpers {
        let helper = pb.declare_static(
            c,
            &format!("helper{h}"),
            &[TypeRef::Int],
            Some(TypeRef::Int),
        );
        let mut f = pb.body(helper);
        let arr = f.get_static(fld);
        let v = f.array_get(arr, f.param(0));
        f.ret(Some(v));
        pb.finish_body(helper, f);
        helpers.push(helper);
    }

    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let mut v = f.iconst(0);
    for (h, helper) in helpers.iter().enumerate() {
        let k = f.iconst(h as i64 % i64::from(arr_len.max(1)));
        v = f.call_static(*helper, &[k], true).unwrap();
    }
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

fn instrument(bits: u8) -> InstrumentConfig {
    InstrumentConfig {
        trace_cu: bits & 1 != 0,
        trace_methods: bits & 2 != 0,
        trace_heap: bits & 4 != 0,
    }
}

/// Field-by-field compiled-program equality (the struct itself doesn't
/// derive `PartialEq`; `HashMap` fields compare order-independently).
fn assert_compiled_eq(a: &CompiledProgram, b: &CompiledProgram) {
    assert_eq!(a.cus, b.cus);
    assert_eq!(a.root_to_cu, b.root_to_cu);
    assert_eq!(a.instrumentation.trace_cu, b.instrumentation.trace_cu);
    assert_eq!(
        a.instrumentation.trace_methods,
        b.instrumentation.trace_methods
    );
    assert_eq!(a.instrumentation.trace_heap, b.instrumentation.trace_heap);
    let (ra, rb) = (&a.reachability, &b.reachability);
    assert_eq!(ra.methods, rb.methods);
    assert_eq!(ra.instantiated, rb.instantiated);
    assert_eq!(ra.classes, rb.classes);
    assert_eq!(ra.static_fields, rb.static_fields);
    assert_eq!(ra.instance_fields, rb.instance_fields);
    assert_eq!(ra.build_time_inits, rb.build_time_inits);
    assert_eq!(ra.virtual_targets, rb.virtual_targets);
    assert_eq!(ra.saturated, rb.saturated);
    assert_eq!(ra.direct_edges, rb.direct_edges);
}

fn assert_snapshot_eq(a: &HeapSnapshot, b: &HeapSnapshot) {
    assert_eq!(a.entries(), b.entries());
    assert_eq!(a.folded(), b.folded());
    assert_eq!(a.heap().objects(), b.heap().objects());
    let statics_a: std::collections::HashMap<_, _> = a.heap().statics().collect();
    let statics_b: std::collections::HashMap<_, _> = b.heap().statics().collect();
    assert_eq!(statics_a, statics_b);
    let interned_a: std::collections::HashMap<&str, _> = a.heap().interned().collect();
    let interned_b: std::collections::HashMap<&str, _> = b.heap().interned().collect();
    assert_eq!(interned_a, interned_b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_program_roundtrips(
        n_helpers in 1usize..4,
        arr_len in 1u32..48,
        bits in 0u8..8,
    ) {
        let program = program(n_helpers, arr_len);
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let compiled = pipeline.compile_stage(pipeline.analyze_stage(), instrument(bits), None);

        let mut buf = Vec::new();
        compiled.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = CompiledProgram::decode(&mut r).expect("round-trip decodes");
        prop_assert!(r.is_empty(), "decode must consume the whole payload");
        assert_compiled_eq(&decoded, &compiled);

        // A strict prefix can never decode: every byte is load-bearing.
        if !buf.is_empty() {
            let cut = buf.len() / 2;
            prop_assert!(CompiledProgram::decode(&mut Reader::new(&buf[..cut])).is_none());
        }
    }

    #[test]
    fn heap_snapshot_roundtrips(
        n_helpers in 1usize..4,
        arr_len in 1u32..48,
        bits in 0u8..8,
    ) {
        let program = program(n_helpers, arr_len);
        let opts = BuildOptions::default();
        let pipeline = Pipeline::new(&program, opts.clone());
        let compiled = pipeline.compile_stage(pipeline.analyze_stage(), instrument(bits), None);
        let snap = pipeline
            .snapshot_stage(&compiled, &opts.heap_instrumented)
            .expect("snapshot builds");

        let mut buf = Vec::new();
        snap.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = HeapSnapshot::decode(&mut r).expect("round-trip decodes");
        prop_assert!(r.is_empty(), "decode must consume the whole payload");
        assert_snapshot_eq(&decoded, &snap);

        if !buf.is_empty() {
            let cut = buf.len() / 2;
            prop_assert!(HeapSnapshot::decode(&mut Reader::new(&buf[..cut])).is_none());
        }
    }

    #[test]
    fn logged_run_roundtrips(
        n_helpers in 1usize..4,
        arr_len in 1u32..48,
        bits in 0u8..8,
    ) {
        let program = program(n_helpers, arr_len);
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let built = pipeline.build_instrumented(instrument(bits)).expect("builds");
        let run: LoggedRun = pipeline
            .run_logged(
                RunParts::new(&built.compiled, &built.snapshot, &built.image),
                StopWhen::Exit,
            )
            .expect("runs");
        prop_assert!(!run.1.touches().is_empty());

        let mut buf = Vec::new();
        run.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = LoggedRun::decode(&mut r).expect("round-trip decodes");
        prop_assert!(r.is_empty(), "decode must consume the whole payload");
        prop_assert_eq!(format!("{:?}", decoded.0), format!("{:?}", run.0));
        prop_assert!(decoded.1 == run.1, "the log changed in the round trip");
        prop_assert!(LoggedRun::decode(&mut Reader::new(&buf[..buf.len() - 1])).is_none());
    }

    #[test]
    fn access_logs_roundtrip(
        raw in proptest::collection::vec((0u8..3, any::<u32>(), any::<u64>()), 0..64),
        respond in 0usize..80,
    ) {
        let touches: Vec<Touch> = raw
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => Touch::Code { cu: a, node: b as u32 },
                1 => Touch::Object { obj: a, offset: b },
                _ => Touch::Native { page: a },
            })
            .collect();
        let n = touches.len();
        let log = AccessLog::from_parts(touches, (respond <= n).then_some(respond))
            .expect("response position within the log");
        let mut buf = Vec::new();
        log.encode(&mut buf);
        let mut r = Reader::new(&buf);
        prop_assert!(AccessLog::decode(&mut r) == Some(log));
        prop_assert!(r.is_empty());
    }

    #[test]
    fn decoders_are_total_over_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        // No panics, no unbounded allocations — a `None` (or, by freak
        // coincidence, a valid value) is the only acceptable outcome.
        let _ = CompiledProgram::decode(&mut Reader::new(&bytes));
        let _ = HeapSnapshot::decode(&mut Reader::new(&bytes));
        let _ = ProfiledArtifacts::decode(&mut Reader::new(&bytes));
        let _ = LoggedRun::decode(&mut Reader::new(&bytes));
        let _ = AccessLog::decode(&mut Reader::new(&bytes));
        let _ = LayoutOrders::decode(&mut Reader::new(&bytes));
        let _ = HeapIds::decode(&mut Reader::new(&bytes));
        let _ = LoweredShard::decode(&mut Reader::new(&bytes));
    }
}

/// A response position past the end of the log does not decode.
#[test]
fn access_log_response_must_lie_within_the_log() {
    let mut buf = Vec::new();
    AccessLog::from_parts(vec![Touch::Native { page: 3 }], Some(1))
        .unwrap()
        .encode(&mut buf);
    assert!(AccessLog::decode(&mut Reader::new(&buf)).is_some());
    // The trailing u64 is the response position: 1 → 2.
    let at = buf.len() - 8;
    buf[at] = 2;
    assert!(AccessLog::decode(&mut Reader::new(&buf)).is_none());
}

/// The regression the clamp exists for: a length prefix claiming ~4 Gi
/// elements over a tiny buffer must fail fast instead of pre-allocating.
#[test]
fn huge_length_prefixes_fail_fast() {
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 64]);
    assert!(CompiledProgram::decode(&mut Reader::new(&bytes)).is_none());
    assert!(HeapSnapshot::decode(&mut Reader::new(&bytes)).is_none());
    assert!(ProfiledArtifacts::decode(&mut Reader::new(&bytes)).is_none());
    assert!(AccessLog::decode(&mut Reader::new(&bytes)).is_none());
    assert!(HeapIds::decode(&mut Reader::new(&bytes)).is_none());
    // A plan's first field is an optional CU order: tag 1, then the length.
    let mut plan = vec![1u8];
    plan.extend_from_slice(&bytes);
    assert!(LayoutOrders::decode(&mut Reader::new(&plan)).is_none());
}

/// Positions sampled evenly across an entry.
const SAMPLES: usize = if cfg!(debug_assertions) { 16 } else { 96 };

/// Entries up to this size are truncated at every length.
const SMALL: usize = if cfg!(debug_assertions) { 512 } else { 4096 };

/// The most bytes a decode may allocate at once per input byte. Decoders
/// size each buffer from its length prefix, capped at the bytes left
/// divided by the element's shortest encoding, so one input byte can claim
/// at most an element's in-memory size divided by that length. The largest such ratio
/// is a lowered instruction's: 40 bytes in memory against 2 for the
/// shortest, `Ret(None)`. (A heap value is 16 over 1 for `Null`.)
const ALLOC_FACTOR: usize = 20;

/// A constant allowance on top of [`ALLOC_FACTOR`] for the fixed minimum
/// sizes of small buffers and hash tables.
const ALLOC_SLACK: usize = 256;

/// Pins [`ALLOC_FACTOR`]'s derivation to the type it is derived from.
#[test]
fn alloc_factor_covers_the_widest_element() {
    assert!(std::mem::size_of::<LoweredInstr>() <= 2 * ALLOC_FACTOR);
    assert!(std::mem::size_of::<nimage_ir::Value>() <= ALLOC_FACTOR);
}

/// Decodes `bytes` as a `T`, whose largest single allocation must stay
/// within [`ALLOC_FACTOR`] × `bytes.len()` + [`ALLOC_SLACK`]. A value must
/// re-encode to bytes that decode and re-encode to the same bytes again;
/// returns whether it decoded.
fn decodes_stably<T: DiskCodec>(bytes: &[u8]) -> bool {
    let (decoded, peak) = largest_allocation(|| T::decode(&mut Reader::new(bytes)));
    assert!(
        peak <= ALLOC_FACTOR * bytes.len() + ALLOC_SLACK,
        "{}: decoding {} bytes allocated {peak} bytes at once",
        std::any::type_name::<T>(),
        bytes.len()
    );
    let Some(value) = decoded else {
        return false;
    };
    let mut once = Vec::new();
    value.encode(&mut once);
    let again = T::decode(&mut Reader::new(&once)).unwrap_or_else(|| {
        panic!(
            "{}: a decoded value's encoding does not decode",
            std::any::type_name::<T>()
        )
    });
    let mut twice = Vec::new();
    again.encode(&mut twice);
    assert!(
        once == twice,
        "{}: a decoded value changed in its round trip",
        std::any::type_name::<T>()
    );
    true
}

/// One valid disk entry and the checked decode of its codec.
struct Entry {
    name: &'static str,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> bool,
}

fn entry<T: DiskCodec>(value: &T) -> Entry {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    let name = std::any::type_name::<T>();
    assert!(decodes_stably::<T>(&bytes), "{name}: a valid entry decodes");
    Entry {
        name,
        bytes,
        decode: decodes_stably::<T>,
    }
}

/// A valid entry of every `DiskCodec`, from `program`'s builds and runs.
fn entries(program: &Program) -> Vec<Entry> {
    let opts = BuildOptions::default();
    let pipeline = Pipeline::new(program, opts.clone());
    let compiled = pipeline.compile_stage(pipeline.analyze_stage(), InstrumentConfig::FULL, None);
    let snapshot = pipeline
        .snapshot_stage(&compiled, &opts.heap_instrumented)
        .expect("snapshot builds");
    let ids = assign_ids(program, &snapshot, HeapStrategy::HeapPath);
    let built = pipeline
        .build_instrumented(InstrumentConfig::FULL)
        .expect("builds");
    let run: LoggedRun = pipeline
        .run_logged(
            RunParts::new(&built.compiled, &built.snapshot, &built.image),
            StopWhen::Exit,
        )
        .expect("runs");
    let lowered = LoweredProgram::new(program, &compiled, opts.vm.max_paths);
    let shard = (0..compiled.cus.len() as u32)
        .map(|cu| lowered.extract_shard(program, &compiled, nimage_compiler::CuId(cu)))
        .max_by_key(|s| s.methods.len())
        .expect("a CU");
    let engine = Engine::default();
    let spec = WorkloadSpec::new("codecs", program, opts, StopWhen::Exit);
    let artifacts = engine.profile_workload(&spec).expect("profiles");
    let plan = engine
        .layout_plan(&spec, &artifacts, Strategy::CuClusteredPlusHeapPath)
        .expect("plans");
    assert!(plan.cu_order.is_some() && plan.object_order.is_some() && plan.predicted.is_some());
    vec![
        entry(&compiled),
        entry(&snapshot),
        entry(&ids),
        entry(&run.0.faults),
        entry(&run.0),
        entry(&run.1),
        entry(&run),
        entry(&*artifacts),
        entry(&plan),
        entry(&shard),
    ]
}

/// `n` positions spread evenly over `0..len`.
fn sampled(len: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n.min(len)).map(move |i| i * len / n.min(len))
}

/// Damages `entries` and checks each damaged copy decodes stably or not
/// at all.
fn damage(entries: &[Entry]) {
    for (i, e) in entries.iter().enumerate() {
        assert!(e.bytes.len() > 8, "{}: entry too small to damage", e.name);
        for (k, at) in sampled(e.bytes.len(), SAMPLES).enumerate() {
            let mut bytes = e.bytes.clone();
            bytes[at] ^= 1 << (k % 8);
            (e.decode)(&bytes);
        }
        let cuts: Vec<usize> = if e.bytes.len() <= SMALL {
            (0..e.bytes.len()).collect()
        } else {
            sampled(e.bytes.len(), SAMPLES).collect()
        };
        for cut in cuts {
            (e.decode)(&e.bytes[..cut]);
        }
        // This entry's first half, the next entry's second half.
        let other = &entries[(i + 1) % entries.len()].bytes;
        let mut spliced = e.bytes[..e.bytes.len() / 2].to_vec();
        spliced.extend_from_slice(&other[other.len() / 2..]);
        (e.decode)(&spliced);
    }
}

/// The synthetic program's entries are small enough to truncate at every
/// length; small-scale Bounce's have realistic sizes and heap-id maps.
#[test]
fn mutated_entries_decode_or_reject_without_panicking() {
    damage(&entries(&program(3, 24)));
    damage(&entries(&Awfy::Bounce.program_at(&RuntimeScale::small())));
}

/// A heap snapshot of one empty array whose element type nests `depth`
/// array levels: one tag byte `5` per level, then `Int`.
fn nested_array_snapshot(depth: usize) -> Vec<u8> {
    let mut bytes = 1u32.to_le_bytes().to_vec();
    bytes.push(1);
    bytes.extend(std::iter::repeat_n(5u8, depth));
    bytes.push(1);
    // No elements, statics, interned strings, entries or folded objects.
    bytes.extend_from_slice(&[0; 20]);
    bytes
}

/// An element type nested deeper than the decoder's bound is rejected.
/// Unbounded, 100 000 levels decode, and dropping the type overflows the
/// 2 MiB stack the engine's workers run on.
#[test]
fn deeply_nested_array_types_are_rejected() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let shallow = nested_array_snapshot(8);
            assert!(HeapSnapshot::decode(&mut Reader::new(&shallow)).is_some());
            let deep = nested_array_snapshot(100_000);
            assert!(HeapSnapshot::decode(&mut Reader::new(&deep)).is_none());
        })
        .unwrap()
        .join()
        .unwrap();
}
