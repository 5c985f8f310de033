//! Property tests for the fine-grained disk codecs: the compiled program,
//! the heap snapshot and the `baseline-run` entry (a run report plus its
//! access log) must round-trip bit-exactly through their `DiskCodec`
//! encodings for any pipeline-producible artifact, and the decoders must
//! be total — arbitrary or truncated bytes are rejected, never a panic or
//! an oversized allocation.

use proptest::prelude::*;

use nimage_compiler::{CompiledProgram, InstrumentConfig};
use nimage_core::diskcache::Reader;
use nimage_core::{BuildOptions, DiskCodec, Pipeline, ProfiledArtifacts, RunParts};
use nimage_heap::HeapSnapshot;
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_vm::{AccessLog, RunReport, StopWhen, Touch};

/// The `baseline-run` disk entry.
type LoggedRun = (RunReport, AccessLog);

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
}
