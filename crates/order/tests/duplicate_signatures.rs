//! What every signature join does when two methods share a signature.
//!
//! Signatures (`owner.name(arity)`) are the build-stable join keys of the
//! profiles, but nothing makes them unique: two methods of one class with
//! the same name and arity render alike. None of the bundled programs has
//! such a pair, so this hand-built program pins the behaviour of each join
//! on one:
//!
//! * *cu* ordering places the **last** CU in default order whose root has
//!   the signature;
//! * *method* ordering places the **first** CU in default order containing
//!   a method with the signature;
//! * trace replay decodes a path record against the method with the
//!   **higher** `MethodId`;
//! * a call-count profile answers the **merged** count for both methods.

use std::collections::HashMap;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, CompiledProgram, InlineConfig, InstrumentConfig, ProgramIndex};
use nimage_heap::{snapshot, HeapBuildConfig, ObjId};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_ir::{MethodId, Program, ProgramBuilder, TypeRef};
use nimage_order::{
    order_cus_split, replay_first_access, CodeGranularity, CodeOrderProfile, ReplayError,
};
use nimage_profiler::{ThreadTrace, Trace, TraceRecord};
use nimage_vm::{StopWhen, Vm, VmConfig};

const TWIN: &str = "t.Dup.twin(0)";

/// `t.Dup` with two static `twin()` methods: the first returns a constant,
/// the second reads a field (one heap-access site). `main` calls the first
/// once and the second twice.
fn twins() -> (Program, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let boxed = pb.add_class("t.Box", None);
    let v = pb.add_instance_field(boxed, "v", TypeRef::Int);
    let dup = pb.add_class("t.Dup", None);
    let lo = pb.declare_static(dup, "twin", &[], Some(TypeRef::Int));
    let hi = pb.declare_static(dup, "twin", &[], Some(TypeRef::Int));
    let main = pb.declare_static(dup, "main", &[], Some(TypeRef::Int));

    let mut f = pb.body(lo);
    let one = f.iconst(1);
    f.ret(Some(one));
    pb.finish_body(lo, f);

    let mut f = pb.body(hi);
    let o = f.new_object(boxed);
    let x = f.get_field(o, v);
    f.ret(Some(x));
    pb.finish_body(hi, f);

    let mut f = pb.body(main);
    let a = f.call_static(lo, &[], true).unwrap();
    let b = f.call_static(hi, &[], true).unwrap();
    let c = f.call_static(hi, &[], true).unwrap();
    let s = f.add(a, b);
    let s = f.add(s, c);
    f.ret(Some(s));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();
    assert_eq!(p.method_signature(lo), TWIN);
    assert_eq!(p.method_signature(hi), TWIN);
    (p, lo, hi)
}

/// Compiled without inlining: every called method roots its own CU.
fn compiled(index: &ProgramIndex<'_>) -> CompiledProgram {
    let reach = analyze(index.program(), &AnalysisConfig::default());
    let cfg = InlineConfig {
        inline_threshold: 0,
        ..InlineConfig::default()
    };
    compile(index, reach, &cfg, InstrumentConfig::NONE, None)
}

fn max_paths() -> u64 {
    VmConfig::default().max_paths
}

#[test]
fn cu_ordering_places_the_last_cu_whose_root_has_the_signature() {
    let (p, lo, hi) = twins();
    let index = ProgramIndex::new(&p, max_paths());
    let cp = compiled(&index);
    let (lo_cu, hi_cu) = (cp.cu_of_root(lo).unwrap(), cp.cu_of_root(hi).unwrap());
    assert!(
        lo_cu < hi_cu,
        "default order breaks the signature tie by root id"
    );
    let profile = CodeOrderProfile {
        sigs: vec![TWIN.to_string()],
    };
    let (order, hot) = order_cus_split(&index, &cp, &profile, CodeGranularity::Cu);
    assert_eq!(hot, 1);
    assert_eq!(order[0], hi_cu);
}

#[test]
fn method_ordering_places_the_first_cu_containing_the_signature() {
    let (p, lo, _) = twins();
    let index = ProgramIndex::new(&p, max_paths());
    let cp = compiled(&index);
    let profile = CodeOrderProfile {
        sigs: vec![TWIN.to_string()],
    };
    let (order, hot) = order_cus_split(&index, &cp, &profile, CodeGranularity::Method);
    assert_eq!(hot, 1);
    assert_eq!(order[0], cp.cu_of_root(lo).unwrap());
}

#[test]
fn replay_decodes_against_the_higher_method_id() {
    let (p, _, _) = twins();
    let trace = |obj_ids: Vec<u64>| Trace {
        strings: vec![TWIN.to_string()],
        threads: vec![ThreadTrace::from_records(vec![TraceRecord::Path {
            method: 0,
            start: 0,
            path_id: 0,
            obj_ids,
        }])],
    };
    let in_snapshot: HashMap<ObjId, u64> = [(ObjId(0), 0)].into();
    // The higher id's only path has one heap-access site; the lower id's
    // has none.
    let summary = replay_first_access(&p, &trace(vec![1]), &in_snapshot, max_paths()).unwrap();
    assert_eq!(summary.object_order, vec![ObjId(0)]);
    match replay_first_access(&p, &trace(vec![]), &in_snapshot, max_paths()) {
        Err(ReplayError::IdCountMismatch {
            method,
            stored: 0,
            expected: 1,
        }) => assert_eq!(method, TWIN),
        other => panic!("expected an id-count mismatch, got {other:?}"),
    }
}

#[test]
fn call_counts_merge_both_methods() {
    let (p, lo, hi) = twins();
    let index = ProgramIndex::new(&p, max_paths());
    let cp = compiled(&index);
    let snap = snapshot(&index, &cp, &HeapBuildConfig::default()).unwrap();
    let image = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    let report = Vm::new(&p, &cp, &snap, &image, VmConfig::default())
        .run(StopWhen::Exit)
        .unwrap();
    assert_eq!(report.call_counts.count(&index, lo), 3);
    assert_eq!(report.call_counts.count(&index, hi), 3);
}
