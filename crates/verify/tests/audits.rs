//! Seeded-violation tests for the three paper-assumption audits: PEA fold
//! soundness, clinit purity (static vs. dynamic effects), and the
//! reachability cross-check. Each audit gets at least one fabricated
//! violation it must flag and a clean fixture it must pass.

use std::collections::HashSet;

use nimage_analysis::{analyze, AnalysisConfig, CallGraph};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig};
use nimage_heap::{
    run_initializers_logged, snapshot, ClinitEffects, EffectLog, HeapBuildConfig, HeapSnapshot,
    ObjId, StepBudget,
};
use nimage_ir::{Intrinsic, MethodId, Program, ProgramBuilder, TypeRef};
use nimage_profiler::{ThreadTrace, Trace, TraceRecord};
use nimage_verify::{
    pea::check_pea_soundness,
    purity::{check_clinit_purity, check_effect_log, effect_summaries},
    reachcheck::check_reachability,
    Diagnostic, Severity,
};

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

// ---------------------------------------------------------------------------
// PEA fold soundness

/// A clinit building a small aliased object graph:
///
/// ```text
/// Holder.A ──► a ──next──► shared ◄──next── b ◄── Holder.B
///              └──alt───► solo
/// ```
///
/// `solo` has in-degree 1 (the only sound fold candidate); `shared` has
/// in-degree 2; `a` and `b` are root-reachable with in-degree 0.
fn alias_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let node = pb.add_class("q.Node", None);
    let next = pb.add_instance_field(node, "next", TypeRef::Object(node));
    let alt = pb.add_instance_field(node, "alt", TypeRef::Object(node));
    let holder = pb.add_class("q.Holder", None);
    let fa = pb.add_static_field(holder, "A", TypeRef::Object(node));
    let fb = pb.add_static_field(holder, "B", TypeRef::Object(node));
    let cl = pb.declare_clinit(holder);
    let mut f = pb.body(cl);
    let a = f.new_object(node);
    let b = f.new_object(node);
    let shared = f.new_object(node);
    let solo = f.new_object(node);
    f.put_field(a, next, shared);
    f.put_field(b, next, shared);
    f.put_field(a, alt, solo);
    f.put_static(fa, a);
    f.put_static(fb, b);
    f.ret(None);
    pb.finish_body(cl, f);
    let mc = pb.add_class("q.Main", None);
    let main = pb.declare_static(mc, "main", &[], None);
    let mut f = pb.body(main);
    let _ = f.get_static(fa);
    let _ = f.get_static(fb);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().expect("structurally valid")
}

fn alias_snapshot(p: &Program) -> HeapSnapshot {
    let reach = analyze(p, &AnalysisConfig::default());
    let cp = compile(
        p,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    snapshot(p, &cp, &HeapBuildConfig::default()).expect("snapshot")
}

/// Rebuilds `snap` with every object satisfying `pick` force-folded —
/// removed from the entry list and recorded in the folded set — bypassing
/// the folding pass's own eligibility filter.
fn force_fold(p: &Program, snap: &HeapSnapshot, pick: &dyn Fn(u32) -> bool) -> HeapSnapshot {
    let mut folded: HashSet<ObjId> = snap.folded().clone();
    let entries: Vec<_> = snap
        .entries()
        .iter()
        .filter(|e| {
            if pick(count_inbound(p, snap, e.obj)) {
                folded.insert(e.obj);
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    HeapSnapshot::from_parts(snap.heap().clone(), entries, folded)
}

fn count_inbound(_p: &Program, snap: &HeapSnapshot, obj: ObjId) -> u32 {
    let mut n = 0;
    for e in snap.entries() {
        for (_, child) in snap.heap().get(e.obj).references() {
            if child == obj {
                n += 1;
            }
        }
    }
    n
}

#[test]
fn sound_single_use_fold_passes() {
    let p = alias_program();
    let snap = alias_snapshot(&p);
    // Fold only `solo` (in-degree exactly 1, non-root).
    let snap = force_fold(&p, &snap, &|inbound| inbound == 1);
    assert!(!snap.folded().is_empty(), "fixture folded nothing");
    let diags = check_pea_soundness(&p, &snap);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn aliased_fold_is_flagged() {
    let p = alias_program();
    let snap = alias_snapshot(&p);
    // Fold `shared` (in-degree 2): two surviving objects still point at it.
    let snap = force_fold(&p, &snap, &|inbound| inbound == 2);
    let diags = check_pea_soundness(&p, &snap);
    assert_eq!(codes(&diags), vec!["pea::aliased-fold"], "{diags:?}");
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("2 inbound references"));
}

#[test]
fn root_only_fold_is_flagged() {
    let p = alias_program();
    let snap = alias_snapshot(&p);
    // Fold the root-reachable `a`/`b` (in-degree 0): the static fields'
    // materialized pointers would dangle.
    let snap = force_fold(&p, &snap, &|inbound| inbound == 0);
    let diags = check_pea_soundness(&p, &snap);
    assert!(!diags.is_empty());
    assert!(
        diags.iter().all(|d| d.code == "pea::folded-root"),
        "{diags:?}"
    );
}

#[test]
fn folded_but_still_listed_is_flagged() {
    let p = alias_program();
    let snap = alias_snapshot(&p);
    // Mark an object folded without removing its entry.
    let victim = snap.entries()[0].obj;
    let mut folded = snap.folded().clone();
    folded.insert(victim);
    let snap = HeapSnapshot::from_parts(snap.heap().clone(), snap.entries().to_vec(), folded);
    let diags = check_pea_soundness(&p, &snap);
    assert!(codes(&diags).contains(&"pea::folded-entry"), "{diags:?}");
}

#[test]
fn pipeline_folds_are_audited_clean() {
    // The real folding pass (optimized config) must produce only folds the
    // audit accepts.
    let p = alias_program();
    let reach = analyze(&p, &AnalysisConfig::default());
    let cp = compile(
        &p,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    let cfg = HeapBuildConfig {
        pea_fold: true,
        pea_fold_ratio: 1,
        ..HeapBuildConfig::default()
    };
    let snap = snapshot(&p, &cp, &cfg).expect("snapshot");
    let diags = check_pea_soundness(&p, &snap);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// Clinit purity

/// Two classes in one parallel-init group communicating through a static
/// field: `P.<clinit>` writes `P.F`, `Q.<clinit>` reads it — the snapshot
/// depends on which runs first.
fn order_dependent_program() -> (Program, Vec<MethodId>) {
    let mut pb = ProgramBuilder::new();
    let pc = pb.add_class("g.P", None);
    let f_shared = pb.add_static_field(pc, "F", TypeRef::Int);
    let p_init = pb.declare_clinit(pc);
    let mut f = pb.body(p_init);
    let one = f.iconst(1);
    f.put_static(f_shared, one);
    f.ret(None);
    pb.finish_body(p_init, f);

    let qc = pb.add_class("g.Q", None);
    let f_own = pb.add_static_field(qc, "G", TypeRef::Int);
    let q_init = pb.declare_clinit(qc);
    let mut f = pb.body(q_init);
    let v = f.get_static(f_shared);
    f.put_static(f_own, v);
    f.ret(None);
    pb.finish_body(q_init, f);

    // Same parallel-init group → permutable by the snapshot stage.
    pb.set_init_group(qc, 0);
    pb.set_init_group(pc, 0);

    let mc = pb.add_class("g.Main", None);
    let main = pb.declare_static(mc, "main", &[], None);
    let mut f = pb.body(main);
    let _ = f.get_static(f_own);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().expect("structurally valid");
    (p, vec![p_init, q_init])
}

#[test]
fn order_dependent_group_is_flagged_as_warning() {
    let (p, inits) = order_dependent_program();
    let cg = CallGraph::build(&p);
    let summaries = effect_summaries(&p, &cg);
    let diags = check_clinit_purity(&p, &inits, &summaries);
    let od: Vec<_> = diags
        .iter()
        .filter(|d| d.code == "clinit::order-dependent")
        .collect();
    assert_eq!(od.len(), 1, "{diags:?}");
    assert_eq!(od[0].severity, Severity::Warning);
    assert!(od[0].entity.contains("g.P.F"), "{:?}", od[0]);
}

#[test]
fn impure_initializer_effects_are_classified() {
    // One clinit with every impure effect: writes another class's static,
    // writes a foreign object's field, performs build-time I/O, spawns.
    let mut pb = ProgramBuilder::new();
    let node = pb.add_class("i.Node", None);
    let val = pb.add_instance_field(node, "v", TypeRef::Int);
    let owner = pb.add_class("i.Owner", None);
    let f_obj = pb.add_static_field(owner, "O", TypeRef::Object(node));
    let f_other = pb.add_static_field(owner, "X", TypeRef::Int);
    let o_init = pb.declare_clinit(owner);
    let mut f = pb.body(o_init);
    let o = f.new_object(node);
    f.put_static(f_obj, o);
    f.ret(None);
    pb.finish_body(o_init, f);

    let bad = pb.add_class("i.Bad", None);
    let b_init = pb.declare_clinit(bad);
    let worker = pb.declare_static(bad, "work", &[], None);
    let mut f = pb.body(worker);
    f.ret(None);
    pb.finish_body(worker, f);
    let mut f = pb.body(b_init);
    let one = f.iconst(1);
    f.put_static(f_other, one); // foreign static write
    let o = f.get_static(f_obj); // foreign object …
    f.put_field(o, val, one); // … written
    f.intrinsic(Intrinsic::Respond, &[one], false); // build-time I/O
    f.spawn(worker, &[]); // build-time spawn
    f.ret(None);
    pb.finish_body(b_init, f);

    let mc = pb.add_class("i.Main", None);
    let main = pb.declare_static(mc, "main", &[], None);
    let mut f = pb.body(main);
    let _ = f.get_static(f_obj);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().expect("structurally valid");

    let cg = CallGraph::build(&p);
    let summaries = effect_summaries(&p, &cg);
    let diags = check_clinit_purity(&p, &[o_init, b_init], &summaries);
    let got = codes(&diags);
    for want in [
        "clinit::foreign-static-write",
        "clinit::escaped-heap-write",
        "clinit::build-time-io",
        "clinit::spawn",
    ] {
        assert!(got.contains(&want), "missing {want} in {got:?}");
    }
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn unpredicted_dynamic_effect_is_an_error() {
    let (p, inits) = order_dependent_program();
    let cg = CallGraph::build(&p);
    let summaries = effect_summaries(&p, &cg);
    // Fabricate a log claiming the first clinit performed I/O — the static
    // summary says it cannot.
    let log = EffectLog {
        per_init: vec![(
            inits[0],
            ClinitEffects {
                io_events: 1,
                ..ClinitEffects::default()
            },
        )],
    };
    let diags = check_effect_log(&p, &summaries, &log);
    assert_eq!(codes(&diags), vec!["clinit::effects-unsound"], "{diags:?}");
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn static_summaries_cover_real_execution() {
    // Run the real build-time interpreter with effect logging and check
    // the static summaries over-approximate everything it observed.
    for p in [alias_program(), order_dependent_program().0] {
        let reach = analyze(&p, &AnalysisConfig::default());
        let inits: Vec<MethodId> = nimage_heap::init_order(&p, &reach, &HeapBuildConfig::default());
        let (_heap, log) =
            run_initializers_logged(&p, &inits, StepBudget::default()).expect("inits run");
        let cg = CallGraph::build(&p);
        let summaries = effect_summaries(&p, &cg);
        let diags = check_effect_log(&p, &summaries, &log);
        assert!(diags.is_empty(), "{diags:?}");
    }
}

// ---------------------------------------------------------------------------
// Reachability cross-check

#[test]
fn trace_escape_and_unknown_cu_are_errors() {
    let p = alias_program();
    let reach = analyze(&p, &AnalysisConfig::default());
    let cp = compile(
        &p,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::FULL,
        None,
    );

    let trace = Trace {
        strings: vec![
            "ghost.Phantom.run()".to_string(),
            "ghost.Phantom.cu()".to_string(),
        ],
        threads: vec![ThreadTrace::from_records([
            TraceRecord::MethodEntry { sig: 0 },
            TraceRecord::CuEntry { sig: 1 },
        ])],
    };
    let diags = check_reachability(&p, &cp, &trace);
    let got = codes(&diags);
    assert!(got.contains(&"reach::trace-escape"), "{diags:?}");
    assert!(got.contains(&"reach::unknown-cu"), "{diags:?}");
    assert!(diags
        .iter()
        .filter(|d| d.code.starts_with("reach::"))
        .all(|d| d.severity == Severity::Error || d.code == "reach::cold-cu"));
}

/// A program with two run-time methods and inlining off, so the compile
/// stage produces one CU per method.
fn two_cu_parts() -> (Program, nimage_compiler::CompiledProgram) {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("r.Main", None);
    let helper = pb.declare_static(c, "helper", &[], Some(TypeRef::Int));
    let mut f = pb.body(helper);
    let v = f.iconst(7);
    f.ret(Some(v));
    pb.finish_body(helper, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = f.call_static(helper, &[], true).expect("ret");
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().expect("structurally valid");
    let reach = analyze(&p, &AnalysisConfig::default());
    let inline = InlineConfig {
        inline_threshold: 0,
        ..InlineConfig::default()
    };
    let cp = compile(&p, reach, &inline, InstrumentConfig::FULL, None);
    (p, cp)
}

#[test]
fn cold_cus_are_reported_once_as_layout_waste() {
    let (p, cp) = two_cu_parts();
    let roots = cp.root_signatures(&p);
    assert!(roots.len() >= 2, "fixture needs ≥2 CUs, got {roots:?}");

    // Enter exactly one CU; the rest are cold.
    let trace = Trace {
        strings: vec![roots[0].clone()],
        threads: vec![ThreadTrace::from_records([TraceRecord::CuEntry { sig: 0 }])],
    };
    let diags = check_reachability(&p, &cp, &trace);
    let cold: Vec<_> = diags
        .iter()
        .filter(|d| d.code == "reach::cold-cu")
        .collect();
    assert_eq!(cold.len(), 1, "{diags:?}");
    assert_eq!(cold[0].severity, Severity::Warning);
    assert!(
        cold[0]
            .message
            .contains(&format!("{} of {} CUs", roots.len() - 1, roots.len())),
        "{:?}",
        cold[0]
    );
    assert!(!codes(&diags).contains(&"reach::unknown-cu"));
}

#[test]
fn consistent_trace_is_clean() {
    let (p, cp) = two_cu_parts();
    let roots = cp.root_signatures(&p);
    let main_sig = p.method_signature(p.entry.expect("entry"));
    assert!(roots.contains(&main_sig));
    let trace = Trace {
        strings: vec![main_sig],
        threads: vec![ThreadTrace::from_records([
            TraceRecord::CuEntry { sig: 0 },
            TraceRecord::MethodEntry { sig: 0 },
        ])],
    };
    let diags = check_reachability(&p, &cp, &trace);
    let errors: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{errors:?}");
}

/// A forged two-thread trace over [`two_cu_parts`]: thread 0 has a path
/// record before its CU entry (record 1), an unreachable method, an
/// out-of-range string index at record 3 (when `bad_index`), and a CU
/// entry for a signature that is no CU root; thread 1 has its own
/// path-before-CU-entry at record 0.
fn forged_lint_trace(p: &Program, bad_index: bool) -> Trace {
    let main = p.entry.expect("entry");
    let helper = (0..p.methods().len())
        .map(MethodId::from)
        .find(|&m| m != main && p.method_signature(m).contains("helper"))
        .expect("helper");
    let path = |method: u32, obj_ids: Vec<u64>| TraceRecord::Path {
        method,
        start: 0,
        path_id: 0,
        obj_ids,
    };
    let mut t0 = vec![
        TraceRecord::CuEntry { sig: 0 },
        path(1, vec![]),
        TraceRecord::MethodEntry { sig: 2 },
        TraceRecord::CuEntry { sig: 9 },
        TraceRecord::CuEntry { sig: 1 },
        path(1, vec![1, 0, 2]),
        TraceRecord::CuEntry { sig: 3 },
    ];
    if !bad_index {
        t0.remove(3);
    }
    let t1 = vec![
        path(0, vec![5]),
        TraceRecord::CuEntry { sig: 0 },
        path(0, vec![]),
    ];
    Trace {
        strings: vec![
            p.method_signature(main),
            p.method_signature(helper),
            "ghost.Phantom.run()".to_string(),
            "ghost.Phantom.cu()".to_string(),
        ],
        threads: vec![ThreadTrace::from_records(t0), ThreadTrace::from_records(t1)],
    }
}

fn rendered(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .map(|d| format!("{:?} {} [{}] {}", d.severity, d.code, d.entity, d.message))
        .collect()
}

/// `check_trace` and `check_reachability` on a forged trace: codes,
/// entities, messages and `record {i}` numbering are pinned.
#[test]
fn trace_lint_output_is_pinned() {
    let (p, cp) = two_cu_parts();
    let trace_diags = nimage_verify::pipeline::check_trace(&forged_lint_trace(&p, true));
    let reach_diags = check_reachability(&p, &cp, &forged_lint_trace(&p, false));
    assert_eq!(
        rendered(&trace_diags),
        [
            "Warning profile::order [thread 0] path event for r.Main.helper(0) at record 1 \
             precedes its CU entry",
            "Error profile::string-index [thread 0] record 3 references string 9, table has 4",
            "Warning profile::order [thread 1] path event for r.Main.main(0) at record 0 \
             precedes its CU entry",
        ]
    );
    assert_eq!(
        rendered(&reach_diags),
        [
            "Error reach::unknown-cu [ghost.Phantom.cu()] thread 0 entered a CU that is not a \
             root of this build",
            "Error reach::trace-escape [ghost.Phantom.run()] method was entered at run time but \
             is not in the compiled reachable set; the reachability analysis under-approximated",
        ]
    );
}

/// A record whose string index is out of range is `check_trace`'s finding
/// (`profile::string-index`); `check_reachability` skips it rather than
/// panicking, and reports the rest of the trace as usual.
#[test]
fn reachability_skips_out_of_range_string_indices() {
    let (p, cp) = two_cu_parts();
    let diags = check_reachability(&p, &cp, &forged_lint_trace(&p, true));
    assert_eq!(
        rendered(&diags),
        [
            "Error reach::unknown-cu [ghost.Phantom.cu()] thread 0 entered a CU that is not a \
             root of this build",
            "Error reach::trace-escape [ghost.Phantom.run()] method was entered at run time but \
             is not in the compiled reachable set; the reachability analysis under-approximated",
        ]
    );
}
