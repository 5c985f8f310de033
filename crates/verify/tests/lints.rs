//! Lint tests: one hand-crafted bad program per lint, the seeded
//! acceptance case (overlapping placement + use-before-def), and a
//! property test that every builder-produced workload lints error-free.

use proptest::prelude::*;

use nimage_analysis::{analyze, AnalysisConfig, CallSite};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig};
use nimage_heap::{snapshot, HeapBuildConfig};
use nimage_ir::{Instr, Local, MethodId, Program, ProgramBuilder, TypeRef};
use nimage_order::{assign_ids, order_objects, HeapOrderProfile, HeapStrategy};
use nimage_verify::{
    audit_determinism, audit_profiling_determinism,
    determinism::DeterminismInputs,
    has_errors, irlint,
    pipeline::{
        audit_ids, check_layout, check_matching, check_trace, id_collision_diagnostics, LayoutView,
        Placement,
    },
    Severity,
};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn codes(diags: &[nimage_verify::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// `main` reads a local that is never assigned on any path.
fn use_before_def_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Main", None);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let unset = f.local();
    let v = f.add(unset, unset);
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().expect("structurally valid")
}

#[test]
fn use_before_def_fires() {
    let diags = irlint::lint_program(&use_before_def_program());
    assert!(codes(&diags).contains(&"ir::use-before-def"), "{diags:?}");
    assert!(has_errors(&diags));
}

#[test]
fn branch_local_dataflow_is_path_sensitive() {
    // Assigned in only one branch → flagged after the join.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Branch", None);
    let flag = pb.add_static_field(c, "F", TypeRef::Bool);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = f.local();
    let cond = f.get_static(flag);
    let then_blk = f.new_block();
    let join = f.new_block();
    f.br(cond, then_blk, join);
    f.switch_to(then_blk);
    let one = f.iconst(1);
    f.assign(v, one);
    f.jump(join);
    f.switch_to(join);
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    let diags = irlint::lint_program(&program);
    assert!(codes(&diags).contains(&"ir::use-before-def"), "{diags:?}");

    // Assigned in both branches → clean.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("good.Branch", None);
    let flag = pb.add_static_field(c, "F", TypeRef::Bool);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = f.local();
    let cond = f.get_static(flag);
    let then_blk = f.new_block();
    let else_blk = f.new_block();
    let join = f.new_block();
    f.br(cond, then_blk, else_blk);
    f.switch_to(then_blk);
    let one = f.iconst(1);
    f.assign(v, one);
    f.jump(join);
    f.switch_to(else_blk);
    let two = f.iconst(2);
    f.assign(v, two);
    f.jump(join);
    f.switch_to(join);
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    assert!(!has_errors(&irlint::lint_program(&program)));
}

#[test]
fn unreachable_block_warns_without_error() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Unreach", None);
    let main = pb.declare_static(c, "main", &[], None);
    let mut f = pb.body(main);
    f.ret(None);
    let island = f.new_block();
    f.switch_to(island);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    let diags = irlint::lint_program(&program);
    let unreachable: Vec<_> = diags
        .iter()
        .filter(|d| d.code == "ir::unreachable-block")
        .collect();
    assert_eq!(unreachable.len(), 1, "{diags:?}");
    assert_eq!(unreachable[0].severity, Severity::Warning);
    assert!(!has_errors(&diags));
}

#[test]
fn dead_store_warns_without_error() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Dead", None);
    let main = pb.declare_static(c, "main", &[], None);
    let mut f = pb.body(main);
    let _unused = f.iconst(42);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    let diags = irlint::lint_program(&program);
    assert!(codes(&diags).contains(&"ir::dead-store"), "{diags:?}");
    assert!(!has_errors(&diags));
}

/// Pins the dead-store warning count on Bounce at evaluation scale: the
/// 125 warnings that used to come from builder-generated class
/// initializers are suppressed (the lint is scoped to hand-reachable
/// code), leaving only the genuine discarded-binding sites.
#[test]
fn dead_store_lint_skips_generated_clinits_on_bounce() {
    let program = Awfy::Bounce.program();
    let diags = irlint::lint_program(&program);
    let dead: Vec<_> = diags
        .iter()
        .filter(|d| d.code == "ir::dead-store")
        .collect();
    assert!(
        dead.iter().all(|d| !d.entity.contains("<clinit>")),
        "clinit dead stores must be suppressed: {dead:?}"
    );
    assert_eq!(dead.len(), 3, "{dead:?}");
}

#[test]
fn call_arity_and_void_result_errors() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Calls", None);
    let unary = pb.declare_static(c, "unary", &[TypeRef::Int], Some(TypeRef::Int));
    let mut f = pb.body(unary);
    f.ret(Some(f.param(0)));
    pb.finish_body(unary, f);
    let void = pb.declare_static(c, "void", &[], None);
    let mut f = pb.body(void);
    f.ret(None);
    pb.finish_body(void, f);
    let main = pb.declare_static(c, "main", &[], None);
    let mut f = pb.body(main);
    f.call_static(unary, &[], true); // missing argument
    let got = f.call_static(void, &[], true).unwrap(); // void result stored
    let two = f.add(got, got);
    let _ = f.add(two, two);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    let diags = irlint::lint_program(&program);
    assert!(codes(&diags).contains(&"ir::call-arity"), "{diags:?}");
    assert!(codes(&diags).contains(&"ir::call-ret"), "{diags:?}");
}

#[test]
fn field_kind_polarity_errors() {
    // `ir::validate` rejects kind-confused field accesses at build time, so a
    // program like this cannot come out of the builder; the lint exists as
    // defense in depth for IR produced outside the validated path. Build a
    // valid program, then hand-mutate a copy of the method body.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Fields", None);
    let stat = pb.add_static_field(c, "S", TypeRef::Int);
    let inst = pb.add_instance_field(c, "i", TypeRef::Int);
    let main = pb.declare_static(c, "main", &[], None);
    let mut f = pb.body(main);
    let obj = f.new_object(c);
    let _ = f.get_static(stat); // correct polarity: validates
    let _ = f.get_field(obj, inst);
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");

    let mut bad = program.method(main).clone();
    for instr in &mut bad.blocks[0].instrs {
        match instr {
            Instr::GetStatic(dst, fid) if *fid == stat => {
                *instr = Instr::GetField(*dst, Local(0), stat); // instance access to static field
            }
            Instr::GetField(dst, _, fid) if *fid == inst => {
                *instr = Instr::GetStatic(*dst, inst); // static access to instance field
            }
            _ => {}
        }
    }
    let mut diags = Vec::new();
    irlint::lint_method(&program, main, &bad, &mut diags);
    let kinds = diags.iter().filter(|d| d.code == "ir::field-kind").count();
    assert_eq!(kinds, 2, "{diags:?}");
}

#[test]
fn ret_mismatch_on_reachable_blocks_only() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("bad.Ret", None);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    f.ret(None); // declared to return Int
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");
    let diags = irlint::lint_program(&program);
    assert!(codes(&diags).contains(&"ir::ret-mismatch"), "{diags:?}");
}

#[test]
fn vtable_lint_accepts_real_analysis_and_rejects_bogus_targets() {
    let mut pb = ProgramBuilder::new();
    let base = pb.add_class("v.Base", None);
    let derived = pb.add_class("v.Derived", Some(base));
    let m_base = pb.declare_virtual(base, "step", &[], Some(TypeRef::Int));
    let mut f = pb.body(m_base);
    let one = f.iconst(1);
    f.ret(Some(one));
    pb.finish_body(m_base, f);
    let m_derived = pb.declare_virtual(derived, "step", &[], Some(TypeRef::Int));
    let mut f = pb.body(m_derived);
    let two = f.iconst(2);
    f.ret(Some(two));
    pb.finish_body(m_derived, f);
    let selector = pb.intern_selector("step", 0);
    let helper = pb.declare_static(base, "helper", &[], None);
    let mut f = pb.body(helper);
    f.ret(None);
    pb.finish_body(helper, f);
    let main = pb.declare_static(base, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let recv = f.new_object(derived);
    let v = f.call_virtual(base, selector, &[recv], true).unwrap();
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("structurally valid");

    let mut reach = analyze(&program, &AnalysisConfig::default());
    assert!(
        !reach.virtual_targets.is_empty(),
        "analysis records the virtual site"
    );
    assert!(!has_errors(&irlint::lint_virtual_targets(&program, &reach)));

    // Corrupt the analysis: record the static helper as a devirtualization
    // target of the site.
    let site = *reach.virtual_targets.keys().next().unwrap();
    reach.virtual_targets.get_mut(&site).unwrap().push(helper);
    let diags = irlint::lint_virtual_targets(&program, &reach);
    assert!(codes(&diags).contains(&"ir::vtable"), "{diags:?}");

    // And a site pointing at a non-call instruction.
    let mut reach2 = analyze(&program, &AnalysisConfig::default());
    reach2.virtual_targets.insert(
        CallSite {
            method: MethodId(0),
            block: 0,
            instr: 0,
        },
        vec![m_base],
    );
    assert!(has_errors(&irlint::lint_virtual_targets(&program, &reach2)));
}

fn place(label: &str, offset: u64, size: u64) -> Placement {
    Placement {
        label: label.to_string(),
        offset,
        size,
    }
}

fn clean_view() -> LayoutView {
    LayoutView {
        page_size: 4096,
        text_offset: 0,
        text_size: 8192,
        heap_offset: 8192,
        heap_size: 4096,
        native_start: 4096,
        cus: vec![place("a", 0, 100), place("b", 128, 200)],
        objects: vec![place("o0", 8192, 64), place("o1", 8256, 32)],
        expected_cus: 2,
        expected_objects: 2,
    }
}

#[test]
fn clean_layout_passes() {
    assert!(check_layout(&clean_view()).is_empty());
}

#[test]
fn layout_overlap_and_alignment_detected() {
    let mut v = clean_view();
    v.cus = vec![place("a", 0, 200), place("b", 128, 200)]; // overlap
    let diags = check_layout(&v);
    assert!(codes(&diags).contains(&"layout::overlap"), "{diags:?}");

    let mut v = clean_view();
    v.heap_offset = 8200; // not page-aligned, and leaves text unchanged
    let diags = check_layout(&v);
    assert!(codes(&diags).contains(&"layout::align"), "{diags:?}");

    let mut v = clean_view();
    v.cus[1] = place("b", 4000, 200); // reaches into the native tail
    let diags = check_layout(&v);
    assert!(codes(&diags).contains(&"layout::native-tail"), "{diags:?}");

    let mut v = clean_view();
    v.objects.pop(); // missing placement
    let diags = check_layout(&v);
    assert!(codes(&diags).contains(&"layout::coverage"), "{diags:?}");

    let mut v = clean_view();
    v.objects[1] = place("o0", 8256, 32); // duplicate label
    let diags = check_layout(&v);
    assert!(codes(&diags).contains(&"layout::coverage"), "{diags:?}");
}

/// The ISSUE's acceptance case: a seeded bad program (use-before-def)
/// plus an overlapping placement must both surface as errors in one lint
/// pass.
#[test]
fn acceptance_seeded_bad_program_and_overlap_both_fire() {
    let mut diags = irlint::lint_program(&use_before_def_program());
    let mut view = clean_view();
    view.cus = vec![place("a", 0, 300), place("b", 128, 200)];
    diags.extend(check_layout(&view));

    let codes = codes(&diags);
    assert!(codes.contains(&"ir::use-before-def"), "{diags:?}");
    assert!(codes.contains(&"layout::overlap"), "{diags:?}");
    assert!(has_errors(&diags));
}

#[test]
fn trace_checks_string_indices_and_event_order() {
    use nimage_profiler::{Trace, TraceRecord};
    let trace = Trace {
        strings: vec!["a.M.run(0)".to_string()],
        threads: vec![vec![
            TraceRecord::Path {
                method: 0,
                start: 0,
                path_id: 0,
                obj_ids: vec![],
            },
            TraceRecord::CuEntry { sig: 0 },
            TraceRecord::CuEntry { sig: 7 }, // out of range
        ]],
    };
    let diags = check_trace(&trace);
    assert!(
        codes(&diags).contains(&"profile::string-index"),
        "{diags:?}"
    );
    let order: Vec<_> = diags
        .iter()
        .filter(|d| d.code == "profile::order")
        .collect();
    assert_eq!(order.len(), 1, "{diags:?}");
    assert_eq!(order[0].severity, Severity::Warning);
}

#[test]
fn id_audit_counts_collisions() {
    let audit = audit_ids([1u64, 2, 2, 2, 3, 3]);
    assert_eq!(audit.total, 6);
    assert_eq!(audit.distinct, 3);
    assert_eq!(audit.colliding, 2);
    assert_eq!(audit.max_multiplicity, 3);
    assert!(!id_collision_diagnostics(&audit, "test ids").is_empty());
    assert!(id_collision_diagnostics(&audit_ids([1u64, 2, 3]), "test ids").is_empty());
}

#[test]
fn matching_contract_verified_on_real_snapshot() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let reach = analyze(&program, &AnalysisConfig::default());
    let compiled = compile(
        &program,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    let snap = snapshot(&program, &compiled, &HeapBuildConfig::default()).expect("snapshot");
    let ids = assign_ids(&program, &snap, HeapStrategy::IncrementalId);
    assert!(snap.entries().len() >= 4, "snapshot too small for the test");

    // Rank two real identities, reversed relative to snapshot order.
    let o2 = snap.entries()[2].obj;
    let o0 = snap.entries()[0].obj;
    let profile = HeapOrderProfile {
        ids: vec![ids[&o2], ids[&o0]],
        spans: vec![],
    };
    let order = order_objects(&snap, &ids, &profile);
    assert!(
        check_matching(&snap, &ids, &profile, &order).is_empty(),
        "order_objects output satisfies its own contract"
    );

    // Swapping the matched prefix breaks rank order.
    let mut bad = order.clone();
    bad.swap(0, 1);
    let diags = check_matching(&snap, &ids, &profile, &bad);
    assert!(has_errors(&diags), "{diags:?}");

    // Truncation breaks the permutation requirement.
    let diags = check_matching(&snap, &ids, &profile, &order[1..]);
    assert!(codes(&diags).contains(&"match::permutation"), "{diags:?}");

    // Swapping two unmatched objects breaks default order.
    let mut bad = order.clone();
    let n = bad.len();
    bad.swap(n - 2, n - 1);
    let diags = check_matching(&snap, &ids, &profile, &bad);
    assert!(has_errors(&diags), "{diags:?}");
}

#[test]
fn determinism_audit_passes_on_builder_program() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let report = audit_determinism(&program, &DeterminismInputs::default());
    assert!(
        report.is_deterministic(),
        "default pipeline must be deterministic: {:?}",
        report.diagnostics
    );
}

#[test]
fn profiling_determinism_audit_passes_on_builder_program() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let report = audit_profiling_determinism(&program, nimage_vm::StopWhen::Exit);
    assert!(report.trace_identical);
    assert!(
        report.is_deterministic(),
        "profiling build must be deterministic: {:?}",
        report.diagnostics
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every builder-produced workload program lints error-free (warnings
    /// such as dead stores are expected; errors are not).
    #[test]
    fn awfy_workloads_lint_clean(idx in 0usize..17) {
        let all_awfy = Awfy::all();
        let program = if idx < 14 {
            all_awfy[idx].program_at(&RuntimeScale::small())
        } else {
            Microservice::all()[idx - 14].program_at(&RuntimeScale::small())
        };
        let diags = irlint::lint_program(&program);
        let errors: Vec<_> = diags.iter().filter(|d| d.severity == Severity::Error).collect();
        prop_assert!(errors.is_empty(), "workload {} has lint errors: {:?}", idx, errors);

        let reach = analyze(&program, &AnalysisConfig::default());
        let vt = irlint::lint_virtual_targets(&program, &reach);
        prop_assert!(!has_errors(&vt), "workload {} vtable errors: {:?}", idx, vt);
    }
}
