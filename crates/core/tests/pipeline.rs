//! End-to-end pipeline tests over a synthetic workload with the structure
//! the paper's evaluation relies on: lots of cold-but-reachable code, a
//! large mostly-untouched heap snapshot, and a hot path that touches a
//! scattered subset of both.

use nimage_compiler::{InlineConfig, InstrumentConfig};
use nimage_core::{BuildOptions, Engine, Evaluation, Pipeline, Strategy, WorkloadSpec};
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_vm::{CostModel, PagingConfig, StopWhen, VmConfig};

/// Builds the synthetic workload:
/// * `lib.Registry.<clinit>` allocates 2000 small objects into an array
///   (the "runtime internals" that dominate real snapshots — Sec. 7.2 notes
///   AWFY touches only ~4 % of snapshot objects);
/// * 80 padded methods, all reachable (behind a runtime-false flag), of
///   which every 7th is executed;
/// * the hot path reads every 50th registry object.
fn workload() -> Program {
    let mut pb = ProgramBuilder::new();

    let item = pb.add_class("lib.Item", None);
    let f_v = pb.add_instance_field(item, "v", TypeRef::Int);
    let f_w = pb.add_instance_field(item, "w", TypeRef::Int);

    let reg = pb.add_class("lib.Registry", None);
    let f_items = pb.add_static_field(reg, "ITEMS", TypeRef::array_of(TypeRef::Object(item)));
    let cl = pb.declare_clinit(reg);
    let mut f = pb.body(cl);
    let n = f.iconst(2000);
    let arr = f.new_array(TypeRef::Object(item), n);
    let from = f.iconst(0);
    f.for_range(from, n, |f, i| {
        let o = f.new_object(item);
        f.put_field(o, f_v, i);
        let two = f.iconst(2);
        let w = f.mul(i, two);
        f.put_field(o, f_w, w);
        f.array_set(arr, i, o);
    });
    f.put_static(f_items, arr);
    f.ret(None);
    pb.finish_body(cl, f);

    let app = pb.add_class("app.Main", None);
    let cond = pb.add_static_field(app, "COND", TypeRef::Bool);
    // A tiny helper that the inliner absorbs into every caller: its entries
    // are method-entry events but never CU entries, so method tracing is
    // strictly busier than cu tracing (Sec. 7.4's overhead gap).
    let inc = pb.declare_static(app, "inc", &[TypeRef::Int], Some(TypeRef::Int));
    let mut f = pb.body(inc);
    let x = f.param(0);
    let one = f.iconst(1);
    let r = f.add(x, one);
    f.ret(Some(r));
    pb.finish_body(inc, f);

    let mut methods = vec![];
    for i in 0..80 {
        let m = pb.declare_static(app, &format!("work{i:02}"), &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let v = f.iconst(i);
        let from = f.iconst(0);
        let to = f.iconst(30);
        f.for_range(from, to, |f, _j| {
            let n = f.call_static(inc, &[v], true).unwrap();
            f.assign(v, n);
        });
        for _ in 0..200 {
            let one = f.iconst(1);
            let n = f.add(v, one);
            f.assign(v, n);
        }
        f.ret(Some(v));
        pb.finish_body(m, f);
        methods.push(m);
    }

    let main = pb.declare_static(app, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let acc = f.iconst(0);
    let take_cold = f.get_static(cond);
    let cold: Vec<_> = methods
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 7 != 0)
        .map(|(_, &m)| m)
        .collect();
    f.if_then(take_cold, |f| {
        for &m in &cold {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
        }
    });
    for (i, &m) in methods.iter().enumerate() {
        if i % 7 == 0 {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
        }
    }
    // Touch every 50th registry object.
    let arr = f.get_static(f_items);
    let stride = f.iconst(50);
    let n = f.array_len(arr);
    let i = f.iconst(0);
    f.while_loop(
        |f| f.lt(i, n),
        |f| {
            let o = f.array_get(arr, i);
            let v = f.get_field(o, f_v);
            let s = f.add(acc, v);
            f.assign(acc, s);
            let next = f.add(i, stride);
            f.assign(i, next);
        },
    );
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

fn options() -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            paging: PagingConfig {
                fault_around_pages: 2,
            },
            ..VmConfig::default()
        },
        // Roomy CUs so the small helper really gets inlined everywhere,
        // like trivial accessors in real Java code.
        inline: InlineConfig {
            cu_budget: 8192,
            ..InlineConfig::default()
        },
        ..BuildOptions::default()
    }
}

#[test]
fn profiles_are_populated() {
    let p = workload();
    let pipeline = Pipeline::new(&p, options());
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    assert!(!artifacts.cu_profile.sigs.is_empty());
    assert!(!artifacts.method_profile.sigs.is_empty());
    // Method profile is at least as long as the CU profile (it also names
    // inlined methods).
    assert!(artifacts.method_profile.sigs.len() >= artifacts.cu_profile.sigs.len());
    for (strat, profile) in &artifacts.heap_profiles {
        assert!(!profile.ids.is_empty(), "{}", strat.name());
    }
    assert!(!artifacts.call_counts.is_empty());
}

/// Profiles the workload once and evaluates `strategies` against one
/// baseline.
fn evaluate(strategies: &[Strategy]) -> Vec<Evaluation> {
    let p = workload();
    let pipeline = Pipeline::new(&p, options());
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    pipeline
        .evaluate(&artifacts, strategies, StopWhen::Exit)
        .unwrap()
}

#[test]
fn every_strategy_preserves_semantics_and_reduces_its_fault_metric() {
    for eval in evaluate(&Strategy::all()) {
        assert_eq!(
            eval.baseline.entry_return,
            eval.optimized.entry_return,
            "{}: reordering must not change results",
            eval.strategy.name()
        );
        let r = eval.reported_fault_reduction();
        assert!(
            r >= 1.0,
            "{}: expected no fault increase, factor {r:.3} (base {:?}, opt {:?})",
            eval.strategy.name(),
            eval.baseline.faults,
            eval.optimized.faults
        );
    }
}

#[test]
fn code_strategies_beat_the_baseline_clearly() {
    let evals = evaluate(&[Strategy::Cu, Strategy::Method]);
    let (cu, method) = (&evals[0], &evals[1]);
    assert!(
        cu.text_fault_reduction() > 1.2,
        "cu ordering should clearly reduce .text faults, got {:.3}",
        cu.text_fault_reduction()
    );
    assert!(method.text_fault_reduction() > 1.0);
}

#[test]
fn heap_path_beats_the_baseline_clearly() {
    let hp = evaluate(&[Strategy::HeapPath]).remove(0);
    assert!(
        hp.heap_fault_reduction() > 1.2,
        "heap-path ordering should clearly reduce .svm_heap faults, got {:.3}",
        hp.heap_fault_reduction()
    );
}

#[test]
fn combined_strategy_reduces_both_sections() {
    let both = evaluate(&[Strategy::CuPlusHeapPath]).remove(0);
    assert!(both.text_fault_reduction() > 1.0);
    assert!(both.heap_fault_reduction() > 1.0);
    assert!(both.speedup(&CostModel::ssd()) > 1.0);
}

#[test]
fn profiling_overhead_factors_are_ordered_like_the_paper() {
    let p = workload();
    let spec = WorkloadSpec::new("synthetic", &p, options(), StopWhen::Exit);
    let overhead = Engine::default()
        .workload(&spec)
        .profiling_overhead()
        .unwrap();
    let (cu, method, heap) = (overhead.cu, overhead.method, overhead.heap);
    assert!(cu >= 1.0 && method >= 1.0 && heap >= 1.0);
    assert!(
        method > cu,
        "method tracing ({method:.3}) must cost more than cu tracing ({cu:.3})"
    );

    // The serial pipeline's builds and runs give the same factors, bit for
    // bit: CPU work (ops and probe ops) of each single-probe build over the
    // regular build's.
    let pipeline = Pipeline::new(&p, options());
    let work = |instr| {
        let report = pipeline
            .run_image(&pipeline.build_instrumented(instr).unwrap(), StopWhen::Exit)
            .unwrap();
        (report.ops + report.probe_ops) as f64
    };
    let regular = work(InstrumentConfig::NONE);
    let none = InstrumentConfig::NONE;
    let serial = [
        InstrumentConfig {
            trace_cu: true,
            ..none
        },
        InstrumentConfig {
            trace_methods: true,
            ..none
        },
        InstrumentConfig {
            trace_heap: true,
            ..none
        },
    ]
    .map(|instr| (work(instr) / regular).to_bits());
    assert_eq!(overhead.factors().map(f64::to_bits), serial);
}

/// Sec. 7.4's four builds share the workload's analysis and leave nothing
/// else behind: no compile, snapshot or image of theirs enters a memo.
#[test]
fn profiling_overhead_keeps_no_build() {
    let p = workload();
    let spec = WorkloadSpec::new("synthetic", &p, options(), StopWhen::Exit);
    let engine = Engine::default();
    engine.workload(&spec).profiling_overhead().unwrap();
    let stats = engine.cache().stats();
    let lookups = |name: &str| {
        let m = stats.iter().find(|m| m.name == name).unwrap();
        (m.hits, m.misses)
    };
    assert_eq!(lookups("analyze"), (3, 1), "one analysis, shared");
    for stage in ["compile", "snapshot", "layout"] {
        assert_eq!(lookups(stage), (0, 0), "{stage}");
    }
}

#[test]
fn evaluation_is_deterministic() {
    let p = workload();
    let pipeline = Pipeline::new(&p, options());
    let a1 = pipeline.profiling_run(StopWhen::Exit).unwrap();
    let a2 = pipeline.profiling_run(StopWhen::Exit).unwrap();
    assert_eq!(a1.cu_profile, a2.cu_profile);
    assert_eq!(a1.method_profile, a2.method_profile);
    let e1 = pipeline
        .evaluate(&a1, &[Strategy::Cu], StopWhen::Exit)
        .unwrap()
        .remove(0);
    let e2 = pipeline
        .evaluate(&a2, &[Strategy::Cu], StopWhen::Exit)
        .unwrap()
        .remove(0);
    assert_eq!(e1.baseline.faults, e2.baseline.faults);
    assert_eq!(e1.optimized.faults, e2.optimized.faults);
}
