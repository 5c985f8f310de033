//! End-to-end interpreter tests: program → analysis → compile → snapshot →
//! image → run.

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{
    compile, CompiledProgram, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
};
use nimage_heap::{snapshot, HeapBuildConfig, HeapSnapshot};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_ir::{Program, ProgramBuilder, TypeRef, Value};
use nimage_profiler::Record;
use nimage_vm::{ExitKind, StopWhen, Vm, VmConfig};

fn build(
    program: &Program,
    instr: InstrumentConfig,
) -> (CompiledProgram, HeapSnapshot, BinaryImage) {
    let reach = analyze(program, &AnalysisConfig::default());
    let cp = compile(
        &ProgramIndex::new(program, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        instr,
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(program, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap();
    let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    (cp, snap, img)
}

fn run(program: &Program, instr: InstrumentConfig, stop: StopWhen) -> nimage_vm::RunReport {
    let (cp, snap, img) = build(program, instr);
    Vm::new(program, &cp, &snap, &img, VmConfig::default())
        .run(stop)
        .unwrap()
}

/// Recursive fibonacci: exercises calls, branches and recursion handling
/// across CU boundaries (recursion is never inlined).
fn fib_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Fib", None);
    let fib = pb.declare_static(c, "fib", &[TypeRef::Int], Some(TypeRef::Int));
    let mut f = pb.body(fib);
    let n = f.param(0);
    let two = f.iconst(2);
    let small = f.lt(n, two);
    f.if_then_else(
        small,
        |f| {
            f.ret(Some(n));
        },
        |f| {
            let one = f.iconst(1);
            let n1 = f.sub(n, one);
            let a = f.call_static(fib, &[n1], true).unwrap();
            let two = f.iconst(2);
            let n2 = f.sub(n, two);
            let b = f.call_static(fib, &[n2], true).unwrap();
            let s = f.add(a, b);
            f.ret(Some(s));
        },
    );
    pb.finish_body(fib, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let ten = f.iconst(10);
    let v = f.call_static(fib, &[ten], true).unwrap();
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

#[test]
fn fib_computes_correctly() {
    let p = fib_program();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert_eq!(r.exit, ExitKind::Exited);
    assert_eq!(r.entry_return, Some(Value::Int(55)));
}

#[test]
fn execution_is_deterministic() {
    let p = fib_program();
    let a = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    let b = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.faults, b.faults);
}

#[test]
fn virtual_dispatch_selects_dynamic_target() {
    let mut pb = ProgramBuilder::new();
    let base = pb.add_class("t.Shape", None);
    let square = pb.add_class("t.Square", Some(base));
    let circle = pb.add_class("t.Circle", Some(base));
    let area_b = pb.declare_virtual(base, "area", &[], Some(TypeRef::Int));
    let area_s = pb.declare_virtual(square, "area", &[], Some(TypeRef::Int));
    let area_c = pb.declare_virtual(circle, "area", &[], Some(TypeRef::Int));
    for (m, v) in [(area_b, 0i64), (area_s, 4), (area_c, 3)] {
        let mut f = pb.body(m);
        let r = f.iconst(v);
        f.ret(Some(r));
        pb.finish_body(m, f);
    }
    let holder = pb.add_class("t.Main", None);
    let main = pb.declare_static(holder, "main", &[], Some(TypeRef::Int));
    let sel = pb.intern_selector("area", 0);
    let mut f = pb.body(main);
    let s = f.new_object(square);
    let c = f.new_object(circle);
    let a1 = f.call_virtual(base, sel, &[s], true).unwrap();
    let a2 = f.call_virtual(base, sel, &[c], true).unwrap();
    let sum = f.add(a1, a2);
    f.ret(Some(sum));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert_eq!(r.entry_return, Some(Value::Int(7)));
}

/// A microservice-shaped program: main spawns a worker that responds.
fn service_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("svc.Server", None);
    let worker = pb.declare_static(c, "worker", &[], None);
    let mut f = pb.body(worker);
    // Do some request handling work first.
    let from = f.iconst(0);
    let to = f.iconst(100);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let s = f.add(acc, i);
        f.assign(acc, s);
    });
    let status = f.iconst(200);
    f.intrinsic(nimage_ir::Intrinsic::Respond, &[status], false);
    f.ret(None);
    pb.finish_body(worker, f);

    let main = pb.declare_static(c, "main", &[], None);
    let mut f = pb.body(main);
    f.spawn(worker, &[]);
    // The server loop would run forever; FirstResponse stops it.
    f.while_loop(|f| f.bconst(true), |_f| {});
    f.ret(None);
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

#[test]
fn first_response_stops_the_service() {
    let p = service_program();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::FirstResponse);
    assert_eq!(r.exit, ExitKind::FirstResponse);
    let rp = r.first_response.expect("response observed");
    assert!(rp.ops > 0);
    assert!(rp.faults.total() > 0);
}

#[test]
fn service_without_stop_hits_ops_budget() {
    let p = service_program();
    let (cp, snap, img) = build(&p, InstrumentConfig::NONE);
    let cfg = VmConfig {
        max_ops: 50_000,
        ..VmConfig::default()
    };
    let r = Vm::new(&p, &cp, &snap, &img, cfg)
        .run(StopWhen::Exit)
        .unwrap();
    assert_eq!(r.exit, ExitKind::OpsBudget);
}

/// Heap accesses to snapshot objects fault `.svm_heap` pages; runtime
/// allocations do not.
#[test]
fn snapshot_accesses_fault_heap_pages() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Data", None);
    let fld = pb.add_static_field(c, "BIG", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(c);
    let mut f = pb.body(cl);
    let n = f.iconst(8192); // 64 KiB array: 16 pages
    let arr = f.new_array(TypeRef::Int, n);
    f.put_static(fld, arr);
    f.ret(None);
    pb.finish_body(cl, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let arr = f.get_static(fld);
    let from = f.iconst(0);
    let to = f.iconst(8192);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let v = f.array_get(arr, i);
        let s = f.add(acc, v);
        f.assign(acc, s);
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert!(
        r.faults.svm_heap >= 1,
        "touching a 16-page array must fault the heap section"
    );
}

/// The access log against page arithmetic done by hand: a snapshot array
/// scanned twice logs each element's first touch exactly once, and with
/// no fault-around every page those elements span faults exactly once.
#[test]
fn array_scans_log_each_element_once_and_fault_each_page_once() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Data", None);
    let fld = pb.add_static_field(c, "BIG", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(c);
    let mut f = pb.body(cl);
    let n = f.iconst(3000);
    let arr = f.new_array(TypeRef::Int, n);
    f.put_static(fld, arr);
    f.ret(None);
    pb.finish_body(cl, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let arr = f.get_static(fld);
    let acc = f.iconst(0);
    for _ in 0..2 {
        let from = f.iconst(0);
        let to = f.iconst(3000);
        f.for_range(from, to, |f, i| {
            let v = f.array_get(arr, i);
            let s = f.add(acc, v);
            f.assign(acc, s);
        });
    }
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();

    let (cp, snap, img) = build(&p, InstrumentConfig::NONE);
    let cfg = VmConfig {
        paging: nimage_vm::PagingConfig {
            fault_around_pages: 1,
        },
        ..VmConfig::default()
    };
    let (r, log) = Vm::new(&p, &cp, &snap, &img, cfg)
        .run_logged(StopWhen::Exit)
        .unwrap();
    let Some((_, Value::Ref(big))) = snap.heap().statics().next() else {
        panic!("the initializer stored the array");
    };
    let big = nimage_heap::ObjId(big);
    let offsets: Vec<u64> = log
        .touches()
        .iter()
        .filter_map(|t| match *t {
            nimage_vm::Touch::Object { obj, offset } if obj == big.0 => Some(offset),
            _ => None,
        })
        .collect();
    let expected: Vec<u64> = (0..3000).map(|i| 24 + 8 * i).collect();
    assert_eq!(offsets, expected, "one logged touch per element, in order");

    let base = img.object_offset(big).unwrap();
    let ps = img.options.page_size;
    let mut pages: Vec<u64> = expected.iter().map(|o| (base + o) / ps).collect();
    pages.dedup();
    assert_eq!(r.faults.svm_heap, pages.len() as u64);
}

#[test]
fn runtime_allocations_do_not_fault_heap_pages() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Dyn", None);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let n = f.iconst(8192);
    let arr = f.new_array(TypeRef::Int, n);
    let from = f.iconst(0);
    let to = f.iconst(8192);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let v = f.array_get(arr, i);
        let s = f.add(acc, v);
        f.assign(acc, s);
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert_eq!(
        r.faults.svm_heap, 0,
        "anonymous memory never faults the image"
    );
}

#[test]
fn instrumented_run_collects_trace_and_counts() {
    let p = fib_program();
    let r = run(&p, InstrumentConfig::FULL, StopWhen::Exit);
    let trace = r.trace.expect("instrumented run yields a trace");
    assert_eq!(trace.threads.len(), 1);
    let records = &trace.threads[0];
    let methods = records
        .records()
        .filter(|r| matches!(r, Record::MethodEntry { .. }))
        .count();
    let cus = records
        .records()
        .filter(|r| matches!(r, Record::CuEntry { .. }))
        .count();
    let paths = records
        .records()
        .filter(|r| matches!(r, Record::Path { .. }))
        .count();
    assert!(methods > 0 && cus > 0 && paths > 0);
    // fib(10) performs 177 fib calls plus main.
    assert!(methods >= 177);
    // Every method entry implies at least its CU entry or inlining; CU
    // entries cannot exceed method entries.
    assert!(cus <= methods);
    // Probe ops were charged.
    assert!(r.probe_ops > 0);
    // The PGO profile saw the hot method.
    assert!(
        r.call_counts.count(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            nimage_ir::MethodId(0)
        ) >= 170
    );
}

#[test]
fn uninstrumented_run_has_no_trace_and_no_probe_ops() {
    let p = fib_program();
    let r = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    assert!(r.trace.is_none());
    assert_eq!(r.probe_ops, 0);
}

#[test]
fn instrumentation_does_not_change_program_semantics() {
    let p = fib_program();
    let plain = run(&p, InstrumentConfig::NONE, StopWhen::Exit);
    let inst = run(&p, InstrumentConfig::FULL, StopWhen::Exit);
    assert_eq!(plain.entry_return, inst.entry_return);
    // But it does cost time.
    assert!(inst.probe_ops > plain.probe_ops);
}

/// Reordering CUs so the hot ones are first reduces .text faults — the
/// core mechanism of the paper, at VM level.
#[test]
fn packing_hot_cus_first_reduces_text_faults() {
    // Many alphabetically interleaved CUs, only a few of which execute.
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Many", None);
    let mut all = vec![];
    for i in 0..60 {
        let m = pb.declare_static(c, &format!("m{i:02}"), &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let mut v = f.iconst(i);
        // Pad every method so CUs span real bytes.
        for _ in 0..200 {
            let one = f.iconst(1);
            v = f.add(v, one);
        }
        f.ret(Some(v));
        pb.finish_body(m, f);
        all.push(m);
    }
    // A runtime-false flag keeps the cold methods reachable (the analysis
    // is conservative) without ever executing them.
    let cond = pb.add_static_field(c, "COND", TypeRef::Bool);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let acc = f.iconst(0);
    let take_cold = f.get_static(cond);
    let mut hot = vec![main];
    let cold_calls: Vec<_> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 7 != 0)
        .map(|(_, &m)| m)
        .collect();
    f.if_then(take_cold, |f| {
        for &m in &cold_calls {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
        }
    });
    // Execute every 7th method only, scattered across the alphabet.
    for (i, &m) in all.iter().enumerate() {
        if i % 7 == 0 {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
            hot.push(m);
        }
    }
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();

    let reach = analyze(&p, &AnalysisConfig::default());
    // Small CU budget so each method is its own CU.
    let cfg = InlineConfig {
        inline_threshold: 0,
        ..InlineConfig::default()
    };
    let cp = compile(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        reach,
        &cfg,
        InstrumentConfig::NONE,
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap();

    // Disable fault-around so fault counts equal distinct pages touched;
    // the workload here is far smaller than a real binary.
    let vm_cfg = VmConfig {
        paging: nimage_vm::PagingConfig {
            fault_around_pages: 1,
        },
        ..VmConfig::default()
    };
    let baseline_img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    let base = Vm::new(&p, &cp, &snap, &baseline_img, vm_cfg.clone())
        .run(StopWhen::Exit)
        .unwrap();

    // Hot-first order.
    let mut order: Vec<_> = hot.iter().filter_map(|&m| cp.cu_of_root(m)).collect();
    for cu in &cp.cus {
        if !order.contains(&cu.id) {
            order.push(cu.id);
        }
    }
    let opt_img = BinaryImage::build(&cp, &snap, Some(order), None, ImageOptions::default());
    let opt = Vm::new(&p, &cp, &snap, &opt_img, vm_cfg)
        .run(StopWhen::Exit)
        .unwrap();

    assert_eq!(base.entry_return, opt.entry_return);
    assert!(
        opt.faults.text < base.faults.text,
        "hot-first layout must reduce .text faults ({} vs {})",
        opt.faults.text,
        base.faults.text
    );
}

/// Path records reconstruct exactly the traced heap accesses: the number of
/// object ids in the trace equals the number of field/array accesses
/// executed.
#[test]
fn path_records_carry_one_id_per_heap_access() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Acc", None);
    let fld = pb.add_static_field(c, "ARR", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(c);
    let mut f = pb.body(cl);
    let n = f.iconst(10);
    let a = f.new_array(TypeRef::Int, n);
    f.put_static(fld, a);
    f.ret(None);
    pb.finish_body(cl, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let arr = f.get_static(fld);
    let from = f.iconst(0);
    let to = f.iconst(10);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let v = f.array_get(arr, i); // 10 traced accesses
        let s = f.add(acc, v);
        f.assign(acc, s);
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let p = pb.build().unwrap();

    let r = run(
        &p,
        InstrumentConfig {
            trace_heap: true,
            ..InstrumentConfig::NONE
        },
        StopWhen::Exit,
    );
    let trace = r.trace.unwrap();
    let total_ids: usize = trace.threads[0]
        .records()
        .filter_map(|r| match r {
            Record::Path { obj_ids, .. } => Some(obj_ids.len()),
            _ => None,
        })
        .sum();
    assert_eq!(total_ids, 10, "one traced id per executed array access");
    // All ids refer to the snapshot array (non-zero).
    let nonzero: usize = trace.threads[0]
        .records()
        .filter_map(|r| match r {
            Record::Path { obj_ids, .. } => Some(obj_ids.filter(|&i| i != 0).count()),
            _ => None,
        })
        .sum();
    assert_eq!(nonzero, 10);
}

#[test]
fn spawned_threads_trace_in_creation_order() {
    let p = service_program();
    let r = run(&p, InstrumentConfig::FULL, StopWhen::FirstResponse);
    let trace = r.trace.unwrap();
    assert_eq!(trace.threads.len(), 2, "main + worker");
}
