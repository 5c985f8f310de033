//! Property-based tests over the core invariants, spanning crates:
//! MurmurHash3 behaviour, Ball–Larus decode correctness on random CFGs,
//! layout/ordering invariants, paging-simulator laws, and VM ⇄ build-time
//! interpreter equivalence on random arithmetic programs.

use proptest::prelude::*;

use nimage::analysis::{analyze, AnalysisConfig};
use nimage::compiler::{compile, InlineConfig, InstrumentConfig, PathNumbering, ProfilingCfg};
use nimage::heap::{snapshot, HeapBuildConfig, StepBudget};
use nimage::image::{BinaryImage, ImageOptions};
use nimage::ir::{BinOp, BodyBuilder, Program, ProgramBuilder, TypeRef, Value};
use nimage::order::{assign_ids, murmur3, order_objects, HeapOrderProfile, HeapStrategy};
use nimage::vm::{PagingConfig, PagingSim, StopWhen, Vm, VmConfig};

// ---------------------------------------------------------------- murmur3

proptest! {
    /// Same input, same output; different inputs (amended by one byte)
    /// almost surely differ.
    #[test]
    fn murmur_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let h1 = murmur3::hash64(&data);
        let h2 = murmur3::hash64(&data);
        prop_assert_eq!(h1, h2);
        let mut flipped = data.clone();
        flipped.push(0xAB);
        prop_assert_ne!(h1, murmur3::hash64(&flipped));
    }

    /// The 128-bit variant halves agree with the 64-bit helper.
    #[test]
    fn murmur_hash64_is_low_half(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(murmur3::hash64(&data), murmur3::hash128(&data, 0).0);
    }
}

// ------------------------------------------------- random arithmetic bodies

/// A tiny expression language we can evaluate in Rust and compile to IR.
#[derive(Debug, Clone)]
enum Expr {
    Const(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = (-100i32..100).prop_map(Expr::Const);
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, a, b)| Expr::If(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn eval_expr(e: &Expr) -> i64 {
    match e {
        Expr::Const(c) => i64::from(*c),
        Expr::Add(a, b) => eval_expr(a).wrapping_add(eval_expr(b)),
        Expr::Sub(a, b) => eval_expr(a).wrapping_sub(eval_expr(b)),
        Expr::Mul(a, b) => eval_expr(a).wrapping_mul(eval_expr(b)),
        Expr::If(c, a, b) => {
            if eval_expr(c) > 0 {
                eval_expr(a)
            } else {
                eval_expr(b)
            }
        }
    }
}

fn emit_expr(f: &mut BodyBuilder, e: &Expr) -> nimage::ir::Local {
    match e {
        Expr::Const(c) => f.iconst(i64::from(*c)),
        Expr::Add(a, b) => {
            let va = emit_expr(f, a);
            let vb = emit_expr(f, b);
            f.add(va, vb)
        }
        Expr::Sub(a, b) => {
            let va = emit_expr(f, a);
            let vb = emit_expr(f, b);
            f.sub(va, vb)
        }
        Expr::Mul(a, b) => {
            let va = emit_expr(f, a);
            let vb = emit_expr(f, b);
            f.mul(va, vb)
        }
        Expr::If(c, a, b) => {
            let vc = emit_expr(f, c);
            let zero = f.iconst(0);
            let cond = f.bin(BinOp::Gt, vc, zero);
            let out = f.local();
            f.if_then_else(
                cond,
                |f| {
                    let v = emit_expr(f, a);
                    f.assign(out, v);
                },
                |f| {
                    let v = emit_expr(f, b);
                    f.assign(out, v);
                },
            );
            out
        }
    }
}

fn program_of(e: &Expr) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("prop.Main", None);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = emit_expr(&mut f, e);
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().expect("generated program validates")
}

fn run_vm(program: &Program, instr: InstrumentConfig) -> Value {
    let reach = analyze(program, &AnalysisConfig::default());
    let compiled = compile(program, reach, &InlineConfig::default(), instr, None);
    let snap = snapshot(program, &compiled, &HeapBuildConfig::default()).unwrap();
    let image = BinaryImage::build(&compiled, &snap, None, None, ImageOptions::default());
    Vm::new(program, &compiled, &snap, &image, VmConfig::default())
        .run(StopWhen::Exit)
        .unwrap()
        .entry_return
        .expect("main returns")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The VM agrees with a direct Rust evaluation of the expression.
    #[test]
    fn vm_matches_reference_semantics(e in expr_strategy()) {
        let program = program_of(&e);
        prop_assert_eq!(run_vm(&program, InstrumentConfig::NONE), Value::Int(eval_expr(&e)));
    }

    /// Instrumentation must never change results ("heisenbug freedom").
    #[test]
    fn instrumentation_preserves_semantics(e in expr_strategy()) {
        let program = program_of(&e);
        prop_assert_eq!(
            run_vm(&program, InstrumentConfig::NONE),
            run_vm(&program, InstrumentConfig::FULL)
        );
    }

    /// The VM agrees with the build-time interpreter on the same body.
    #[test]
    fn vm_matches_build_time_interpreter(e in expr_strategy()) {
        let program = program_of(&e);
        let entry = program.entry.unwrap();
        let mut heap = nimage::heap::BuildHeap::new();
        let mut budget = StepBudget::default();
        let build_time =
            nimage::heap::exec_method(&program, &mut heap, entry, vec![], &mut budget, 0)
                .unwrap();
        let rt = run_vm(&program, InstrumentConfig::NONE);
        match (build_time, rt) {
            (Some(Value::Int(a)), Value::Int(b)) => prop_assert_eq!(a, b),
            other => prop_assert!(false, "unexpected values {:?}", other),
        }
    }

    /// Ball–Larus path ids of random bodies decode to unique mini-block
    /// sequences.
    #[test]
    fn path_ids_decode_uniquely(e in expr_strategy()) {
        let program = program_of(&e);
        let entry = program.entry.unwrap();
        let cfg = ProfilingCfg::build(program.method(entry));
        let num = PathNumbering::compute(&cfg, 1 << 12);
        let start = cfg.entry();
        let total = num.num_paths_from(start).min(256);
        let mut seen = std::collections::HashSet::new();
        for id in 0..total {
            prop_assert!(seen.insert(num.decode(&cfg, start, id)));
        }
    }
}

// ------------------------------------------------------------ ordering laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `order_objects` always returns a permutation of the snapshot, for
    /// any profile (junk ids included).
    #[test]
    fn object_order_is_always_a_permutation(profile_ids in proptest::collection::vec(any::<u64>(), 0..64)) {
        let e = Expr::Const(7);
        let mut pb = ProgramBuilder::new();
        let cell = pb.add_class("prop.Cell", None);
        let val = pb.add_instance_field(cell, "v", TypeRef::Int);
        let holder = pb.add_class("prop.Holder", None);
        let field = pb.add_static_field(holder, "CELLS", TypeRef::array_of(TypeRef::Object(cell)));
        let cl = pb.declare_clinit(holder);
        let mut f = pb.body(cl);
        let n = f.iconst(20);
        let arr = f.new_array(TypeRef::Object(cell), n);
        let from = f.iconst(0);
        f.for_range(from, n, |f, i| {
            let o = f.new_object(cell);
            f.put_field(o, val, i);
            f.array_set(arr, i, o);
        });
        f.put_static(field, arr);
        f.ret(None);
        pb.finish_body(cl, f);
        let mainc = pb.add_class("prop.Main", None);
        let main = pb.declare_static(mainc, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let a = f.get_static(field);
        let _ = a;
        let v = emit_expr(&mut f, &e);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let program = pb.build().unwrap();

        let reach = analyze(&program, &AnalysisConfig::default());
        let compiled = compile(&program, reach, &InlineConfig::default(), InstrumentConfig::NONE, None);
        let snap = snapshot(&program, &compiled, &HeapBuildConfig::default()).unwrap();
        let ids = assign_ids(&program, &snap, HeapStrategy::HeapPath);
        let order = order_objects(&snap, &ids, &HeapOrderProfile { ids: profile_ids, spans: vec![] });
        prop_assert_eq!(order.len(), snap.entries().len());
        let set: std::collections::HashSet<_> = order.iter().copied().collect();
        prop_assert_eq!(set.len(), order.len());
        // The permuted layout still builds a valid image.
        let image = BinaryImage::build(&compiled, &snap, None, Some(order), ImageOptions::default());
        prop_assert!(image.svm_heap.size > 0);
    }
}

// ------------------------------------------------------------- paging laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fault counts are monotone in touches, idempotent per page, and
    /// bounded by the distinct-window count.
    #[test]
    fn paging_laws(
        touches in proptest::collection::vec(0u64..200, 1..100),
        window_log in 0u32..6,
    ) {
        let e = Expr::Const(1);
        let program = program_of(&e);
        let reach = analyze(&program, &AnalysisConfig::default());
        let compiled = compile(&program, reach, &InlineConfig::default(), InstrumentConfig::NONE, None);
        let snap = snapshot(&program, &compiled, &HeapBuildConfig::default()).unwrap();
        let image = BinaryImage::build(&compiled, &snap, None, None, ImageOptions::default());
        let window = 1u64 << window_log;
        let mut sim = PagingSim::new(&image, PagingConfig { fault_around_pages: window });
        let page_size = image.options.page_size;
        let mut distinct_windows = std::collections::HashSet::new();
        let mut faults = 0u64;
        for &p in &touches {
            let page = p % image.total_pages().max(1);
            let offset = page * page_size;
            if sim.touch(&image, offset) {
                faults += 1;
            }
            // Second touch never faults.
            prop_assert!(!sim.touch(&image, offset));
            distinct_windows.insert(page / window);
        }
        prop_assert_eq!(sim.faults().total(), faults);
        prop_assert!(faults as usize <= distinct_windows.len());
    }
}
