//! Engine equivalence: the pre-lowered execution engine (`Vm::run`) must
//! be observably indistinguishable from the reference tree-walking
//! interpreter (`Vm::run_reference`). Every run report — op counts,
//! per-section fault counts, trace bytes, call counts, page states — is
//! compared through its `Debug` rendering, which covers every field bit
//! for bit. The lowered engine may only change how fast the VM steps,
//! never what it computes.

use std::sync::Arc;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, BuildParts, Pipeline, RunParts, Strategy};
use nimage_ir::{BinOp, BodyBuilder, FieldId, Local, Program, ProgramBuilder, TypeRef, UnOp};
use nimage_vm::{LoweredProgram, StopWhen, VmBuilder, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Runs one built image on both engines and returns the two reports'
/// `Debug` renderings, `(reference, lowered)`.
fn both_engines(
    program: &Program,
    built: &BuildParts,
    vm: &VmConfig,
    stop: StopWhen,
) -> (String, String) {
    let vm = || {
        VmBuilder::new(
            program,
            &built.compiled,
            &built.snapshot,
            &built.image,
            vm.clone(),
        )
        .build()
    };
    let reference = vm().run_reference(stop).unwrap();
    let lowered = vm().run(stop).unwrap();
    (format!("{reference:?}"), format!("{lowered:?}"))
}

/// Builds the image with the given instrumentation and runs it on both
/// engines. `FULL` is the profiling half of the pipeline, where every
/// interpreter feature is exercised (path profiling, probe costs, paging,
/// the trace itself is part of the report); `NONE` is the measurement half.
fn built_on_both_engines(
    program: &Program,
    o: &BuildOptions,
    instrument: InstrumentConfig,
    stop: StopWhen,
) -> (String, String) {
    let built = Pipeline::new(program, o.clone())
        .build_instrumented(instrument)
        .unwrap();
    both_engines(program, &built, &o.vm, stop)
}

#[test]
fn lowered_matches_reference_on_all_awfy_workloads() {
    let scale = RuntimeScale::small();
    for wl in Awfy::all() {
        let program = wl.program_at(&scale);
        for (instrument, what) in [
            (InstrumentConfig::FULL, "instrumented"),
            (InstrumentConfig::NONE, "regular"),
        ] {
            let (reference, lowered) = built_on_both_engines(
                &program,
                &BuildOptions::default(),
                instrument,
                StopWhen::Exit,
            );
            assert_eq!(
                reference, lowered,
                "{what} run of {wl:?} differs between engines"
            );
        }
    }
}

#[test]
fn lowered_matches_reference_on_all_microservices() {
    for wl in Microservice::all() {
        let program = wl.program();
        // Microservices park in an infinite accept loop, so `Exit` only
        // returns via the ops budget; cap it so the budget path (and the
        // multi-threaded park loop) is compared without a 500M-op run.
        for (stop, max_ops) in [
            (StopWhen::FirstResponse, None),
            (StopWhen::Exit, Some(2_000_000)),
        ] {
            let mut o = BuildOptions::default();
            if let Some(cap) = max_ops {
                o.vm.max_ops = cap;
            }
            let (reference, lowered) =
                built_on_both_engines(&program, &o, InstrumentConfig::FULL, stop);
            assert_eq!(
                reference, lowered,
                "instrumented run of {wl:?} ({stop:?}) differs between engines"
            );
        }
    }
}

/// The optimizing half agrees between the engines too: the PGO-compiled
/// Bounce build (profile-driven inlining changes the CUs) under the default
/// layout and reordered by `cu+heap path` — the build variants none of the
/// other cases run.
#[test]
fn pgo_reordered_image_matches_between_engines() {
    let program = Awfy::Bounce.program_at(&RuntimeScale::small());
    let o = BuildOptions::default();
    let p = Pipeline::new(&program, o.clone());
    let artifacts = p.profiling_run(StopWhen::Exit).unwrap();
    for strategy in [None, Some(Strategy::CuPlusHeapPath)] {
        let built = p.build_optimized(&artifacts, strategy).unwrap();
        let (reference, lowered) = both_engines(&program, &built, &o.vm, StopWhen::Exit);
        assert_eq!(
            reference, lowered,
            "optimized run ({strategy:?}) differs between engines"
        );
    }
}

/// The lowered engine runs a quantum as fast-path runs broken by slow ops,
/// with the op budget bounding each run. Budgets just below, at and above
/// the quantum (64) and its multiples stop both engines at the same op,
/// mid-run or at a run boundary.
#[test]
fn op_budgets_across_quantum_boundaries_stop_both_engines_alike() {
    let bounce = Awfy::Bounce.program_at(&RuntimeScale::small());
    let micronaut = Microservice::Micronaut.program();
    let o = BuildOptions::default();
    for (program, instrument, stop) in [
        (&bounce, InstrumentConfig::FULL, StopWhen::Exit),
        (&bounce, InstrumentConfig::NONE, StopWhen::Exit),
        (&micronaut, InstrumentConfig::FULL, StopWhen::Exit),
    ] {
        let built = Pipeline::new(program, o.clone())
            .build_instrumented(instrument)
            .unwrap();
        for max_ops in [1, 63, 64, 65, 129, 10_007] {
            let vm = VmConfig {
                max_ops,
                ..o.vm.clone()
            };
            let (reference, lowered) = both_engines(program, &built, &vm, stop);
            assert!(lowered.contains("exit: OpsBudget"), "{lowered}");
            assert_eq!(
                reference, lowered,
                "max_ops {max_ops} ({instrument:?}) stops the engines apart"
            );
        }
    }
}

/// The lowered engine hands a callee a locals buffer recycled from a
/// returned frame; a local the callee reads before writing must still be
/// null, as on the reference engine, which allocates fresh locals.
#[test]
fn recycled_locals_read_as_fresh_ones() {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Stale", None);
    let fill = pb.declare_static(c, "fill", &[], Some(TypeRef::Int));
    let peek = pb.declare_static(c, "peek", &[], Some(TypeRef::Int));
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(fill);
    let a = f.iconst(7);
    let b = f.iconst(8);
    let s = f.add(a, b);
    f.ret(Some(s));
    pb.finish_body(fill, f);
    let mut f = pb.body(peek);
    let unset = f.local();
    f.ret(Some(unset));
    pb.finish_body(peek, f);
    let mut f = pb.body(main);
    f.call_static(fill, &[], true);
    let r = f.call_static(peek, &[], true);
    f.ret(r);
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().unwrap();
    for instrument in [InstrumentConfig::FULL, InstrumentConfig::NONE] {
        let (reference, lowered) = built_on_both_engines(
            &program,
            &BuildOptions::default(),
            instrument,
            StopWhen::Exit,
        );
        assert!(
            reference.contains("entry_return: Some(Null)"),
            "{reference}"
        );
        assert_eq!(reference, lowered, "{instrument:?}");
    }
}

/// A hot loop of 1 000 iterations over `obj.field`, each adding what
/// `fail(f, obj, field, i)` computes — which fails at iteration 300.
fn failing_loop(fail: impl Fn(&mut BodyBuilder, Local, FieldId, Local) -> Local) -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Hot", None);
    let field = pb.add_instance_field(c, "f", TypeRef::Int);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let obj = f.new_object(c);
    let from = f.iconst(0);
    let to = f.iconst(1_000);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let v = f.get_field(obj, field);
        let s = f.add(v, i);
        f.put_field(obj, field, s);
        let x = fail(f, obj, field, i);
        let s = f.add(acc, x);
        f.assign(acc, s);
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

/// A runtime error inside a hot loop — where the lowered engine runs on
/// its fast path — is the same error, raised at the same op, on both
/// engines.
#[test]
fn errors_in_a_hot_loop_match_between_engines() {
    let divide_by_zero = failing_loop(|f, _, _, i| {
        let k = f.iconst(300);
        let d = f.sub(k, i);
        let hundred = f.iconst(100);
        f.div(hundred, d)
    });
    let read_null = failing_loop(|f, obj, field, i| {
        let k = f.iconst(300);
        let hit = f.eq(i, k);
        let target = f.copy(obj);
        f.if_then(hit, |f| {
            let null = f.null();
            f.assign(target, null);
        });
        f.get_field(target, field)
    });
    let read_past_end = failing_loop(|f, _, _, i| {
        let len = f.iconst(300);
        let arr = f.new_array(TypeRef::Int, len);
        f.array_get(arr, i)
    });
    let write_below_zero = failing_loop(|f, _, _, i| {
        let len = f.iconst(300);
        let arr = f.new_array(TypeRef::Int, len);
        let k = f.iconst(299);
        let at = f.sub(k, i);
        f.array_set(arr, at, i);
        f.array_get(arr, at)
    });
    let remainder_by_zero = failing_loop(|f, _, _, i| {
        let k = f.iconst(300);
        let d = f.sub(k, i);
        let hundred = f.iconst(100);
        f.rem(hundred, d)
    });
    let add_int_to_double = failing_loop(|f, _, _, i| {
        let k = f.iconst(300);
        let hit = f.eq(i, k);
        let x = f.copy(i);
        f.if_then(hit, |f| {
            let half = f.dconst(0.5);
            f.assign(x, half);
        });
        f.add(i, x)
    });
    let o = BuildOptions::default();
    for (program, what) in [
        (&divide_by_zero, "DivisionByZero"),
        (&remainder_by_zero, "DivisionByZero"),
        (&add_int_to_double, "TypeMismatch"),
        (&read_null, "NullDeref"),
        (&read_past_end, "IndexOutOfBounds"),
        (&write_below_zero, "IndexOutOfBounds"),
    ] {
        for instrument in [InstrumentConfig::FULL, InstrumentConfig::NONE] {
            let built = Pipeline::new(program, o.clone())
                .build_instrumented(instrument)
                .unwrap();
            let vm = || {
                VmBuilder::new(
                    program,
                    &built.compiled,
                    &built.snapshot,
                    &built.image,
                    o.vm.clone(),
                )
                .build()
            };
            let reference = vm().run_reference(StopWhen::Exit).unwrap_err();
            let lowered = vm().run(StopWhen::Exit).unwrap_err();
            assert!(format!("{lowered:?}").starts_with(what), "{lowered:?}");
            assert_eq!(reference, lowered, "{what} ({instrument:?})");
        }
    }
}

/// A hot loop whose body runs every operator cell that is not plain
/// `Int × Int` or `Double × Double` arithmetic, or sits on the edge of one:
/// Bool logic and equality, reference and null identity, `Double` `Rem` by
/// zero and NaN comparisons, shift counts of 64 and below zero, and
/// `DoubleToInt` of NaN and ±∞. Every result is folded into the returned
/// accumulator, so a cell that differed would show in `entry_return`.
fn edge_cell_loop() -> Program {
    use BinOp::*;
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Cells", None);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let obj = f.new_object(c);
    let other = f.new_object(c);
    let null = f.null();
    let from = f.iconst(0);
    let to = f.iconst(500);
    let acc = f.iconst(0);
    f.for_range(from, to, |f, i| {
        let two = f.iconst(2);
        let zero = f.iconst(0);
        let parity = f.rem(i, two);
        let even = f.eq(parity, zero);
        let yes = f.bconst(true);
        let mut flags = vec![];
        for op in [And, Or, Xor, Eq, Ne] {
            flags.push(f.bin(op, even, yes));
        }
        let pick = f.copy(obj);
        f.if_then(even, |f| f.assign(pick, other));
        for (a, b) in [(pick, obj), (pick, null), (null, pick), (null, null)] {
            flags.push(f.bin(Eq, a, b));
            flags.push(f.bin(Ne, a, b));
        }
        let x = f.un(UnOp::IntToDouble, i);
        let zero_d = f.dconst(0.0);
        let one_d = f.dconst(1.0);
        let nan = f.bin(Rem, x, zero_d);
        let inf = f.bin(Div, one_d, zero_d);
        let minus_inf = f.un(UnOp::Neg, inf);
        for op in [Lt, Le, Gt, Ge, Eq, Ne] {
            flags.push(f.bin(op, nan, x));
            flags.push(f.bin(op, nan, nan));
        }
        let sixty_four = f.iconst(64);
        let below_zero = f.sub(zero, i);
        let minus_one = f.iconst(-1);
        let big = f.iconst(i64::MIN + 12_345);
        let mut ints = vec![];
        for count in [sixty_four, below_zero, minus_one] {
            ints.push(f.bin(Shl, i, count));
            ints.push(f.bin(Shr, big, count));
        }
        for v in [nan, inf, minus_inf] {
            ints.push(f.un(UnOp::DoubleToInt, v));
        }
        for (k, flag) in flags.into_iter().enumerate() {
            f.if_then(flag, |f| {
                let bit = f.iconst(1 << k);
                let s = f.bin(Xor, acc, bit);
                f.assign(acc, s);
            });
        }
        for v in ints {
            let prime = f.iconst(31);
            let m = f.mul(acc, prime);
            let s = f.add(m, v);
            f.assign(acc, s);
        }
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

/// Every operator cell off the typed fast paths gives the same result on
/// both engines, inside a hot loop, on the profiling and the measurement
/// build.
#[test]
fn edge_cells_in_a_hot_loop_match_between_engines() {
    let program = edge_cell_loop();
    for instrument in [InstrumentConfig::FULL, InstrumentConfig::NONE] {
        let (reference, lowered) = built_on_both_engines(
            &program,
            &BuildOptions::default(),
            instrument,
            StopWhen::Exit,
        );
        assert!(reference.contains("entry_return: Some(Int("), "{reference}");
        assert_eq!(reference, lowered, "{instrument:?}");
    }
}

/// Concurrent runs sharing one `Arc<LoweredProgram>` and one snapshot
/// heap (the engine's matrix sharding) must each report
/// exactly what an isolated serial run reports.
#[test]
fn shared_lowered_program_runs_are_isolated() {
    let program = Microservice::Micronaut.program();
    let o = BuildOptions::default();
    let p = Pipeline::new(&program, o.clone());
    let built = p.build_instrumented(InstrumentConfig::NONE).unwrap();
    let lowered = Arc::new(LoweredProgram::build(
        &program,
        &built.compiled,
        o.vm.max_paths,
    ));
    let run_one = || {
        p.run(
            RunParts::new(&built.compiled, &built.snapshot, &built.image)
                .lowered(Some(lowered.clone())),
            StopWhen::FirstResponse,
        )
        .unwrap()
    };
    let reference = format!("{:?}", run_one());
    let reports = nimage_par::parallel_map_seeded(4, 6, |j| j, |_| format!("{:?}", run_one()));
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(&reference, r, "sharded run {i} differs from serial");
    }
}
