//! Build-time execution of class initializers.
//!
//! Native Image runs the static initializers of reachable classes at image
//! build time and snapshots the resulting heap (Sec. 2). This module is the
//! corresponding build-time interpreter: it executes `<clinit>` bodies (and
//! anything they call) against a [`BuildHeap`].
//!
//! The execution order is the class discovery order of the reachability
//! analysis — except that classes sharing a *parallel-initialization group*
//! are permuted by the build seed, reproducing the paper's observation that
//! "the compilation is in some cases non-deterministic, and one reason is
//! that the class initializers may be executed in parallel during the build
//! process" (Sec. 2).

use std::collections::BTreeSet;

use nimage_ir::{
    eval_intrinsic, Call, Callee, FieldId, Instr, Intrinsic, IntrinsicCall, MethodId, Terminator,
    Value,
};

use nimage_compiler::ProgramIndex;

use crate::exec::{branch_error, exec_data, no_such_method, receiver_class, ExecError, ExecHooks};
use crate::object::BuildHeap;

/// Dynamic side effects observed while one class initializer (and
/// everything it transitively called) executed at build time.
///
/// "Foreign" means *outside the initializer's own allocation frontier*: a
/// write to an object that already existed when the initializer started —
/// i.e. state created by an earlier initializer. Those writes are exactly
/// what makes build-time snapshotting sensitive to init order (Sec. 2's
/// parallel-clinit non-determinism), so `nimage-verify`'s purity analysis
/// checks its static summaries against these observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClinitEffects {
    /// Static fields read.
    pub statics_read: BTreeSet<FieldId>,
    /// Static fields written.
    pub statics_written: BTreeSet<FieldId>,
    /// Field/array writes to objects allocated before this initializer ran.
    pub foreign_writes: u64,
    /// I/O-like intrinsic invocations (`respond`).
    pub io_events: u64,
    /// `spawn` instructions reached (recorded no-ops at build time).
    pub spawn_events: u64,
}

/// Per-initializer [`ClinitEffects`], in execution order.
#[derive(Debug, Clone, Default)]
pub struct EffectLog {
    /// One entry per executed initializer: `(clinit method, effects)`.
    pub per_init: Vec<(MethodId, ClinitEffects)>,
}

/// What build-time execution observes: the data ops' heap accesses
/// ([`ExecHooks`]) plus the intrinsics and spawns this interpreter runs
/// itself. `()` observes nothing; [`EffectSink`] fills an [`EffectLog`]
/// entry. Which one runs is fixed per monomorphised copy of the
/// interpreter, not tested per instruction.
trait Effects: ExecHooks {
    /// A `respond` intrinsic ran.
    fn io_event(&mut self) {}
    /// A `spawn` was reached.
    fn spawn_event(&mut self) {}
}

impl Effects for () {}

/// The effects of the current initializer, for [`run_initializers_logged`].
struct EffectSink {
    fx: ClinitEffects,
    /// Heap size when the current initializer started; any object with a
    /// smaller id is foreign to it.
    watermark: usize,
}

impl ExecHooks for EffectSink {
    fn write(&mut self, r: u32) {
        if (r as usize) < self.watermark {
            self.fx.foreign_writes += 1;
        }
    }
    fn read_static(&mut self, field: FieldId) {
        self.fx.statics_read.insert(field);
    }
    fn write_static(&mut self, field: FieldId) {
        self.fx.statics_written.insert(field);
    }
}

impl Effects for EffectSink {
    fn io_event(&mut self) {
        self.fx.io_events += 1;
    }
    fn spawn_event(&mut self) {
        self.fx.spawn_events += 1;
    }
}

/// Remaining instruction budget for build-time execution.
///
/// Class initializers must terminate; the budget turns accidental infinite
/// loops into an [`ExecError::BudgetExhausted`] instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget(pub u64);

impl Default for StepBudget {
    fn default() -> Self {
        StepBudget(50_000_000)
    }
}

const MAX_DEPTH: usize = 512;

/// Runs the given class initializers, in order, against a fresh heap.
///
/// `inits` is typically `Reachability::build_time_inits`, already permuted
/// by the caller according to the parallel-initialization groups (see
/// [`crate::HeapBuildConfig`]).
///
/// # Errors
/// Propagates the first [`ExecError`] raised by any initializer.
pub fn run_initializers(
    index: &ProgramIndex<'_>,
    inits: &[MethodId],
    budget: StepBudget,
) -> Result<BuildHeap, ExecError> {
    let mut heap = BuildHeap::new();
    let mut budget = budget;
    for &m in inits {
        exec_method(index, &mut heap, m, vec![], &mut budget, 0)?;
    }
    Ok(heap)
}

/// [`run_initializers`] with per-initializer side-effect observation.
///
/// The resulting heap is identical to the unlogged run (logging only
/// observes); the [`EffectLog`] records, for each initializer in execution
/// order, the effects of the initializer and everything it called.
///
/// # Errors
/// Propagates the first [`ExecError`] raised by any initializer.
pub fn run_initializers_logged(
    index: &ProgramIndex<'_>,
    inits: &[MethodId],
    budget: StepBudget,
) -> Result<(BuildHeap, EffectLog), ExecError> {
    let mut heap = BuildHeap::new();
    let mut budget = budget;
    let mut log = EffectLog::default();
    for &m in inits {
        let mut sink = EffectSink {
            fx: ClinitEffects::default(),
            watermark: heap.len(),
        };
        exec_observed(index, &mut heap, m, vec![], &mut budget, 0, &mut sink)?;
        log.per_init.push((m, sink.fx));
    }
    Ok((heap, log))
}

/// Executes one method at build time, as a class initializer would call
/// it. Public so tests can run a method at build time directly.
///
/// # Errors
/// See [`ExecError`].
pub fn exec_method(
    index: &ProgramIndex<'_>,
    heap: &mut BuildHeap,
    method: MethodId,
    args: Vec<Value>,
    budget: &mut StepBudget,
    depth: usize,
) -> Result<Option<Value>, ExecError> {
    exec_observed(index, heap, method, args, budget, depth, &mut ())
}

/// [`exec_method`] reporting its effects to `fx`. Data instructions run
/// through [`exec_data`]; calls, intrinsics, spawns and terminators run
/// here.
fn exec_observed<K: Effects>(
    index: &ProgramIndex<'_>,
    heap: &mut BuildHeap,
    method: MethodId,
    args: Vec<Value>,
    budget: &mut StepBudget,
    depth: usize,
    fx: &mut K,
) -> Result<Option<Value>, ExecError> {
    let program = index.program();
    if depth > MAX_DEPTH {
        return Err(ExecError::StackOverflow);
    }
    let m = program.method(method);
    let mut locals = vec![Value::Null; m.n_locals as usize];
    locals[..args.len()].copy_from_slice(&args);

    let mut block = 0usize;
    loop {
        let b = &m.blocks[block];
        for ins in &b.instrs {
            if budget.0 == 0 {
                return Err(ExecError::BudgetExhausted);
            }
            budget.0 -= 1;
            match ins {
                Instr::Call(call) => {
                    let Call { dst, callee, args } = &**call;
                    let argv: Vec<Value> = args.iter().map(|l| locals[l.index()]).collect();
                    let target = match callee {
                        Callee::Static(m) => *m,
                        Callee::Virtual { selector, .. } => {
                            let class =
                                receiver_class(program, method, heap, argv.first().copied())?;
                            program
                                .resolve_virtual(class, *selector)
                                .ok_or_else(|| no_such_method(program, class, *selector))?
                        }
                    };
                    let ret = exec_observed(index, heap, target, argv, budget, depth + 1, fx)?;
                    if let Some(d) = dst {
                        locals[d.index()] = ret.unwrap_or(Value::Null);
                    }
                }
                // `respond` is a runtime-only event; at build time it is
                // inert.
                Instr::Intrinsic(call) => {
                    let IntrinsicCall { dst, op, args } = &**call;
                    if *op == Intrinsic::Respond {
                        fx.io_event();
                    }
                    let argv: Vec<Value> = args.iter().map(|l| locals[l.index()]).collect();
                    let v = eval_intrinsic(*op, &argv);
                    if let Some(d) = dst {
                        locals[d.index()] = v.unwrap_or(Value::Null);
                    }
                }
                // Threads cannot be started at image build time; the spawn
                // becomes a recorded no-op, like Native Image rejecting
                // runtime-only operations in initializers that it then
                // defers to run time.
                Instr::Spawn(_) => fx.spawn_event(),
                data => exec_data(index, heap, method, &mut locals, data, fx)?,
            }
        }
        match &b.terminator {
            Terminator::Ret(v) => return Ok(v.map(|l| locals[l.index()])),
            Terminator::Jump(t) => block = t.index(),
            Terminator::Br {
                cond,
                then_blk,
                else_blk,
            } => {
                block = match locals[cond.index()] {
                    Value::Bool(true) => then_blk.index(),
                    Value::Bool(false) => else_blk.index(),
                    other => return Err(branch_error(program, method, other)),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{HObjectKind, ObjId};
    use nimage_compiler::DEFAULT_MAX_PATHS;
    use nimage_ir::{ProgramBuilder, TypeRef};

    fn run_single_clinit(
        build: impl FnOnce(&mut ProgramBuilder, nimage_ir::ClassId),
    ) -> (nimage_ir::Program, BuildHeap) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.C", None);
        build(&mut pb, c);
        let p = pb.build().unwrap();
        let inits: Vec<MethodId> = p
            .class(p.class_by_name("t.C").unwrap())
            .clinit
            .into_iter()
            .collect();
        let heap = run_initializers(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &inits,
            StepBudget::default(),
        )
        .unwrap();
        (p, heap)
    }

    #[test]
    fn clinit_populates_statics_and_heap() {
        let (p, heap) = run_single_clinit(|pb, c| {
            let arr_f = pb.add_static_field(c, "TABLE", TypeRef::array_of(TypeRef::Int));
            let cl = pb.declare_clinit(c);
            let mut f = pb.body(cl);
            let n = f.iconst(4);
            let arr = f.new_array(TypeRef::Int, n);
            let from = f.iconst(0);
            f.for_range(from, n, |f, i| {
                let sq = f.mul(i, i);
                f.array_set(arr, i, sq);
            });
            f.put_static(arr_f, arr);
            f.ret(None);
            pb.finish_body(cl, f);
        });
        let fld = p.class(p.class_by_name("t.C").unwrap()).static_fields[0];
        let arr = ObjId(heap.static_value(&p, fld).referent().unwrap());
        match &heap.get(arr).kind {
            HObjectKind::Array { elems, .. } => {
                let vals: Vec<i64> = elems
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        _ => panic!(),
                    })
                    .collect();
                assert_eq!(vals, vec![0, 1, 4, 9]);
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn string_literals_are_interned_once() {
        let (_p, heap) = run_single_clinit(|pb, c| {
            let fa = pb.add_static_field(c, "A", TypeRef::Str);
            let fb = pb.add_static_field(c, "B", TypeRef::Str);
            let cl = pb.declare_clinit(c);
            let mut f = pb.body(cl);
            let s1 = f.sconst("shared");
            let s2 = f.sconst("shared");
            f.put_static(fa, s1);
            f.put_static(fb, s2);
            f.ret(None);
            pb.finish_body(cl, f);
        });
        // "shared" allocated exactly once.
        let strs = (0..heap.len())
            .filter(|&i| matches!(heap.get(ObjId(i as u32)).kind, HObjectKind::Str(_)))
            .count();
        assert_eq!(strs, 1);
    }

    #[test]
    fn infinite_loop_hits_budget() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.C", None);
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        f.while_loop(|f| f.bconst(true), |_f| {});
        f.ret(None);
        pb.finish_body(cl, f);
        let p = pb.build().unwrap();
        let err = run_initializers(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &[cl],
            StepBudget(10_000),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::BudgetExhausted);
    }

    #[test]
    fn null_deref_is_reported() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.C", None);
        let fx = pb.add_instance_field(c, "x", TypeRef::Int);
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let n = f.null();
        let _ = f.get_field(n, fx);
        f.ret(None);
        pb.finish_body(cl, f);
        let p = pb.build().unwrap();
        let err = run_initializers(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &[cl],
            StepBudget::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::NullDeref { .. }));
    }

    /// A field outside the receiver's layout is the VM's type mismatch,
    /// not a panic.
    #[test]
    fn field_outside_the_layout_is_a_type_mismatch() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let b = pb.add_class("t.B", None);
        let bx = pb.add_instance_field(b, "x", TypeRef::Int);
        let cl = pb.declare_clinit(a);
        let mut f = pb.body(cl);
        let o = f.new_object(a);
        let _ = f.get_field(o, bx);
        f.ret(None);
        pb.finish_body(cl, f);
        let p = pb.build().unwrap();
        let err = run_initializers(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &[cl],
            StepBudget::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::TypeMismatch {
                method: p.method_signature(cl),
                detail: "field t.B.x not on t.A".into(),
            }
        );
    }

    #[test]
    fn virtual_dispatch_at_build_time() {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("t.Base", None);
        let sub = pb.add_class("t.Sub", Some(base));
        let _mb = pb.declare_virtual(base, "v", &[], Some(TypeRef::Int));
        let ms = pb.declare_virtual(sub, "v", &[], Some(TypeRef::Int));
        {
            let mut f = pb.body(_mb);
            let v = f.iconst(1);
            f.ret(Some(v));
            pb.finish_body(_mb, f);
        }
        {
            let mut f = pb.body(ms);
            let v = f.iconst(2);
            f.ret(Some(v));
            pb.finish_body(ms, f);
        }
        let holder = pb.add_class("t.H", None);
        let out = pb.add_static_field(holder, "OUT", TypeRef::Int);
        let cl = pb.declare_clinit(holder);
        let sel = pb.intern_selector("v", 0);
        let mut f = pb.body(cl);
        let o = f.new_object(sub);
        let r = f.call_virtual(base, sel, &[o], true).unwrap();
        f.put_static(out, r);
        f.ret(None);
        pb.finish_body(cl, f);
        let p = pb.build().unwrap();
        let heap = run_initializers(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &[cl],
            StepBudget::default(),
        )
        .unwrap();
        assert_eq!(heap.static_value(&p, out), Value::Int(2));
    }

    #[test]
    fn concat_produces_non_interned_string() {
        let (_p, heap) = run_single_clinit(|pb, c| {
            let fs = pb.add_static_field(c, "S", TypeRef::Str);
            let cl = pb.declare_clinit(c);
            let mut f = pb.body(cl);
            let a = f.sconst("a");
            let n = f.iconst(7);
            let s = f.str_concat(a, n);
            f.put_static(fs, s);
            f.ret(None);
            pb.finish_body(cl, f);
        });
        let has_a7 = (0..heap.len())
            .any(|i| matches!(&heap.get(ObjId(i as u32)).kind, HObjectKind::Str(s) if s == "a7"));
        assert!(has_a7);
    }
}
