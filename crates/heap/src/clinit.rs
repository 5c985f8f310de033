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
use std::error::Error;
use std::fmt;

use nimage_ir::{
    eval_bin, eval_intrinsic, eval_un, BinOp, Call, Callee, FieldId, Instr, Intrinsic,
    IntrinsicCall, MethodId, Terminator, Value,
};

use nimage_compiler::ProgramIndex;

use crate::object::{BuildHeap, HObjectKind, ObjId};

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

/// Observation state threaded through build-time execution when effect
/// logging is on.
struct EffectSink {
    fx: ClinitEffects,
    /// Heap size when the current initializer started; any object with a
    /// smaller id is foreign to it.
    watermark: usize,
}

impl EffectSink {
    fn note_heap_write(&mut self, target: ObjId) {
        if target.index() < self.watermark {
            self.fx.foreign_writes += 1;
        }
    }
}

/// Remaining instruction budget for build-time execution.
///
/// Class initializers must terminate; the budget turns accidental infinite
/// loops into a [`ClinitError::BudgetExhausted`] instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepBudget(pub u64);

impl Default for StepBudget {
    fn default() -> Self {
        StepBudget(50_000_000)
    }
}

/// An error raised during build-time initializer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClinitError {
    /// The step budget ran out (likely a non-terminating initializer).
    BudgetExhausted,
    /// Dereferenced null.
    NullDeref {
        /// Signature of the executing method.
        method: String,
    },
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Signature of the executing method.
        method: String,
        /// The offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Integer division by zero.
    DivisionByZero {
        /// Signature of the executing method.
        method: String,
    },
    /// A value had the wrong kind for the operation (a builder bug).
    TypeMismatch {
        /// Signature of the executing method.
        method: String,
        /// Description of the mismatch.
        detail: String,
    },
    /// Virtual dispatch failed to resolve.
    NoSuchMethod {
        /// Receiver class name.
        class: String,
        /// Selector name.
        selector: String,
    },
    /// Call stack exceeded the depth limit.
    StackOverflow,
}

impl fmt::Display for ClinitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClinitError::BudgetExhausted => write!(f, "build-time step budget exhausted"),
            ClinitError::NullDeref { method } => write!(f, "null dereference in {method}"),
            ClinitError::IndexOutOfBounds { method, index, len } => {
                write!(f, "index {index} out of bounds (len {len}) in {method}")
            }
            ClinitError::DivisionByZero { method } => write!(f, "division by zero in {method}"),
            ClinitError::TypeMismatch { method, detail } => {
                write!(f, "type mismatch in {method}: {detail}")
            }
            ClinitError::NoSuchMethod { class, selector } => {
                write!(f, "no method {selector} on {class}")
            }
            ClinitError::StackOverflow => write!(f, "build-time call stack overflow"),
        }
    }
}

impl Error for ClinitError {}

const MAX_DEPTH: usize = 512;

/// Runs the given class initializers, in order, against a fresh heap.
///
/// `inits` is typically `Reachability::build_time_inits`, already permuted
/// by the caller according to the parallel-initialization groups (see
/// [`crate::HeapBuildConfig`]).
///
/// # Errors
/// Propagates the first [`ClinitError`] raised by any initializer.
pub fn run_initializers(
    index: &ProgramIndex<'_>,
    inits: &[MethodId],
    budget: StepBudget,
) -> Result<BuildHeap, ClinitError> {
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
/// Propagates the first [`ClinitError`] raised by any initializer.
pub fn run_initializers_logged(
    index: &ProgramIndex<'_>,
    inits: &[MethodId],
    budget: StepBudget,
) -> Result<(BuildHeap, EffectLog), ClinitError> {
    let mut heap = BuildHeap::new();
    let mut budget = budget;
    let mut log = EffectLog::default();
    for &m in inits {
        let mut sink = Some(EffectSink {
            fx: ClinitEffects::default(),
            watermark: heap.len(),
        });
        exec_method_sunk(index, &mut heap, m, vec![], &mut budget, 0, &mut sink)?;
        log.per_init.push((m, sink.unwrap().fx));
    }
    Ok((heap, log))
}

/// Executes one method at build time. Public so the snapshot tests and the
/// microservice framework models can run helper methods directly.
///
/// # Errors
/// See [`ClinitError`].
pub fn exec_method(
    index: &ProgramIndex<'_>,
    heap: &mut BuildHeap,
    method: MethodId,
    args: Vec<Value>,
    budget: &mut StepBudget,
    depth: usize,
) -> Result<Option<Value>, ClinitError> {
    exec_method_sunk(index, heap, method, args, budget, depth, &mut None)
}

fn exec_method_sunk(
    index: &ProgramIndex<'_>,
    heap: &mut BuildHeap,
    method: MethodId,
    args: Vec<Value>,
    budget: &mut StepBudget,
    depth: usize,
    sink: &mut Option<EffectSink>,
) -> Result<Option<Value>, ClinitError> {
    let program = index.program();
    if depth > MAX_DEPTH {
        return Err(ClinitError::StackOverflow);
    }
    let m = program.method(method);
    let sig = || program.method_signature(method);
    let mut locals = vec![Value::Null; m.n_locals as usize];
    locals[..args.len()].copy_from_slice(&args);

    let mut block = 0usize;
    loop {
        let b = &m.blocks[block];
        for ins in &b.instrs {
            if budget.0 == 0 {
                return Err(ClinitError::BudgetExhausted);
            }
            budget.0 -= 1;
            exec_instr(index, heap, method, &mut locals, ins, budget, depth, sink)?;
        }
        match &b.terminator {
            Terminator::Ret(v) => return Ok(v.map(|l| locals[l.index()])),
            Terminator::Jump(t) => block = t.index(),
            Terminator::Br {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = match locals[cond.index()] {
                    Value::Bool(b) => b,
                    other => {
                        return Err(ClinitError::TypeMismatch {
                            method: sig(),
                            detail: format!("branch on non-bool {other:?}"),
                        })
                    }
                };
                block = if c {
                    then_blk.index()
                } else {
                    else_blk.index()
                };
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_instr(
    index: &ProgramIndex<'_>,
    heap: &mut BuildHeap,
    method: MethodId,
    locals: &mut [Value],
    ins: &Instr,
    budget: &mut StepBudget,
    depth: usize,
    sink: &mut Option<EffectSink>,
) -> Result<(), ClinitError> {
    let program = index.program();
    let sig = || program.method_signature(method);
    let type_err = |detail: String| ClinitError::TypeMismatch {
        method: program.method_signature(method),
        detail,
    };
    match ins {
        Instr::ConstInt(d, v) => locals[d.index()] = Value::Int(*v),
        Instr::ConstDouble(d, v) => locals[d.index()] = Value::Double(*v),
        Instr::ConstBool(d, v) => locals[d.index()] = Value::Bool(*v),
        Instr::ConstStr(d, s) => {
            let o = heap.intern(s);
            locals[d.index()] = Value::Ref(o.0);
        }
        Instr::ConstNull(d) => locals[d.index()] = Value::Null,
        Instr::Move(d, s) => locals[d.index()] = locals[s.index()],
        Instr::Bin(op, d, a, b) => {
            locals[d.index()] =
                eval_bin(*op, locals[a.index()], locals[b.index()]).ok_or_else(|| match op {
                    BinOp::Div | BinOp::Rem => ClinitError::DivisionByZero { method: sig() },
                    _ => type_err(format!("{op:?} on incompatible operands")),
                })?;
        }
        Instr::Un(op, d, a) => {
            locals[d.index()] = eval_un(*op, locals[a.index()])
                .ok_or_else(|| type_err(format!("{op:?} on incompatible operand")))?;
        }
        Instr::New(d, c) => {
            let o = heap.alloc_instance(index, *c);
            locals[d.index()] = Value::Ref(o.0);
        }
        Instr::NewArray(d, elem, len) => {
            let n = as_int(locals[len.index()]).ok_or_else(|| type_err("array length".into()))?;
            if n < 0 {
                return Err(ClinitError::IndexOutOfBounds {
                    method: sig(),
                    index: n,
                    len: 0,
                });
            }
            let o = heap.alloc_array((**elem).clone(), n as usize);
            locals[d.index()] = Value::Ref(o.0);
        }
        Instr::GetField(d, obj, fid) => {
            let o = deref(locals[obj.index()], &sig)?;
            let idx = field_slot(index, heap, o, *fid, &sig)?;
            locals[d.index()] = instance_fields(heap, o)[idx];
        }
        Instr::PutField(obj, fid, src) => {
            let o = deref(locals[obj.index()], &sig)?;
            let idx = field_slot(index, heap, o, *fid, &sig)?;
            let v = locals[src.index()];
            if let Some(s) = sink {
                s.note_heap_write(o);
            }
            instance_fields_mut(heap, o)[idx] = v;
        }
        Instr::GetStatic(d, fid) => {
            if let Some(s) = sink {
                s.fx.statics_read.insert(*fid);
            }
            locals[d.index()] = heap.static_value(program, *fid);
        }
        Instr::PutStatic(fid, src) => {
            if let Some(s) = sink {
                s.fx.statics_written.insert(*fid);
            }
            heap.set_static(*fid, locals[src.index()]);
        }
        Instr::ArrayGet(d, arr, idx) => {
            let o = deref(locals[arr.index()], &sig)?;
            let i = as_int(locals[idx.index()]).ok_or_else(|| type_err("array index".into()))?;
            let elems = array_elems(heap, o, &sig)?;
            let len = elems.len();
            if i < 0 || i as usize >= len {
                return Err(ClinitError::IndexOutOfBounds {
                    method: sig(),
                    index: i,
                    len,
                });
            }
            locals[d.index()] = elems[i as usize];
        }
        Instr::ArraySet(arr, idx, src) => {
            let o = deref(locals[arr.index()], &sig)?;
            let i = as_int(locals[idx.index()]).ok_or_else(|| type_err("array index".into()))?;
            let v = locals[src.index()];
            if let Some(s) = sink {
                s.note_heap_write(o);
            }
            let elems = array_elems_mut(heap, o, &sig)?;
            let len = elems.len();
            if i < 0 || i as usize >= len {
                return Err(ClinitError::IndexOutOfBounds {
                    method: sig(),
                    index: i,
                    len,
                });
            }
            elems[i as usize] = v;
        }
        Instr::ArrayLen(d, arr) => {
            let o = deref(locals[arr.index()], &sig)?;
            let len = array_elems(heap, o, &sig)?.len();
            locals[d.index()] = Value::Int(len as i64);
        }
        Instr::StrLen(d, s) => {
            let o = deref(locals[s.index()], &sig)?;
            let len = str_content(heap, o, &sig)?.len();
            locals[d.index()] = Value::Int(len as i64);
        }
        Instr::StrCharAt(d, s, i) => {
            let o = deref(locals[s.index()], &sig)?;
            let idx = as_int(locals[i.index()]).ok_or_else(|| type_err("charAt index".into()))?;
            let content = str_content(heap, o, &sig)?;
            let ch = content
                .as_bytes()
                .get(idx as usize)
                .copied()
                .ok_or_else(|| ClinitError::IndexOutOfBounds {
                    method: sig(),
                    index: idx,
                    len: content.len(),
                })?;
            locals[d.index()] = Value::Int(i64::from(ch));
        }
        Instr::StrConcat(d, a, b) => {
            let s = format!(
                "{}{}",
                display_value(heap, locals[a.index()]),
                display_value(heap, locals[b.index()])
            );
            let o = heap.alloc(HObjectKind::Str(s));
            locals[d.index()] = Value::Ref(o.0);
        }
        Instr::Call(call) => {
            let Call { dst, callee, args } = &**call;
            let argv: Vec<Value> = args.iter().map(|l| locals[l.index()]).collect();
            let target = match callee {
                Callee::Static(m) => *m,
                Callee::Virtual { selector, .. } => {
                    let recv = deref(argv[0], &sig)?;
                    let class = match &heap.get(recv).kind {
                        HObjectKind::Instance { class, .. } => *class,
                        other => {
                            return Err(type_err(format!("virtual call on {other:?}")));
                        }
                    };
                    program.resolve_virtual(class, *selector).ok_or_else(|| {
                        ClinitError::NoSuchMethod {
                            class: program.class(class).name.clone(),
                            selector: program.selector_name(*selector).to_string(),
                        }
                    })?
                }
            };
            let ret = exec_method_sunk(index, heap, target, argv, budget, depth + 1, sink)?;
            if let Some(d) = dst {
                locals[d.index()] = ret.unwrap_or(Value::Null);
            }
        }
        Instr::Intrinsic(call) => {
            let IntrinsicCall { dst, op, args } = &**call;
            if *op == Intrinsic::Respond {
                if let Some(s) = sink {
                    s.fx.io_events += 1;
                }
            }
            // `respond` is a runtime-only event; at build time it is inert.
            let argv: Vec<Value> = args.iter().map(|l| locals[l.index()]).collect();
            let v = eval_intrinsic(*op, &argv);
            if let Some(d) = dst {
                locals[d.index()] = v.unwrap_or(Value::Null);
            }
        }
        // Threads cannot be started at image build time; the spawn becomes
        // a recorded no-op, like Native Image rejecting runtime-only
        // operations in initializers that it then defers to run time.
        Instr::Spawn { .. } => {
            if let Some(s) = sink {
                s.fx.spawn_events += 1;
            }
        }
    }
    Ok(())
}

fn as_int(v: Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(i),
        _ => None,
    }
}

fn deref(v: Value, sig: &dyn Fn() -> String) -> Result<ObjId, ClinitError> {
    v.referent()
        .map(ObjId)
        .ok_or_else(|| ClinitError::NullDeref { method: sig() })
}

fn field_slot(
    index: &ProgramIndex<'_>,
    heap: &BuildHeap,
    o: ObjId,
    fid: nimage_ir::FieldId,
    sig: &dyn Fn() -> String,
) -> Result<usize, ClinitError> {
    match &heap.get(o).kind {
        HObjectKind::Instance { class, .. } => Ok(BuildHeap::field_index(index, *class, fid)),
        other => Err(ClinitError::TypeMismatch {
            method: sig(),
            detail: format!("field access on {other:?}"),
        }),
    }
}

fn instance_fields(heap: &BuildHeap, o: ObjId) -> &[Value] {
    match &heap.get(o).kind {
        HObjectKind::Instance { fields, .. } => fields,
        _ => unreachable!("checked by field_slot"),
    }
}

fn instance_fields_mut(heap: &mut BuildHeap, o: ObjId) -> &mut [Value] {
    match &mut heap.get_mut(o).kind {
        HObjectKind::Instance { fields, .. } => fields,
        _ => unreachable!("checked by field_slot"),
    }
}

fn array_elems<'h>(
    heap: &'h BuildHeap,
    o: ObjId,
    sig: &dyn Fn() -> String,
) -> Result<&'h [Value], ClinitError> {
    match &heap.get(o).kind {
        HObjectKind::Array { elems, .. } => Ok(elems),
        other => Err(ClinitError::TypeMismatch {
            method: sig(),
            detail: format!("array access on {other:?}"),
        }),
    }
}

fn array_elems_mut<'h>(
    heap: &'h mut BuildHeap,
    o: ObjId,
    sig: &dyn Fn() -> String,
) -> Result<&'h mut Vec<Value>, ClinitError> {
    match &mut heap.get_mut(o).kind {
        HObjectKind::Array { elems, .. } => Ok(elems),
        other => Err(ClinitError::TypeMismatch {
            method: sig(),
            detail: format!("array access on {other:?}"),
        }),
    }
}

fn str_content<'h>(
    heap: &'h BuildHeap,
    o: ObjId,
    sig: &dyn Fn() -> String,
) -> Result<&'h str, ClinitError> {
    match &heap.get(o).kind {
        HObjectKind::Str(s) => Ok(s),
        other => Err(ClinitError::TypeMismatch {
            method: sig(),
            detail: format!("string op on {other:?}"),
        }),
    }
}

fn display_value(heap: &BuildHeap, v: Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d}"),
        Value::Ref(o) => match &heap.get(ObjId(o)).kind {
            HObjectKind::Str(s) => s.clone(),
            other => format!("<{other:?}>"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(err, ClinitError::BudgetExhausted);
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
        assert!(matches!(err, ClinitError::NullDeref { .. }));
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
