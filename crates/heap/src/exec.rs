//! One instruction semantics for build time and run time.
//!
//! Class initializers run at image build time ([`crate::run_initializers`])
//! and the same instructions run again in the VM over the snapshot they
//! produced. Both interpreters run every *data* instruction — the
//! constants, `Move`, `Bin`, `Un`, `New`, `NewArray` and the field,
//! static, array and string ops — through [`exec_data`], each against its
//! own heap ([`ExecHeap`]) and with its own observers ([`ExecHooks`]), and
//! both raise the one error type, [`ExecError`]. What stays per
//! interpreter is calls, intrinsics, spawns and terminators: the
//! build-time interpreter recurses and counts effects, the VM schedules
//! threads, enters compilation units and records profiles.
//!
//! The VM's lowered engine keeps its own dispatch, since it is what the
//! reference interpreter checks, but builds its errors with the helpers
//! here, so all three raise the same error for the same failure.

use std::error::Error;
use std::fmt;

use nimage_compiler::ProgramIndex;
use nimage_ir::{
    eval_bin, eval_double_bin, eval_double_un, eval_int_bin, eval_int_un, eval_un, BinOp, ClassId,
    FieldId, Instr, MethodId, Program, SelectorId, UnOp, Value,
};

use crate::object::{BuildHeap, HObjectKind, ObjId};

/// An instruction that failed, at build time or at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Dereferenced null.
    NullDeref {
        /// Signature of the executing method.
        method: String,
    },
    /// Array or string index out of bounds, or a negative array length.
    IndexOutOfBounds {
        /// Signature of the executing method.
        method: String,
        /// The offending index (or length).
        index: i64,
        /// Length of the array or string (0 for a new array).
        len: usize,
    },
    /// Integer division or remainder by zero.
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
    /// The build-time step budget ran out (likely a non-terminating
    /// initializer).
    BudgetExhausted,
    /// The build-time call stack exceeded its depth limit.
    StackOverflow,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NullDeref { method } => write!(f, "null dereference in {method}"),
            ExecError::IndexOutOfBounds { method, index, len } => {
                write!(f, "index {index} out of bounds (len {len}) in {method}")
            }
            ExecError::DivisionByZero { method } => write!(f, "division by zero in {method}"),
            ExecError::TypeMismatch { method, detail } => {
                write!(f, "type mismatch in {method}: {detail}")
            }
            ExecError::NoSuchMethod { class, selector } => {
                write!(f, "no method {selector} on {class}")
            }
            ExecError::BudgetExhausted => write!(f, "build-time step budget exhausted"),
            ExecError::StackOverflow => write!(f, "build-time call stack overflow"),
        }
    }
}

impl Error for ExecError {}

/// The heap an interpreter runs data instructions against: the build-time
/// [`BuildHeap`], or the VM's run-private heap over a snapshot. Objects
/// are named by their heap index, as [`Value::Ref`] holds it.
pub trait ExecHeap {
    /// The payload of object `r`.
    fn object(&self, r: u32) -> &HObjectKind;
    /// Mutable access to the payload of object `r`.
    fn object_mut(&mut self, r: u32) -> &mut HObjectKind;
    /// Allocates an object and returns its index.
    fn alloc_object(&mut self, kind: HObjectKind) -> u32;
    /// The interned string object for `s`, allocated on first use.
    fn intern_str(&mut self, s: &str) -> u32;
    /// The current value of static field `field` of `program`.
    fn read_static(&self, program: &Program, field: FieldId) -> Value;
    /// Sets static field `field`.
    fn write_static(&mut self, field: FieldId, value: Value);
}

impl ExecHeap for BuildHeap {
    fn object(&self, r: u32) -> &HObjectKind {
        &self.get(ObjId(r)).kind
    }
    fn object_mut(&mut self, r: u32) -> &mut HObjectKind {
        &mut self.get_mut(ObjId(r)).kind
    }
    fn alloc_object(&mut self, kind: HObjectKind) -> u32 {
        self.alloc(kind).0
    }
    fn intern_str(&mut self, s: &str) -> u32 {
        self.intern(s).0
    }
    fn read_static(&self, program: &Program, field: FieldId) -> Value {
        self.static_value(program, field)
    }
    fn write_static(&mut self, field: FieldId, value: Value) {
        self.set_static(field, value);
    }
}

/// What an interpreter observes of the heap accesses [`exec_data`] makes.
/// Every hook does nothing unless overridden; `()` overrides none.
pub trait ExecHooks {
    /// Object `r` was read at byte `offset` for its header or its
    /// characters: a string literal, a length, `charAt`.
    fn touch(&mut self, _r: u32, _offset: u64) {}
    /// The field or element at byte `offset` of object `r` was read or
    /// written.
    fn access(&mut self, _r: u32, _offset: u64) {}
    /// A field or an element of object `r` was written.
    fn write(&mut self, _r: u32) {}
    /// Static field `field` was read.
    fn read_static(&mut self, _field: FieldId) {}
    /// Static field `field` was written.
    fn write_static(&mut self, _field: FieldId) {}
}

impl ExecHooks for () {}

/// Runs data instruction `ins` of `method` over `locals` and `heap`.
///
/// # Errors
/// The [`ExecError`] the instruction raises.
///
/// # Panics
/// On `Call`, `Intrinsic` and `Spawn`, which each interpreter runs itself.
// Inlined into each interpreter's loop, which calls it once per op: out of
// line, that call measurably slowed the build-time interpreter.
#[inline(always)]
pub fn exec_data<H: ExecHeap, K: ExecHooks>(
    index: &ProgramIndex<'_>,
    heap: &mut H,
    method: MethodId,
    locals: &mut [Value],
    ins: &Instr,
    hooks: &mut K,
) -> Result<(), ExecError> {
    let program = index.program();
    match ins {
        Instr::ConstInt(d, v) => locals[d.index()] = Value::Int(*v),
        Instr::ConstDouble(d, v) => locals[d.index()] = Value::Double(*v),
        Instr::ConstBool(d, v) => locals[d.index()] = Value::Bool(*v),
        Instr::ConstNull(d) => locals[d.index()] = Value::Null,
        Instr::ConstStr(d, s) => {
            let r = heap.intern_str(s);
            // Loading an interned literal reads its String object.
            hooks.touch(r, 0);
            locals[d.index()] = Value::Ref(r);
        }
        // Values move the way the VM's lowered engine moves them: a
        // 16-byte load of a value stored as a tag and a payload apart
        // cannot be forwarded from those two stores and stalls (DESIGN.md
        // §11, "Typed operands"). So `Move` copies tag and payload apart,
        // and `Bin` / `Un` match their operands where they lie and have
        // the typed cells store the result straight into the destination
        // instead of copying it out of `eval_bin`'s `Option`.
        Instr::Move(d, s) => {
            locals[d.index()] = match locals[s.index()] {
                Value::Int(x) => Value::Int(x),
                Value::Double(x) => Value::Double(x),
                Value::Bool(x) => Value::Bool(x),
                v => v,
            }
        }
        Instr::Bin(op, d, a, b) => {
            let d = d.index();
            let done = match (&locals[a.index()], &locals[b.index()]) {
                (&Value::Int(x), &Value::Int(y)) => eval_int_bin(*op, x, y, |v| locals[d] = v),
                (&Value::Double(x), &Value::Double(y)) => {
                    eval_double_bin(*op, x, y, |v| locals[d] = v)
                }
                (&va, &vb) => eval_bin(*op, va, vb).map(|v| locals[d] = v),
            };
            if done.is_none() {
                let (va, vb) = (locals[a.index()], locals[b.index()]);
                return Err(bin_error(program, method, *op, va, vb));
            }
        }
        Instr::Un(op, d, a) => {
            let d = d.index();
            let done = match locals[a.index()] {
                Value::Int(x) => eval_int_un(*op, x, |v| locals[d] = v),
                Value::Double(x) => eval_double_un(*op, x, |v| locals[d] = v),
                va => eval_un(*op, va).map(|v| locals[d] = v),
            };
            if done.is_none() {
                return Err(un_error(program, method, *op, locals[a.index()]));
            }
        }
        Instr::New(d, c) => {
            let r = heap.alloc_object(new_instance(index, *c));
            locals[d.index()] = Value::Ref(r);
        }
        Instr::NewArray(d, elem, len) => {
            let n = int_of(program, method, locals[len.index()])?;
            let n = usize::try_from(n).map_err(|_| out_of_bounds(program, method, n, 0))?;
            let r = heap.alloc_object(HObjectKind::Array {
                elem: (**elem).clone(),
                elems: vec![Value::default_for(elem); n],
            });
            locals[d.index()] = Value::Ref(r);
        }
        Instr::GetField(d, obj, fid) => {
            let r = ref_of(program, method, locals[obj.index()])?;
            let (slot, v) = field_slot(program, method, heap.object(r), *fid, |c| {
                index.field_slot(c, *fid)
            })?;
            hooks.access(r, 16 + 8 * slot as u64);
            locals[d.index()] = v;
        }
        Instr::PutField(obj, fid, src) => {
            let r = ref_of(program, method, locals[obj.index()])?;
            let slot = field_slot(program, method, heap.object(r), *fid, |c| {
                index.field_slot(c, *fid)
            })?
            .0;
            hooks.access(r, 16 + 8 * slot as u64);
            hooks.write(r);
            match heap.object_mut(r) {
                HObjectKind::Instance { fields, .. } => fields[slot] = locals[src.index()],
                _ => unreachable!("field_slot checked"),
            }
        }
        Instr::GetStatic(d, fid) => {
            hooks.read_static(*fid);
            locals[d.index()] = heap.read_static(program, *fid);
        }
        Instr::PutStatic(fid, src) => {
            hooks.write_static(*fid);
            heap.write_static(*fid, locals[src.index()]);
        }
        Instr::ArrayGet(d, arr, idx) => {
            let r = ref_of(program, method, locals[arr.index()])?;
            let i = int_of(program, method, locals[idx.index()])?;
            let v = match heap.object(r) {
                HObjectKind::Array { elems, .. } => *usize::try_from(i)
                    .ok()
                    .and_then(|at| elems.get(at))
                    .ok_or_else(|| out_of_bounds(program, method, i, elems.len()))?,
                other => return Err(kind_error(program, method, "array access", other)),
            };
            hooks.access(r, 24 + 8 * i as u64);
            locals[d.index()] = v;
        }
        Instr::ArraySet(arr, idx, src) => {
            let r = ref_of(program, method, locals[arr.index()])?;
            let i = int_of(program, method, locals[idx.index()])?;
            let at = match heap.object(r) {
                HObjectKind::Array { elems, .. } => usize::try_from(i)
                    .ok()
                    .filter(|&at| at < elems.len())
                    .ok_or_else(|| out_of_bounds(program, method, i, elems.len()))?,
                other => return Err(kind_error(program, method, "array access", other)),
            };
            hooks.access(r, 24 + 8 * at as u64);
            hooks.write(r);
            match heap.object_mut(r) {
                HObjectKind::Array { elems, .. } => elems[at] = locals[src.index()],
                _ => unreachable!("checked above"),
            }
        }
        Instr::ArrayLen(d, arr) => {
            let r = ref_of(program, method, locals[arr.index()])?;
            let n = array_len(program, method, heap.object(r))?;
            hooks.touch(r, 0);
            locals[d.index()] = Value::Int(n);
        }
        Instr::StrLen(d, s) => {
            let r = ref_of(program, method, locals[s.index()])?;
            let n = str_of(program, method, heap.object(r))?.len() as i64;
            hooks.touch(r, 0);
            locals[d.index()] = Value::Int(n);
        }
        Instr::StrCharAt(d, s, i) => {
            let r = ref_of(program, method, locals[s.index()])?;
            let at = int_of(program, method, locals[i.index()])?;
            let ch = char_at(program, method, heap.object(r), at)?;
            hooks.touch(r, 24 + at as u64);
            locals[d.index()] = Value::Int(ch);
        }
        Instr::StrConcat(d, a, b) => {
            let s = format!(
                "{}{}",
                display_value(heap, locals[a.index()]),
                display_value(heap, locals[b.index()])
            );
            let r = heap.alloc_object(HObjectKind::Str(s));
            locals[d.index()] = Value::Ref(r);
        }
        Instr::Call(_) | Instr::Intrinsic(_) | Instr::Spawn(_) => {
            unreachable!("run by the interpreter itself")
        }
    }
    Ok(())
}

/// A new instance of `class` with every field at its declared default.
pub(crate) fn new_instance(index: &ProgramIndex<'_>, class: ClassId) -> HObjectKind {
    let program = index.program();
    let fields = index
        .layout(class)
        .iter()
        .map(|&f| Value::default_for(&program.field(f).ty))
        .collect();
    HObjectKind::Instance { class, fields }
}

/// `v` as an object reference, or the error an op of `method` raises.
#[inline]
pub fn ref_of(program: &Program, method: MethodId, v: Value) -> Result<u32, ExecError> {
    match v {
        Value::Ref(r) => Ok(r),
        other => Err(not_a_ref(program, method, other)),
    }
}

/// `v` as an int, or the error an op of `method` raises.
#[inline]
pub fn int_of(program: &Program, method: MethodId, v: Value) -> Result<i64, ExecError> {
    match v {
        Value::Int(i) => Ok(i),
        other => Err(not_an_int(program, method, other)),
    }
}

/// The slot and value of field `fid` in `obj`, with `slot_of` giving the
/// field's slot in a class's layout — or the error an op of `method`
/// raises. Forced inline so the `(slot, value)` result stays out of memory
/// on the VM's hot path.
#[inline(always)]
pub fn field_slot(
    program: &Program,
    method: MethodId,
    obj: &HObjectKind,
    fid: FieldId,
    slot_of: impl FnOnce(ClassId) -> Option<usize>,
) -> Result<(usize, Value), ExecError> {
    if let HObjectKind::Instance { class, fields } = obj {
        if let Some(slot) = slot_of(*class) {
            return Ok((slot, fields[slot]));
        }
    }
    Err(field_error(program, method, obj, fid))
}

/// The length of array `obj`, or the error an op of `method` raises.
pub fn array_len(program: &Program, method: MethodId, obj: &HObjectKind) -> Result<i64, ExecError> {
    match obj {
        HObjectKind::Array { elems, .. } => Ok(elems.len() as i64),
        other => Err(kind_error(program, method, "array length", other)),
    }
}

/// The characters of string `obj`, or the error an op of `method` raises.
pub fn str_of<'h>(
    program: &Program,
    method: MethodId,
    obj: &'h HObjectKind,
) -> Result<&'h str, ExecError> {
    match obj {
        HObjectKind::Str(s) => Ok(s),
        other => Err(kind_error(program, method, "string op", other)),
    }
}

/// Character `at` of string `obj`, or the error an op of `method` raises.
pub fn char_at(
    program: &Program,
    method: MethodId,
    obj: &HObjectKind,
    at: i64,
) -> Result<i64, ExecError> {
    let s = str_of(program, method, obj)?;
    usize::try_from(at)
        .ok()
        .and_then(|i| s.as_bytes().get(i))
        .map(|&ch| i64::from(ch))
        .ok_or_else(|| out_of_bounds(program, method, at, s.len()))
}

/// The class of virtual-call receiver `recv` (the call's first argument),
/// or the error a call in `method` raises.
pub fn receiver_class<H: ExecHeap + ?Sized>(
    program: &Program,
    method: MethodId,
    heap: &H,
    recv: Option<Value>,
) -> Result<ClassId, ExecError> {
    let r = ref_of(program, method, recv.unwrap_or(Value::Null))?;
    match heap.object(r) {
        HObjectKind::Instance { class, .. } => Ok(*class),
        other => Err(kind_error(program, method, "virtual call", other)),
    }
}

/// The error a virtual call of `selector` on an instance of `class` raises
/// when dispatch finds no method.
#[cold]
pub fn no_such_method(program: &Program, class: ClassId, selector: SelectorId) -> ExecError {
    ExecError::NoSuchMethod {
        class: program.class(class).name.clone(),
        selector: program.selector_name(selector).to_string(),
    }
}

/// The error `Bin(op)` of `method` raises when the operator table has no
/// value for `va, vb`.
#[cold]
pub fn bin_error(
    program: &Program,
    method: MethodId,
    op: BinOp,
    va: Value,
    vb: Value,
) -> ExecError {
    match op {
        BinOp::Div | BinOp::Rem => ExecError::DivisionByZero {
            method: program.method_signature(method),
        },
        _ => mismatch(program, method, format!("{op:?} on {va:?}, {vb:?}")),
    }
}

/// The error `Un(op)` of `method` raises when the operator table has no
/// value for `va`.
#[cold]
pub fn un_error(program: &Program, method: MethodId, op: UnOp, va: Value) -> ExecError {
    mismatch(program, method, format!("{op:?} on {va:?}"))
}

/// The error a branch of `method` on the non-bool `cond` raises.
#[cold]
pub fn branch_error(program: &Program, method: MethodId, cond: Value) -> ExecError {
    mismatch(program, method, format!("branch on {cond:?}"))
}

/// The error an `op` of `method` (`"array access"`, `"string op"`, …)
/// raises on an object of the wrong kind.
#[cold]
pub fn kind_error(program: &Program, method: MethodId, op: &str, obj: &HObjectKind) -> ExecError {
    mismatch(program, method, format!("{op} on {obj:?}"))
}

/// The error index `index` into a `len`-long array or string raises in
/// `method`.
#[cold]
pub fn out_of_bounds(program: &Program, method: MethodId, index: i64, len: usize) -> ExecError {
    ExecError::IndexOutOfBounds {
        method: program.method_signature(method),
        index,
        len,
    }
}

#[cold]
fn not_a_ref(program: &Program, method: MethodId, v: Value) -> ExecError {
    match v {
        Value::Null => ExecError::NullDeref {
            method: program.method_signature(method),
        },
        other => mismatch(
            program,
            method,
            format!("expected reference, got {other:?}"),
        ),
    }
}

#[cold]
fn not_an_int(program: &Program, method: MethodId, v: Value) -> ExecError {
    mismatch(program, method, format!("expected int, got {v:?}"))
}

#[cold]
fn field_error(program: &Program, method: MethodId, obj: &HObjectKind, fid: FieldId) -> ExecError {
    match obj {
        HObjectKind::Instance { class, .. } => mismatch(
            program,
            method,
            format!(
                "field {} not on {}",
                program.field_signature(fid),
                program.class(*class).name
            ),
        ),
        other => kind_error(program, method, "field access", other),
    }
}

#[cold]
fn mismatch(program: &Program, method: MethodId, detail: String) -> ExecError {
    ExecError::TypeMismatch {
        method: program.method_signature(method),
        detail,
    }
}

/// `v` as `StrConcat` renders it: a string's characters, a number or a
/// bool as Java prints it, `null`, or another object's payload.
pub fn display_value<H: ExecHeap + ?Sized>(heap: &H, v: Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d}"),
        Value::Ref(r) => match heap.object(r) {
            HObjectKind::Str(s) => s.clone(),
            other => format!("<{other:?}>"),
        },
    }
}
