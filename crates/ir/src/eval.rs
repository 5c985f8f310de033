//! The one value type, [`Value`], and the operator table: what every
//! [`BinOp`], [`UnOp`] and [`Intrinsic`] computes on it.
//!
//! Class initializers run at image build time (`nimage-heap`) and the same
//! instructions run again in the VM (`nimage-vm`) over the same heap: the
//! VM reads the build-time snapshot in place, so both interpreters hold
//! locals, fields and array slots as [`Value`]s, and both evaluate through
//! this table, which gives every operator one meaning.
//!
//! Every cell is written once. The `Int × Int` and `Double × Double` cells
//! of [`eval_bin`] are [`eval_int_bin`] and [`eval_double_bin`], and the
//! `Int` and `Double` cells of [`eval_un`] are [`eval_int_un`] and
//! [`eval_double_un`]; `eval_bin` / `eval_un` match the operand tags,
//! delegate to them and hold the Bool, reference and null cells
//! themselves. The one data-op function of the build-time interpreter
//! and the VM's reference interpreter, `nimage_heap::exec::exec_data`,
//! and the VM's lowered engine match the tags of their operands where
//! they lie and call the typed cells directly; any other operand pair,
//! and any typed cell without a value, goes through `eval_bin` /
//! `eval_un`.

use crate::instr::{BinOp, Intrinsic, UnOp};
use crate::types::TypeRef;

/// A value: the contents of a local, a field or an array slot, at build
/// time and at run time alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// The null reference.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// A reference, by heap index. Build-time objects keep their index at
    /// run time, so a reference below the snapshot's length is the
    /// build-time object of that index; the operator table only ever
    /// compares references for identity.
    Ref(u32),
}

impl Value {
    /// The default value of a field or array element of declared type
    /// `ty`.
    #[inline]
    pub fn default_for(ty: &TypeRef) -> Value {
        match ty {
            TypeRef::Bool => Value::Bool(false),
            TypeRef::Int => Value::Int(0),
            TypeRef::Double => Value::Double(0.0),
            _ => Value::Null,
        }
    }

    /// The heap index this value references, if it is a reference.
    #[inline]
    pub fn referent(self) -> Option<u32> {
        match self {
            Value::Ref(r) => Some(r),
            _ => None,
        }
    }
}

/// Evaluates a binary operator. Integer arithmetic wraps, shift counts are
/// taken modulo 64, floats follow IEEE 754, and operands are never
/// coerced: `None` means integer division or remainder by zero (the only
/// way `Div` / `Rem` fail on well-typed operands) or an ill-typed operand
/// pair. The `Int × Int` and `Double × Double` cells are
/// [`eval_int_bin`] and [`eval_double_bin`].
#[inline]
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Option<Value> {
    use Value::*;
    Some(match (op, a, b) {
        (_, Int(x), Int(y)) => return eval_int_bin(op, x, y, |v| v),
        (_, Double(x), Double(y)) => return eval_double_bin(op, x, y, |v| v),
        (BinOp::And, Bool(x), Bool(y)) => Value::Bool(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => Value::Bool(x || y),
        (BinOp::Xor, Bool(x), Bool(y)) => Value::Bool(x ^ y),
        (BinOp::Eq, Bool(x), Bool(y)) => Value::Bool(x == y),
        (BinOp::Ne, Bool(x), Bool(y)) => Value::Bool(x != y),
        (BinOp::Eq, Ref(x), Ref(y)) => Value::Bool(x == y),
        (BinOp::Ne, Ref(x), Ref(y)) => Value::Bool(x != y),
        (BinOp::Eq, Null, Null) => Value::Bool(true),
        (BinOp::Ne, Null, Null) => Value::Bool(false),
        (BinOp::Eq, Ref(_), Null) | (BinOp::Eq, Null, Ref(_)) => Value::Bool(false),
        (BinOp::Ne, Ref(_), Null) | (BinOp::Ne, Null, Ref(_)) => Value::Bool(true),
        _ => return None,
    })
}

/// The `Int × Int` cells of [`eval_bin`]; `None` means `Div` or `Rem` by
/// zero. The value goes to `put` from the arm that computes it, where its
/// variant is a constant, and `put`'s result is returned. Always inlined:
/// an interpreter that has already matched both operand tags passes a
/// `put` that stores into the destination, and each arm then stores a
/// constant tag and a payload held in a register. Returning the value
/// instead merges the arms' `Int` and `Bool` results into one value in
/// memory that the caller copies out again.
#[inline(always)]
pub fn eval_int_bin<R>(op: BinOp, x: i64, y: i64, put: impl FnOnce(Value) -> R) -> Option<R> {
    Some(match op {
        BinOp::Add => put(Value::Int(x.wrapping_add(y))),
        BinOp::Sub => put(Value::Int(x.wrapping_sub(y))),
        BinOp::Mul => put(Value::Int(x.wrapping_mul(y))),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            put(Value::Int(x.wrapping_div(y)))
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
            }
            put(Value::Int(x.wrapping_rem(y)))
        }
        BinOp::And => put(Value::Int(x & y)),
        BinOp::Or => put(Value::Int(x | y)),
        BinOp::Xor => put(Value::Int(x ^ y)),
        BinOp::Shl => put(Value::Int(x.wrapping_shl(y as u32))),
        BinOp::Shr => put(Value::Int(x.wrapping_shr(y as u32))),
        BinOp::Lt => put(Value::Bool(x < y)),
        BinOp::Le => put(Value::Bool(x <= y)),
        BinOp::Gt => put(Value::Bool(x > y)),
        BinOp::Ge => put(Value::Bool(x >= y)),
        BinOp::Eq => put(Value::Bool(x == y)),
        BinOp::Ne => put(Value::Bool(x != y)),
    })
}

/// The `Double × Double` cells of [`eval_bin`]; `None` for the bitwise
/// operators, which are ill-typed on doubles. The value goes to `put`, as
/// in [`eval_int_bin`].
#[inline(always)]
pub fn eval_double_bin<R>(op: BinOp, x: f64, y: f64, put: impl FnOnce(Value) -> R) -> Option<R> {
    Some(match op {
        BinOp::Add => put(Value::Double(x + y)),
        BinOp::Sub => put(Value::Double(x - y)),
        BinOp::Mul => put(Value::Double(x * y)),
        BinOp::Div => put(Value::Double(x / y)),
        BinOp::Rem => put(Value::Double(x % y)),
        BinOp::Lt => put(Value::Bool(x < y)),
        BinOp::Le => put(Value::Bool(x <= y)),
        BinOp::Gt => put(Value::Bool(x > y)),
        BinOp::Ge => put(Value::Bool(x >= y)),
        BinOp::Eq => put(Value::Bool(x == y)),
        BinOp::Ne => put(Value::Bool(x != y)),
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => return None,
    })
}

/// Evaluates a unary operator (`None`: ill-typed operand). `DoubleToInt`
/// truncates toward zero and saturates; `NaN` converts to 0. The `Int` and
/// `Double` cells are [`eval_int_un`] and [`eval_double_un`].
#[inline]
pub fn eval_un(op: UnOp, a: Value) -> Option<Value> {
    use Value::*;
    match (op, a) {
        (_, Int(x)) => eval_int_un(op, x, |v| v),
        (_, Double(x)) => eval_double_un(op, x, |v| v),
        (UnOp::Not, Bool(x)) => Some(Value::Bool(!x)),
        _ => None,
    }
}

/// The `Int` cells of [`eval_un`]: the value goes to `put`, as in
/// [`eval_int_bin`]; `None` where an int is ill-typed.
#[inline(always)]
pub fn eval_int_un<R>(op: UnOp, x: i64, put: impl FnOnce(Value) -> R) -> Option<R> {
    match op {
        UnOp::Neg => Some(put(Value::Int(x.wrapping_neg()))),
        UnOp::IntToDouble => Some(put(Value::Double(x as f64))),
        UnOp::Not | UnOp::DoubleToInt => None,
    }
}

/// The `Double` cells of [`eval_un`]: the value goes to `put`, as in
/// [`eval_int_bin`]; `None` where a double is ill-typed.
#[inline(always)]
pub fn eval_double_un<R>(op: UnOp, x: f64, put: impl FnOnce(Value) -> R) -> Option<R> {
    match op {
        UnOp::Neg => Some(put(Value::Double(-x))),
        UnOp::DoubleToInt => Some(put(Value::Int(x as i64))),
        UnOp::Not | UnOp::IntToDouble => None,
    }
}

/// Evaluates the value of an intrinsic call. `None` means the call
/// produces no value: [`Intrinsic::Respond`] is an event, not a function
/// (each interpreter records it its own way), and the math intrinsics
/// yield nothing unless their first argument is a double.
#[inline]
pub fn eval_intrinsic(op: Intrinsic, args: &[Value]) -> Option<Value> {
    let d = |i: usize| match args.get(i) {
        Some(&Value::Double(v)) => Some(v),
        _ => None,
    };
    Some(Value::Double(match op {
        Intrinsic::Sqrt => d(0)?.sqrt(),
        Intrinsic::Abs => d(0)?.abs(),
        Intrinsic::Floor => d(0)?.floor(),
        Intrinsic::Cos => d(0)?.cos(),
        Intrinsic::Sin => d(0)?.sin(),
        Intrinsic::Respond => return None,
    }))
}
