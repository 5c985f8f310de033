//! The operator table: what every [`BinOp`], [`UnOp`] and [`Intrinsic`]
//! computes.
//!
//! Class initializers run at image build time (`nimage-heap`) and the same
//! instructions run again in the VM (`nimage-vm`); the heap snapshot is
//! only meaningful if both give an operator the same meaning, so both
//! interpreters evaluate through this table. Each interpreter keeps its own
//! value enum (their references differ).
//!
//! Every cell is written once. The `Int × Int` and `Double × Double` cells
//! of [`eval_bin`] are [`eval_int_bin`] and [`eval_double_bin`], and the
//! `Int` and `Double` cells of [`eval_un`] are [`eval_int_un`] and
//! [`eval_double_un`]; `eval_bin` / `eval_un` match the operand tags,
//! delegate to them and hold the Bool, reference and null cells
//! themselves. The build-time interpreter and the VM's reference
//! interpreter call `eval_bin` / `eval_un`, converting through the
//! [`Scalar`] view. The VM's lowered engine matches the tags of its
//! operands where they lie and calls the typed cells directly; any other
//! operand pair, and any typed cell without a value, goes through
//! `eval_bin` / `eval_un`.

use crate::instr::{BinOp, Intrinsic, UnOp};

/// The operator table's view of a value. References are opaque handles:
/// the table only ever compares them for identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// The null reference.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// A reference, by arena index.
    Ref(u32),
}

// Results are built per arm, where the variant is a constant `V::from`
// folds over; converting one merged `Scalar` after the match instead costs
// the VM's dispatch loop ~3 % (`crit_dispatch`, `dispatch/lowered_shared`).
#[inline(always)]
fn int<V: From<Scalar>>(x: i64) -> V {
    V::from(Scalar::Int(x))
}
#[inline(always)]
fn dbl<V: From<Scalar>>(x: f64) -> V {
    V::from(Scalar::Double(x))
}
#[inline(always)]
fn boolean<V: From<Scalar>>(x: bool) -> V {
    V::from(Scalar::Bool(x))
}

/// Evaluates a binary operator. Integer arithmetic wraps, shift counts are
/// taken modulo 64, floats follow IEEE 754, and operands are never
/// coerced: `None` means integer division or remainder by zero (the only
/// way `Div` / `Rem` fail on well-typed operands) or an ill-typed operand
/// pair. The `Int × Int` and `Double × Double` cells are
/// [`eval_int_bin`] and [`eval_double_bin`].
#[inline]
pub fn eval_bin<V: Into<Scalar> + From<Scalar>>(op: BinOp, a: V, b: V) -> Option<V> {
    use Scalar::*;
    Some(match (op, a.into(), b.into()) {
        (_, Int(x), Int(y)) => return eval_int_bin(op, x, y, |v| v),
        (_, Double(x), Double(y)) => return eval_double_bin(op, x, y, |v| v),
        (BinOp::And, Bool(x), Bool(y)) => boolean(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => boolean(x || y),
        (BinOp::Xor, Bool(x), Bool(y)) => boolean(x ^ y),
        (BinOp::Eq, Bool(x), Bool(y)) => boolean(x == y),
        (BinOp::Ne, Bool(x), Bool(y)) => boolean(x != y),
        (BinOp::Eq, Ref(x), Ref(y)) => boolean(x == y),
        (BinOp::Ne, Ref(x), Ref(y)) => boolean(x != y),
        (BinOp::Eq, Null, Null) => boolean(true),
        (BinOp::Ne, Null, Null) => boolean(false),
        (BinOp::Eq, Ref(_), Null) | (BinOp::Eq, Null, Ref(_)) => boolean(false),
        (BinOp::Ne, Ref(_), Null) | (BinOp::Ne, Null, Ref(_)) => boolean(true),
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
pub fn eval_int_bin<V: From<Scalar>, R>(
    op: BinOp,
    x: i64,
    y: i64,
    put: impl FnOnce(V) -> R,
) -> Option<R> {
    Some(match op {
        BinOp::Add => put(int(x.wrapping_add(y))),
        BinOp::Sub => put(int(x.wrapping_sub(y))),
        BinOp::Mul => put(int(x.wrapping_mul(y))),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            put(int(x.wrapping_div(y)))
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
            }
            put(int(x.wrapping_rem(y)))
        }
        BinOp::And => put(int(x & y)),
        BinOp::Or => put(int(x | y)),
        BinOp::Xor => put(int(x ^ y)),
        BinOp::Shl => put(int(x.wrapping_shl(y as u32))),
        BinOp::Shr => put(int(x.wrapping_shr(y as u32))),
        BinOp::Lt => put(boolean(x < y)),
        BinOp::Le => put(boolean(x <= y)),
        BinOp::Gt => put(boolean(x > y)),
        BinOp::Ge => put(boolean(x >= y)),
        BinOp::Eq => put(boolean(x == y)),
        BinOp::Ne => put(boolean(x != y)),
    })
}

/// The `Double × Double` cells of [`eval_bin`]; `None` for the bitwise
/// operators, which are ill-typed on doubles. The value goes to `put`, as
/// in [`eval_int_bin`].
#[inline(always)]
pub fn eval_double_bin<V: From<Scalar>, R>(
    op: BinOp,
    x: f64,
    y: f64,
    put: impl FnOnce(V) -> R,
) -> Option<R> {
    Some(match op {
        BinOp::Add => put(dbl(x + y)),
        BinOp::Sub => put(dbl(x - y)),
        BinOp::Mul => put(dbl(x * y)),
        BinOp::Div => put(dbl(x / y)),
        BinOp::Rem => put(dbl(x % y)),
        BinOp::Lt => put(boolean(x < y)),
        BinOp::Le => put(boolean(x <= y)),
        BinOp::Gt => put(boolean(x > y)),
        BinOp::Ge => put(boolean(x >= y)),
        BinOp::Eq => put(boolean(x == y)),
        BinOp::Ne => put(boolean(x != y)),
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => return None,
    })
}

/// Evaluates a unary operator (`None`: ill-typed operand). `DoubleToInt`
/// truncates toward zero and saturates; `NaN` converts to 0. The `Int` and
/// `Double` cells are [`eval_int_un`] and [`eval_double_un`].
#[inline]
pub fn eval_un<V: Into<Scalar> + From<Scalar>>(op: UnOp, a: V) -> Option<V> {
    use Scalar::*;
    match (op, a.into()) {
        (_, Int(x)) => eval_int_un(op, x, |v| v),
        (_, Double(x)) => eval_double_un(op, x, |v| v),
        (UnOp::Not, Bool(x)) => Some(boolean(!x)),
        _ => None,
    }
}

/// The `Int` cells of [`eval_un`]: the value goes to `put`, as in
/// [`eval_int_bin`]; `None` where an int is ill-typed.
#[inline(always)]
pub fn eval_int_un<V: From<Scalar>, R>(op: UnOp, x: i64, put: impl FnOnce(V) -> R) -> Option<R> {
    match op {
        UnOp::Neg => Some(put(int(x.wrapping_neg()))),
        UnOp::IntToDouble => Some(put(dbl(x as f64))),
        UnOp::Not | UnOp::DoubleToInt => None,
    }
}

/// The `Double` cells of [`eval_un`]: the value goes to `put`, as in
/// [`eval_int_bin`]; `None` where a double is ill-typed.
#[inline(always)]
pub fn eval_double_un<V: From<Scalar>, R>(op: UnOp, x: f64, put: impl FnOnce(V) -> R) -> Option<R> {
    match op {
        UnOp::Neg => Some(put(dbl(-x))),
        UnOp::DoubleToInt => Some(put(int(x as i64))),
        UnOp::Not | UnOp::IntToDouble => None,
    }
}

/// Evaluates the value of an intrinsic call. `None` means the call
/// produces no value: [`Intrinsic::Respond`] is an event, not a function
/// (each interpreter records it its own way), and the math intrinsics
/// yield nothing unless their first argument is a double.
#[inline]
pub fn eval_intrinsic<V: Copy + Into<Scalar> + From<Scalar>>(
    op: Intrinsic,
    args: &[V],
) -> Option<V> {
    let d = |i: usize| match args.get(i).map(|&v| v.into()) {
        Some(Scalar::Double(v)) => Some(v),
        _ => None,
    };
    Some(dbl(match op {
        Intrinsic::Sqrt => d(0)?.sqrt(),
        Intrinsic::Abs => d(0)?.abs(),
        Intrinsic::Floor => d(0)?.floor(),
        Intrinsic::Cos => d(0)?.cos(),
        Intrinsic::Sin => d(0)?.sin(),
        Intrinsic::Respond => return None,
    }))
}
