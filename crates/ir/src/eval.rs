//! The operator table: what every [`BinOp`], [`UnOp`] and [`Intrinsic`]
//! computes.
//!
//! Class initializers run at image build time (`nimage-heap`) and the same
//! instructions run again in the VM (`nimage-vm`); the heap snapshot is
//! only meaningful if both give an operator the same meaning, so both
//! interpreters evaluate through these three functions. Each interpreter
//! keeps its own value enum (their references differ) and converts through
//! the [`Scalar`] view.

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
/// pair.
#[inline]
pub fn eval_bin<V: Into<Scalar> + From<Scalar>>(op: BinOp, a: V, b: V) -> Option<V> {
    use Scalar::*;
    Some(match (op, a.into(), b.into()) {
        (BinOp::Add, Int(x), Int(y)) => int(x.wrapping_add(y)),
        (BinOp::Sub, Int(x), Int(y)) => int(x.wrapping_sub(y)),
        (BinOp::Mul, Int(x), Int(y)) => int(x.wrapping_mul(y)),
        (BinOp::Div, Int(x), Int(y)) => {
            if y == 0 {
                return None;
            }
            int(x.wrapping_div(y))
        }
        (BinOp::Rem, Int(x), Int(y)) => {
            if y == 0 {
                return None;
            }
            int(x.wrapping_rem(y))
        }
        (BinOp::And, Int(x), Int(y)) => int(x & y),
        (BinOp::Or, Int(x), Int(y)) => int(x | y),
        (BinOp::Xor, Int(x), Int(y)) => int(x ^ y),
        (BinOp::Shl, Int(x), Int(y)) => int(x.wrapping_shl(y as u32)),
        (BinOp::Shr, Int(x), Int(y)) => int(x.wrapping_shr(y as u32)),
        (BinOp::And, Bool(x), Bool(y)) => boolean(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => boolean(x || y),
        (BinOp::Xor, Bool(x), Bool(y)) => boolean(x ^ y),
        (BinOp::Add, Double(x), Double(y)) => dbl(x + y),
        (BinOp::Sub, Double(x), Double(y)) => dbl(x - y),
        (BinOp::Mul, Double(x), Double(y)) => dbl(x * y),
        (BinOp::Div, Double(x), Double(y)) => dbl(x / y),
        (BinOp::Rem, Double(x), Double(y)) => dbl(x % y),
        (BinOp::Lt, Int(x), Int(y)) => boolean(x < y),
        (BinOp::Le, Int(x), Int(y)) => boolean(x <= y),
        (BinOp::Gt, Int(x), Int(y)) => boolean(x > y),
        (BinOp::Ge, Int(x), Int(y)) => boolean(x >= y),
        (BinOp::Eq, Int(x), Int(y)) => boolean(x == y),
        (BinOp::Ne, Int(x), Int(y)) => boolean(x != y),
        (BinOp::Lt, Double(x), Double(y)) => boolean(x < y),
        (BinOp::Le, Double(x), Double(y)) => boolean(x <= y),
        (BinOp::Gt, Double(x), Double(y)) => boolean(x > y),
        (BinOp::Ge, Double(x), Double(y)) => boolean(x >= y),
        (BinOp::Eq, Double(x), Double(y)) => boolean(x == y),
        (BinOp::Ne, Double(x), Double(y)) => boolean(x != y),
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

/// Evaluates a unary operator (`None`: ill-typed operand). `DoubleToInt`
/// truncates toward zero and saturates; `NaN` converts to 0.
#[inline]
pub fn eval_un<V: Into<Scalar> + From<Scalar>>(op: UnOp, a: V) -> Option<V> {
    use Scalar::*;
    Some(match (op, a.into()) {
        (UnOp::Neg, Int(x)) => int(x.wrapping_neg()),
        (UnOp::Neg, Double(x)) => dbl(-x),
        (UnOp::Not, Bool(x)) => boolean(!x),
        (UnOp::IntToDouble, Int(x)) => dbl(x as f64),
        (UnOp::DoubleToInt, Double(x)) => int(x as i64),
        _ => return None,
    })
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
