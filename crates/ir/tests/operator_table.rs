//! The operator table cell by cell. Build-time initializer execution
//! (`nimage-heap`) and the VM (`nimage-vm`) both evaluate through
//! `eval_bin` / `eval_un` / `eval_intrinsic` and their typed `Int` /
//! `Double` cells, so this is the one place the arithmetic either of them
//! performs is pinned.

use std::cell::Cell;

use nimage_ir::Value::{self, *};
use nimage_ir::{
    eval_bin, eval_double_bin, eval_double_un, eval_int_bin, eval_int_un, eval_intrinsic, eval_un,
    BinOp, Intrinsic, UnOp,
};

const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];
const UN_OPS: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::IntToDouble, UnOp::DoubleToInt];
/// One (nonzero) sample per operand kind.
const KINDS: [Value; 5] = [Null, Bool(true), Int(7), Double(2.5), Ref(3)];

/// Which `(op, left kind, right kind)` cells are well-typed.
fn bin_is_typed(op: BinOp, a: Value, b: Value) -> bool {
    use BinOp::*;
    match (a, b) {
        (Int(_), Int(_)) => true,
        (Double(_), Double(_)) => !matches!(op, And | Or | Xor | Shl | Shr),
        (Bool(_), Bool(_)) => matches!(op, And | Or | Xor | Eq | Ne),
        (Ref(_) | Null, Ref(_) | Null) => matches!(op, Eq | Ne),
        _ => false,
    }
}

fn un_is_typed(op: UnOp, a: Value) -> bool {
    matches!(
        (op, a),
        (UnOp::Neg, Int(_) | Double(_))
            | (UnOp::Not, Bool(_))
            | (UnOp::IntToDouble, Int(_))
            | (UnOp::DoubleToInt, Double(_))
    )
}

#[test]
fn every_cell_is_defined_exactly_where_it_is_well_typed() {
    for op in BIN_OPS {
        for a in KINDS {
            for b in KINDS {
                assert_eq!(
                    eval_bin(op, a, b).is_some(),
                    bin_is_typed(op, a, b),
                    "{op:?} on {a:?}, {b:?}"
                );
            }
        }
    }
    for op in UN_OPS {
        for a in KINDS {
            assert_eq!(eval_un(op, a).is_some(), un_is_typed(op, a), "{op:?} {a:?}");
        }
    }
    for op in [
        Intrinsic::Sqrt,
        Intrinsic::Abs,
        Intrinsic::Floor,
        Intrinsic::Cos,
        Intrinsic::Sin,
    ] {
        for a in KINDS {
            let typed = matches!(a, Double(_));
            assert_eq!(eval_intrinsic(op, &[a]).is_some(), typed, "{op:?} {a:?}");
        }
        assert_eq!(eval_intrinsic(op, &[]), None);
    }
    // `respond` is an event: no value, whatever it is passed.
    assert_eq!(eval_intrinsic(Intrinsic::Respond, &[Int(200)]), None);
    assert_eq!(eval_intrinsic(Intrinsic::Respond, &[Double(1.0)]), None);
}

#[test]
fn binary_operator_values() {
    use BinOp::*;
    let (t, f) = (Some(Bool(true)), Some(Bool(false)));
    let int = |v| Some(Int(v));
    let dbl = |v| Some(Double(v));
    let nan = f64::NAN;
    let rows = [
        (Add, Int(2), Int(3), int(5)),
        (Sub, Int(2), Int(3), int(-1)),
        (Mul, Int(4), Int(3), int(12)),
        (Div, Int(7), Int(2), int(3)),
        (Div, Int(-7), Int(2), int(-3)),
        (Rem, Int(7), Int(2), int(1)),
        (Rem, Int(-7), Int(2), int(-1)),
        // Integer arithmetic wraps, never panics.
        (Add, Int(i64::MAX), Int(1), int(i64::MIN)),
        (Sub, Int(i64::MIN), Int(1), int(i64::MAX)),
        (Mul, Int(i64::MAX), Int(2), int(-2)),
        (Div, Int(i64::MIN), Int(-1), int(i64::MIN)),
        (Rem, Int(i64::MIN), Int(-1), int(0)),
        // Integer division by zero is the one failure on typed operands.
        (Div, Int(7), Int(0), None),
        (Rem, Int(7), Int(0), None),
        (And, Int(0b1100), Int(0b1010), int(0b1000)),
        (Or, Int(0b1100), Int(0b1010), int(0b1110)),
        (Xor, Int(0b1100), Int(0b1010), int(0b0110)),
        // Shift counts are taken modulo 64; `Shr` is arithmetic.
        (Shl, Int(1), Int(3), int(8)),
        (Shl, Int(1), Int(64), int(1)),
        (Shl, Int(1), Int(65), int(2)),
        (Shl, Int(1), Int(-1), int(i64::MIN)),
        (Shr, Int(-8), Int(1), int(-4)),
        (Shr, Int(-8), Int(65), int(-4)),
        (Shr, Int(8), Int(64), int(8)),
        (And, Bool(true), Bool(false), f),
        (Or, Bool(true), Bool(false), t),
        (Xor, Bool(true), Bool(true), f),
        (Eq, Bool(true), Bool(true), t),
        (Ne, Bool(true), Bool(true), f),
        (Add, Double(1.5), Double(2.0), dbl(3.5)),
        (Sub, Double(1.5), Double(2.0), dbl(-0.5)),
        (Mul, Double(1.5), Double(2.0), dbl(3.0)),
        (Div, Double(3.0), Double(2.0), dbl(1.5)),
        (Rem, Double(7.5), Double(2.0), dbl(1.5)),
        // Float division by zero is IEEE, not an error.
        (Div, Double(1.0), Double(0.0), dbl(f64::INFINITY)),
        (Lt, Int(1), Int(2), t),
        (Le, Int(2), Int(2), t),
        (Gt, Int(1), Int(2), f),
        (Ge, Int(2), Int(2), t),
        (Eq, Int(2), Int(2), t),
        (Ne, Int(2), Int(2), f),
        (Lt, Double(1.0), Double(2.0), t),
        (Le, Double(2.0), Double(2.0), t),
        (Gt, Double(1.0), Double(2.0), f),
        (Ge, Double(2.0), Double(2.0), t),
        (Eq, Double(0.0), Double(-0.0), t),
        (Ne, Double(1.0), Double(2.0), t),
        // Every comparison with NaN is false, except `Ne`.
        (Lt, Double(nan), Double(1.0), f),
        (Le, Double(nan), Double(nan), f),
        (Gt, Double(1.0), Double(nan), f),
        (Ge, Double(nan), Double(nan), f),
        (Eq, Double(nan), Double(nan), f),
        (Ne, Double(nan), Double(nan), t),
        // References compare by identity; null equals only null.
        (Eq, Ref(3), Ref(3), t),
        (Eq, Ref(3), Ref(4), f),
        (Ne, Ref(3), Ref(4), t),
        (Eq, Ref(3), Null, f),
        (Eq, Null, Ref(3), f),
        (Ne, Ref(3), Null, t),
        (Ne, Null, Ref(3), t),
        (Eq, Null, Null, t),
        (Ne, Null, Null, f),
    ];
    for (op, a, b, want) in rows {
        assert_eq!(eval_bin(op, a, b), want, "{op:?} on {a:?}, {b:?}");
    }
    assert!(matches!(
        eval_bin(Rem, Double(1.0), Double(0.0)),
        Some(Double(v)) if v.is_nan()
    ));
}

#[test]
fn unary_operator_and_intrinsic_values() {
    let rows = [
        (UnOp::Neg, Int(5), Int(-5)),
        (UnOp::Neg, Int(i64::MIN), Int(i64::MIN)),
        (UnOp::Neg, Double(2.5), Double(-2.5)),
        (UnOp::Not, Bool(true), Bool(false)),
        (UnOp::IntToDouble, Int(3), Double(3.0)),
        // Truncating toward zero, saturating, NaN → 0.
        (UnOp::DoubleToInt, Double(3.9), Int(3)),
        (UnOp::DoubleToInt, Double(-3.9), Int(-3)),
        (UnOp::DoubleToInt, Double(1e300), Int(i64::MAX)),
        (UnOp::DoubleToInt, Double(f64::NAN), Int(0)),
    ];
    for (op, a, want) in rows {
        assert_eq!(eval_un(op, a), Some(want), "{op:?} {a:?}");
    }
    let rows = [
        (Intrinsic::Sqrt, 9.0, 3.0),
        (Intrinsic::Abs, -2.5, 2.5),
        (Intrinsic::Floor, 2.7, 2.0),
        (Intrinsic::Floor, -2.1, -3.0),
        (Intrinsic::Cos, 0.0, 1.0),
        (Intrinsic::Sin, 0.0, 0.0),
    ];
    for (op, x, want) in rows {
        // Only the first argument is read.
        assert_eq!(
            eval_intrinsic(op, &[Double(x), Int(1)]),
            Some(Double(want)),
            "{op:?} {x}"
        );
    }
}

/// Sample ints: zero, signs, shift counts of 64 and past it, the extremes.
const INTS: [i64; 9] = [0, 1, -1, 7, -7, 64, 65, i64::MIN, i64::MAX];
/// Sample doubles: both zeros, a fraction, NaN, both infinities, a huge
/// value that saturates `DoubleToInt`.
const DOUBLES: [f64; 8] = [
    0.0,
    -0.0,
    2.5,
    -7.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
];

/// A result with doubles compared bit for bit, so NaN equals NaN and
/// `-0.0` differs from `0.0`.
fn bits(v: Option<Value>) -> Option<(u8, u64)> {
    v.map(|v| match v {
        Null => (0, 0),
        Bool(x) => (1, u64::from(x)),
        Int(x) => (2, x as u64),
        Double(x) => (3, x.to_bits()),
        Ref(x) => (4, u64::from(x)),
    })
}

/// The typed cells are the `Int` / `Double` rows of `eval_bin` and
/// `eval_un`: the same value, and `None` in exactly the same places (Int
/// `Div` / `Rem` by zero, the bitwise operators on doubles, ill-typed
/// unary operands). `put` runs once when there is a value and never
/// otherwise.
#[test]
fn typed_cells_equal_the_generic_table() {
    let (puts, mut values) = (Cell::new(0), 0);
    let put = |v: Value| {
        puts.set(puts.get() + 1);
        v
    };
    for op in BIN_OPS {
        for x in INTS {
            for y in INTS {
                let typed = eval_int_bin(op, x, y, put);
                let generic = eval_bin(op, Int(x), Int(y));
                values += usize::from(generic.is_some());
                assert_eq!(bits(typed), bits(generic), "{op:?} on Int {x}, {y}");
            }
        }
        for x in DOUBLES {
            for y in DOUBLES {
                let typed = eval_double_bin(op, x, y, put);
                let generic = eval_bin(op, Double(x), Double(y));
                values += usize::from(generic.is_some());
                assert_eq!(bits(typed), bits(generic), "{op:?} on Double {x}, {y}");
            }
        }
    }
    for op in UN_OPS {
        for x in INTS {
            let (typed, generic) = (eval_int_un(op, x, put), eval_un(op, Int(x)));
            values += usize::from(generic.is_some());
            assert_eq!(bits(typed), bits(generic), "{op:?} Int {x}");
        }
        for x in DOUBLES {
            let (typed, generic) = (eval_double_un(op, x, put), eval_un(op, Double(x)));
            values += usize::from(generic.is_some());
            assert_eq!(bits(typed), bits(generic), "{op:?} Double {x}");
        }
    }
    assert_eq!(puts.get(), values);
    // The places `None` must appear, spelled out.
    let put = |v: Value| -> Value { panic!("no value expected, got {v:?}") };
    assert_eq!(eval_int_bin(BinOp::Div, 7, 0, put), None);
    assert_eq!(eval_int_bin(BinOp::Rem, 7, 0, put), None);
    for op in [BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Shl, BinOp::Shr] {
        assert_eq!(eval_double_bin(op, 1.0, 2.0, put), None, "{op:?}");
    }
    assert_eq!(eval_int_un(UnOp::Not, 1, put), None);
    assert_eq!(eval_int_un(UnOp::DoubleToInt, 1, put), None);
    assert_eq!(eval_double_un(UnOp::Not, 1.0, put), None);
    assert_eq!(eval_double_un(UnOp::IntToDouble, 1.0, put), None);
}
