//! Instructions, terminators and the machine-code size model.

use std::hash::{Hash, Hasher};

use crate::program::SelectorId;
use crate::types::{BlockId, ClassId, FieldId, Local, MethodId, TypeRef};

/// Binary operators. Comparison operators produce `Bool` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
    /// Int → Double conversion.
    IntToDouble,
    /// Double → Int conversion (truncating).
    DoubleToInt,
}

/// Built-in operations the interpreter implements directly.
///
/// `Respond` is the observable "first response" event used by the
/// microservice workloads (Sec. 7.1 measures elapsed time until the first
/// response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `sqrt(double) -> double`
    Sqrt,
    /// `abs(double) -> double`
    Abs,
    /// `floor(double) -> double`
    Floor,
    /// `cos(double) -> double`
    Cos,
    /// `sin(double) -> double`
    Sin,
    /// Marks the service's first response; takes one int argument (status).
    Respond,
}

/// Call target of a [`Instr::Call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a known method (static methods and constructors).
    Static(MethodId),
    /// Virtual dispatch on the receiver (first argument) through a selector.
    ///
    /// `declared` is the static receiver class used by the reachability
    /// analysis to bound the possible targets.
    Virtual {
        /// Static type of the receiver.
        declared: ClassId,
        /// Interned method selector (name + arity).
        selector: SelectorId,
    },
}

/// Payload of [`Instr::Call`]: `dst? = call(args...)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Call {
    /// Destination local for the return value, if the callee returns one.
    pub dst: Option<Local>,
    /// Call target.
    pub callee: Callee,
    /// Argument locals; for virtual calls `args[0]` is the receiver.
    pub args: Vec<Local>,
}

/// Payload of [`Instr::Intrinsic`]: `dst? = intrinsic(args...)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntrinsicCall {
    /// Destination local, if the intrinsic produces a value.
    pub dst: Option<Local>,
    /// Which intrinsic.
    pub op: Intrinsic,
    /// Argument locals.
    pub args: Vec<Local>,
}

/// Payload of [`Instr::Spawn`]: a new thread running a static method.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spawn {
    /// Static entry method of the new thread.
    pub method: MethodId,
    /// Arguments passed to the thread's entry method.
    pub args: Vec<Local>,
}

/// A non-terminator instruction of the register machine.
///
/// Every program keeps its whole IR in memory, so the type is kept at 16
/// bytes: the variants that would not fit — calls, intrinsics, spawns, a
/// string literal, an array's element type; together about 1.5 % of the
/// instructions of a bundled program — hold their payload behind a thin
/// `Box`.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = <int literal>`
    ConstInt(Local, i64),
    /// `dst = <double literal>` — the literal is materialized in the binary's
    /// data section, so it also becomes a `DataSection` heap root.
    ConstDouble(Local, f64),
    /// `dst = <bool literal>`
    ConstBool(Local, bool),
    /// `dst = "literal"` — string literals are interned, mirroring Java
    /// interned strings (an `InternedString` heap-snapshot root).
    ConstStr(Local, Box<String>),
    /// `dst = null`
    ConstNull(Local),
    /// `dst = src`
    Move(Local, Local),
    /// `dst = a <op> b`
    Bin(BinOp, Local, Local, Local),
    /// `dst = <op> a`
    Un(UnOp, Local, Local),
    /// `dst = new C()` — allocation without running a constructor; call an
    /// `init` method explicitly for constructor logic.
    New(Local, ClassId),
    /// `dst = new elem[len]`
    NewArray(Local, Box<TypeRef>, Local),
    /// `dst = obj.field`
    GetField(Local, Local, FieldId),
    /// `obj.field = src`
    PutField(Local, FieldId, Local),
    /// `dst = C.field`
    GetStatic(Local, FieldId),
    /// `C.field = src`
    PutStatic(FieldId, Local),
    /// `dst = arr[idx]`
    ArrayGet(Local, Local, Local),
    /// `arr[idx] = src`
    ArraySet(Local, Local, Local),
    /// `dst = arr.length`
    ArrayLen(Local, Local),
    /// `dst = s.length()`
    StrLen(Local, Local),
    /// `dst = s.charAt(i)` (as an int code point)
    StrCharAt(Local, Local, Local),
    /// `dst = a + b` (string concatenation; either side may be int or str)
    StrConcat(Local, Local, Local),
    /// `dst? = call(args...)`
    Call(Box<Call>),
    /// `dst? = intrinsic(args...)`
    Intrinsic(Box<IntrinsicCall>),
    /// Spawn a new thread executing a static method with the given arguments.
    ///
    /// Used by the microservice workloads; threads are scheduled
    /// deterministically by `nimage-vm`.
    Spawn(Box<Spawn>),
}

const _: () = assert!(std::mem::size_of::<Instr>() == 16);

/// Hand-written only because `f64` is not `Hash`: a double literal hashes
/// by bit pattern, so `0.0`/`-0.0` and distinct NaN payloads — different
/// data-section bytes — hash apart (stricter than the derived `PartialEq`,
/// which is why `Instr` is not `Eq`). The tags are part of the program
/// fingerprint, like every field: each variant is destructured in full, so
/// a new field does not compile until it is hashed too. A boxed payload
/// hashes as what it holds, and a payload struct's derived `Hash` writes
/// its fields in order, as the tuple it replaced did, so boxing a variant
/// does not move the stream.
impl Hash for Instr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            Instr::ConstInt(dst, v) => (0u8, dst, v).hash(h),
            Instr::ConstDouble(dst, v) => (1u8, dst, v.to_bits()).hash(h),
            Instr::ConstBool(dst, v) => (2u8, dst, v).hash(h),
            Instr::ConstStr(dst, v) => (3u8, dst, v).hash(h),
            Instr::ConstNull(dst) => (4u8, dst).hash(h),
            Instr::Move(dst, src) => (5u8, dst, src).hash(h),
            Instr::Bin(op, dst, a, b) => (6u8, op, dst, a, b).hash(h),
            Instr::Un(op, dst, a) => (7u8, op, dst, a).hash(h),
            Instr::New(dst, class) => (8u8, dst, class).hash(h),
            Instr::NewArray(dst, elem, len) => (9u8, dst, elem, len).hash(h),
            Instr::GetField(dst, obj, field) => (10u8, dst, obj, field).hash(h),
            Instr::PutField(obj, field, src) => (11u8, obj, field, src).hash(h),
            Instr::GetStatic(dst, field) => (12u8, dst, field).hash(h),
            Instr::PutStatic(field, src) => (13u8, field, src).hash(h),
            Instr::ArrayGet(dst, arr, idx) => (14u8, dst, arr, idx).hash(h),
            Instr::ArraySet(arr, idx, src) => (15u8, arr, idx, src).hash(h),
            Instr::ArrayLen(dst, arr) => (16u8, dst, arr).hash(h),
            Instr::StrLen(dst, s) => (17u8, dst, s).hash(h),
            Instr::StrCharAt(dst, s, i) => (18u8, dst, s, i).hash(h),
            Instr::StrConcat(dst, a, b) => (19u8, dst, a, b).hash(h),
            Instr::Call(c) => (20u8, c).hash(h),
            Instr::Intrinsic(c) => (21u8, c).hash(h),
            Instr::Spawn(s) => (22u8, s).hash(h),
        }
    }
}

impl Instr {
    /// Approximate machine-code size of this instruction in bytes.
    ///
    /// The size model drives the inliner's code-size budget in
    /// `nimage-compiler` and the `.text` layout in `nimage-image`; its exact
    /// values are unimportant, but instrumentation adding bytes per event
    /// site is what perturbs inlining between instrumented and optimized
    /// builds — the divergence at the heart of the paper's Sec. 5.
    pub fn size_bytes(&self) -> u32 {
        match self {
            Instr::ConstInt(..) | Instr::ConstBool(..) | Instr::ConstNull(..) => 5,
            Instr::ConstDouble(..) => 8,
            Instr::ConstStr(..) => 7,
            Instr::Move(..) => 3,
            Instr::Bin(..) => 4,
            Instr::Un(..) => 3,
            Instr::New(..) => 14,
            Instr::NewArray(..) => 16,
            Instr::GetField(..) | Instr::PutField(..) => 6,
            Instr::GetStatic(..) | Instr::PutStatic(..) => 7,
            Instr::ArrayGet(..) | Instr::ArraySet(..) => 8,
            Instr::ArrayLen(..) => 4,
            Instr::StrLen(..) => 5,
            Instr::StrCharAt(..) => 8,
            Instr::StrConcat(..) => 18,
            Instr::Call(c) => {
                // Virtual dispatch needs a vtable load on top of the call.
                let base = match c.callee {
                    Callee::Static(_) => 5,
                    Callee::Virtual { .. } => 12,
                };
                base + 2 * c.args.len() as u32
            }
            Instr::Intrinsic(c) => 6 + 2 * c.args.len() as u32,
            Instr::Spawn(s) => 24 + 2 * s.args.len() as u32,
        }
    }

    /// The destination local written by this instruction, if any.
    pub fn dst(&self) -> Option<Local> {
        match self {
            Instr::ConstInt(d, _)
            | Instr::ConstDouble(d, _)
            | Instr::ConstBool(d, _)
            | Instr::ConstStr(d, _)
            | Instr::ConstNull(d)
            | Instr::Move(d, _)
            | Instr::Bin(_, d, _, _)
            | Instr::Un(_, d, _)
            | Instr::New(d, _)
            | Instr::NewArray(d, _, _)
            | Instr::GetField(d, _, _)
            | Instr::GetStatic(d, _)
            | Instr::ArrayGet(d, _, _)
            | Instr::ArrayLen(d, _)
            | Instr::StrLen(d, _)
            | Instr::StrCharAt(d, _, _)
            | Instr::StrConcat(d, _, _) => Some(*d),
            Instr::Call(c) => c.dst,
            Instr::Intrinsic(c) => c.dst,
            Instr::PutField(..) | Instr::PutStatic(..) | Instr::ArraySet(..) | Instr::Spawn(_) => {
                None
            }
        }
    }

    /// Locals read by this instruction, in operand order.
    pub fn sources(&self) -> Vec<Local> {
        match self {
            Instr::ConstInt(..)
            | Instr::ConstDouble(..)
            | Instr::ConstBool(..)
            | Instr::ConstStr(..)
            | Instr::ConstNull(..)
            | Instr::New(..)
            | Instr::GetStatic(..) => vec![],
            Instr::Move(_, s)
            | Instr::Un(_, _, s)
            | Instr::NewArray(_, _, s)
            | Instr::GetField(_, s, _)
            | Instr::ArrayLen(_, s)
            | Instr::StrLen(_, s)
            | Instr::PutStatic(_, s) => vec![*s],
            Instr::Bin(_, _, a, b)
            | Instr::ArrayGet(_, a, b)
            | Instr::StrCharAt(_, a, b)
            | Instr::StrConcat(_, a, b)
            | Instr::PutField(a, _, b) => vec![*a, *b],
            Instr::ArraySet(a, b, c) => vec![*a, *b, *c],
            Instr::Call(c) => c.args.clone(),
            Instr::Intrinsic(c) => c.args.clone(),
            Instr::Spawn(s) => s.args.clone(),
        }
    }
}

/// The terminator of a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Return from the method, optionally with a value.
    Ret(Option<Local>),
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean local.
    Br {
        /// Condition local (must hold a `Bool`).
        cond: Local,
        /// Successor when the condition is true.
        then_blk: BlockId,
        /// Successor when the condition is false.
        else_blk: BlockId,
    },
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Ret(_) => vec![],
            Terminator::Jump(b) => vec![*b],
            Terminator::Br {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
        }
    }

    /// Approximate machine-code size of the terminator in bytes.
    pub fn size_bytes(&self) -> u32 {
        match self {
            Terminator::Ret(_) => 3,
            Terminator::Jump(_) => 5,
            Terminator::Br { .. } => 8,
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Block {
    /// Straight-line instructions, exactly as many slots as instructions
    /// (a boxed slice holds no spare capacity).
    pub instrs: Box<[Instr]>,
    /// Block terminator.
    pub terminator: Terminator,
}

impl Block {
    /// Machine-code size of the whole block in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.instrs.iter().map(Instr::size_bytes).sum::<u32>() + self.terminator.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Local;

    #[test]
    fn sizes_are_positive_and_call_scales_with_args() {
        let l = Local(0);
        let c0 = Instr::Call(Box::new(Call {
            dst: None,
            callee: Callee::Static(MethodId(0)),
            args: vec![],
        }));
        let c2 = Instr::Call(Box::new(Call {
            dst: None,
            callee: Callee::Static(MethodId(0)),
            args: vec![l, l],
        }));
        assert!(c0.size_bytes() > 0);
        assert_eq!(c2.size_bytes(), c0.size_bytes() + 4);
    }

    #[test]
    fn virtual_call_larger_than_static() {
        let stat = Instr::Call(Box::new(Call {
            dst: None,
            callee: Callee::Static(MethodId(0)),
            args: vec![],
        }));
        let virt = Instr::Call(Box::new(Call {
            dst: None,
            callee: Callee::Virtual {
                declared: ClassId(0),
                selector: crate::program::SelectorId(0),
            },
            args: vec![],
        }));
        assert!(virt.size_bytes() > stat.size_bytes());
    }

    #[test]
    fn dst_and_sources_roundtrip() {
        let i = Instr::Bin(BinOp::Add, Local(2), Local(0), Local(1));
        assert_eq!(i.dst(), Some(Local(2)));
        assert_eq!(i.sources(), vec![Local(0), Local(1)]);

        let s = Instr::ArraySet(Local(0), Local(1), Local(2));
        assert_eq!(s.dst(), None);
        assert_eq!(s.sources(), vec![Local(0), Local(1), Local(2)]);
    }

    #[test]
    fn terminator_successors() {
        assert!(Terminator::Ret(None).successors().is_empty());
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::Br {
                cond: Local(0),
                then_blk: BlockId(1),
                else_blk: BlockId(2)
            }
            .successors(),
            vec![BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn block_size_sums_instrs_and_terminator() {
        let b = Block {
            instrs: Box::new([Instr::ConstInt(Local(0), 7)]),
            terminator: Terminator::Ret(Some(Local(0))),
        };
        assert_eq!(
            b.size_bytes(),
            Instr::ConstInt(Local(0), 7).size_bytes() + Terminator::Ret(None).size_bytes()
        );
    }
}
