//! # nimage-ir
//!
//! A miniature class-based object language, used by the `nimage` workspace as
//! the stand-in for Java bytecode / Graal IR in the reproduction of
//! *Improving Native-Image Startup Performance* (CGO '25).
//!
//! The language is deliberately small but preserves everything the paper's
//! ordering strategies observe:
//!
//! * **classes** with single inheritance, instance fields, static fields and
//!   class initializers (`<clinit>`),
//! * **methods** built from basic blocks of register-machine instructions
//!   (allocation, field/array access, calls, string literals, arithmetic),
//! * **virtual dispatch** through interned selectors,
//! * one **operator table** ([`eval_bin`] / [`eval_un`] / [`eval_intrinsic`],
//!   with their `Int` and `Double` cells split out as [`eval_int_bin`],
//!   [`eval_double_bin`], [`eval_int_un`] and [`eval_double_un`]) that the
//!   build-time and the run-time interpreters all evaluate through,
//! * a **code-size model** (every instruction has a machine-code size in
//!   bytes) that drives the inliner in `nimage-compiler`, and
//! * build-time metadata: parallel class-initialization groups, resources and
//!   entry points, which become heap-snapshot roots in `nimage-heap`.
//!
//! Programs are constructed with [`ProgramBuilder`] and [`BodyBuilder`]:
//!
//! ```
//! use nimage_ir::{ProgramBuilder, TypeRef};
//!
//! let mut pb = ProgramBuilder::new();
//! let cls = pb.add_class("demo.Main", None);
//! let main = pb.declare_static(cls, "main", &[], Some(TypeRef::Int));
//! let mut f = pb.body(main);
//! let a = f.iconst(40);
//! let b = f.iconst(2);
//! let sum = f.add(a, b);
//! f.ret(Some(sum));
//! pb.finish_body(main, f);
//! pb.set_entry(main);
//! let program = pb.build().expect("valid program");
//! assert_eq!(program.method(main).name, "main");
//! ```

#![warn(missing_docs)]

mod builder;
pub mod cfg;
mod eval;
mod instr;
mod program;
mod types;
mod validate;

pub use builder::{BodyBuilder, ProgramBuilder};
pub use cfg::Cfg;
pub use eval::{
    eval_bin, eval_double_bin, eval_double_un, eval_int_bin, eval_int_un, eval_intrinsic, eval_un,
    Value,
};
pub use instr::{
    BinOp, Block, Call, Callee, Instr, Intrinsic, IntrinsicCall, Spawn, Terminator, UnOp,
};
pub use program::{Class, Field, Method, MethodKind, Program, Resource, SelectorId};
pub use types::{BlockId, ClassId, FieldId, Local, MethodId, TypeRef};
pub use validate::ValidateError;
