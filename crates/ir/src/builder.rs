//! Ergonomic construction of programs, classes and method bodies.

use crate::instr::{BinOp, Call, Callee, Instr, Intrinsic, IntrinsicCall, Spawn, Terminator, UnOp};
use crate::program::{Class, Field, Method, MethodKind, Program, Resource, SelectorId};
use crate::types::{BlockId, ClassId, FieldId, Local, MethodId, TypeRef};
use crate::validate::{validate, ValidateError};

/// Builder for a [`Program`].
///
/// Classes, fields and methods are declared up front (so that bodies can
/// reference them, including recursively); bodies are then attached with
/// [`ProgramBuilder::body`] / [`ProgramBuilder::finish_body`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    next_init_group: u32,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a class. Class names must be unique.
    ///
    /// # Panics
    /// Panics if the class name was already declared.
    pub fn add_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        assert!(
            !self.program.class_map.contains_key(name),
            "duplicate class name {name}"
        );
        let id = ClassId::from(self.program.classes.len());
        let group = self.next_init_group;
        self.next_init_group += 1;
        self.program.classes.push(Class {
            name: name.to_string(),
            superclass,
            instance_fields: vec![],
            static_fields: vec![],
            methods: vec![],
            clinit: None,
            init_group: group,
        });
        self.program.class_map.insert(name.to_string(), id);
        id
    }

    /// Puts a class into an explicit parallel-initialization group.
    ///
    /// Classes sharing a group may have their `<clinit>` run in a
    /// build-dependent order (see `nimage-heap`).
    pub fn set_init_group(&mut self, class: ClassId, group: u32) {
        self.program.classes[class.index()].init_group = group;
        self.next_init_group = self.next_init_group.max(group + 1);
    }

    /// Declares an instance field on `class`.
    pub fn add_instance_field(&mut self, class: ClassId, name: &str, ty: TypeRef) -> FieldId {
        let id = FieldId::from(self.program.fields.len());
        self.program.fields.push(Field {
            name: name.to_string(),
            owner: class,
            ty,
            is_static: false,
        });
        self.program.classes[class.index()].instance_fields.push(id);
        id
    }

    /// Declares a static field on `class`.
    pub fn add_static_field(&mut self, class: ClassId, name: &str, ty: TypeRef) -> FieldId {
        let id = FieldId::from(self.program.fields.len());
        self.program.fields.push(Field {
            name: name.to_string(),
            owner: class,
            ty,
            is_static: true,
        });
        self.program.classes[class.index()].static_fields.push(id);
        id
    }

    /// Interns a selector (method name + arity) for virtual dispatch.
    pub fn intern_selector(&mut self, name: &str, arity: usize) -> SelectorId {
        let key = format!("{name}/{arity}");
        if let Some(&s) = self.program.selector_map.get(&key) {
            return s;
        }
        let id = SelectorId(self.program.selectors.len() as u32);
        self.program.selectors.push(key.clone());
        self.program.selector_map.insert(key, id);
        id
    }

    fn declare(
        &mut self,
        class: ClassId,
        name: &str,
        kind: MethodKind,
        params: &[TypeRef],
        ret: Option<TypeRef>,
    ) -> MethodId {
        let selector = self.intern_selector(name, params.len());
        let id = MethodId::from(self.program.methods.len());
        self.program.methods.push(Method {
            name: name.to_string(),
            owner: class,
            kind,
            params: params.to_vec(),
            ret,
            n_locals: 0,
            blocks: vec![],
            selector,
        });
        self.program.classes[class.index()].methods.push(id);
        id
    }

    /// Declares a static method; attach the body later with [`Self::body`].
    pub fn declare_static(
        &mut self,
        class: ClassId,
        name: &str,
        params: &[TypeRef],
        ret: Option<TypeRef>,
    ) -> MethodId {
        self.declare(class, name, MethodKind::Static, params, ret)
    }

    /// Declares a virtual (instance) method. `this` will be local 0.
    pub fn declare_virtual(
        &mut self,
        class: ClassId,
        name: &str,
        params: &[TypeRef],
        ret: Option<TypeRef>,
    ) -> MethodId {
        self.declare(class, name, MethodKind::Virtual, params, ret)
    }

    /// Declares the class initializer of `class`.
    ///
    /// # Panics
    /// Panics if the class already has an initializer.
    pub fn declare_clinit(&mut self, class: ClassId) -> MethodId {
        assert!(
            self.program.classes[class.index()].clinit.is_none(),
            "class {} already has a <clinit>",
            self.program.classes[class.index()].name
        );
        let id = self.declare(class, "<clinit>", MethodKind::ClassInit, &[], None);
        self.program.classes[class.index()].clinit = Some(id);
        id
    }

    /// Starts building the body of a previously declared method.
    pub fn body(&self, method: MethodId) -> BodyBuilder {
        BodyBuilder::new(self.program.method(method).param_locals())
    }

    /// Attaches a finished body to a method.
    ///
    /// # Panics
    /// Panics if the body has unterminated blocks.
    pub fn finish_body(&mut self, method: MethodId, body: BodyBuilder) {
        let (blocks, n_locals) = body.finish();
        let m = &mut self.program.methods[method.index()];
        m.blocks = blocks;
        m.n_locals = n_locals;
    }

    /// Sets the program entry point (must be a static method).
    pub fn set_entry(&mut self, method: MethodId) {
        self.program.entry = Some(method);
    }

    /// Embeds a build-time resource (becomes a `Resource` heap root).
    pub fn add_resource(&mut self, name: &str, size: u32) {
        self.program.resources.push(Resource {
            name: name.to_string(),
            size,
        });
    }

    /// Read-only view of the program built so far (bodies may be missing).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Validates and returns the finished program.
    ///
    /// # Errors
    /// Returns a [`ValidateError`] describing the first structural problem
    /// found (missing body, dangling block reference, out-of-range local…).
    pub fn build(self) -> Result<Program, ValidateError> {
        validate(&self.program)?;
        Ok(self.program)
    }
}

/// Builder for one method body.
///
/// Maintains a current basic block; straight-line emission helpers append to
/// it, and the structured helpers ([`BodyBuilder::if_then_else`],
/// [`BodyBuilder::while_loop`], [`BodyBuilder::for_range`]) manage block
/// creation and termination. Each value-producing helper allocates and
/// returns a fresh local.
#[derive(Debug)]
pub struct BodyBuilder {
    next_local: u16,
    blocks: Vec<Option<crate::instr::Block>>,
    current: Option<BlockId>,
    current_instrs: Vec<Instr>,
}

impl BodyBuilder {
    fn new(n_params: u16) -> Self {
        BodyBuilder {
            next_local: n_params,
            blocks: vec![None],
            current: Some(BlockId(0)),
            current_instrs: vec![],
        }
    }

    /// Allocates a fresh local register.
    pub fn local(&mut self) -> Local {
        let l = Local(self.next_local);
        self.next_local = self.next_local.checked_add(1).expect("too many locals");
        l
    }

    /// The local holding parameter `i` (for virtual methods, parameter 0 is
    /// at local 1 because `this` occupies local 0 — use [`Self::this`]).
    pub fn param(&self, i: u16) -> Local {
        Local(i)
    }

    /// The `this` receiver of a virtual method (local 0).
    pub fn this(&self) -> Local {
        Local(0)
    }

    /// Reserves a new, not-yet-built basic block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(None);
        BlockId::from(self.blocks.len() - 1)
    }

    /// Begins emitting into block `b`.
    ///
    /// # Panics
    /// Panics if the current block is unterminated or `b` was already built.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            self.current.is_none(),
            "switch_to while block {:?} is unterminated",
            self.current
        );
        assert!(
            self.blocks[b.index()].is_none(),
            "block {b} was already built"
        );
        self.current = Some(b);
    }

    /// Whether the current block has been terminated (e.g. the last emitted
    /// statement was a `ret` inside a structured-control-flow closure).
    pub fn is_terminated(&self) -> bool {
        self.current.is_none()
    }

    /// Appends a raw instruction to the current block.
    ///
    /// # Panics
    /// Panics if the current block has already been terminated.
    pub fn emit(&mut self, i: Instr) {
        assert!(self.current.is_some(), "emit after terminator");
        self.current_instrs.push(i);
    }

    fn terminate(&mut self, t: Terminator) {
        let cur = self.current.take().expect("terminate after terminator");
        self.blocks[cur.index()] = Some(crate::instr::Block {
            // Moved out at exact length; `current_instrs` keeps its growth
            // buffer for the next block.
            instrs: self.current_instrs.drain(..).collect(),
            terminator: t,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Local>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn br(&mut self, cond: Local, then_blk: BlockId, else_blk: BlockId) {
        self.terminate(Terminator::Br {
            cond,
            then_blk,
            else_blk,
        });
    }

    // ---- value helpers ---------------------------------------------------

    fn with_dst(&mut self, make: impl FnOnce(Local) -> Instr) -> Local {
        let dst = self.local();
        let i = make(dst);
        self.emit(i);
        dst
    }

    /// `dst = <int literal>`
    pub fn iconst(&mut self, v: i64) -> Local {
        self.with_dst(|d| Instr::ConstInt(d, v))
    }

    /// `dst = <double literal>`
    pub fn dconst(&mut self, v: f64) -> Local {
        self.with_dst(|d| Instr::ConstDouble(d, v))
    }

    /// `dst = <bool literal>`
    pub fn bconst(&mut self, v: bool) -> Local {
        self.with_dst(|d| Instr::ConstBool(d, v))
    }

    /// `dst = "literal"` (interned string)
    pub fn sconst(&mut self, v: &str) -> Local {
        let s = Box::new(v.to_string());
        self.with_dst(|d| Instr::ConstStr(d, s))
    }

    /// `dst = null`
    pub fn null(&mut self) -> Local {
        self.with_dst(Instr::ConstNull)
    }

    /// `dst = src` into a fresh local.
    pub fn copy(&mut self, src: Local) -> Local {
        self.with_dst(|d| Instr::Move(d, src))
    }

    /// `dst = src` into an existing local.
    pub fn assign(&mut self, dst: Local, src: Local) {
        self.emit(Instr::Move(dst, src));
    }

    /// `dst = a <op> b`
    pub fn bin(&mut self, op: BinOp, a: Local, b: Local) -> Local {
        self.with_dst(|d| Instr::Bin(op, d, a, b))
    }

    /// `dst = <op> a`
    pub fn un(&mut self, op: UnOp, a: Local) -> Local {
        self.with_dst(|d| Instr::Un(op, d, a))
    }

    /// `dst = new C` (no constructor is run).
    pub fn new_object(&mut self, class: ClassId) -> Local {
        self.with_dst(|d| Instr::New(d, class))
    }

    /// `dst = new elem[len]`
    pub fn new_array(&mut self, elem: TypeRef, len: Local) -> Local {
        self.with_dst(|d| Instr::NewArray(d, Box::new(elem), len))
    }

    /// `dst = obj.field`
    pub fn get_field(&mut self, obj: Local, field: FieldId) -> Local {
        self.with_dst(|d| Instr::GetField(d, obj, field))
    }

    /// `obj.field = src`
    pub fn put_field(&mut self, obj: Local, field: FieldId, src: Local) {
        self.emit(Instr::PutField(obj, field, src));
    }

    /// `dst = C.field`
    pub fn get_static(&mut self, field: FieldId) -> Local {
        self.with_dst(|d| Instr::GetStatic(d, field))
    }

    /// `C.field = src`
    pub fn put_static(&mut self, field: FieldId, src: Local) {
        self.emit(Instr::PutStatic(field, src));
    }

    /// `dst = arr[idx]`
    pub fn array_get(&mut self, arr: Local, idx: Local) -> Local {
        self.with_dst(|d| Instr::ArrayGet(d, arr, idx))
    }

    /// `arr[idx] = src`
    pub fn array_set(&mut self, arr: Local, idx: Local, src: Local) {
        self.emit(Instr::ArraySet(arr, idx, src));
    }

    /// `dst = arr.length`
    pub fn array_len(&mut self, arr: Local) -> Local {
        self.with_dst(|d| Instr::ArrayLen(d, arr))
    }

    /// `dst = s.length()`
    pub fn str_len(&mut self, s: Local) -> Local {
        self.with_dst(|d| Instr::StrLen(d, s))
    }

    /// `dst = s.charAt(i)`
    pub fn str_char_at(&mut self, s: Local, i: Local) -> Local {
        self.with_dst(|d| Instr::StrCharAt(d, s, i))
    }

    /// `dst = a ++ b`
    pub fn str_concat(&mut self, a: Local, b: Local) -> Local {
        self.with_dst(|d| Instr::StrConcat(d, a, b))
    }

    /// Direct call to a static method or constructor-like helper.
    ///
    /// Returns the destination local if the callee returns a value.
    pub fn call_static(
        &mut self,
        method: MethodId,
        args: &[Local],
        has_ret: bool,
    ) -> Option<Local> {
        let dst = if has_ret { Some(self.local()) } else { None };
        self.emit(Instr::Call(Box::new(Call {
            dst,
            callee: Callee::Static(method),
            args: args.to_vec(),
        })));
        dst
    }

    /// Virtual call; `args[0]` must be the receiver.
    pub fn call_virtual(
        &mut self,
        declared: ClassId,
        selector: SelectorId,
        args: &[Local],
        has_ret: bool,
    ) -> Option<Local> {
        let dst = if has_ret { Some(self.local()) } else { None };
        self.emit(Instr::Call(Box::new(Call {
            dst,
            callee: Callee::Virtual { declared, selector },
            args: args.to_vec(),
        })));
        dst
    }

    /// Emits an intrinsic operation.
    pub fn intrinsic(&mut self, op: Intrinsic, args: &[Local], has_ret: bool) -> Option<Local> {
        let dst = if has_ret { Some(self.local()) } else { None };
        self.emit(Instr::Intrinsic(Box::new(IntrinsicCall {
            dst,
            op,
            args: args.to_vec(),
        })));
        dst
    }

    /// Spawns a thread running a static method.
    pub fn spawn(&mut self, method: MethodId, args: &[Local]) {
        self.emit(Instr::Spawn(Box::new(Spawn {
            method,
            args: args.to_vec(),
        })));
    }

    // ---- arithmetic sugar ------------------------------------------------

    /// `a + b`
    pub fn add(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Add, a, b)
    }
    /// `a - b`
    pub fn sub(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Sub, a, b)
    }
    /// `a * b`
    pub fn mul(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Mul, a, b)
    }
    /// `a / b`
    pub fn div(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Div, a, b)
    }
    /// `a % b`
    pub fn rem(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Rem, a, b)
    }
    /// `a < b`
    pub fn lt(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Lt, a, b)
    }
    /// `a <= b`
    pub fn le(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Le, a, b)
    }
    /// `a > b`
    pub fn gt(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Gt, a, b)
    }
    /// `a >= b`
    pub fn ge(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Ge, a, b)
    }
    /// `a == b`
    pub fn eq(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Eq, a, b)
    }
    /// `a != b`
    pub fn ne(&mut self, a: Local, b: Local) -> Local {
        self.bin(BinOp::Ne, a, b)
    }

    // ---- structured control flow ------------------------------------------

    /// `if (cond) { then } else { otherwise }` with an implicit join.
    ///
    /// Either branch may terminate itself (e.g. with [`Self::ret`]); the
    /// join block is entered only from branches that fall through. If both
    /// branches terminate, the builder is left terminated.
    pub fn if_then_else(
        &mut self,
        cond: Local,
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        let then_blk = self.new_block();
        let else_blk = self.new_block();
        let join = self.new_block();
        self.br(cond, then_blk, else_blk);

        self.switch_to(then_blk);
        then(self);
        let then_falls = !self.is_terminated();
        if then_falls {
            self.jump(join);
        }

        self.switch_to(else_blk);
        otherwise(self);
        let else_falls = !self.is_terminated();
        if else_falls {
            self.jump(join);
        }

        if then_falls || else_falls {
            self.switch_to(join);
        } else {
            // Join is unreachable; give it a dummy terminator so the body is
            // complete, but nothing branches to it.
            self.switch_to(join);
            self.ret(None);
        }
    }

    /// `if (cond) { then }`
    pub fn if_then(&mut self, cond: Local, then: impl FnOnce(&mut Self)) {
        self.if_then_else(cond, then, |_| {});
    }

    /// `while (cond()) { body() }`
    ///
    /// `cond` is re-evaluated in the loop header on every iteration and must
    /// return the boolean local to branch on.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> Local,
        body: impl FnOnce(&mut Self),
    ) {
        let header = self.new_block();
        let body_blk = self.new_block();
        let exit = self.new_block();
        self.jump(header);

        self.switch_to(header);
        let c = cond(self);
        self.br(c, body_blk, exit);

        self.switch_to(body_blk);
        body(self);
        if !self.is_terminated() {
            self.jump(header);
        }

        self.switch_to(exit);
    }

    /// `for (i = from; i < to; i++) { body(i) }`
    ///
    /// `from` and `to` are evaluated once, before the loop.
    pub fn for_range(&mut self, from: Local, to: Local, body: impl FnOnce(&mut Self, Local)) {
        let i = self.local();
        self.assign(i, from);
        let bound = self.copy(to);
        self.while_loop(
            |f| f.lt(i, bound),
            |f| {
                body(f, i);
                if !f.is_terminated() {
                    let one = f.iconst(1);
                    let next = f.add(i, one);
                    f.assign(i, next);
                }
            },
        );
    }

    fn finish(self) -> (Vec<crate::instr::Block>, u16) {
        assert!(
            self.current.is_none(),
            "method body finished with unterminated block {:?}",
            self.current
        );
        let mut blocks: Vec<_> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.unwrap_or_else(|| panic!("block b{i} reserved but never built")))
            .collect();
        // The collect reuses the growth buffer of `self.blocks`.
        blocks.shrink_to_fit();
        (blocks, self.next_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRef;

    fn simple_program() -> (ProgramBuilder, MethodId) {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(cls, "main", &[], Some(TypeRef::Int));
        (pb, main)
    }

    #[test]
    fn straight_line_body() {
        let (mut pb, main) = simple_program();
        let mut f = pb.body(main);
        let a = f.iconst(1);
        let b = f.iconst(2);
        let c = f.add(a, b);
        f.ret(Some(c));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        assert_eq!(p.method(main).blocks.len(), 1);
        assert_eq!(p.method(main).n_locals, 3);
    }

    #[test]
    fn if_then_else_builds_join() {
        let (mut pb, main) = simple_program();
        let mut f = pb.body(main);
        let c = f.bconst(true);
        let out = f.local();
        f.if_then_else(
            c,
            |f| {
                let v = f.iconst(1);
                f.assign(out, v);
            },
            |f| {
                let v = f.iconst(2);
                f.assign(out, v);
            },
        );
        f.ret(Some(out));
        pb.finish_body(main, f);
        let p = pb.build().unwrap();
        // entry + then + else + join
        assert_eq!(p.method(main).blocks.len(), 4);
    }

    #[test]
    fn if_with_early_return_in_both_branches() {
        let (mut pb, main) = simple_program();
        let mut f = pb.body(main);
        let c = f.bconst(false);
        f.if_then_else(
            c,
            |f| {
                let v = f.iconst(1);
                f.ret(Some(v));
            },
            |f| {
                let v = f.iconst(2);
                f.ret(Some(v));
            },
        );
        assert!(f.is_terminated());
        pb.finish_body(main, f);
        pb.build().unwrap();
    }

    #[test]
    fn while_loop_shape() {
        let (mut pb, main) = simple_program();
        let mut f = pb.body(main);
        let i = f.iconst(0);
        let n = f.iconst(10);
        f.while_loop(
            |f| f.lt(i, n),
            |f| {
                let one = f.iconst(1);
                let next = f.add(i, one);
                f.assign(i, next);
            },
        );
        f.ret(Some(i));
        pb.finish_body(main, f);
        let p = pb.build().unwrap();
        // entry + header + body + exit
        assert_eq!(p.method(main).blocks.len(), 4);
    }

    #[test]
    fn for_range_counts() {
        let (mut pb, main) = simple_program();
        let mut f = pb.body(main);
        let from = f.iconst(0);
        let to = f.iconst(5);
        let acc = f.iconst(0);
        f.for_range(from, to, |f, i| {
            let next = f.add(acc, i);
            f.assign(acc, next);
        });
        f.ret(Some(acc));
        pb.finish_body(main, f);
        pb.build().unwrap();
    }

    #[test]
    #[should_panic(expected = "emit after terminator")]
    fn emit_after_ret_panics() {
        let (pb, main) = simple_program();
        let mut f = pb.body(main);
        f.ret(None);
        f.iconst(1);
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn duplicate_class_panics() {
        let mut pb = ProgramBuilder::new();
        pb.add_class("t.A", None);
        pb.add_class("t.A", None);
    }

    #[test]
    fn selectors_are_interned_by_name_and_arity() {
        let mut pb = ProgramBuilder::new();
        let s1 = pb.intern_selector("run", 1);
        let s2 = pb.intern_selector("run", 1);
        let s3 = pb.intern_selector("run", 2);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn virtual_methods_reserve_this() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.add_class("t.A", None);
        let m = pb.declare_virtual(cls, "f", &[TypeRef::Int], Some(TypeRef::Int));
        let mut f = pb.body(m);
        // local 0 = this, local 1 = first param
        let p0 = f.param(1);
        f.ret(Some(p0));
        pb.finish_body(m, f);
        let p = pb.build().unwrap();
        assert_eq!(p.method(m).param_locals(), 2);
    }

    #[test]
    fn missing_body_is_a_build_error() {
        let (pb, _) = simple_program();
        assert!(matches!(
            pb.build(),
            Err(crate::ValidateError::MissingBody { .. })
        ));
    }
}
