//! Program, class, field and method definitions plus virtual-dispatch
//! resolution.

use std::collections::BTreeMap;
use std::fmt;

use crate::instr::Block;
use crate::types::{ClassId, FieldId, MethodId, TypeRef};

/// An interned method selector (method name + arity), the unit of virtual
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SelectorId(pub u32);

impl SelectorId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a method may be invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Static method; parameters start at local 0.
    Static,
    /// Instance method dispatched virtually; `this` is local 0.
    Virtual,
    /// Class initializer, run once at image build time by `nimage-heap`.
    ClassInit,
}

/// A field declaration (static or instance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Simple field name, unique within the declaring class.
    pub name: String,
    /// Declaring class.
    pub owner: ClassId,
    /// Declared (static) type.
    pub ty: TypeRef,
    /// Whether the field is static.
    pub is_static: bool,
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Class {
    /// Fully qualified name, e.g. `"awfy.bounce.Ball"`. Unique per program,
    /// which is what makes types identifiable across builds (Sec. 5.1).
    pub name: String,
    /// Superclass, if any. Single inheritance.
    pub superclass: Option<ClassId>,
    /// Instance fields declared by this class (not including inherited ones).
    pub instance_fields: Vec<FieldId>,
    /// Static fields declared by this class.
    pub static_fields: Vec<FieldId>,
    /// Methods declared by this class.
    pub methods: Vec<MethodId>,
    /// The class initializer, if the class has one.
    pub clinit: Option<MethodId>,
    /// Parallel-initialization group. Classes sharing a group may have their
    /// initializers run in a build-dependent order, modelling the
    /// non-determinism of parallel class initialization described in Sec. 2.
    pub init_group: u32,
}

/// A method definition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Method {
    /// Simple method name.
    pub name: String,
    /// Declaring class.
    pub owner: ClassId,
    /// Invocation kind.
    pub kind: MethodKind,
    /// Declared parameter types (excluding the implicit `this`).
    pub params: Vec<TypeRef>,
    /// Return type, if the method returns a value.
    pub ret: Option<TypeRef>,
    /// Number of locals (registers), including parameters and `this`.
    pub n_locals: u16,
    /// Basic blocks; block 0 is the entry block.
    pub blocks: Vec<Block>,
    /// Interned selector for virtual dispatch.
    pub selector: SelectorId,
}

impl Method {
    /// Number of locals occupied by parameters (including `this` for virtual
    /// methods).
    pub fn param_locals(&self) -> u16 {
        let this = if self.kind == MethodKind::Virtual {
            1
        } else {
            0
        };
        this + self.params.len() as u16
    }

    /// Machine-code size of the method body in bytes, including a fixed
    /// prologue/epilogue allowance.
    pub fn code_size(&self) -> u32 {
        16 + self.blocks.iter().map(Block::size_bytes).sum::<u32>()
    }
}

/// A build-time resource embedded in the image (becomes a `Resource` heap
/// root, Sec. 5.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Resource {
    /// Resource path, e.g. `"META-INF/services/demo"`.
    pub name: String,
    /// Payload size in bytes.
    pub size: u32,
}

/// A complete program: the unit compiled into a native image.
///
/// The derived `Hash` is the program's content fingerprint for the
/// (disk-persisted) artifact cache: it covers every field of every type a
/// program contains, in declaration order, so two programs hash alike only
/// if they are built alike.
#[derive(Debug, Clone, Default, Hash)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) fields: Vec<Field>,
    pub(crate) methods: Vec<Method>,
    pub(crate) selectors: Vec<String>,
    // BTreeMaps, not HashMaps: `Hash` walks them in iteration order, and the
    // fingerprint must be stable across processes (`HashMap` is not even
    // `Hash`, for that reason).
    pub(crate) selector_map: BTreeMap<String, SelectorId>,
    pub(crate) class_map: BTreeMap<String, ClassId>,
    /// Program entry point (a static method), if set.
    pub entry: Option<MethodId>,
    /// Embedded resources.
    pub resources: Vec<Resource>,
}

impl Program {
    /// All classes, indexable by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All fields, indexable by [`FieldId`].
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// All methods, indexable by [`MethodId`].
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// Looks up a class definition.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks up a field definition.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Looks up a method definition.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Looks up a class by fully qualified name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_map.get(name).copied()
    }

    /// The interned selector string (`name/arity`).
    pub fn selector_name(&self, id: SelectorId) -> &str {
        &self.selectors[id.index()]
    }

    /// Interned selector for a name and argument count, if it exists.
    pub fn selector(&self, name: &str, arity: usize) -> Option<SelectorId> {
        self.selector_map.get(&format!("{name}/{arity}")).copied()
    }

    /// All interned selector strings, indexable by [`SelectorId`].
    pub fn selectors(&self) -> &[String] {
        &self.selectors
    }

    /// Fully qualified, build-stable signature of a method:
    /// `owner.name(paramCount)`.
    ///
    /// Signatures are the keys used by the code-ordering profiles (Sec. 4) —
    /// they are stable across builds even when inlining differs.
    pub fn method_signature(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!(
            "{}.{}({})",
            self.class(m.owner).name,
            m.name,
            m.params.len()
        )
    }

    /// Fully qualified, build-stable signature of a field: `owner.name`.
    pub fn field_signature(&self, id: FieldId) -> String {
        let f = self.field(id);
        format!("{}.{}", self.class(f.owner).name, f.name)
    }

    /// Fully qualified name of a type, including array types
    /// (`"demo.Point[]"`).
    pub fn type_name(&self, ty: &TypeRef) -> String {
        match ty {
            TypeRef::Bool => "bool".to_string(),
            TypeRef::Int => "int".to_string(),
            TypeRef::Double => "double".to_string(),
            TypeRef::Str => "String".to_string(),
            TypeRef::Object(c) => self.class(*c).name.clone(),
            TypeRef::Array(e) => format!("{}[]", self.type_name(e)),
        }
    }

    /// Resolves a virtual call on a receiver of dynamic class `class` to a
    /// concrete method, walking the superclass chain.
    pub fn resolve_virtual(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let cls = self.class(c);
            for &m in &cls.methods {
                let method = self.method(m);
                if method.selector == selector && method.kind == MethodKind::Virtual {
                    return Some(m);
                }
            }
            cur = cls.superclass;
        }
        None
    }

    /// Whether `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }

    /// All classes that are `class` or a transitive subclass of it.
    pub fn subclasses_of(&self, class: ClassId) -> Vec<ClassId> {
        (0..self.classes.len())
            .map(ClassId::from)
            .filter(|&c| self.is_subclass(c, class))
            .collect()
    }

    /// All instance fields of a class including inherited ones, superclass
    /// fields first — the object layout order, and the field iteration order
    /// of the structural hash (Algorithm 2, "source-code definition order").
    pub fn all_instance_fields(&self, class: ClassId) -> Vec<FieldId> {
        let mut chain = vec![];
        let mut cur = Some(class);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.class(c).superclass;
        }
        chain
            .into_iter()
            .rev()
            .flat_map(|c| self.class(c).instance_fields.iter().copied())
            .collect()
    }

    /// Looks up an instance field by name on a class (searching the
    /// superclass chain).
    pub fn find_instance_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &self.class(c).instance_fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = self.class(c).superclass;
        }
        None
    }

    /// Total machine-code size of all method bodies, in bytes.
    pub fn total_code_size(&self) -> u64 {
        self.methods.iter().map(|m| u64::from(m.code_size())).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program: {} classes, {} methods, {} fields",
            self.classes.len(),
            self.methods.len(),
            self.fields.len()
        )?;
        for (i, c) in self.classes.iter().enumerate() {
            writeln!(f, "  class {} {}", ClassId::from(i), c.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{MethodKind, ProgramBuilder, TypeRef};

    #[test]
    fn virtual_resolution_walks_super_chain() {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("t.Base", None);
        let derived = pb.add_class("t.Derived", Some(base));
        let leaf = pb.add_class("t.Leaf", Some(derived));
        let run_base = pb.declare_virtual(base, "run", &[], Some(TypeRef::Int));
        let run_derived = pb.declare_virtual(derived, "run", &[], Some(TypeRef::Int));
        for m in [run_base, run_derived] {
            let mut f = pb.body(m);
            let v = f.iconst(0);
            f.ret(Some(v));
            pb.finish_body(m, f);
        }
        let sel = pb.intern_selector("run", 0);
        let p = pb.build().unwrap();
        assert_eq!(p.resolve_virtual(base, sel), Some(run_base));
        assert_eq!(p.resolve_virtual(derived, sel), Some(run_derived));
        // Leaf inherits Derived's implementation.
        assert_eq!(p.resolve_virtual(leaf, sel), Some(run_derived));
    }

    #[test]
    fn subclass_relation() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let b = pb.add_class("t.B", Some(a));
        let c = pb.add_class("t.C", None);
        let p = {
            // no methods needed
            pb.build().unwrap()
        };
        assert!(p.is_subclass(b, a));
        assert!(p.is_subclass(a, a));
        assert!(!p.is_subclass(a, b));
        assert!(!p.is_subclass(c, a));
        assert_eq!(p.subclasses_of(a), vec![a, b]);
    }

    #[test]
    fn instance_field_layout_superclass_first() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let fa = pb.add_instance_field(a, "x", TypeRef::Int);
        let b = pb.add_class("t.B", Some(a));
        let fb = pb.add_instance_field(b, "y", TypeRef::Int);
        let p = pb.build().unwrap();
        assert_eq!(p.all_instance_fields(b), vec![fa, fb]);
        assert_eq!(p.find_instance_field(b, "x"), Some(fa));
        assert_eq!(p.find_instance_field(b, "y"), Some(fb));
        assert_eq!(p.find_instance_field(a, "y"), None);
    }

    #[test]
    fn signatures_are_fully_qualified() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("pkg.A", None);
        let m = pb.declare_static(a, "go", &[TypeRef::Int, TypeRef::Int], None);
        let mut f = pb.body(m);
        f.ret(None);
        pb.finish_body(m, f);
        let fld = pb.add_static_field(a, "COUNT", TypeRef::Int);
        let p = pb.build().unwrap();
        assert_eq!(p.method_signature(m), "pkg.A.go(2)");
        assert_eq!(p.field_signature(fld), "pkg.A.COUNT");
        assert_eq!(
            p.type_name(&TypeRef::array_of(TypeRef::Object(a))),
            "pkg.A[]"
        );
    }

    #[test]
    fn clinit_kind_and_registration() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let cl = pb.declare_clinit(a);
        let mut f = pb.body(cl);
        f.ret(None);
        pb.finish_body(cl, f);
        let p = pb.build().unwrap();
        assert_eq!(p.class(a).clinit, Some(cl));
        assert_eq!(p.method(cl).kind, MethodKind::ClassInit);
    }
}
