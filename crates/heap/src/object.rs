//! Build-time heap objects and the heap arena.

use std::collections::HashMap;
use std::fmt;

use nimage_ir::{ClassId, FieldId, Program, TypeRef, Value};

/// Index of an object in a [`BuildHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The payload of one heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum HObjectKind {
    /// A class instance; `fields` follows the layout order of
    /// [`Program::all_instance_fields`].
    Instance {
        /// Dynamic class.
        class: ClassId,
        /// Field values in layout order.
        fields: Vec<Value>,
    },
    /// An array.
    Array {
        /// Element type.
        elem: TypeRef,
        /// Element values.
        elems: Vec<Value>,
    },
    /// An immutable string (interned strings and runtime concatenations).
    Str(String),
    /// A boxed floating-point constant living in the binary's data section.
    Boxed(f64),
    /// An embedded resource blob.
    Blob {
        /// Resource path.
        name: String,
        /// Payload size in bytes.
        size: u32,
    },
}

/// One heap object.
#[derive(Debug, Clone, PartialEq)]
pub struct HObject {
    /// Object payload.
    pub kind: HObjectKind,
}

impl HObject {
    /// Size of the object in the heap-snapshot section, in bytes
    /// (16-byte header for instances, 24 for arrays/strings, plus payload).
    pub fn size_bytes(&self) -> u32 {
        match &self.kind {
            HObjectKind::Instance { fields, .. } => 16 + 8 * fields.len() as u32,
            HObjectKind::Array { elem, elems } => {
                let esz = match elem {
                    TypeRef::Bool => 1,
                    _ => 8,
                };
                24 + esz * elems.len() as u32
            }
            HObjectKind::Str(s) => 24 + s.len() as u32,
            HObjectKind::Boxed(_) => 16,
            HObjectKind::Blob { size, .. } => 24 + size,
        }
    }

    /// The fully qualified type name of this object.
    pub fn type_name(&self, program: &Program) -> String {
        match &self.kind {
            HObjectKind::Instance { class, .. } => program.class(*class).name.clone(),
            HObjectKind::Array { elem, .. } => format!("{}[]", program.type_name(elem)),
            HObjectKind::Str(_) => "String".to_string(),
            HObjectKind::Boxed(_) => "BoxedDouble".to_string(),
            HObjectKind::Blob { .. } => "Resource".to_string(),
        }
    }

    /// Outgoing references, in a well-defined order (field layout order for
    /// instances, index order for arrays).
    pub fn references(&self) -> Vec<(usize, ObjId)> {
        let slot_refs = |values: &[Value]| {
            values
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.referent().map(|o| (i, ObjId(o))))
                .collect::<Vec<_>>()
        };
        match &self.kind {
            HObjectKind::Instance { fields, .. } => slot_refs(fields),
            HObjectKind::Array { elems, .. } => slot_refs(elems),
            _ => vec![],
        }
    }
}

/// The arena of build-time objects plus static-field storage and the
/// interned-string table.
#[derive(Debug, Clone, Default)]
pub struct BuildHeap {
    objects: Vec<HObject>,
    statics: HashMap<FieldId, Value>,
    interned: HashMap<String, ObjId>,
}

impl BuildHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of objects allocated so far.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates an object and returns its id.
    pub fn alloc(&mut self, kind: HObjectKind) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(HObject { kind });
        id
    }

    /// Returns the interned string object for `s`, allocating it on first
    /// use (Java string interning).
    pub fn intern(&mut self, s: &str) -> ObjId {
        if let Some(o) = self.interned_id(s) {
            return o;
        }
        let o = self.alloc(HObjectKind::Str(s.to_string()));
        self.interned.insert(s.to_string(), o);
        o
    }

    /// The interned string object for `s`, if `s` has been interned.
    pub fn interned_id(&self, s: &str) -> Option<ObjId> {
        self.interned.get(s).copied()
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    /// Panics if `o` is out of range.
    pub fn get(&self, o: ObjId) -> &HObject {
        &self.objects[o.index()]
    }

    /// Mutable access to an object.
    ///
    /// # Panics
    /// Panics if `o` is out of range.
    pub fn get_mut(&mut self, o: ObjId) -> &mut HObject {
        &mut self.objects[o.index()]
    }

    /// Current value of a static field (its declared default if never set).
    pub fn static_value(&self, program: &Program, field: FieldId) -> Value {
        self.statics
            .get(&field)
            .copied()
            .unwrap_or_else(|| Value::default_for(&program.field(field).ty))
    }

    /// Sets a static field.
    pub fn set_static(&mut self, field: FieldId, value: Value) {
        self.statics.insert(field, value);
    }

    /// Iterates over all static fields explicitly set at build time.
    pub fn statics(&self) -> impl Iterator<Item = (FieldId, Value)> + '_ {
        self.statics.iter().map(|(&f, &v)| (f, v))
    }

    /// All objects, indexed by [`ObjId`].
    pub fn objects(&self) -> &[HObject] {
        &self.objects
    }

    /// Iterates over the interned-string table.
    pub fn interned(&self) -> impl Iterator<Item = (&str, ObjId)> + '_ {
        self.interned.iter().map(|(s, &o)| (s.as_str(), o))
    }

    /// Reassembles a heap from its raw parts (the inverse of
    /// [`BuildHeap::objects`]/[`BuildHeap::statics`]/[`BuildHeap::interned`]),
    /// used when deserializing a persisted heap snapshot.
    pub fn from_parts(
        objects: Vec<HObject>,
        statics: HashMap<FieldId, Value>,
        interned: HashMap<String, ObjId>,
    ) -> BuildHeap {
        BuildHeap {
            objects,
            statics,
            interned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::new_instance;
    use nimage_compiler::ProgramIndex;
    use nimage_compiler::DEFAULT_MAX_PATHS;
    use nimage_ir::ProgramBuilder;

    fn two_class_program() -> (Program, ClassId, ClassId, FieldId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let fa = pb.add_instance_field(a, "x", TypeRef::Int);
        let b = pb.add_class("t.B", Some(a));
        let fb = pb.add_instance_field(b, "next", TypeRef::Object(b));
        let p = pb.build().unwrap();
        (p, a, b, fa, fb)
    }

    #[test]
    fn instance_layout_includes_inherited_fields() {
        let (p, _a, b, fa, fb) = two_class_program();
        let mut h = BuildHeap::new();
        let o = h.alloc(new_instance(&ProgramIndex::new(&p, DEFAULT_MAX_PATHS), b));
        match &h.get(o).kind {
            HObjectKind::Instance { fields, .. } => assert_eq!(fields.len(), 2),
            _ => panic!("not an instance"),
        }
        let index = ProgramIndex::new(&p, DEFAULT_MAX_PATHS);
        assert_eq!(index.field_slot(b, fa), Some(0));
        assert_eq!(index.field_slot(b, fb), Some(1));
    }

    #[test]
    fn interning_deduplicates() {
        let mut h = BuildHeap::new();
        let a = h.intern("hello");
        let b = h.intern("hello");
        let c = h.intern("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(h.interned_id("hello"), Some(a));
        assert_eq!(h.interned_id("absent"), None);
        // A plain Str allocation is not interned.
        let d = h.alloc(HObjectKind::Str("hello".into()));
        assert_ne!(h.interned_id("hello"), Some(d));
    }

    #[test]
    fn sizes_reflect_payload() {
        let (p, _a, b, _fa, _fb) = two_class_program();
        let mut h = BuildHeap::new();
        let o = h.alloc(new_instance(&ProgramIndex::new(&p, DEFAULT_MAX_PATHS), b));
        assert_eq!(h.get(o).size_bytes(), 16 + 16);
        let arr = h.alloc(HObjectKind::Array {
            elem: TypeRef::Int,
            elems: vec![Value::Int(0); 10],
        });
        assert_eq!(h.get(arr).size_bytes(), 24 + 80);
        let barr = h.alloc(HObjectKind::Array {
            elem: TypeRef::Bool,
            elems: vec![Value::Bool(false); 10],
        });
        assert_eq!(h.get(barr).size_bytes(), 24 + 10);
        let s = h.intern("abcd");
        assert_eq!(h.get(s).size_bytes(), 28);
    }

    #[test]
    fn references_follow_layout_order() {
        let (p, _a, b, _fa, fb) = two_class_program();
        let mut h = BuildHeap::new();
        let o1 = h.alloc(new_instance(&ProgramIndex::new(&p, DEFAULT_MAX_PATHS), b));
        let o2 = h.alloc(new_instance(&ProgramIndex::new(&p, DEFAULT_MAX_PATHS), b));
        let idx = ProgramIndex::new(&p, DEFAULT_MAX_PATHS)
            .field_slot(b, fb)
            .unwrap();
        if let HObjectKind::Instance { fields, .. } = &mut h.get_mut(o1).kind {
            fields[idx] = Value::Ref(o2.0);
        }
        assert_eq!(h.get(o1).references(), vec![(idx, o2)]);
        assert!(h.get(o2).references().is_empty());
    }

    #[test]
    fn statics_default_to_type_default() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let fi = pb.add_static_field(a, "I", TypeRef::Int);
        let fr = pb.add_static_field(a, "R", TypeRef::Object(a));
        let p = pb.build().unwrap();
        let mut h = BuildHeap::new();
        assert_eq!(h.static_value(&p, fi), Value::Int(0));
        assert_eq!(h.static_value(&p, fr), Value::Null);
        h.set_static(fi, Value::Int(9));
        assert_eq!(h.static_value(&p, fi), Value::Int(9));
    }
}
