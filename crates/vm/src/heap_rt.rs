//! Runtime heap: the snapshot contents materialized for execution, plus
//! dynamically allocated objects.
//!
//! Objects with indices below [`RtHeap::snapshot_len`] correspond one-to-one
//! to build-time objects ([`nimage_heap::ObjId`]); their first accesses are
//! what faults `.svm_heap` pages in. Objects allocated at run time live in
//! anonymous memory and never fault binary pages.
//!
//! The materialization is split in two so one image can be executed many
//! times (the evaluation engine measures the same baseline build once per
//! strategy-matrix row): a [`HeapTemplate`] holds the immutable converted
//! snapshot and is shared between runs behind an `Arc`, while [`RtHeap`]
//! keeps only the per-run mutable state — a copy-on-write overlay for
//! mutated snapshot objects and the dynamically allocated tail.

use std::collections::HashMap;
use std::sync::Arc;

use nimage_heap::{BuildHeap, HObjectKind, HValue, ObjId};
use nimage_ir::{ClassId, FieldId, Program, Scalar, TypeRef};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtValue {
    /// Null reference.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Reference into the [`RtHeap`] arena.
    Ref(u32),
}

/// The operator table's view of a runtime value.
impl From<RtValue> for Scalar {
    #[inline]
    fn from(v: RtValue) -> Scalar {
        match v {
            RtValue::Null => Scalar::Null,
            RtValue::Bool(b) => Scalar::Bool(b),
            RtValue::Int(i) => Scalar::Int(i),
            RtValue::Double(d) => Scalar::Double(d),
            RtValue::Ref(r) => Scalar::Ref(r),
        }
    }
}

impl From<Scalar> for RtValue {
    #[inline]
    fn from(s: Scalar) -> RtValue {
        match s {
            Scalar::Null => RtValue::Null,
            Scalar::Bool(b) => RtValue::Bool(b),
            Scalar::Int(i) => RtValue::Int(i),
            Scalar::Double(d) => RtValue::Double(d),
            Scalar::Ref(r) => RtValue::Ref(r),
        }
    }
}

impl RtValue {
    /// Default value for a declared type.
    pub fn default_for(ty: &TypeRef) -> RtValue {
        match ty {
            TypeRef::Bool => RtValue::Bool(false),
            TypeRef::Int => RtValue::Int(0),
            TypeRef::Double => RtValue::Double(0.0),
            _ => RtValue::Null,
        }
    }
}

/// A runtime object's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum RtObject {
    /// Class instance with fields in layout order.
    Instance {
        /// Dynamic class.
        class: ClassId,
        /// Field slots.
        fields: Vec<RtValue>,
    },
    /// Array.
    Array {
        /// Element type.
        elem: TypeRef,
        /// Elements.
        elems: Vec<RtValue>,
    },
    /// Immutable string.
    Str(String),
    /// Boxed FP constant (from the data section).
    Boxed(f64),
    /// Resource blob.
    Blob {
        /// Resource path.
        name: String,
        /// Size in bytes.
        size: u32,
    },
}

fn convert_value(v: HValue) -> RtValue {
    match v {
        HValue::Null => RtValue::Null,
        HValue::Bool(b) => RtValue::Bool(b),
        HValue::Int(i) => RtValue::Int(i),
        HValue::Double(d) => RtValue::Double(d),
        HValue::Ref(o) => RtValue::Ref(o.0),
    }
}

/// The immutable materialization of a build-heap snapshot: every snapshot
/// object converted to its runtime representation, plus the build-time
/// static-field values and interned-string table.
///
/// A template is built once per snapshot and shared (via `Arc`) by every
/// [`RtHeap`] — and therefore every VM run — over that snapshot.
#[derive(Debug)]
pub struct HeapTemplate {
    objects: Vec<RtObject>,
    /// Build-time static-field values, dense by field index.
    statics: Vec<Option<RtValue>>,
    interned: HashMap<String, u32>,
}

/// Writes a static field into a dense table, growing it as needed.
fn set_dense(statics: &mut Vec<Option<RtValue>>, field: FieldId, value: RtValue) {
    let i = field.index();
    if i >= statics.len() {
        statics.resize(i + 1, None);
    }
    statics[i] = Some(value);
}

/// Reads a static field from a dense table (`None`: never written).
fn get_dense(statics: &[Option<RtValue>], field: FieldId) -> Option<RtValue> {
    statics.get(field.index()).copied().flatten()
}

impl HeapTemplate {
    /// Converts a build heap. Indices of build objects are preserved, so
    /// `RtValue::Ref(i)` with `i < len` denotes the build object `ObjId(i)`.
    pub fn from_build_heap(heap: &BuildHeap) -> HeapTemplate {
        let mut objects = Vec::with_capacity(heap.len());
        let mut interned = HashMap::new();
        for i in 0..heap.len() {
            let o = heap.get(ObjId(i as u32));
            let rt = match &o.kind {
                HObjectKind::Instance { class, fields } => RtObject::Instance {
                    class: *class,
                    fields: fields.iter().map(|&v| convert_value(v)).collect(),
                },
                HObjectKind::Array { elem, elems } => RtObject::Array {
                    elem: elem.clone(),
                    elems: elems.iter().map(|&v| convert_value(v)).collect(),
                },
                HObjectKind::Str(s) => {
                    if heap.is_interned(ObjId(i as u32)) {
                        interned.insert(s.clone(), i as u32);
                    }
                    RtObject::Str(s.clone())
                }
                HObjectKind::Boxed(d) => RtObject::Boxed(*d),
                HObjectKind::Blob { name, size } => RtObject::Blob {
                    name: name.clone(),
                    size: *size,
                },
            };
            objects.push(rt);
        }
        let mut statics = vec![];
        for (f, v) in heap.statics() {
            set_dense(&mut statics, f, convert_value(v));
        }
        HeapTemplate {
            objects,
            statics,
            interned,
        }
    }

    /// Number of snapshot objects in the template.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the snapshot had no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// The runtime heap: an immutable shared [`HeapTemplate`] plus this run's
/// private state — copy-on-write copies of mutated snapshot objects,
/// runtime allocations, static-field writes and runtime-interned strings.
#[derive(Debug, Clone)]
pub struct RtHeap {
    base: Arc<HeapTemplate>,
    /// Copy-on-write overlay, dense by snapshot object: `0` reads the
    /// template, `i + 1` reads this run's copy `copies[i]`.
    overlay: Vec<u32>,
    /// This run's copies of mutated snapshot objects.
    copies: Vec<RtObject>,
    /// Objects allocated at run time; reference `snapshot_len + i`.
    dynamic: Vec<RtObject>,
    /// Static-field writes of this run, dense by field index; reads fall
    /// back to the template.
    statics: Vec<Option<RtValue>>,
    /// Strings interned at run time (build-time literals live in the
    /// template and resolve to image objects).
    interned: HashMap<String, u32>,
    snapshot_len: u32,
}

impl RtHeap {
    /// Materializes the build heap for execution (private template).
    pub fn from_build_heap(heap: &BuildHeap) -> RtHeap {
        RtHeap::from_template(Arc::new(HeapTemplate::from_build_heap(heap)))
    }

    /// Creates a run-private heap over a shared snapshot template without
    /// copying any object.
    pub fn from_template(base: Arc<HeapTemplate>) -> RtHeap {
        RtHeap {
            snapshot_len: base.objects.len() as u32,
            overlay: vec![0; base.objects.len()],
            base,
            copies: Vec::new(),
            dynamic: Vec::new(),
            statics: Vec::new(),
            interned: HashMap::new(),
        }
    }

    /// Number of objects that originate from the build heap.
    pub fn snapshot_len(&self) -> u32 {
        self.snapshot_len
    }

    /// Whether `r` refers to a build-time (image) object.
    pub fn is_image_object(&self, r: u32) -> bool {
        r < self.snapshot_len
    }

    /// Immutable object access.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn get(&self, r: u32) -> &RtObject {
        if r < self.snapshot_len {
            match self.overlay[r as usize] {
                0 => &self.base.objects[r as usize],
                copy => &self.copies[copy as usize - 1],
            }
        } else {
            &self.dynamic[(r - self.snapshot_len) as usize]
        }
    }

    /// Mutable object access. The first mutation of a snapshot object
    /// copies it out of the shared template into this run's overlay.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn get_mut(&mut self, r: u32) -> &mut RtObject {
        if r < self.snapshot_len {
            let copy = &mut self.overlay[r as usize];
            if *copy == 0 {
                self.copies.push(self.base.objects[r as usize].clone());
                *copy = self.copies.len() as u32;
            }
            &mut self.copies[*copy as usize - 1]
        } else {
            &mut self.dynamic[(r - self.snapshot_len) as usize]
        }
    }

    /// Allocates a runtime object, returning its reference.
    pub fn alloc(&mut self, o: RtObject) -> u32 {
        let r = self.snapshot_len + self.dynamic.len() as u32;
        self.dynamic.push(o);
        r
    }

    /// Allocates an instance with default field values.
    pub fn alloc_instance(&mut self, program: &Program, class: ClassId) -> u32 {
        let fields = program
            .all_instance_fields(class)
            .iter()
            .map(|&f| RtValue::default_for(&program.field(f).ty))
            .collect();
        self.alloc(RtObject::Instance { class, fields })
    }

    /// Interned string lookup/allocation. Literals already interned at
    /// build time resolve to their image object (and thus to `.svm_heap`
    /// pages); new literals intern into anonymous memory.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&r) = self.base.interned.get(s) {
            return r;
        }
        if let Some(&r) = self.interned.get(s) {
            return r;
        }
        let r = self.alloc(RtObject::Str(s.to_string()));
        self.interned.insert(s.to_string(), r);
        r
    }

    /// Reads a static field.
    pub fn static_value(&self, program: &Program, field: FieldId) -> RtValue {
        get_dense(&self.statics, field)
            .or_else(|| get_dense(&self.base.statics, field))
            .unwrap_or_else(|| RtValue::default_for(&program.field(field).ty))
    }

    /// Writes a static field.
    pub fn set_static(&mut self, field: FieldId, value: RtValue) {
        set_dense(&mut self.statics, field, value);
    }

    /// Total number of live objects (image + dynamic).
    pub fn len(&self) -> usize {
        self.snapshot_len as usize + self.dynamic.len()
    }

    /// Whether the heap has no objects at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_heap_conversion_preserves_indices() {
        let mut bh = BuildHeap::new();
        let s = bh.intern("hi");
        let arr = bh.alloc_array(TypeRef::Int, 3);
        let rt = RtHeap::from_build_heap(&bh);
        assert_eq!(rt.snapshot_len(), 2);
        assert!(matches!(rt.get(s.0), RtObject::Str(x) if x == "hi"));
        assert!(matches!(rt.get(arr.0), RtObject::Array { elems, .. } if elems.len() == 3));
    }

    #[test]
    fn runtime_allocations_are_not_image_objects() {
        let bh = BuildHeap::new();
        let mut rt = RtHeap::from_build_heap(&bh);
        let r = rt.alloc(RtObject::Str("dyn".into()));
        assert!(!rt.is_image_object(r));
    }

    #[test]
    fn interned_literals_resolve_to_image_objects() {
        let mut bh = BuildHeap::new();
        let s = bh.intern("lit");
        let mut rt = RtHeap::from_build_heap(&bh);
        assert_eq!(rt.intern("lit"), s.0);
        let fresh = rt.intern("new-at-runtime");
        assert!(!rt.is_image_object(fresh));
        // Interning is stable at runtime too.
        assert_eq!(rt.intern("new-at-runtime"), fresh);
    }

    #[test]
    fn shared_template_is_not_mutated_by_a_run() {
        let mut bh = BuildHeap::new();
        let arr = bh.alloc_array(TypeRef::Int, 2);
        let template = Arc::new(HeapTemplate::from_build_heap(&bh));

        let mut first = RtHeap::from_template(template.clone());
        if let RtObject::Array { elems, .. } = first.get_mut(arr.0) {
            elems[0] = RtValue::Int(42);
        }
        assert!(matches!(
            first.get(arr.0),
            RtObject::Array { elems, .. } if elems[0] == RtValue::Int(42)
        ));

        // A second run over the same template sees the pristine snapshot.
        let second = RtHeap::from_template(template);
        assert!(matches!(
            second.get(arr.0),
            RtObject::Array { elems, .. } if elems[0] == RtValue::Int(0)
        ));
    }

    #[test]
    fn static_writes_shadow_template_values() {
        let bh = BuildHeap::new();
        let template = Arc::new(HeapTemplate::from_build_heap(&bh));
        let mut rt = RtHeap::from_template(template);
        let program = Program::default();
        rt.set_static(FieldId(0), RtValue::Int(7));
        // The overlay value wins without consulting the program's field
        // table (the empty program has no field f0 to fall back to).
        assert_eq!(rt.static_value(&program, FieldId(0)), RtValue::Int(7));
    }
}
