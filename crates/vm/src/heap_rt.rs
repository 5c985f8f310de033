//! Runtime heap: the build-time snapshot heap read in place, plus this
//! run's writes and dynamically allocated objects.
//!
//! Objects with indices below [`RtHeap::snapshot_len`] are the build-time
//! objects of the same index ([`nimage_heap::ObjId`]): a reference
//! `Value::Ref(i)` with `i < snapshot_len` *is* `ObjId(i)`. Their first
//! accesses are what fault `.svm_heap` pages in. Objects allocated at run
//! time live in anonymous memory and never fault binary pages.
//!
//! One snapshot is executed many times (the evaluation engine measures the
//! same baseline build once per strategy-matrix row), so the heap borrows
//! the snapshot's [`BuildHeap`] and never converts or copies it: a run
//! keeps only its private state — a copy-on-write overlay for mutated
//! snapshot objects, the dynamically allocated tail, a dense static-field
//! table and the strings it interned.

use std::collections::HashMap;

use nimage_heap::{BuildHeap, HObject, HObjectKind, ObjId};
use nimage_ir::{ClassId, FieldId, Program, Value};

/// Builds and holds nothing: the VM reads the snapshot heap in place
/// ([`RtHeap`]), so there is no template to share. Kept, with
/// [`HeapTemplate::from_build_heap`] and `nimage_core::RunParts::heap`,
/// because the repo benchmark still names them; deleted with that
/// benchmark's `staged.rs`.
#[derive(Debug)]
pub struct HeapTemplate;

impl HeapTemplate {
    /// Builds nothing (see [`HeapTemplate`]).
    pub fn from_build_heap(_heap: &BuildHeap) -> HeapTemplate {
        HeapTemplate
    }
}

/// The runtime heap: the borrowed snapshot heap plus this run's private
/// state — copy-on-write copies of mutated snapshot objects, runtime
/// allocations, static fields and runtime-interned strings.
#[derive(Debug, Clone)]
pub struct RtHeap<'a> {
    base: &'a BuildHeap,
    /// Copy-on-write overlay, dense by snapshot object: `0` reads the
    /// snapshot, `i + 1` reads this run's copy `copies[i]`.
    overlay: Vec<u32>,
    /// This run's copies of mutated snapshot objects.
    copies: Vec<HObject>,
    /// Objects allocated at run time; reference `snapshot_len + i`.
    dynamic: Vec<HObject>,
    /// Every static field's current value, dense by field index: seeded
    /// with the declared defaults and the snapshot's values.
    statics: Vec<Value>,
    /// Strings interned at run time (build-time literals live in the
    /// snapshot and resolve to image objects).
    interned: HashMap<String, u32>,
    snapshot_len: u32,
}

impl<'a> RtHeap<'a> {
    /// A run-private heap over the snapshot heap `base` of `program`,
    /// without copying any object.
    ///
    /// # Panics
    /// If `base` sets a static that is not a field of `program`
    /// ([`nimage_heap::HeapSnapshot::fits`] rules that out).
    pub fn new(base: &'a BuildHeap, program: &Program) -> RtHeap<'a> {
        let mut statics: Vec<Value> = program
            .fields()
            .iter()
            .map(|f| Value::default_for(&f.ty))
            .collect();
        for (f, v) in base.statics() {
            statics[f.index()] = v;
        }
        RtHeap {
            base,
            overlay: vec![0; base.len()],
            copies: Vec::new(),
            dynamic: Vec::new(),
            statics,
            interned: HashMap::new(),
            snapshot_len: base.len() as u32,
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

    /// The payload of object `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn get(&self, r: u32) -> &HObjectKind {
        if r < self.snapshot_len {
            match self.overlay[r as usize] {
                0 => &self.base.objects()[r as usize].kind,
                copy => &self.copies[copy as usize - 1].kind,
            }
        } else {
            &self.dynamic[(r - self.snapshot_len) as usize].kind
        }
    }

    /// Mutable access to the payload of object `r`. The first mutation of
    /// a snapshot object copies it out of the shared snapshot into this
    /// run's overlay.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn get_mut(&mut self, r: u32) -> &mut HObjectKind {
        if r < self.snapshot_len {
            let copy = &mut self.overlay[r as usize];
            if *copy == 0 {
                self.copies.push(self.base.get(ObjId(r)).clone());
                *copy = self.copies.len() as u32;
            }
            &mut self.copies[*copy as usize - 1].kind
        } else {
            &mut self.dynamic[(r - self.snapshot_len) as usize].kind
        }
    }

    /// Allocates a runtime object, returning its reference.
    pub fn alloc(&mut self, kind: HObjectKind) -> u32 {
        let r = self.snapshot_len + self.dynamic.len() as u32;
        self.dynamic.push(HObject { kind });
        r
    }

    /// Allocates an instance with default field values.
    pub fn alloc_instance(&mut self, program: &Program, class: ClassId) -> u32 {
        let fields = program
            .all_instance_fields(class)
            .iter()
            .map(|&f| Value::default_for(&program.field(f).ty))
            .collect();
        self.alloc(HObjectKind::Instance { class, fields })
    }

    /// Interned string lookup/allocation. Literals already interned at
    /// build time resolve to their image object (and thus to `.svm_heap`
    /// pages); new literals intern into anonymous memory.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(o) = self.base.interned_id(s) {
            return o.0;
        }
        if let Some(&r) = self.interned.get(s) {
            return r;
        }
        let r = self.alloc(HObjectKind::Str(s.to_string()));
        self.interned.insert(s.to_string(), r);
        r
    }

    /// Reads a static field.
    #[inline]
    pub fn static_value(&self, field: FieldId) -> Value {
        self.statics[field.index()]
    }

    /// Writes a static field.
    #[inline]
    pub fn set_static(&mut self, field: FieldId, value: Value) {
        self.statics[field.index()] = value;
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
    use nimage_ir::{ProgramBuilder, TypeRef};

    #[test]
    fn snapshot_objects_keep_their_indices() {
        let mut bh = BuildHeap::new();
        let s = bh.intern("hi");
        let arr = bh.alloc_array(TypeRef::Int, 3);
        let rt = RtHeap::new(&bh, &Program::default());
        assert_eq!(rt.snapshot_len(), 2);
        assert!(matches!(rt.get(s.0), HObjectKind::Str(x) if x == "hi"));
        assert!(matches!(rt.get(arr.0), HObjectKind::Array { elems, .. } if elems.len() == 3));
    }

    #[test]
    fn runtime_allocations_are_not_image_objects() {
        let bh = BuildHeap::new();
        let mut rt = RtHeap::new(&bh, &Program::default());
        let r = rt.alloc(HObjectKind::Str("dyn".into()));
        assert!(!rt.is_image_object(r));
    }

    #[test]
    fn interned_literals_resolve_to_image_objects() {
        let mut bh = BuildHeap::new();
        let s = bh.intern("lit");
        let mut rt = RtHeap::new(&bh, &Program::default());
        assert_eq!(rt.intern("lit"), s.0);
        let fresh = rt.intern("new-at-runtime");
        assert!(!rt.is_image_object(fresh));
        // Interning is stable at runtime too.
        assert_eq!(rt.intern("new-at-runtime"), fresh);
    }

    #[test]
    fn two_runs_over_one_build_heap_do_not_see_each_others_writes() {
        let mut bh = BuildHeap::new();
        let arr = bh.alloc_array(TypeRef::Int, 2);
        let program = Program::default();

        let mut first = RtHeap::new(&bh, &program);
        if let HObjectKind::Array { elems, .. } = first.get_mut(arr.0) {
            elems[0] = Value::Int(42);
        }
        assert!(matches!(
            first.get(arr.0),
            HObjectKind::Array { elems, .. } if elems[0] == Value::Int(42)
        ));

        // A second run over the same heap sees the pristine snapshot.
        let second = RtHeap::new(&bh, &program);
        assert!(matches!(
            second.get(arr.0),
            HObjectKind::Array { elems, .. } if elems[0] == Value::Int(0)
        ));
        assert!(matches!(
            bh.get(arr).kind,
            HObjectKind::Array { ref elems, .. } if elems[0] == Value::Int(0)
        ));
    }

    #[test]
    fn statics_read_snapshot_values_defaults_and_run_writes() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let set = pb.add_static_field(a, "SET", TypeRef::Int);
        let unset = pb.add_static_field(a, "UNSET", TypeRef::Double);
        let program = pb.build().unwrap();
        let mut bh = BuildHeap::new();
        bh.set_static(set, Value::Int(3));
        let mut rt = RtHeap::new(&bh, &program);
        assert_eq!(rt.static_value(set), Value::Int(3));
        assert_eq!(rt.static_value(unset), Value::Double(0.0));
        rt.set_static(set, Value::Int(7));
        assert_eq!(rt.static_value(set), Value::Int(7));
        // The write is the run's own: the snapshot keeps its value.
        assert_eq!(bh.static_value(&program, set), Value::Int(3));
    }
}
