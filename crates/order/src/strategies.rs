//! The three heap-ordering identity strategies of Sec. 5.
//!
//! Every hashed identity is MurmurHash3 over a byte encoding of the
//! object. The encodings are written piece by piece — a borrowed type
//! name, a field signature as owner, `"."` and name, a payload — straight
//! into a [`Hasher128`] stream, which yields the digest of the
//! concatenation; no encoding is ever assembled whole in a buffer or a
//! `String`.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::Hasher;

use nimage_heap::{
    BuildHeap, HObject, HObjectKind, HeapSnapshot, InclusionReason, ObjId, ParentLink,
};
use nimage_ir::{ClassId, Program, TypeRef, Value};

use crate::murmur3::Hasher128;

/// Which 64-bit object-identity scheme to use (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapStrategy {
    /// Algorithm 1: per-type incremental counters in heap-traversal
    /// encounter order; the type id occupies the most-significant 32 bits.
    IncrementalId,
    /// Algorithm 2: MurmurHash3 over a depth-bounded structural encoding of
    /// the object (type names, field values, array contents).
    StructuralHash {
        /// The `MAX_DEPTH` recursion bound (the paper evaluates with 2).
        max_depth: u32,
    },
    /// Algorithm 3: MurmurHash3 over the first root-to-object path and the
    /// root's heap-inclusion reason.
    HeapPath,
    /// [`HeapStrategy::HeapPath`] with per-type collision salting: objects
    /// sharing a `(type, path)` hash — e.g. same-type siblings re-rooted
    /// under one `MethodConstant` reason by PEA folding, the source of the
    /// `profile::id-collision` multiplicities flagged on Bounce — get an
    /// occurrence counter (encounter order, per colliding group) mixed
    /// into the hash. Unique paths keep the plain heap-path identity, and
    /// like Algorithm 1's per-type counters, an extra or missing object
    /// only perturbs later members of its own colliding group.
    HeapPathSalted,
}

impl HeapStrategy {
    /// The paper's evaluated configuration of the structural hash
    /// (`MAX_DEPTH = 2`, Sec. 7.1).
    pub fn structural_default() -> Self {
        HeapStrategy::StructuralHash { max_depth: 2 }
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            HeapStrategy::IncrementalId => "incremental id",
            HeapStrategy::StructuralHash { .. } => "structural hash",
            HeapStrategy::HeapPath => "heap path",
            HeapStrategy::HeapPathSalted => "heap path salted",
        }
    }
}

/// Computes the 64-bit identity of every snapshot object under `strategy`,
/// in snapshot (encounter) order.
pub fn assign_ids(
    program: &Program,
    snapshot: &HeapSnapshot,
    strategy: HeapStrategy,
) -> HashMap<ObjId, u64> {
    match strategy {
        HeapStrategy::IncrementalId => incremental_ids(program, snapshot),
        HeapStrategy::StructuralHash { max_depth } => {
            let encoder = Encoder::new(program, snapshot.heap(), max_depth);
            snapshot
                .entries()
                .iter()
                .map(|e| {
                    let mut h = Hasher128::with_seed(0);
                    encoder.encode(&mut h, Value::Ref(e.obj.0), 0);
                    (e.obj, h.finish())
                })
                .collect()
        }
        HeapStrategy::HeapPath => snapshot
            .entries()
            .iter()
            .map(|e| (e.obj, heap_path_hash(program, snapshot, e.obj)))
            .collect(),
        HeapStrategy::HeapPathSalted => salted_heap_path_ids(program, snapshot),
    }
}

/// The salted variant of Algorithm 3: disambiguates heap-path collisions
/// with a per-`(type, path)` occurrence counter in snapshot encounter
/// order. The first object of each group keeps the plain heap-path hash
/// (unique paths are unaffected); later members mix the type name and
/// their occurrence index into the hash, so the k-th member of a group
/// in the profiling build matches the k-th member in the optimized build.
fn salted_heap_path_ids(program: &Program, snapshot: &HeapSnapshot) -> HashMap<ObjId, u64> {
    let mut occurrence: HashMap<(u64, u64), u32> = HashMap::new();
    let mut ids = HashMap::new();
    for e in snapshot.entries() {
        let base = heap_path_hash(program, snapshot, e.obj);
        let obj = snapshot.heap().get(e.obj);
        let type_id = type_name_hash(program, obj);
        let n = occurrence.entry((type_id, base)).or_insert(0);
        *n += 1;
        let id = if *n == 1 {
            base
        } else {
            let mut h = Hasher128::with_seed(0);
            h.write_u64(base);
            write_object_type(&mut h, program, obj);
            h.write_u32(*n);
            h.finish()
        };
        ids.insert(e.obj, id);
    }
    ids
}

/// Algorithm 1: incremental IDs. "The most-significant 32 bits store a
/// unique ID associated with the type while the least-significant 32 bits
/// store an incremental ID"; types are identified by fully qualified name
/// so the type half is stable across builds, and objects are numbered
/// within their type so one extra object only shifts its own type's ids.
fn incremental_ids(program: &Program, snapshot: &HeapSnapshot) -> HashMap<ObjId, u64> {
    let mut counters: HashMap<u64, u32> = HashMap::new();
    let mut ids = HashMap::new();
    for e in snapshot.entries() {
        let type_id = type_name_hash(program, snapshot.heap().get(e.obj)) & 0xffff_ffff;
        let counter = counters.entry(type_id).or_insert(0);
        *counter += 1;
        ids.insert(e.obj, (type_id << 32) | u64::from(*counter));
    }
    ids
}

/// Ablation variant of Algorithm 1: one **global** counter instead of
/// per-type counters. The paper segregates counters by type precisely
/// because "in this way the inaccuracies introduced by an object affect
/// only the ordering of the objects of the same type" — with a global
/// counter, any extra/missing object shifts *every* later identity.
pub fn assign_global_incremental_ids(
    _program: &Program,
    snapshot: &HeapSnapshot,
) -> HashMap<ObjId, u64> {
    snapshot
        .entries()
        .iter()
        .enumerate()
        .map(|(i, e)| (e.obj, i as u64 + 1))
        .collect()
}

/// Writes the fully qualified name of `ty` (`Program::type_name`): array
/// types as the element's name, then `"[]"`.
fn write_type_name(h: &mut Hasher128, program: &Program, ty: &TypeRef) {
    match ty {
        TypeRef::Bool => h.write(b"bool"),
        TypeRef::Int => h.write(b"int"),
        TypeRef::Double => h.write(b"double"),
        TypeRef::Str => h.write(b"String"),
        TypeRef::Object(c) => h.write(program.class(*c).name.as_bytes()),
        TypeRef::Array(elem) => {
            write_type_name(h, program, elem);
            h.write(b"[]");
        }
    }
}

/// Writes the dynamic type name of `obj` (`HObject::type_name`).
fn write_object_type(h: &mut Hasher128, program: &Program, obj: &HObject) {
    match &obj.kind {
        HObjectKind::Instance { class, .. } => h.write(program.class(*class).name.as_bytes()),
        HObjectKind::Array { elem, .. } => {
            write_type_name(h, program, elem);
            h.write(b"[]");
        }
        HObjectKind::Str(_) => h.write(b"String"),
        HObjectKind::Boxed(_) => h.write(b"BoxedDouble"),
        HObjectKind::Blob { .. } => h.write(b"Resource"),
    }
}

/// MurmurHash3 of `obj`'s dynamic type name: the type half of the
/// incremental and salted identities.
fn type_name_hash(program: &Program, obj: &HObject) -> u64 {
    let mut h = Hasher128::with_seed(0);
    write_object_type(&mut h, program, obj);
    h.finish()
}

/// Algorithm 2's `encodeToBytes`, streamed: the structural hash of an
/// object is the digest of everything [`Encoder::encode`] writes for it
/// at depth 0.
struct Encoder<'a> {
    program: &'a Program,
    heap: &'a BuildHeap,
    max_depth: u32,
    /// Declared field types in layout order
    /// (`Program::all_instance_fields`), per class, built on first use.
    layouts: Vec<OnceCell<Vec<&'a TypeRef>>>,
}

impl<'a> Encoder<'a> {
    fn new(program: &'a Program, heap: &'a BuildHeap, max_depth: u32) -> Self {
        Encoder {
            program,
            heap,
            max_depth,
            layouts: (0..program.classes().len())
                .map(|_| OnceCell::new())
                .collect(),
        }
    }

    fn layout(&self, class: ClassId) -> &[&'a TypeRef] {
        self.layouts[class.index()].get_or_init(|| {
            let program = self.program;
            program
                .all_instance_fields(class)
                .into_iter()
                .map(|f| &program.field(f).ty)
                .collect()
        })
    }

    /// Encodes `value` — null as one zero byte; otherwise its dynamic type
    /// name, then primitive and string payloads, instance fields (each
    /// preceded by its declared type name) or array element type, length
    /// and indexed elements — recursing through references while `depth <
    /// max_depth`. Scalar fields and scalar-typed array elements are
    /// encoded at every depth.
    fn encode(&self, h: &mut Hasher128, value: Value, depth: u32) {
        let obj = match value {
            Value::Null => return h.write_u8(0),
            Value::Bool(b) => {
                h.write(b"bool");
                return h.write_u8(u8::from(b));
            }
            Value::Int(i) => {
                h.write(b"int");
                return h.write_i64(i);
            }
            Value::Double(d) => {
                h.write(b"double");
                return h.write_u64(d.to_bits());
            }
            Value::Ref(o) => self.heap.get(ObjId(o)),
        };
        write_object_type(h, self.program, obj);
        let recurse = depth < self.max_depth;
        match &obj.kind {
            HObjectKind::Instance { class, fields } => {
                for (ty, &field) in self.layout(*class).iter().zip(fields) {
                    if recurse || self.is_scalar(field) {
                        write_type_name(h, self.program, ty);
                        self.encode(h, field, depth + 1);
                    }
                }
            }
            HObjectKind::Array { elem, elems } => {
                write_type_name(h, self.program, elem);
                h.write_u64(elems.len() as u64);
                if recurse || elem.is_primitive() || matches!(elem, TypeRef::Str) {
                    for (k, &e) in elems.iter().enumerate() {
                        h.write_u64(k as u64);
                        self.encode(h, e, depth + 1);
                    }
                }
            }
            HObjectKind::Str(s) => h.write(s.as_bytes()),
            // Boxed constants and resource blobs hash by payload.
            HObjectKind::Boxed(d) => h.write_u64(d.to_bits()),
            HObjectKind::Blob { name, size } => {
                h.write(name.as_bytes());
                h.write_u32(*size);
            }
        }
    }

    /// A primitive (not null) or a reference to a string: encoded even
    /// past the depth bound.
    fn is_scalar(&self, value: Value) -> bool {
        match value {
            Value::Null => false,
            Value::Ref(o) => matches!(self.heap.get(ObjId(o)).kind, HObjectKind::Str(_)),
            _ => true,
        }
    }
}

/// Algorithm 3: the heap-path hash — walks the first discovery path from
/// the object to its root and hashes type names, field descriptors / array
/// indices, and the root's heap-inclusion reason. Interned-string roots
/// hash their content instead (the path would be identical for all of
/// them).
fn heap_path_hash(program: &Program, snapshot: &HeapSnapshot, obj: ObjId) -> u64 {
    let Some(entry) = snapshot.entry(obj) else {
        return 0;
    };
    let mut h = Hasher128::with_seed(0);
    if matches!(entry.root, Some(InclusionReason::InternedString)) {
        if let HObjectKind::Str(s) = &snapshot.heap().get(obj).kind {
            h.write(s.as_bytes());
        }
        return h.finish();
    }
    let mut current = entry;
    loop {
        write_object_type(&mut h, program, snapshot.heap().get(current.obj));
        match (&current.root, current.parent) {
            (Some(reason), _) => {
                let (prefix, text) = reason.label();
                h.write(prefix.as_bytes());
                h.write(text.as_bytes());
                break;
            }
            (None, Some((parent, link))) => {
                match link {
                    ParentLink::Index(i) => h.write_u32(i),
                    ParentLink::Field(fid) => {
                        // Field descriptor: signature plus declared type.
                        let field = program.field(fid);
                        h.write(program.class(field.owner).name.as_bytes());
                        h.write(b".");
                        h.write(field.name.as_bytes());
                        write_type_name(&mut h, program, &field.ty);
                    }
                }
                current = snapshot.entry(parent).expect("parents are in snapshot");
            }
            (None, None) => break, // defensive: orphan entry
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{compile, InlineConfig, InstrumentConfig};
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_ir::{Program, ProgramBuilder, TypeRef};

    /// clinit builds: HEAD -> Node(val=1) -> Node(val=2); a string; an array.
    fn sample() -> (Program, HeapSnapshot) {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("s.Node", None);
        let f_next = pb.add_instance_field(node, "next", TypeRef::Object(node));
        let f_val = pb.add_instance_field(node, "val", TypeRef::Int);
        let holder = pb.add_class("s.Holder", None);
        let f_head = pb.add_static_field(holder, "HEAD", TypeRef::Object(node));
        let f_arr = pb.add_static_field(holder, "ARR", TypeRef::array_of(TypeRef::Int));
        let cl = pb.declare_clinit(holder);
        let mut f = pb.body(cl);
        let n1 = f.new_object(node);
        let n2 = f.new_object(node);
        let v1 = f.iconst(1);
        let v2 = f.iconst(2);
        f.put_field(n1, f_val, v1);
        f.put_field(n2, f_val, v2);
        f.put_field(n1, f_next, n2);
        f.put_static(f_head, n1);
        let len = f.iconst(3);
        let arr = f.new_array(TypeRef::Int, len);
        f.put_static(f_arr, arr);
        f.ret(None);
        pb.finish_body(cl, f);
        let mainc = pb.add_class("s.Main", None);
        let main = pb.declare_static(mainc, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let _s = f.sconst("greeting");
        let h = f.get_static(f_head);
        let a = f.get_static(f_arr);
        let _ = a;
        let v = f.get_field(h, f_val);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &p,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(&p, &cp, &HeapBuildConfig::default()).unwrap();
        (p, snap)
    }

    #[test]
    fn global_incremental_ids_are_sequential() {
        let (p, snap) = sample();
        let ids = assign_global_incremental_ids(&p, &snap);
        let mut values: Vec<u64> = snap.entries().iter().map(|e| ids[&e.obj]).collect();
        assert_eq!(
            values,
            (1..=snap.entries().len() as u64).collect::<Vec<_>>()
        );
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), snap.entries().len());
    }

    #[test]
    fn incremental_ids_are_per_type() {
        let (p, snap) = sample();
        let ids = assign_ids(&p, &snap, HeapStrategy::IncrementalId);
        // Two s.Node objects share a type id and have counters 1, 2.
        let node_ids: Vec<u64> = snap
            .entries()
            .iter()
            .filter(|e| snap.heap().get(e.obj).type_name(&p) == "s.Node")
            .map(|e| ids[&e.obj])
            .collect();
        assert_eq!(node_ids.len(), 2);
        assert_eq!(node_ids[0] >> 32, node_ids[1] >> 32, "same type half");
        assert_eq!(node_ids[0] & 0xffff_ffff, 1);
        assert_eq!(node_ids[1] & 0xffff_ffff, 2);
    }

    #[test]
    fn structural_hash_distinguishes_field_values() {
        let (p, snap) = sample();
        let ids = assign_ids(&p, &snap, HeapStrategy::structural_default());
        let node_ids: Vec<u64> = snap
            .entries()
            .iter()
            .filter(|e| snap.heap().get(e.obj).type_name(&p) == "s.Node")
            .map(|e| ids[&e.obj])
            .collect();
        // val=1 vs val=2 → different hashes.
        assert_ne!(node_ids[0], node_ids[1]);
    }

    /// The streamed encoding is Algorithm 2's byte string: both `s.Node`s'
    /// ids equal `hash64` of their encodings written out by hand.
    #[test]
    fn structural_hash_is_murmur_of_the_algorithm_2_bytes() {
        let (p, snap) = sample();
        let ids = assign_ids(&p, &snap, HeapStrategy::structural_default());
        let mut node_ids: Vec<u64> = snap
            .entries()
            .iter()
            .filter(|e| snap.heap().get(e.obj).type_name(&p) == "s.Node")
            .map(|e| ids[&e.obj])
            .collect();
        node_ids.sort_unstable();

        let int = |v: i64| [&b"int"[..], &b"int"[..], &v.to_le_bytes()].concat();
        // Node(val=2, next=null) at depth 1: `next` is null, `val` scalar.
        let tail_fields = [&b"s.Node"[..], &[0], &int(2)].concat();
        // The tail node on its own: its type, then its fields.
        let tail = [&b"s.Node"[..], &tail_fields].concat();
        // The head node: its type; `next` as declared type + the tail's
        // encoding one level down; `val`.
        let head = [&b"s.Node"[..], b"s.Node", b"s.Node", &tail_fields, &int(1)].concat();
        let mut want = vec![crate::murmur3::hash64(&head), crate::murmur3::hash64(&tail)];
        want.sort_unstable();
        assert_eq!(node_ids, want);
    }

    #[test]
    fn structural_hash_depth_zero_merges_structurally_similar() {
        let (p, snap) = sample();
        let d0 = assign_ids(&p, &snap, HeapStrategy::StructuralHash { max_depth: 0 });
        let d2 = assign_ids(&p, &snap, HeapStrategy::structural_default());
        // Depth 0 still sees primitive fields (line 13 checks the dynamic
        // type), so Node hashes still differ; but the deeper hash must
        // incorporate more data — check they are not identical maps.
        assert_ne!(d0, d2);
    }

    #[test]
    fn heap_path_distinguishes_chain_positions() {
        let (p, snap) = sample();
        let ids = assign_ids(&p, &snap, HeapStrategy::HeapPath);
        let node_ids: Vec<u64> = snap
            .entries()
            .iter()
            .filter(|e| snap.heap().get(e.obj).type_name(&p) == "s.Node")
            .map(|e| ids[&e.obj])
            .collect();
        // Root node path: [Node, StaticField]; child: [Node, next, Node,
        // StaticField] → distinct.
        assert_ne!(node_ids[0], node_ids[1]);
    }

    #[test]
    fn interned_string_roots_hash_their_content() {
        let (p, snap) = sample();
        let ids = assign_ids(&p, &snap, HeapStrategy::HeapPath);
        let s_entry = snap
            .entries()
            .iter()
            .find(|e| matches!(e.root, Some(InclusionReason::InternedString)))
            .expect("interned string root");
        assert_eq!(ids[&s_entry.obj], crate::murmur3::hash64(b"greeting"));
    }

    /// The whole point of hashing strategies: identities survive a rebuild
    /// with different non-determinism, where incremental ids may not.
    #[test]
    fn hash_strategies_are_stable_across_identical_rebuilds() {
        let (p, snap_a) = sample();
        let (_, snap_b) = sample();
        for strat in [
            HeapStrategy::IncrementalId,
            HeapStrategy::structural_default(),
            HeapStrategy::HeapPath,
            HeapStrategy::HeapPathSalted,
        ] {
            let a = assign_ids(&p, &snap_a, strat);
            let b = assign_ids(&p, &snap_b, strat);
            // Same build config → identical snapshots → identical ids.
            assert_eq!(a, b, "{}", strat.name());
        }
    }

    #[test]
    fn ids_cover_every_snapshot_entry() {
        let (p, snap) = sample();
        for strat in [
            HeapStrategy::IncrementalId,
            HeapStrategy::structural_default(),
            HeapStrategy::HeapPath,
            HeapStrategy::HeapPathSalted,
        ] {
            let ids = assign_ids(&p, &snap, strat);
            assert_eq!(ids.len(), snap.entries().len(), "{}", strat.name());
        }
    }

    /// Profiling-shaped and optimized-shaped Bounce snapshots: same
    /// compiled program, different clinit seeds, PEA folding only in the
    /// optimized build — the divergence the pipeline actually faces.
    fn bounce_snapshots() -> (Program, HeapSnapshot, HeapSnapshot) {
        let p = nimage_workloads::Awfy::Bounce.program();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &p,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap_prof = snapshot(
            &p,
            &cp,
            &HeapBuildConfig {
                clinit_seed: 1,
                ..HeapBuildConfig::default()
            },
        )
        .unwrap();
        let snap_opt = snapshot(
            &p,
            &cp,
            &HeapBuildConfig {
                clinit_seed: 2,
                pea_fold: true,
                pea_seed: 3,
                ..HeapBuildConfig::default()
            },
        )
        .unwrap();
        (p, snap_prof, snap_opt)
    }

    fn id_multiset(ids: &HashMap<ObjId, u64>) -> HashMap<u64, usize> {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for v in ids.values() {
            *counts.entry(*v).or_default() += 1;
        }
        counts
    }

    /// The `profile::id-collision` finding on Bounce: heap-path hashes
    /// collide (objects whose first discovery path is structurally
    /// identical — e.g. data-section constants sharing a root reason, or
    /// PEA-rerooted same-type siblings). Salting must fully disambiguate
    /// within a snapshot.
    #[test]
    fn salting_removes_heap_path_collisions_on_bounce() {
        let (p, _, snap_opt) = bounce_snapshots();
        let plain = id_multiset(&assign_ids(&p, &snap_opt, HeapStrategy::HeapPath));
        let salted = id_multiset(&assign_ids(&p, &snap_opt, HeapStrategy::HeapPathSalted));
        let plain_max = plain.values().copied().max().unwrap_or(0);
        let salted_max = salted.values().copied().max().unwrap_or(0);
        assert!(
            plain_max > 1,
            "expected heap-path collisions on Bounce, max multiplicity was {plain_max}"
        );
        assert_eq!(
            salted_max, 1,
            "salted ids must be collision-free within a snapshot"
        );
    }

    /// An object is *matchable* only if its id is unambiguous in both
    /// builds: unique within its own snapshot and unique within the other
    /// build's snapshot. Colliding groups are unusable for cross-build
    /// ordering; salting recovers them (the k-th member of a group matches
    /// the k-th member on the other side), so the matched-object ratio
    /// must strictly improve.
    #[test]
    fn salting_improves_matched_object_ratio_on_bounce() {
        let (p, snap_prof, snap_opt) = bounce_snapshots();
        let matched_ratio = |strategy: HeapStrategy| -> f64 {
            let ids_prof: Vec<u64> = assign_ids(&p, &snap_prof, strategy).into_values().collect();
            let ids_opt: Vec<u64> = assign_ids(&p, &snap_opt, strategy).into_values().collect();
            crate::quality::matched_object_ratio(&ids_prof, &ids_opt)
        };
        let plain = matched_ratio(HeapStrategy::HeapPath);
        let salted = matched_ratio(HeapStrategy::HeapPathSalted);
        assert!(
            salted > plain,
            "salted matched ratio ({salted:.3}) must beat plain heap path ({plain:.3})"
        );
    }
}
