//! Heap-snapshot construction: root discovery, ordered object-graph
//! traversal, inclusion reasons and cross-build divergence modelling.

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use nimage_analysis::Reachability;
use nimage_compiler::{CompiledProgram, CuId, ProgramIndex};
use nimage_ir::{ClassId, FieldId, Instr, MethodId, Program};

use crate::clinit::{run_initializers, StepBudget};
use crate::exec::ExecError;
use crate::object::{BuildHeap, HObject, HObjectKind, ObjId};

/// Why an object became a root of the heap object graph (Sec. 5.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InclusionReason {
    /// Stored in a reachable static field (signature of the field).
    StaticField(String),
    /// Referenced by a constant pointer embedded in a method (signature of
    /// the method). Arises when partial escape analysis folds the parent
    /// object into compiled code.
    MethodConstant(String),
    /// A Java-style interned string.
    InternedString,
    /// Stored in the data section of the binary (e.g. boxed FP constants).
    DataSection,
    /// An embedded resource (resource path).
    Resource(String),
}

impl InclusionReason {
    /// The string form hashed by the *heap path* strategy (Algorithm 3),
    /// as a fixed prefix and the reason's own text (empty for the unit
    /// reasons): `StaticField:` + signature, `DataSection` + `""`. The label
    /// is the two concatenated; the hash streams them without building it.
    pub fn label(&self) -> (&'static str, &str) {
        match self {
            InclusionReason::StaticField(sig) => ("StaticField:", sig),
            InclusionReason::MethodConstant(sig) => ("MethodConstant:", sig),
            InclusionReason::InternedString => ("InternedString", ""),
            InclusionReason::DataSection => ("DataSection", ""),
            InclusionReason::Resource(name) => ("Resource:", name),
        }
    }
}

/// How an object was first reached from its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParentLink {
    /// Through an instance field.
    Field(FieldId),
    /// Through an array slot.
    Index(u32),
}

/// One object included in the heap snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapEntry {
    /// The object.
    pub obj: ObjId,
    /// Size in the `.svm_heap` section, in bytes.
    pub size: u32,
    /// First discovery parent (`None` for roots) — the "first path" of
    /// Algorithm 3.
    pub parent: Option<(ObjId, ParentLink)>,
    /// Inclusion reason (`Some` for roots only).
    pub root: Option<InclusionReason>,
    /// The compilation unit whose scan pulled this object in, if any.
    /// Drives the default object order of the `.svm_heap` section.
    pub cu: Option<CuId>,
}

/// Build configuration governing heap-snapshot divergence across builds.
#[derive(Debug, Clone)]
pub struct HeapBuildConfig {
    /// Seed for the parallel class-initialization order.
    pub clinit_seed: u64,
    /// Whether initializers sharing a group are permuted at all.
    pub shuffle_parallel_inits: bool,
    /// Whether partial-escape-analysis folding removes objects from the
    /// snapshot (enabled for profile-guided optimized builds).
    pub pea_fold: bool,
    /// Seed for fold decisions.
    pub pea_seed: u64,
    /// Fold roughly one in `pea_fold_ratio` eligible objects.
    pub pea_fold_ratio: u32,
    /// Build-time execution budget.
    pub budget: StepBudget,
}

impl Default for HeapBuildConfig {
    fn default() -> Self {
        HeapBuildConfig {
            clinit_seed: 0,
            shuffle_parallel_inits: true,
            pea_fold: false,
            pea_seed: 0,
            pea_fold_ratio: 12,
            budget: StepBudget::default(),
        }
    }
}

/// The heap snapshot: the contents of the `.svm_heap` section, in default
/// order (CU order of the `.text` section, Sec. 2).
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    heap: BuildHeap,
    entries: Vec<SnapEntry>,
    /// Default-order position of every heap object, indexed by `ObjId`
    /// (dense by construction, [`BuildHeap::alloc`]); [`ABSENT`] for an
    /// object the snapshot does not include.
    index_of: Vec<u32>,
    folded: HashSet<ObjId>,
}

/// The [`HeapSnapshot`] index slot of an object that is not included.
const ABSENT: u32 = u32::MAX;

/// The dense index of `entries` over a heap of `n_objects` objects.
///
/// # Panics
/// If an entry's object lies outside the heap.
fn dense_index(n_objects: usize, entries: &[SnapEntry]) -> Vec<u32> {
    let mut index = vec![ABSENT; n_objects];
    for (i, e) in entries.iter().enumerate() {
        index[e.obj.index()] = i as u32;
    }
    index
}

impl HeapSnapshot {
    /// Reassembles a snapshot from its raw parts (the inverse of
    /// [`HeapSnapshot::heap`]/[`HeapSnapshot::entries`]/[`HeapSnapshot::folded`]),
    /// recomputing the index; used when deserializing a persisted
    /// snapshot.
    ///
    /// # Panics
    /// If an entry's object lies outside `heap` (the disk decode checks
    /// every id against the heap before it gets here).
    pub fn from_parts(
        heap: BuildHeap,
        entries: Vec<SnapEntry>,
        folded: HashSet<ObjId>,
    ) -> HeapSnapshot {
        let index_of = dense_index(heap.len(), &entries);
        HeapSnapshot {
            heap,
            entries,
            index_of,
            folded,
        }
    }

    /// The build-time heap backing the snapshot.
    pub fn heap(&self) -> &BuildHeap {
        &self.heap
    }

    /// Whether the VM can run `program` over this snapshot, which it
    /// indexes without checks: every set static is a field of `program`,
    /// and every instance is of a class of `program` with exactly as many
    /// fields as that class's layout. One pass over the heap, with layout
    /// lengths computed once per class. A snapshot decoded from disk that
    /// fails this must be recomputed.
    pub fn fits(&self, program: &Program) -> bool {
        let n_fields = program.fields().len();
        let layout_len: Vec<usize> = (0..program.classes().len())
            .map(|c| program.all_instance_fields(ClassId(c as u32)).len())
            .collect();
        self.heap.statics().all(|(f, _)| f.index() < n_fields)
            && self.heap.objects().iter().all(|o| match &o.kind {
                HObjectKind::Instance { class, fields } => {
                    layout_len.get(class.index()) == Some(&fields.len())
                }
                _ => true,
            })
    }

    /// Snapshot entries in default order.
    pub fn entries(&self) -> &[SnapEntry] {
        &self.entries
    }

    /// The snapshot entry for `obj`, if included.
    #[inline]
    pub fn entry(&self, obj: ObjId) -> Option<&SnapEntry> {
        self.index_of(obj).map(|i| &self.entries[i])
    }

    /// Default-order index of `obj`, if included. `None` also for an id
    /// outside the heap.
    #[inline]
    pub fn index_of(&self, obj: ObjId) -> Option<usize> {
        match self.index_of.get(obj.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// Objects removed from the snapshot by PEA folding; at run time their
    /// contents live in compiled code, not in `.svm_heap`.
    pub fn folded(&self) -> &HashSet<ObjId> {
        &self.folded
    }

    /// Total `.svm_heap` payload in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.size)).sum()
    }

    /// Walks the first-discovery path from `obj` to its root, yielding
    /// `(object, link taken from parent)` pairs, ending at the root entry.
    /// Returns `None` if `obj` is not in the snapshot.
    pub fn path_to_root(&self, obj: ObjId) -> Option<Vec<&SnapEntry>> {
        let mut path = vec![self.entry(obj)?];
        let mut cur = self.entry(obj)?;
        while let Some((parent, _)) = cur.parent {
            cur = self.entry(parent)?;
            path.push(cur);
            if path.len() > self.entries.len() {
                return None; // defensive: corrupted parent chain
            }
        }
        Some(path)
    }
}

/// Orders the build-time initializers, permuting classes that share a
/// parallel-initialization group (seeded, deterministic per seed).
///
/// Public so verification clients (`nimage-verify`'s clinit-purity audit)
/// can replay the exact initializer order a snapshot used and collect a
/// dynamic effect log for it.
pub fn init_order(program: &Program, reach: &Reachability, cfg: &HeapBuildConfig) -> Vec<MethodId> {
    let mut inits = reach.build_time_inits.clone();
    if !cfg.shuffle_parallel_inits {
        return inits;
    }
    // Group positions by init group; shuffle members within each group that
    // has more than one, leaving the position multiset unchanged.
    let mut by_group: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &m) in inits.iter().enumerate() {
        let class = program.method(m).owner;
        by_group
            .entry(program.class(class).init_group)
            .or_default()
            .push(i);
    }
    let mut groups: Vec<(u32, Vec<usize>)> = by_group.into_iter().collect();
    groups.sort();
    let mut rng = SmallRng::seed_from_u64(cfg.clinit_seed);
    let orig = inits.clone();
    for (_g, positions) in groups {
        if positions.len() < 2 {
            continue;
        }
        let mut members: Vec<MethodId> = positions.iter().map(|&i| orig[i]).collect();
        members.shuffle(&mut rng);
        for (&pos, &m) in positions.iter().zip(members.iter()) {
            inits[pos] = m;
        }
    }
    inits
}

/// Runs the reachable class initializers and snapshots the heap.
///
/// # Errors
/// Propagates build-time execution failures ([`ExecError`]).
pub fn snapshot(
    index: &ProgramIndex<'_>,
    compiled: &CompiledProgram,
    cfg: &HeapBuildConfig,
) -> Result<HeapSnapshot, ExecError> {
    let program = index.program();
    let reach = &compiled.reachability;
    let inits = init_order(program, reach, cfg);
    let mut heap = run_initializers(index, &inits, cfg.budget)?;

    let mut rooted_fields: HashSet<FieldId> = HashSet::new();
    let mut boxed_cache: HashMap<u64, ObjId> = HashMap::new();
    let mut roots: Vec<(ObjId, InclusionReason, Option<CuId>)> = vec![];

    // Phase 1: scan compiled code, CU by CU in default .text order. This is
    // what makes the default .svm_heap order follow the .text order.
    for cu in &compiled.cus {
        for node in &cu.nodes {
            let method = program.method(node.method);
            for &(b, i) in index.data_sites(node.method) {
                match &method.blocks[b as usize].instrs[i as usize] {
                    Instr::GetStatic(_, f) | Instr::PutStatic(f, _) if rooted_fields.insert(*f) => {
                        if let Some(o) = heap.static_value(program, *f).referent().map(ObjId) {
                            roots.push((
                                o,
                                InclusionReason::StaticField(index.field_sig(*f).to_string()),
                                Some(cu.id),
                            ));
                        }
                    }
                    Instr::ConstStr(_, s) => {
                        let o = heap.intern(s);
                        roots.push((o, InclusionReason::InternedString, Some(cu.id)));
                    }
                    Instr::ConstDouble(_, v) => {
                        let bits = v.to_bits();
                        let o = *boxed_cache
                            .entry(bits)
                            .or_insert_with(|| heap.alloc(HObjectKind::Boxed(*v)));
                        roots.push((o, InclusionReason::DataSection, Some(cu.id)));
                    }
                    _ => {}
                }
            }
        }
    }

    // Phase 2: remaining reachable static fields (reachable through
    // non-compiled paths, e.g. only from initializers).
    for &f in &reach.static_fields {
        if rooted_fields.insert(f) {
            if let Some(o) = heap.static_value(program, f).referent().map(ObjId) {
                roots.push((
                    o,
                    InclusionReason::StaticField(index.field_sig(f).to_string()),
                    None,
                ));
            }
        }
    }

    // Phase 3: embedded resources.
    for r in &program.resources {
        let o = heap.alloc(HObjectKind::Blob {
            name: r.name.clone(),
            size: r.size,
        });
        roots.push((o, InclusionReason::Resource(r.name.clone()), None));
    }

    // One traversal in root order against a shared `index_of`: an object
    // belongs to the first root that reaches it (Sec. 5.3).
    let mut entries: Vec<SnapEntry> = vec![];
    let mut index_of = vec![ABSENT; heap.len()];
    for (obj, reason, cu) in &roots {
        include(&heap, index, &mut entries, &mut index_of, *obj, reason, *cu);
    }

    let mut snap = HeapSnapshot {
        heap,
        entries,
        index_of,
        folded: HashSet::new(),
    };

    if cfg.pea_fold {
        apply_pea_folding(index, compiled, cfg, &mut snap);
    }

    Ok(snap)
}

/// The parent link by which `hobj`'s reference in `slot` was reached, or
/// `None` for object kinds whose children carry no link (and are never
/// pushed — their `references()` are empty anyway).
fn child_link(index: &ProgramIndex<'_>, hobj: &HObject, slot: usize) -> Option<ParentLink> {
    match &hobj.kind {
        HObjectKind::Instance { class, .. } => Some(ParentLink::Field(index.layout(*class)[slot])),
        HObjectKind::Array { .. } => Some(ParentLink::Index(slot as u32)),
        _ => None,
    }
}

/// Include `obj` (if new) and everything reachable from it, depth-first
/// in field/slot order — Native Image's "well-defined order".
#[allow(clippy::too_many_arguments)]
fn include(
    heap: &BuildHeap,
    index: &ProgramIndex<'_>,
    entries: &mut Vec<SnapEntry>,
    index_of: &mut [u32],
    obj: ObjId,
    reason: &InclusionReason,
    cu: Option<CuId>,
) {
    let included = |index_of: &[u32], o: ObjId| index_of[o.index()] != ABSENT;
    if included(index_of, obj) {
        return;
    }
    let mut stack: Vec<(ObjId, Option<(ObjId, ParentLink)>)> = vec![(obj, None)];
    let mut first = true;
    while let Some((o, parent)) = stack.pop() {
        if included(index_of, o) {
            continue;
        }
        let entry = SnapEntry {
            obj: o,
            size: heap.get(o).size_bytes(),
            parent,
            root: if first { Some(reason.clone()) } else { None },
            cu,
        };
        first = false;
        index_of[o.index()] = entries.len() as u32;
        entries.push(entry);

        let hobj = heap.get(o);
        let refs = hobj.references();
        // Push in reverse so the DFS visits slots in ascending order.
        for &(slot, child) in refs.iter().rev() {
            if included(index_of, child) {
                continue;
            }
            let Some(link) = child_link(index, hobj, slot) else {
                continue;
            };
            stack.push((child, Some((o, link))));
        }
    }
}

/// Removes a build-dependent subset of non-root instances from the snapshot,
/// modelling partial escape analysis constant-folding object contents into
/// compiled code: "some objects could be stack-allocated in one binary but
/// not in another, or the accesses to their fields could be constant-folded,
/// eliminating the need to store the respective objects" (Sec. 2).
///
/// Children of a folded object are re-rooted with a `MethodConstant` reason
/// — they are now referenced by a constant pointer embedded in the code of
/// the CU that pulled in the folded parent.
fn apply_pea_folding(
    index: &ProgramIndex<'_>,
    compiled: &CompiledProgram,
    cfg: &HeapBuildConfig,
    snap: &mut HeapSnapshot,
) {
    let ratio = u64::from(cfg.pea_fold_ratio.max(1));
    let mut folded: HashSet<ObjId> = HashSet::new();
    // PGO-driven optimization — and hence PEA divergence — concentrates in
    // the code compiled later (colder, larger compilation units), whose
    // objects sit in the later part of the traversal. Folding past the
    // first third reproduces the paper's observation that encounter-order
    // identities survive for the early prefix but degrade beyond the first
    // divergence point.
    let fold_start = snap.entries.len() / 3;
    // Scalar replacement overwhelmingly targets *leaf* objects (no
    // references into the rest of the snapshot); interior objects fold far
    // more rarely, because their fields escape into their children.
    let parents: HashSet<ObjId> = snap
        .entries
        .iter()
        .filter_map(|e| e.parent.map(|(p, _)| p))
        .collect();
    // Reference in-degree over the snapshot graph (all edges, not just the
    // first-discovery parent). An object with two inbound references is
    // *aliased*: folding it would constant-fold one path while the other
    // still expects a materialized object, so it must never fold. This is
    // the invariant `nimage-verify`'s PEA-soundness audit re-checks
    // independently.
    let mut inbound = vec![0u32; snap.heap.len()];
    for e in &snap.entries {
        for (_, child) in snap.heap.get(e.obj).references() {
            if snap.index_of(child).is_some() {
                inbound[child.index()] += 1;
            }
        }
    }
    for (i, e) in snap.entries.iter().enumerate() {
        if i < fold_start || e.root.is_some() {
            continue;
        }
        if !matches!(snap.heap.get(e.obj).kind, HObjectKind::Instance { .. }) {
            continue;
        }
        if inbound[e.obj.index()] != 1 {
            continue;
        }
        let divisor = if parents.contains(&e.obj) {
            // Interior objects rarely fold: their fields escape through
            // their children.
            ratio * 8
        } else {
            (ratio / 3).max(1)
        };
        // Build-dependent fold decision: the hash mixes the seed with the
        // entry's *position*, which itself differs across builds.
        let h = fnv_mix(
            cfg.pea_seed,
            i as u64,
            snap.heap.get(e.obj).size_bytes() as u64,
        );
        if h.is_multiple_of(divisor) {
            folded.insert(e.obj);
        }
    }
    if folded.is_empty() {
        return;
    }

    // Re-root children of folded objects; a chain of folded parents
    // collapses onto the nearest surviving ancestor rule: child of a folded
    // object becomes a MethodConstant root.
    let reroot_reason = |cu: Option<CuId>| {
        let sig = cu
            .map(|c| index.sig(compiled.cu(c).root).to_string())
            .unwrap_or_else(|| "<build-time>".to_string());
        InclusionReason::MethodConstant(sig)
    };
    let mut new_entries: Vec<SnapEntry> = vec![];
    for e in &snap.entries {
        if folded.contains(&e.obj) {
            continue;
        }
        let mut e = e.clone();
        if let Some((p, _)) = e.parent {
            if folded.contains(&p) {
                e.parent = None;
                e.root = Some(reroot_reason(e.cu));
            }
        }
        new_entries.push(e);
    }
    snap.index_of = dense_index(snap.heap.len(), &new_entries);
    snap.entries = new_entries;
    snap.folded = folded;
}

fn fnv_mix(a: u64, b: u64, c: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [a, b, c] {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{compile, InlineConfig, InstrumentConfig, DEFAULT_MAX_PATHS};
    use nimage_ir::{ProgramBuilder, TypeRef};

    /// A program whose clinit builds a small linked structure reachable from
    /// a static field, with string and double constants in code.
    fn snapshot_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("t.Node", None);
        let f_next = pb.add_instance_field(node, "next", TypeRef::Object(node));
        let f_val = pb.add_instance_field(node, "val", TypeRef::Int);

        let holder = pb.add_class("t.Holder", None);
        let f_head = pb.add_static_field(holder, "HEAD", TypeRef::Object(node));
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
        f.ret(None);
        pb.finish_body(cl, f);

        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let _greeting = f.sconst("hello snapshot");
        let _pi = f.dconst(3.5);
        let head = f.get_static(f_head);
        let v = f.get_field(head, f_val);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.add_resource("META-INF/app.txt", 100);
        pb.build().unwrap()
    }

    fn build(p: &Program, cfg: &HeapBuildConfig) -> HeapSnapshot {
        let index = ProgramIndex::new(p, DEFAULT_MAX_PATHS);
        let reach = analyze(p, &AnalysisConfig::default());
        let cp = compile(
            &index,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        snapshot(&index, &cp, cfg).unwrap()
    }

    #[test]
    fn snapshot_contains_rooted_graph_strings_doubles_resources() {
        let p = snapshot_program();
        let snap = build(&p, &HeapBuildConfig::default());
        // 2 nodes + 1 interned string + 1 boxed double + 1 resource blob.
        assert_eq!(snap.entries().len(), 5);
        let reasons: Vec<_> = snap
            .entries()
            .iter()
            .filter_map(|e| e.root.clone())
            .collect();
        assert!(reasons
            .iter()
            .any(|r| matches!(r, InclusionReason::StaticField(s) if s == "t.Holder.HEAD")));
        assert!(reasons.contains(&InclusionReason::InternedString));
        assert!(reasons.contains(&InclusionReason::DataSection));
        assert!(reasons
            .iter()
            .any(|r| matches!(r, InclusionReason::Resource(_))));
    }

    #[test]
    fn parent_chain_reaches_root() {
        let p = snapshot_program();
        let snap = build(&p, &HeapBuildConfig::default());
        // Find the non-root node (n2): parent must be n1 through `next`.
        let child = snap
            .entries()
            .iter()
            .find(|e| e.parent.is_some())
            .expect("a child entry");
        let path = snap.path_to_root(child.obj).unwrap();
        assert_eq!(path.len(), 2);
        assert!(path.last().unwrap().root.is_some());
        match child.parent {
            Some((_, ParentLink::Field(fid))) => {
                assert_eq!(p.field_signature(fid), "t.Node.next");
            }
            other => panic!("unexpected parent link {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_deterministic_for_same_seed() {
        let p = snapshot_program();
        let a = build(&p, &HeapBuildConfig::default());
        let b = build(&p, &HeapBuildConfig::default());
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn unreachable_build_time_garbage_is_excluded() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.C", None);
        let fld = pb.add_static_field(c, "KEEP", TypeRef::Object(c));
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let keep = f.new_object(c);
        let _garbage = f.new_object(c);
        f.put_static(fld, keep);
        f.ret(None);
        pb.finish_body(cl, f);
        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let v = f.get_static(fld);
        let one = f.iconst(1);
        let _ = v;
        f.ret(Some(one));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let snap = build(&p, &HeapBuildConfig::default());
        assert_eq!(snap.entries().len(), 1, "only the rooted object survives");
    }

    #[test]
    fn pea_folding_removes_objects_and_reroots_children() {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("t.Node", None);
        let f_next = pb.add_instance_field(node, "next", TypeRef::Object(node));
        let holder = pb.add_class("t.Holder", None);
        let f_head = pb.add_static_field(holder, "HEAD", TypeRef::Object(node));
        let cl = pb.declare_clinit(holder);
        let mut f = pb.body(cl);
        // A long chain so that some interior node folds for some seed.
        let head = f.new_object(node);
        let cur = f.copy(head);
        let from = f.iconst(0);
        let to = f.iconst(63);
        f.for_range(from, to, |f, _i| {
            let next = f.new_object(node);
            f.put_field(cur, f_next, next);
            f.assign(cur, next);
        });
        f.put_static(f_head, head);
        f.ret(None);
        pb.finish_body(cl, f);
        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let h = f.get_static(f_head);
        let n = f.get_field(h, f_next);
        let one = f.iconst(1);
        let _ = n;
        f.ret(Some(one));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();

        let base = build(&p, &HeapBuildConfig::default());
        let folded_cfg = HeapBuildConfig {
            pea_fold: true,
            pea_seed: 7,
            pea_fold_ratio: 4,
            ..HeapBuildConfig::default()
        };
        let folded = build(&p, &folded_cfg);
        assert!(folded.entries().len() < base.entries().len());
        assert!(!folded.folded().is_empty());
        // Some child of a folded object must have been re-rooted.
        assert!(folded
            .entries()
            .iter()
            .any(|e| matches!(e.root, Some(InclusionReason::MethodConstant(_)))));
        // No entry's parent refers to a folded object.
        for e in folded.entries() {
            if let Some((parent, _)) = e.parent {
                assert!(!folded.folded().contains(&parent));
            }
        }
    }

    #[test]
    fn parallel_init_groups_shuffle_with_seed() {
        // Two classes in the same group append to a shared static array; the
        // resulting order depends on the seed.
        let mut pb = ProgramBuilder::new();
        let reg = pb.add_class("t.Registry", None);
        let slot_a = pb.add_static_field(reg, "A", TypeRef::Int);
        let slot_n = pb.add_static_field(reg, "N", TypeRef::Int);
        let mk = |pb: &mut ProgramBuilder, name: &str, tag: i64| {
            let c = pb.add_class(name, None);
            let cl = pb.declare_clinit(c);
            let mut f = pb.body(cl);
            let n = f.get_static(slot_n);
            let zero = f.iconst(0);
            let is_first = f.eq(n, zero);
            f.if_then(is_first, |f| {
                let t = f.iconst(tag);
                f.put_static(slot_a, t);
            });
            let one = f.iconst(1);
            let n1 = f.add(n, one);
            f.put_static(slot_n, n1);
            f.ret(None);
            pb.finish_body(cl, f);
            c
        };
        let c1 = mk(&mut pb, "t.P1", 1);
        let c2 = mk(&mut pb, "t.P2", 2);
        pb.set_init_group(c1, 99);
        pb.set_init_group(c2, 99);
        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        // Reference both classes' members so both clinits run.
        let v = f.get_static(slot_a);
        let o1 = f.new_object(c1);
        let o2 = f.new_object(c2);
        let _ = (o1, o2);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());

        let order_for = |seed: u64| {
            let cfg = HeapBuildConfig {
                clinit_seed: seed,
                ..HeapBuildConfig::default()
            };
            init_order(&p, &reach, &cfg)
        };
        let orders: Vec<_> = (0..16).map(order_for).collect();
        let distinct: std::collections::HashSet<_> = orders.iter().collect();
        assert!(distinct.len() > 1, "seeds must produce different orders");
        // Same seed → same order.
        assert_eq!(order_for(3), order_for(3));
    }
}

/// Aggregate statistics over a heap snapshot, grouped the way the paper
/// describes snapshot composition: "many String literals, Class instances,
/// metadata byte arrays, and maps that dominate the size" (Sec. 7.2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotStats {
    /// Object and byte counts of class instances.
    pub instances: (usize, u64),
    /// Object and byte counts of arrays.
    pub arrays: (usize, u64),
    /// Object and byte counts of strings.
    pub strings: (usize, u64),
    /// Object and byte counts of boxed constants.
    pub boxed: (usize, u64),
    /// Object and byte counts of resource blobs.
    pub blobs: (usize, u64),
    /// Root counts per inclusion-reason kind: static field, method
    /// constant, interned string, data section, resource.
    pub roots: [usize; 5],
}

impl SnapshotStats {
    /// Total object count.
    pub fn objects(&self) -> usize {
        self.instances.0 + self.arrays.0 + self.strings.0 + self.boxed.0 + self.blobs.0
    }

    /// Total bytes.
    pub fn bytes(&self) -> u64 {
        self.instances.1 + self.arrays.1 + self.strings.1 + self.boxed.1 + self.blobs.1
    }
}

impl HeapSnapshot {
    /// Computes composition statistics for the snapshot.
    pub fn stats(&self) -> SnapshotStats {
        let mut s = SnapshotStats::default();
        for e in &self.entries {
            let bucket = match &self.heap.get(e.obj).kind {
                HObjectKind::Instance { .. } => &mut s.instances,
                HObjectKind::Array { .. } => &mut s.arrays,
                HObjectKind::Str(_) => &mut s.strings,
                HObjectKind::Boxed(_) => &mut s.boxed,
                HObjectKind::Blob { .. } => &mut s.blobs,
            };
            bucket.0 += 1;
            bucket.1 += u64::from(e.size);
            if let Some(reason) = &e.root {
                let idx = match reason {
                    InclusionReason::StaticField(_) => 0,
                    InclusionReason::MethodConstant(_) => 1,
                    InclusionReason::InternedString => 2,
                    InclusionReason::DataSection => 3,
                    InclusionReason::Resource(_) => 4,
                };
                s.roots[idx] += 1;
            }
        }
        s
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{compile, InlineConfig, InstrumentConfig, DEFAULT_MAX_PATHS};
    use nimage_ir::{ProgramBuilder, TypeRef};

    #[test]
    fn stats_cover_every_entry_and_root() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.C", None);
        let fld = pb.add_static_field(c, "ARR", TypeRef::array_of(TypeRef::Int));
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let n = f.iconst(16);
        let a = f.new_array(TypeRef::Int, n);
        f.put_static(fld, a);
        f.ret(None);
        pb.finish_body(cl, f);
        let mc = pb.add_class("t.Main", None);
        let main = pb.declare_static(mc, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let _s = f.sconst("hello stats");
        let _d = f.dconst(2.5);
        let arr = f.get_static(fld);
        let z = f.iconst(0);
        let v = f.array_get(arr, z);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.add_resource("cfg", 64);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();

        let stats = snap.stats();
        assert_eq!(stats.objects(), snap.entries().len());
        assert_eq!(stats.bytes(), snap.total_bytes());
        assert_eq!(stats.arrays.0, 1);
        assert_eq!(stats.strings.0, 1);
        assert_eq!(stats.boxed.0, 1);
        assert_eq!(stats.blobs.0, 1);
        // Roots: 1 static field, 1 interned string, 1 data section, 1 resource.
        assert_eq!(stats.roots, [1, 0, 1, 1, 1]);
    }
}
