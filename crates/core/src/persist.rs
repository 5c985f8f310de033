//! Persistence of profiling artifacts.
//!
//! The paper's post-processing framework emits "a CSV file that is used by
//! Native Image" per ordering analysis (Sec. 6.2). This module writes and
//! reads that profile directory, so profiling and optimizing builds can run
//! in separate processes (as they do in the real toolchain):
//!
//! ```text
//! <dir>/cu_order.csv          one CU-root signature per line
//! <dir>/method_order.csv      one method signature per line
//! <dir>/heap_incremental.csv  one 64-bit hex id per line (+ touched spans)
//! <dir>/heap_structural.csv
//! <dir>/heap_path.csv         (heap_path_salted.csv with salted ids)
//! <dir>/call_counts.csv       signature,count
//! ```
//!
//! This module owns the directory layout only; the line formats of the
//! ordering profiles belong to `nimage_order::{CodeOrderProfile,
//! HeapOrderProfile}::{to_csv, from_csv}`.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;

use nimage_analysis::{CallSite, Reachability};
use nimage_compiler::{
    CallCountProfile, CompilationUnit, CompiledProgram, CuId, InlineNode, InstrumentConfig,
};
use nimage_heap::{
    BuildHeap, HObject, HObjectKind, HeapSnapshot, InclusionReason, ObjId, ParentLink, SnapEntry,
};
use nimage_ir::{
    BinOp, ClassId, FieldId, Intrinsic, Local, MethodId, SelectorId, TypeRef, UnOp, Value,
};
use nimage_order::{CodeOrderProfile, HeapOrderProfile, HeapStrategy};
use nimage_vm::lower::{
    JumpEdge, LoweredCallee, LoweredInstr, LoweredMethod, LoweredPaths, PathEdge,
};
use nimage_vm::LoweredShard;

use crate::diskcache::{
    cap_alloc, decode_option, decode_value, encode_option, encode_value, put_string, DiskCodec,
    Reader,
};
use crate::{LayoutOrders, LayoutPrediction, PredictedFaults, ProfiledArtifacts};

fn heap_file_name(strategy: HeapStrategy) -> &'static str {
    match strategy {
        HeapStrategy::IncrementalId => "heap_incremental.csv",
        HeapStrategy::StructuralHash { .. } => "heap_structural.csv",
        HeapStrategy::HeapPath => "heap_path.csv",
        HeapStrategy::HeapPathSalted => "heap_path_salted.csv",
    }
}

/// Writes the ordering profiles and PGO call counts of `artifacts` into
/// `dir` (created if missing).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_profiles(artifacts: &ProfiledArtifacts, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("cu_order.csv"), artifacts.cu_profile.to_csv())?;
    std::fs::write(
        dir.join("method_order.csv"),
        artifacts.method_profile.to_csv(),
    )?;
    for (&strategy, profile) in &artifacts.heap_profiles {
        std::fs::write(dir.join(heap_file_name(strategy)), profile.to_csv())?;
    }
    std::fs::write(dir.join("call_counts.csv"), artifacts.call_counts.to_csv())?;
    Ok(())
}

/// The profiles read back from a directory written by [`save_profiles`].
///
/// This intentionally mirrors [`ProfiledArtifacts`] minus the run report
/// (which is not persisted — the optimizing build does not need it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SavedProfiles {
    /// *cu ordering* profile.
    pub cu_profile: CodeOrderProfile,
    /// *method ordering* profile.
    pub method_profile: CodeOrderProfile,
    /// Heap-ordering profiles per identity scheme.
    pub heap_profiles: HashMap<HeapStrategy, HeapOrderProfile>,
    /// PGO call counts.
    pub call_counts: CallCountProfile,
}

/// Reads a profile directory written by [`save_profiles`]. Missing files
/// yield empty profiles (a build can proceed with partial profiles, as the
/// real toolchain does).
///
/// # Errors
/// Propagates filesystem errors other than "file not found".
pub fn load_profiles(dir: &Path) -> io::Result<SavedProfiles> {
    let read = |name: &str| -> io::Result<String> {
        match std::fs::read_to_string(dir.join(name)) {
            Ok(s) => Ok(s),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
            Err(e) => Err(e),
        }
    };
    let read_opt = |name: &str| -> io::Result<Option<String>> {
        match std::fs::read_to_string(dir.join(name)) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    };
    let mut heap_profiles = HashMap::new();
    for strategy in [
        HeapStrategy::IncrementalId,
        HeapStrategy::structural_default(),
    ] {
        heap_profiles.insert(
            strategy,
            HeapOrderProfile::from_csv(&read(heap_file_name(strategy))?),
        );
    }
    // The path-based profile was written under whichever variant the
    // profiling build used (plain or salted); load whichever file exists
    // so the round-trip reproduces the saved map exactly.
    let mut any_path_file = false;
    for strategy in [HeapStrategy::HeapPath, HeapStrategy::HeapPathSalted] {
        if let Some(s) = read_opt(heap_file_name(strategy))? {
            heap_profiles.insert(strategy, HeapOrderProfile::from_csv(&s));
            any_path_file = true;
        }
    }
    if !any_path_file {
        heap_profiles.insert(HeapStrategy::HeapPath, HeapOrderProfile::default());
    }
    Ok(SavedProfiles {
        cu_profile: CodeOrderProfile::from_csv(&read("cu_order.csv")?),
        method_profile: CodeOrderProfile::from_csv(&read("method_order.csv")?),
        heap_profiles,
        call_counts: CallCountProfile::from_csv(&read("call_counts.csv")?),
    })
}

impl SavedProfiles {
    /// Rehydrates pipeline artifacts from saved profiles; `report` is the
    /// instrumented run report when available (pass a fresh one when
    /// resuming in-process, or synthesize via a new profiling run).
    pub fn into_artifacts(self, report: nimage_vm::RunReport) -> ProfiledArtifacts {
        ProfiledArtifacts {
            call_counts: self.call_counts,
            cu_profile: self.cu_profile,
            method_profile: self.method_profile,
            heap_profiles: self.heap_profiles,
            native_pages: report.native_touch_pages.clone(),
            instrumented_report: report,
        }
    }
}

// ---------------------------------------------------------------------------
// Disk codecs for the per-stage artifacts the engine persists: the compiled
// program and the heap snapshot. Encodings are canonical (maps and sets are
// written sorted) so identical artifacts produce identical bytes; decodes
// are total over arbitrary bytes and validate every index that downstream
// code would otherwise index-panic on, so a corrupt cache entry is always a
// miss, never a crash.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_u32_seq(out: &mut Vec<u8>, it: impl ExactSizeIterator<Item = u32>) {
    put_u32(out, it.len() as u32);
    for v in it {
        put_u32(out, v);
    }
}

fn decode_u32_seq(r: &mut Reader<'_>) -> Option<Vec<u32>> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(cap_alloc(n, r, 4));
    for _ in 0..n {
        v.push(r.u32()?);
    }
    Some(v)
}

fn encode_call_site(out: &mut Vec<u8>, s: &CallSite) {
    put_u32(out, s.method.0);
    // The usize indices go through u64 so a 32-bit truncation can never
    // silently poison a cache entry on a platform disagreement.
    put_u64(out, s.block as u64);
    put_u64(out, s.instr as u64);
}

fn decode_call_site(r: &mut Reader<'_>) -> Option<CallSite> {
    let method = MethodId(r.u32()?);
    let block = usize::try_from(r.u64()?).ok()?;
    let instr = usize::try_from(r.u64()?).ok()?;
    Some(CallSite {
        method,
        block,
        instr,
    })
}

fn encode_reachability(out: &mut Vec<u8>, reach: &Reachability) {
    encode_u32_seq(out, reach.methods.iter().map(|m| m.0));
    encode_u32_seq(out, reach.instantiated.iter().map(|c| c.0));
    encode_u32_seq(out, reach.classes.iter().map(|c| c.0));
    encode_u32_seq(out, reach.static_fields.iter().map(|f| f.0));
    encode_u32_seq(out, reach.instance_fields.iter().map(|f| f.0));
    encode_u32_seq(out, reach.build_time_inits.iter().map(|m| m.0));
    let mut vt: Vec<(&CallSite, &Vec<MethodId>)> = reach.virtual_targets.iter().collect();
    vt.sort_unstable_by_key(|(s, _)| (s.method.0, s.block, s.instr));
    put_u32(out, vt.len() as u32);
    for (site, targets) in vt {
        encode_call_site(out, site);
        encode_u32_seq(out, targets.iter().map(|m| m.0));
    }
    let mut sat: Vec<u32> = reach.saturated.iter().map(|s| s.0).collect();
    sat.sort_unstable();
    encode_u32_seq(out, sat.into_iter());
    put_u32(out, reach.direct_edges.len() as u32);
    for (a, b) in &reach.direct_edges {
        put_u32(out, a.0);
        put_u32(out, b.0);
    }
}

fn decode_reachability(r: &mut Reader<'_>) -> Option<Reachability> {
    let methods = decode_u32_seq(r)?.into_iter().map(MethodId).collect();
    let instantiated = decode_u32_seq(r)?.into_iter().map(ClassId).collect();
    let classes = decode_u32_seq(r)?.into_iter().map(ClassId).collect();
    let static_fields = decode_u32_seq(r)?.into_iter().map(FieldId).collect();
    let instance_fields = decode_u32_seq(r)?.into_iter().map(FieldId).collect();
    let build_time_inits = decode_u32_seq(r)?.into_iter().map(MethodId).collect();
    let n_vt = r.u32()? as usize;
    let mut virtual_targets = HashMap::with_capacity(cap_alloc(n_vt, r, 24));
    for _ in 0..n_vt {
        let site = decode_call_site(r)?;
        let targets = decode_u32_seq(r)?.into_iter().map(MethodId).collect();
        virtual_targets.insert(site, targets);
    }
    let saturated = decode_u32_seq(r)?.into_iter().map(SelectorId).collect();
    let n_edges = r.u32()? as usize;
    let mut direct_edges = Vec::with_capacity(cap_alloc(n_edges, r, 8));
    for _ in 0..n_edges {
        direct_edges.push((MethodId(r.u32()?), MethodId(r.u32()?)));
    }
    Some(Reachability {
        methods,
        instantiated,
        classes,
        static_fields,
        instance_fields,
        build_time_inits,
        virtual_targets,
        saturated,
        direct_edges,
    })
}

impl DiskCodec for CompiledProgram {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.cus.len() as u32);
        for cu in &self.cus {
            put_u32(out, cu.id.0);
            put_u32(out, cu.root.0);
            put_u32(out, cu.size);
            put_u32(out, cu.nodes.len() as u32);
            for node in &cu.nodes {
                put_u32(out, node.method.0);
                encode_option(out, &node.parent, |p, out| put_u32(out, *p));
                put_u32(out, node.offset);
                put_u32(out, node.size);
                put_u32(out, node.children.len() as u32);
                for (site, child) in &node.children {
                    encode_call_site(out, site);
                    put_u32(out, *child);
                }
            }
        }
        let cfg = &self.instrumentation;
        out.push(
            u8::from(cfg.trace_cu)
                | (u8::from(cfg.trace_methods) << 1)
                | (u8::from(cfg.trace_heap) << 2),
        );
        encode_reachability(out, &self.reachability);
        // root_to_cu is derived from the CU list on decode.
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n_cus = r.u32()? as usize;
        let mut cus = Vec::with_capacity(cap_alloc(n_cus, r, 16));
        for i in 0..n_cus {
            let id = CuId(r.u32()?);
            // CompiledProgram::cu indexes the list by id, so ids must
            // equal positions.
            if id.index() != i {
                return None;
            }
            let root = MethodId(r.u32()?);
            let size = r.u32()?;
            let n_nodes = r.u32()? as usize;
            let mut nodes = Vec::with_capacity(cap_alloc(n_nodes, r, 18));
            for _ in 0..n_nodes {
                let method = MethodId(r.u32()?);
                let parent = decode_option(r, |r| r.u32())?;
                let offset = r.u32()?;
                let size = r.u32()?;
                let n_children = r.u32()? as usize;
                let mut children = Vec::with_capacity(cap_alloc(n_children, r, 24));
                for _ in 0..n_children {
                    let site = decode_call_site(r)?;
                    children.push((site, r.u32()?));
                }
                nodes.push(InlineNode {
                    method,
                    parent,
                    offset,
                    size,
                    children,
                });
            }
            let n = nodes.len() as u32;
            // Inline-tree indices must stay in range.
            if nodes.iter().any(|node| {
                node.parent.is_some_and(|p| p >= n) || node.children.iter().any(|&(_, c)| c >= n)
            }) {
                return None;
            }
            cus.push(CompilationUnit {
                id,
                root,
                nodes,
                size,
            });
        }
        let mask = r.u8()?;
        if mask > 7 {
            return None;
        }
        let instrumentation = InstrumentConfig {
            trace_cu: mask & 1 != 0,
            trace_methods: mask & 2 != 0,
            trace_heap: mask & 4 != 0,
        };
        let reachability = decode_reachability(r)?;
        let root_to_cu = cus.iter().map(|cu| (cu.root, cu.id)).collect();
        Some(CompiledProgram {
            cus,
            root_to_cu,
            instrumentation,
            reachability,
        })
    }
}

fn encode_type_ref(out: &mut Vec<u8>, ty: &TypeRef) {
    // One tag byte per array level, so decode depth is naturally bounded
    // by the payload size (no recursion, no unbounded nesting).
    let mut t = ty;
    while let TypeRef::Array(inner) = t {
        out.push(5);
        t = inner;
    }
    match t {
        TypeRef::Bool => out.push(0),
        TypeRef::Int => out.push(1),
        TypeRef::Double => out.push(2),
        TypeRef::Str => out.push(3),
        TypeRef::Object(c) => {
            out.push(4);
            put_u32(out, c.0);
        }
        TypeRef::Array(_) => unreachable!("array levels consumed above"),
    }
}

fn decode_type_ref(r: &mut Reader<'_>) -> Option<TypeRef> {
    let mut depth = 0usize;
    let mut tag = r.u8()?;
    while tag == 5 {
        depth += 1;
        tag = r.u8()?;
    }
    let mut ty = match tag {
        0 => TypeRef::Bool,
        1 => TypeRef::Int,
        2 => TypeRef::Double,
        3 => TypeRef::Str,
        4 => TypeRef::Object(ClassId(r.u32()?)),
        _ => return None,
    };
    for _ in 0..depth {
        ty = TypeRef::array_of(ty);
    }
    Some(ty)
}

/// A heap value: [`decode_value`], with a reference checked against the
/// heap's `n_objects` objects (`BuildHeap::get` panics out of range, so a
/// corrupt entry stays a miss).
fn decode_heap_value(r: &mut Reader<'_>, n_objects: u32) -> Option<Value> {
    decode_value(r).filter(|v| v.referent().is_none_or(|o| o < n_objects))
}

fn encode_hobject(out: &mut Vec<u8>, obj: &HObject) {
    match &obj.kind {
        HObjectKind::Instance { class, fields } => {
            out.push(0);
            put_u32(out, class.0);
            put_u32(out, fields.len() as u32);
            for v in fields {
                encode_value(out, *v);
            }
        }
        HObjectKind::Array { elem, elems } => {
            out.push(1);
            encode_type_ref(out, elem);
            put_u32(out, elems.len() as u32);
            for v in elems {
                encode_value(out, *v);
            }
        }
        HObjectKind::Str(s) => {
            out.push(2);
            put_string(out, s);
        }
        HObjectKind::Boxed(d) => {
            out.push(3);
            put_u64(out, d.to_bits());
        }
        HObjectKind::Blob { name, size } => {
            out.push(4);
            put_string(out, name);
            put_u32(out, *size);
        }
    }
}

fn decode_hobject(r: &mut Reader<'_>, n_objects: u32) -> Option<HObject> {
    let kind = match r.u8()? {
        0 => {
            let class = ClassId(r.u32()?);
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(cap_alloc(n, r, 1));
            for _ in 0..n {
                fields.push(decode_heap_value(r, n_objects)?);
            }
            HObjectKind::Instance { class, fields }
        }
        1 => {
            let elem = decode_type_ref(r)?;
            let n = r.u32()? as usize;
            let mut elems = Vec::with_capacity(cap_alloc(n, r, 1));
            for _ in 0..n {
                elems.push(decode_heap_value(r, n_objects)?);
            }
            HObjectKind::Array { elem, elems }
        }
        2 => HObjectKind::Str(r.string()?),
        3 => HObjectKind::Boxed(r.f64()?),
        4 => HObjectKind::Blob {
            name: r.string()?,
            size: r.u32()?,
        },
        _ => return None,
    };
    Some(HObject { kind })
}

fn encode_reason(out: &mut Vec<u8>, reason: &InclusionReason) {
    match reason {
        InclusionReason::StaticField(sig) => {
            out.push(0);
            put_string(out, sig);
        }
        InclusionReason::MethodConstant(sig) => {
            out.push(1);
            put_string(out, sig);
        }
        InclusionReason::InternedString => out.push(2),
        InclusionReason::DataSection => out.push(3),
        InclusionReason::Resource(name) => {
            out.push(4);
            put_string(out, name);
        }
    }
}

fn decode_reason(r: &mut Reader<'_>) -> Option<InclusionReason> {
    Some(match r.u8()? {
        0 => InclusionReason::StaticField(r.string()?),
        1 => InclusionReason::MethodConstant(r.string()?),
        2 => InclusionReason::InternedString,
        3 => InclusionReason::DataSection,
        4 => InclusionReason::Resource(r.string()?),
        _ => return None,
    })
}

impl DiskCodec for HeapSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        let heap = self.heap();
        let objects = heap.objects();
        put_u32(out, objects.len() as u32);
        for obj in objects {
            encode_hobject(out, obj);
        }
        let mut statics: Vec<(FieldId, Value)> = heap.statics().collect();
        statics.sort_unstable_by_key(|(f, _)| f.0);
        put_u32(out, statics.len() as u32);
        for (f, v) in &statics {
            put_u32(out, f.0);
            encode_value(out, *v);
        }
        // The interned table is recoverable from the object ids alone:
        // the key is the Str object's own content.
        let mut interned: Vec<ObjId> = heap.interned().map(|(_, o)| o).collect();
        interned.sort_unstable();
        encode_u32_seq(out, interned.iter().map(|o| o.0));
        put_u32(out, self.entries().len() as u32);
        for e in self.entries() {
            put_u32(out, e.obj.0);
            put_u32(out, e.size);
            encode_option(out, &e.parent, |(p, link), out| {
                put_u32(out, p.0);
                match link {
                    ParentLink::Field(f) => {
                        out.push(0);
                        put_u32(out, f.0);
                    }
                    ParentLink::Index(i) => {
                        out.push(1);
                        put_u32(out, *i);
                    }
                }
            });
            encode_option(out, &e.root, |reason, out| encode_reason(out, reason));
            encode_option(out, &e.cu, |cu, out| put_u32(out, cu.0));
        }
        let mut folded: Vec<ObjId> = self.folded().iter().copied().collect();
        folded.sort_unstable();
        encode_u32_seq(out, folded.iter().map(|o| o.0));
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n_objects = r.u32()?;
        // The shortest object is an empty string: a tag and its length.
        let mut objects = Vec::with_capacity(cap_alloc(n_objects as usize, r, 5));
        for _ in 0..n_objects {
            objects.push(decode_hobject(r, n_objects)?);
        }
        let n_statics = r.u32()? as usize;
        let mut statics = HashMap::with_capacity(cap_alloc(n_statics, r, 5));
        for _ in 0..n_statics {
            let f = FieldId(r.u32()?);
            statics.insert(f, decode_heap_value(r, n_objects)?);
        }
        let interned_ids = decode_u32_seq(r)?;
        let mut interned = HashMap::with_capacity(interned_ids.len());
        for o in interned_ids {
            if o >= n_objects {
                return None;
            }
            let HObjectKind::Str(s) = &objects[o as usize].kind else {
                return None;
            };
            interned.insert(s.clone(), ObjId(o));
        }
        let n_entries = r.u32()? as usize;
        let mut entries = Vec::with_capacity(cap_alloc(n_entries, r, 11));
        for _ in 0..n_entries {
            let obj = r.u32()?;
            if obj >= n_objects {
                return None;
            }
            let size = r.u32()?;
            let parent = decode_option(r, |r| {
                let p = r.u32()?;
                if p >= n_objects {
                    return None;
                }
                let link = match r.u8()? {
                    0 => ParentLink::Field(FieldId(r.u32()?)),
                    1 => ParentLink::Index(r.u32()?),
                    _ => return None,
                };
                Some((ObjId(p), link))
            })?;
            let root = decode_option(r, decode_reason)?;
            let cu = decode_option(r, |r| Some(CuId(r.u32()?)))?;
            entries.push(SnapEntry {
                obj: ObjId(obj),
                size,
                parent,
                root,
                cu,
            });
        }
        let folded_ids = decode_u32_seq(r)?;
        let mut folded = HashSet::with_capacity(folded_ids.len());
        for o in folded_ids {
            if o >= n_objects {
                return None;
            }
            folded.insert(ObjId(o));
        }
        let heap = BuildHeap::from_parts(objects, statics, interned);
        Some(HeapSnapshot::from_parts(heap, entries, folded))
    }
}

/// Whether `ids` is a permutation of `0..ids.len()` — the invariant every
/// decoded order must satisfy, since the image builder index-asserts on
/// placement orders and `set_native_page_order` on the tail permutation.
fn is_self_permutation(ids: &[u32]) -> bool {
    let mut seen = vec![false; ids.len()];
    for &v in ids {
        match seen.get_mut(v as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
    }
    true
}

impl DiskCodec for LayoutOrders {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_option(out, &self.cu_order, |order, out| {
            encode_u32_seq(out, order.iter().map(|c| c.0));
        });
        encode_option(out, &self.object_order, |order, out| {
            encode_u32_seq(out, order.iter().map(|o| o.0));
        });
        encode_option(out, &self.native_order, |order, out| {
            encode_u32_seq(out, order.iter().copied());
        });
        encode_option(out, &self.predicted, |p, out| {
            put_u64(out, p.first_touch.text);
            put_u64(out, p.first_touch.heap);
            put_u64(out, p.optimized.text);
            put_u64(out, p.optimized.heap);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let perm = |r: &mut Reader<'_>| decode_u32_seq(r).filter(|ids| is_self_permutation(ids));
        let cu_order = decode_option(r, |r| {
            Some(perm(r)?.into_iter().map(CuId).collect::<Vec<_>>())
        })?;
        // Object ids are sparse (folded objects leave holes), so the order
        // is not a permutation of `0..len`; `LayoutOrders::fits` checks it
        // against the snapshot it is laid out with.
        let object_order = decode_option(r, |r| {
            Some(decode_u32_seq(r)?.into_iter().map(ObjId).collect())
        })?;
        let native_order = decode_option(r, perm)?;
        let predicted = decode_option(r, |r| {
            Some(LayoutPrediction {
                first_touch: PredictedFaults {
                    text: r.u64()?,
                    heap: r.u64()?,
                },
                optimized: PredictedFaults {
                    text: r.u64()?,
                    heap: r.u64()?,
                },
            })
        })?;
        Some(LayoutOrders {
            cu_order,
            object_order,
            native_order,
            predicted,
        })
    }
}

// --- LoweredShard ----------------------------------------------------------
// One CU's lowering. No cache stage persists it (shards are realized in
// memory by the one run of each build); the codec stays for the benchmark's
// typed round trip. Locals travel as u32 (the reader has no u16
// primitive); operator enums as one tag byte in declaration order. Decode
// validates tags and value ranges totally; it does not check bounds
// relative to a build (locals vs. n_locals, string indices, jump targets).

fn put_local(out: &mut Vec<u8>, l: Local) {
    put_u32(out, u32::from(l.0));
}

fn decode_local(r: &mut Reader<'_>) -> Option<Local> {
    Some(Local(u16::try_from(r.u32()?).ok()?))
}

fn encode_locals(out: &mut Vec<u8>, ls: &[Local]) {
    put_u32(out, ls.len() as u32);
    for l in ls {
        put_local(out, *l);
    }
}

fn decode_locals(r: &mut Reader<'_>) -> Option<Box<[Local]>> {
    let n = r.u32()? as usize;
    let mut v = Vec::with_capacity(cap_alloc(n, r, 4));
    for _ in 0..n {
        v.push(decode_local(r)?);
    }
    Some(v.into_boxed_slice())
}

fn encode_opt_local(out: &mut Vec<u8>, l: &Option<Local>) {
    encode_option(out, l, |l, out| put_local(out, *l));
}

fn decode_opt_local(r: &mut Reader<'_>) -> Option<Option<Local>> {
    decode_option(r, decode_local)
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Lt => 10,
        BinOp::Le => 11,
        BinOp::Gt => 12,
        BinOp::Ge => 13,
        BinOp::Eq => 14,
        BinOp::Ne => 15,
    }
}

fn bin_op_from(tag: u8) -> Option<BinOp> {
    Some(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Rem,
        5 => BinOp::And,
        6 => BinOp::Or,
        7 => BinOp::Xor,
        8 => BinOp::Shl,
        9 => BinOp::Shr,
        10 => BinOp::Lt,
        11 => BinOp::Le,
        12 => BinOp::Gt,
        13 => BinOp::Ge,
        14 => BinOp::Eq,
        15 => BinOp::Ne,
        _ => return None,
    })
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::IntToDouble => 2,
        UnOp::DoubleToInt => 3,
    }
}

fn un_op_from(tag: u8) -> Option<UnOp> {
    Some(match tag {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        2 => UnOp::IntToDouble,
        3 => UnOp::DoubleToInt,
        _ => return None,
    })
}

fn intrinsic_tag(op: Intrinsic) -> u8 {
    match op {
        Intrinsic::Sqrt => 0,
        Intrinsic::Abs => 1,
        Intrinsic::Floor => 2,
        Intrinsic::Cos => 3,
        Intrinsic::Sin => 4,
        Intrinsic::Respond => 5,
    }
}

fn intrinsic_from(tag: u8) -> Option<Intrinsic> {
    Some(match tag {
        0 => Intrinsic::Sqrt,
        1 => Intrinsic::Abs,
        2 => Intrinsic::Floor,
        3 => Intrinsic::Cos,
        4 => Intrinsic::Sin,
        5 => Intrinsic::Respond,
        _ => return None,
    })
}

fn encode_jump_edge(out: &mut Vec<u8>, e: &JumpEdge) {
    put_u32(out, e.pc);
    put_u32(out, e.block);
}

fn decode_jump_edge(r: &mut Reader<'_>) -> Option<JumpEdge> {
    Some(JumpEdge {
        pc: r.u32()?,
        block: r.u32()?,
    })
}

fn encode_lowered_instr(out: &mut Vec<u8>, ins: &LoweredInstr) {
    match ins {
        LoweredInstr::ConstInt(d, v) => {
            out.push(0);
            put_local(out, *d);
            put_u64(out, *v as u64);
        }
        LoweredInstr::ConstDouble(d, v) => {
            out.push(1);
            put_local(out, *d);
            put_u64(out, v.to_bits());
        }
        LoweredInstr::ConstBool(d, v) => {
            out.push(2);
            put_local(out, *d);
            out.push(u8::from(*v));
        }
        LoweredInstr::ConstStr(d, s) => {
            out.push(3);
            put_local(out, *d);
            put_u32(out, *s);
        }
        LoweredInstr::ConstNull(d) => {
            out.push(4);
            put_local(out, *d);
        }
        LoweredInstr::Move(d, s) => {
            out.push(5);
            put_local(out, *d);
            put_local(out, *s);
        }
        LoweredInstr::Bin(op, d, a, b) => {
            out.push(6);
            out.push(bin_op_tag(*op));
            put_local(out, *d);
            put_local(out, *a);
            put_local(out, *b);
        }
        LoweredInstr::Un(op, d, a) => {
            out.push(7);
            out.push(un_op_tag(*op));
            put_local(out, *d);
            put_local(out, *a);
        }
        LoweredInstr::New(d, c) => {
            out.push(8);
            put_local(out, *d);
            put_u32(out, c.0);
        }
        LoweredInstr::NewArray(d, elem, len) => {
            out.push(9);
            put_local(out, *d);
            encode_type_ref(out, elem);
            put_local(out, *len);
        }
        LoweredInstr::GetField(d, o, f) => {
            out.push(10);
            put_local(out, *d);
            put_local(out, *o);
            put_u32(out, f.0);
        }
        LoweredInstr::PutField(o, f, s) => {
            out.push(11);
            put_local(out, *o);
            put_u32(out, f.0);
            put_local(out, *s);
        }
        LoweredInstr::GetStatic(d, f) => {
            out.push(12);
            put_local(out, *d);
            put_u32(out, f.0);
        }
        LoweredInstr::PutStatic(f, s) => {
            out.push(13);
            put_u32(out, f.0);
            put_local(out, *s);
        }
        LoweredInstr::ArrayGet(d, a, i) => {
            out.push(14);
            put_local(out, *d);
            put_local(out, *a);
            put_local(out, *i);
        }
        LoweredInstr::ArraySet(a, i, s) => {
            out.push(15);
            put_local(out, *a);
            put_local(out, *i);
            put_local(out, *s);
        }
        LoweredInstr::ArrayLen(d, a) => {
            out.push(16);
            put_local(out, *d);
            put_local(out, *a);
        }
        LoweredInstr::StrLen(d, s) => {
            out.push(17);
            put_local(out, *d);
            put_local(out, *s);
        }
        LoweredInstr::StrCharAt(d, s, i) => {
            out.push(18);
            put_local(out, *d);
            put_local(out, *s);
            put_local(out, *i);
        }
        LoweredInstr::StrConcat(d, a, b) => {
            out.push(19);
            put_local(out, *d);
            put_local(out, *a);
            put_local(out, *b);
        }
        LoweredInstr::Call {
            dst,
            target,
            args,
            site_block,
            site_instr,
        } => {
            out.push(20);
            encode_opt_local(out, dst);
            match target {
                LoweredCallee::Static(m) => {
                    out.push(0);
                    put_u32(out, m.0);
                }
                LoweredCallee::Virtual(s) => {
                    out.push(1);
                    put_u32(out, s.0);
                }
            }
            encode_locals(out, args);
            put_u32(out, *site_block);
            put_u32(out, *site_instr);
        }
        LoweredInstr::Intrinsic { dst, op, args } => {
            out.push(21);
            encode_opt_local(out, dst);
            out.push(intrinsic_tag(*op));
            encode_locals(out, args);
        }
        LoweredInstr::Spawn { method, args } => {
            out.push(22);
            put_u32(out, method.0);
            encode_locals(out, args);
        }
        LoweredInstr::Ret(v) => {
            out.push(23);
            encode_opt_local(out, v);
        }
        LoweredInstr::Jump(e) => {
            out.push(24);
            encode_jump_edge(out, e);
        }
        LoweredInstr::Br {
            cond,
            then_e,
            else_e,
        } => {
            out.push(25);
            put_local(out, *cond);
            encode_jump_edge(out, then_e);
            encode_jump_edge(out, else_e);
        }
    }
}

fn decode_lowered_instr(r: &mut Reader<'_>) -> Option<LoweredInstr> {
    Some(match r.u8()? {
        0 => LoweredInstr::ConstInt(decode_local(r)?, r.i64()?),
        1 => LoweredInstr::ConstDouble(decode_local(r)?, r.f64()?),
        2 => {
            let d = decode_local(r)?;
            match r.u8()? {
                0 => LoweredInstr::ConstBool(d, false),
                1 => LoweredInstr::ConstBool(d, true),
                _ => return None,
            }
        }
        3 => LoweredInstr::ConstStr(decode_local(r)?, r.u32()?),
        4 => LoweredInstr::ConstNull(decode_local(r)?),
        5 => LoweredInstr::Move(decode_local(r)?, decode_local(r)?),
        6 => LoweredInstr::Bin(
            bin_op_from(r.u8()?)?,
            decode_local(r)?,
            decode_local(r)?,
            decode_local(r)?,
        ),
        7 => LoweredInstr::Un(un_op_from(r.u8()?)?, decode_local(r)?, decode_local(r)?),
        8 => LoweredInstr::New(decode_local(r)?, ClassId(r.u32()?)),
        9 => LoweredInstr::NewArray(decode_local(r)?, decode_type_ref(r)?, decode_local(r)?),
        10 => LoweredInstr::GetField(decode_local(r)?, decode_local(r)?, FieldId(r.u32()?)),
        11 => LoweredInstr::PutField(decode_local(r)?, FieldId(r.u32()?), decode_local(r)?),
        12 => LoweredInstr::GetStatic(decode_local(r)?, FieldId(r.u32()?)),
        13 => LoweredInstr::PutStatic(FieldId(r.u32()?), decode_local(r)?),
        14 => LoweredInstr::ArrayGet(decode_local(r)?, decode_local(r)?, decode_local(r)?),
        15 => LoweredInstr::ArraySet(decode_local(r)?, decode_local(r)?, decode_local(r)?),
        16 => LoweredInstr::ArrayLen(decode_local(r)?, decode_local(r)?),
        17 => LoweredInstr::StrLen(decode_local(r)?, decode_local(r)?),
        18 => LoweredInstr::StrCharAt(decode_local(r)?, decode_local(r)?, decode_local(r)?),
        19 => LoweredInstr::StrConcat(decode_local(r)?, decode_local(r)?, decode_local(r)?),
        20 => {
            let dst = decode_opt_local(r)?;
            let target = match r.u8()? {
                0 => LoweredCallee::Static(MethodId(r.u32()?)),
                1 => LoweredCallee::Virtual(SelectorId(r.u32()?)),
                _ => return None,
            };
            let args = decode_locals(r)?;
            LoweredInstr::Call {
                dst,
                target,
                args,
                site_block: r.u32()?,
                site_instr: r.u32()?,
            }
        }
        21 => {
            let dst = decode_opt_local(r)?;
            let op = intrinsic_from(r.u8()?)?;
            LoweredInstr::Intrinsic {
                dst,
                op,
                args: decode_locals(r)?,
            }
        }
        22 => LoweredInstr::Spawn {
            method: MethodId(r.u32()?),
            args: decode_locals(r)?,
        },
        23 => LoweredInstr::Ret(decode_opt_local(r)?),
        24 => LoweredInstr::Jump(decode_jump_edge(r)?),
        25 => LoweredInstr::Br {
            cond: decode_local(r)?,
            then_e: decode_jump_edge(r)?,
            else_e: decode_jump_edge(r)?,
        },
        _ => return None,
    })
}

fn encode_lowered_method(out: &mut Vec<u8>, m: &LoweredMethod) {
    put_u32(out, u32::from(m.n_locals));
    encode_u32_seq(out, m.block_start.iter().copied());
    put_u32(out, m.code.len() as u32);
    for ins in &m.code {
        encode_lowered_instr(out, ins);
    }
}

fn decode_lowered_method(r: &mut Reader<'_>) -> Option<LoweredMethod> {
    let n_locals = u16::try_from(r.u32()?).ok()?;
    let block_start = decode_u32_seq(r)?;
    let n_code = r.u32()? as usize;
    let mut code = Vec::with_capacity(cap_alloc(n_code, r, 2));
    for _ in 0..n_code {
        code.push(decode_lowered_instr(r)?);
    }
    Some(LoweredMethod {
        code,
        block_start,
        n_locals,
    })
}

fn encode_lowered_paths(out: &mut Vec<u8>, p: &LoweredPaths) {
    let (block_head, edges, n_blocks) = p.raw_parts();
    encode_u32_seq(out, block_head.iter().copied());
    put_u32(out, n_blocks);
    put_u32(out, edges.len() as u32);
    for e in edges {
        out.push(u8::from(e.cut));
        put_u64(out, e.inc);
    }
}

fn decode_lowered_paths(r: &mut Reader<'_>) -> Option<LoweredPaths> {
    let block_head = decode_u32_seq(r)?;
    let n_blocks = r.u32()?;
    let n_edges = r.u32()? as usize;
    let mut edges = Vec::with_capacity(cap_alloc(n_edges, r, 9));
    for _ in 0..n_edges {
        let cut = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        edges.push(PathEdge { cut, inc: r.u64()? });
    }
    LoweredPaths::from_raw(block_head, edges, n_blocks)
}

impl DiskCodec for LoweredShard {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.cu);
        put_u32(out, self.methods.len() as u32);
        for (mi, m) in &self.methods {
            put_u32(out, *mi);
            encode_lowered_method(out, m);
        }
        put_u32(out, self.paths.len() as u32);
        for (mi, p) in &self.paths {
            put_u32(out, *mi);
            encode_lowered_paths(out, p);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let cu = r.u32()?;
        let n_methods = r.u32()? as usize;
        let mut methods = Vec::with_capacity(cap_alloc(n_methods, r, 16));
        for _ in 0..n_methods {
            let mi = r.u32()?;
            methods.push((mi, decode_lowered_method(r)?));
        }
        let n_paths = r.u32()? as usize;
        let mut paths = Vec::with_capacity(cap_alloc(n_paths, r, 16));
        for _ in 0..n_paths {
            let mi = r.u32()?;
            paths.push((mi, decode_lowered_paths(r)?));
        }
        Some(LoweredShard { cu, methods, paths })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Pipeline};
    use nimage_ir::{ProgramBuilder, TypeRef};
    use nimage_vm::StopWhen;

    fn tiny_program() -> nimage_ir::Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let fld = pb.add_static_field(c, "S", TypeRef::array_of(TypeRef::Int));
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let n = f.iconst(64);
        let a = f.new_array(TypeRef::Int, n);
        f.put_static(fld, a);
        f.ret(None);
        pb.finish_body(cl, f);
        let helper = pb.declare_static(c, "helper", &[], Some(TypeRef::Int));
        let mut f = pb.body(helper);
        let arr = f.get_static(fld);
        let z = f.iconst(0);
        let v = f.array_get(arr, z);
        f.ret(Some(v));
        pb.finish_body(helper, f);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let v = f.call_static(helper, &[], true).unwrap();
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.build().unwrap()
    }

    #[test]
    fn lowered_shards_roundtrip() {
        let program = tiny_program();
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let reach = pipeline.analyze_stage();
        // FULL instrumentation so the shard also carries path tables.
        let compiled = pipeline.compile_stage(reach, InstrumentConfig::FULL, None);
        let source = nimage_vm::LoweredProgram::new(&program, &compiled, 1 << 16);
        for cu in &compiled.cus {
            let shard = source.extract_shard(&program, &compiled, cu.id);
            assert!(!shard.paths.is_empty());
            let mut bytes = vec![];
            shard.encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            let decoded = LoweredShard::decode(&mut r).expect("shard roundtrips");
            assert!(r.is_empty());
            assert_eq!(format!("{shard:?}"), format!("{decoded:?}"));
            // Every byte is load-bearing: a strict prefix never decodes.
            assert!(LoweredShard::decode(&mut Reader::new(&bytes[..bytes.len() - 1])).is_none());
        }
        assert_eq!(source.shards_lowered_eager(), compiled.cus.len() as u64);
    }

    #[test]
    fn profiles_roundtrip_through_directory() {
        let program = tiny_program();
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
        let dir = std::env::temp_dir().join(format!("nimage-prof-{}", std::process::id()));
        save_profiles(&artifacts, &dir).unwrap();
        let loaded = load_profiles(&dir).unwrap();
        assert_eq!(loaded.cu_profile, artifacts.cu_profile);
        assert_eq!(loaded.method_profile, artifacts.method_profile);
        assert_eq!(loaded.heap_profiles, artifacts.heap_profiles);
        assert_eq!(loaded.call_counts, artifacts.call_counts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_missing_directory_yields_empty_profiles() {
        let loaded = load_profiles(Path::new("/nonexistent/nimage-profiles")).unwrap();
        assert!(loaded.cu_profile.sigs.is_empty());
        assert!(loaded.call_counts.is_empty());
    }

    #[test]
    fn loaded_profiles_drive_an_optimizing_build() {
        let program = tiny_program();
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
        let dir = std::env::temp_dir().join(format!("nimage-prof2-{}", std::process::id()));
        save_profiles(&artifacts, &dir).unwrap();
        let loaded = load_profiles(&dir).unwrap();
        let rehydrated = loaded.into_artifacts(artifacts.instrumented_report.clone());
        let eval = pipeline
            .evaluate(&rehydrated, &[crate::Strategy::Cu], StopWhen::Exit)
            .unwrap()
            .remove(0);
        assert_eq!(eval.baseline.entry_return, eval.optimized.entry_return);
        std::fs::remove_dir_all(&dir).ok();
    }
}
