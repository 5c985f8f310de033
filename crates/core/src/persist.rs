//! The disk format, and the profile directory.
//!
//! The paper's toolchain runs the profiling build and the optimizing build
//! in separate processes (Sec. 6.2), so profiles and artifacts cross a
//! file boundary. This module states both of the forms they cross it in.
//!
//! **The disk format.** Every [`DiskCodec`] lives here: the payload of
//! each cache stage the engine persists (`compile`, `snapshot`,
//! `assign-ids`, `profile`, `order`, `baseline-run`) and of a lowered
//! shard. Each is built from the primitives next to
//! [`Reader`](crate::diskcache::Reader): the `put_*` writers, and one
//! length-prefixed sequence pair ([`put_seq`] / [`Reader::seq`]), whose
//! reader alone sizes pre-allocations, from each element's shortest
//! encoding. A fieldless enum's tag numbering is stated once, in a
//! `tag_table!`. Encodings are canonical (maps and sets are written
//! sorted), so identical artifacts produce identical bytes. Decodes are
//! total over arbitrary bytes: they validate every index that downstream
//! code would otherwise index-panic on and bound the nesting of array
//! types, so a corrupt cache entry is always a miss, never a crash. The
//! store around these payloads (header, checksum, files) is
//! [`crate::diskcache`].
//!
//! **The profile directory.** The paper's post-processing framework
//! emits "a CSV file that is used by Native Image" per ordering analysis.
//! [`save_profiles`] and [`load_profiles`] write and read that directory:
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
use nimage_profiler::{read_trace, write_trace, SessionStats};
use nimage_vm::lower::{
    JumpEdge, LoweredCallee, LoweredInstr, LoweredMethod, LoweredPaths, PathEdge,
};
use nimage_vm::{
    AccessLog, ExitKind, LoweredShard, PageState, ResponsePoint, RunReport, SectionFaults, Touch,
};

use crate::diskcache::{
    put_bytes, put_option, put_seq, put_string, put_u32, put_u64, put_u8, DiskCodec, Reader,
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
// The disk format: every `DiskCodec`, built from the primitives next to
// `Reader` in `diskcache.rs`.
// ---------------------------------------------------------------------------

/// One fieldless enum's tag numbering, stated once, as its `DiskCodec`:
/// one tag byte. The encoder is an exhaustive `match`, so a new variant
/// fails to compile until it has a tag; the decoder refuses a tag the
/// table does not name.
macro_rules! tag_table {
    ($ty:ident { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl DiskCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_u8(out, match self { $(Self::$variant => $tag),+ });
            }

            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($tag => Self::$variant,)+
                    _ => return None,
                })
            }
        }
    };
}

tag_table!(BinOp {
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    Rem = 4,
    And = 5,
    Or = 6,
    Xor = 7,
    Shl = 8,
    Shr = 9,
    Lt = 10,
    Le = 11,
    Gt = 12,
    Ge = 13,
    Eq = 14,
    Ne = 15,
});
tag_table!(UnOp {
    Neg = 0,
    Not = 1,
    IntToDouble = 2,
    DoubleToInt = 3,
});
tag_table!(Intrinsic {
    Sqrt = 0,
    Abs = 1,
    Floor = 2,
    Cos = 3,
    Sin = 4,
    Respond = 5,
});
tag_table!(PageState {
    Untouched = 0,
    Resident = 1,
    Faulted = 2,
});
tag_table!(ExitKind {
    Exited = 0,
    FirstResponse = 1,
    OpsBudget = 2,
});

/// A sequence of `u32` ids, each read as `id` of its number.
fn ids<T>(r: &mut Reader<'_>, id: impl Fn(u32) -> T) -> Option<Vec<T>> {
    r.seq(4, |r| r.u32().map(&id))
}

/// One touched byte range, `(start, end)`.
fn put_span(out: &mut Vec<u8>, &(start, end): &(u64, u64)) {
    put_u64(out, start);
    put_u64(out, end);
}

fn span(r: &mut Reader<'_>) -> Option<(u64, u64)> {
    Some((r.u64()?, r.u64()?))
}

/// Writes a [`Value`]: a tag byte (null, bool, int, double, reference),
/// then its payload.
fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match *v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_u64(out, i as u64);
        }
        Value::Double(d) => {
            put_u8(out, 3);
            put_u64(out, d.to_bits());
        }
        Value::Ref(x) => {
            put_u8(out, 4);
            put_u32(out, x);
        }
    }
}

/// Reads a value [`encode_value`] wrote; a reference is not range-checked.
fn decode_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.bool()?),
        2 => Value::Int(r.i64()?),
        3 => Value::Double(r.f64()?),
        4 => Value::Ref(r.u32()?),
        _ => return None,
    })
}

/// The `assign-ids` entry: one strategy's id of every object.
impl DiskCodec for HashMap<ObjId, u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Sorted for a canonical (diffable) encoding; decode accepts any
        // order.
        let mut pairs: Vec<(&ObjId, &u64)> = self.iter().collect();
        pairs.sort_unstable_by_key(|(o, _)| o.0);
        put_seq(out, pairs, |out, (obj, id)| {
            put_u32(out, obj.0);
            put_u64(out, *id);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.seq_with(12, HashMap::with_capacity, |map, r| {
            map.insert(ObjId(r.u32()?), r.u64()?);
            Some(())
        })
    }
}

impl DiskCodec for SectionFaults {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.text);
        put_u64(out, self.svm_heap);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(SectionFaults {
            text: r.u64()?,
            svm_heap: r.u64()?,
        })
    }
}

impl DiskCodec for RunReport {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ops);
        put_u64(out, self.probe_ops);
        self.faults.encode(out);
        put_option(out, &self.first_response, |out, rp| {
            put_u64(out, rp.ops);
            put_u64(out, rp.probe_ops);
            rp.faults.encode(out);
        });
        put_string(out, &self.call_counts.to_csv());
        put_option(out, &self.trace, |out, t| put_bytes(out, &write_trace(t)));
        put_option(out, &self.session_stats, |out, s| {
            for v in [
                s.cu_records,
                s.method_records,
                s.path_records,
                s.obj_ids,
                s.flushes,
                s.remaps,
                s.lost_records,
            ] {
                put_u64(out, v);
            }
        });
        self.exit.encode(out);
        put_option(out, &self.entry_return, encode_value);
        put_seq(out, self.native_touch_pages.iter().copied(), put_u32);
        put_seq(out, &self.text_page_states, |out, s| s.encode(out));
        put_seq(out, &self.heap_page_states, |out, s| s.encode(out));
        put_seq(out, &self.heap_touch_spans, |out, (obj, spans)| {
            put_u32(out, *obj);
            put_seq(out, spans, put_span);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(RunReport {
            ops: r.u64()?,
            probe_ops: r.u64()?,
            faults: SectionFaults::decode(r)?,
            first_response: r.option(|r| {
                Some(ResponsePoint {
                    ops: r.u64()?,
                    probe_ops: r.u64()?,
                    faults: SectionFaults::decode(r)?,
                })
            })?,
            call_counts: CallCountProfile::from_csv(&r.string()?),
            trace: r.option(|r| read_trace(r.bytes()?).ok())?,
            session_stats: r.option(|r| {
                Some(SessionStats {
                    cu_records: r.u64()?,
                    method_records: r.u64()?,
                    path_records: r.u64()?,
                    obj_ids: r.u64()?,
                    flushes: r.u64()?,
                    remaps: r.u64()?,
                    lost_records: r.u64()?,
                })
            })?,
            exit: ExitKind::decode(r)?,
            entry_return: r.option(decode_value)?,
            native_touch_pages: r.seq(4, Reader::u32)?,
            text_page_states: r.seq(1, PageState::decode)?,
            heap_page_states: r.seq(1, PageState::decode)?,
            heap_touch_spans: r.seq(8, |r| Some((r.u32()?, r.seq(16, span)?)))?,
        })
    }
}

impl DiskCodec for AccessLog {
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self.touches(), |out, t| match *t {
            Touch::Code { cu, node } => {
                put_u8(out, 0);
                put_u32(out, cu);
                put_u32(out, node);
            }
            Touch::Object { obj, offset } => {
                put_u8(out, 1);
                put_u32(out, obj);
                put_u64(out, offset);
            }
            Touch::Native { page } => {
                put_u8(out, 2);
                put_u32(out, page);
            }
        });
        put_option(out, &self.respond_at(), |out, &at| put_u64(out, at as u64));
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let touches = r.seq(5, |r| {
            Some(match r.u8()? {
                0 => Touch::Code {
                    cu: r.u32()?,
                    node: r.u32()?,
                },
                1 => Touch::Object {
                    obj: r.u32()?,
                    offset: r.u64()?,
                },
                2 => Touch::Native { page: r.u32()? },
                _ => return None,
            })
        })?;
        let respond_at = r.option(|r| usize::try_from(r.u64()?).ok())?;
        AccessLog::from_parts(touches, respond_at)
    }
}

/// The `baseline-run` entry: one execution's report and its access log.
impl DiskCodec for (RunReport, AccessLog) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((RunReport::decode(r)?, AccessLog::decode(r)?))
    }
}

/// A heap strategy's tag and argument (`max_depth` for the structural
/// hash, else 0); carrying an argument, it has no `tag_table!`.
fn heap_strategy_tag(hs: HeapStrategy) -> (u8, u32) {
    match hs {
        HeapStrategy::IncrementalId => (0, 0),
        HeapStrategy::StructuralHash { max_depth } => (1, max_depth),
        HeapStrategy::HeapPath => (2, 0),
        HeapStrategy::HeapPathSalted => (3, 0),
    }
}

fn heap_strategy_from_tag(tag: u8, arg: u32) -> Option<HeapStrategy> {
    match tag {
        0 => Some(HeapStrategy::IncrementalId),
        1 => Some(HeapStrategy::StructuralHash { max_depth: arg }),
        2 => Some(HeapStrategy::HeapPath),
        3 => Some(HeapStrategy::HeapPathSalted),
        _ => None,
    }
}

/// The `profile` entry.
impl DiskCodec for ProfiledArtifacts {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.call_counts.to_csv());
        for profile in [&self.cu_profile, &self.method_profile] {
            put_seq(out, &profile.sigs, |out, s| put_string(out, s));
        }
        let mut profiles: Vec<(&HeapStrategy, &HeapOrderProfile)> =
            self.heap_profiles.iter().collect();
        profiles.sort_unstable_by_key(|(hs, _)| heap_strategy_tag(**hs));
        put_seq(out, profiles, |out, (hs, profile)| {
            let (tag, arg) = heap_strategy_tag(*hs);
            put_u8(out, tag);
            put_u32(out, arg);
            put_seq(out, profile.ids.iter().copied(), put_u64);
            put_seq(out, &profile.spans, |out, spans| {
                put_seq(out, spans, put_span)
            });
        });
        put_seq(out, self.native_pages.iter().copied(), put_u32);
        self.instrumented_report.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(ProfiledArtifacts {
            call_counts: CallCountProfile::from_csv(&r.string()?),
            cu_profile: CodeOrderProfile {
                sigs: r.seq(4, Reader::string)?,
            },
            method_profile: CodeOrderProfile {
                sigs: r.seq(4, Reader::string)?,
            },
            heap_profiles: r.seq_with(13, HashMap::with_capacity, |profiles, r| {
                let hs = heap_strategy_from_tag(r.u8()?, r.u32()?)?;
                let ids = r.seq(8, Reader::u64)?;
                let spans = r.seq(4, |r| r.seq(16, span))?;
                profiles.insert(hs, HeapOrderProfile { ids, spans });
                Some(())
            })?,
            native_pages: r.seq(4, Reader::u32)?,
            instrumented_report: RunReport::decode(r)?,
        })
    }
}

fn encode_call_site(out: &mut Vec<u8>, s: &CallSite) {
    put_u32(out, s.method.0);
    // The usize indices go through u64 so a 32-bit truncation can never
    // silently poison a cache entry on a platform disagreement.
    put_u64(out, s.block as u64);
    put_u64(out, s.instr as u64);
}

fn decode_call_site(r: &mut Reader<'_>) -> Option<CallSite> {
    Some(CallSite {
        method: MethodId(r.u32()?),
        block: usize::try_from(r.u64()?).ok()?,
        instr: usize::try_from(r.u64()?).ok()?,
    })
}

fn encode_reachability(out: &mut Vec<u8>, reach: &Reachability) {
    put_seq(out, reach.methods.iter().map(|m| m.0), put_u32);
    put_seq(out, reach.instantiated.iter().map(|c| c.0), put_u32);
    put_seq(out, reach.classes.iter().map(|c| c.0), put_u32);
    put_seq(out, reach.static_fields.iter().map(|f| f.0), put_u32);
    put_seq(out, reach.instance_fields.iter().map(|f| f.0), put_u32);
    put_seq(out, reach.build_time_inits.iter().map(|m| m.0), put_u32);
    let mut vt: Vec<(&CallSite, &Vec<MethodId>)> = reach.virtual_targets.iter().collect();
    vt.sort_unstable_by_key(|(s, _)| (s.method.0, s.block, s.instr));
    put_seq(out, vt, |out, (site, targets)| {
        encode_call_site(out, site);
        put_seq(out, targets.iter().map(|m| m.0), put_u32);
    });
    let mut sat: Vec<u32> = reach.saturated.iter().map(|s| s.0).collect();
    sat.sort_unstable();
    put_seq(out, sat, put_u32);
    put_seq(out, &reach.direct_edges, |out, (a, b)| {
        put_u32(out, a.0);
        put_u32(out, b.0);
    });
}

fn decode_reachability(r: &mut Reader<'_>) -> Option<Reachability> {
    Some(Reachability {
        methods: ids(r, MethodId)?,
        instantiated: ids(r, ClassId)?,
        classes: ids(r, ClassId)?,
        static_fields: ids(r, FieldId)?,
        instance_fields: ids(r, FieldId)?,
        build_time_inits: ids(r, MethodId)?,
        virtual_targets: r.seq_with(24, HashMap::with_capacity, |targets, r| {
            targets.insert(decode_call_site(r)?, ids(r, MethodId)?);
            Some(())
        })?,
        saturated: ids(r, SelectorId)?.into_iter().collect(),
        direct_edges: r.seq(8, |r| Some((MethodId(r.u32()?), MethodId(r.u32()?))))?,
    })
}

/// The `compile` entry.
impl DiskCodec for CompiledProgram {
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, &self.cus, |out, cu| {
            put_u32(out, cu.id.0);
            put_u32(out, cu.root.0);
            put_u32(out, cu.size);
            put_seq(out, &cu.nodes, |out, node| {
                put_u32(out, node.method.0);
                put_option(out, &node.parent, |out, &p| put_u32(out, p));
                put_u32(out, node.offset);
                put_u32(out, node.size);
                put_seq(out, &node.children, |out, (site, child)| {
                    encode_call_site(out, site);
                    put_u32(out, *child);
                });
            });
        });
        let cfg = &self.instrumentation;
        put_u8(
            out,
            u8::from(cfg.trace_cu)
                | (u8::from(cfg.trace_methods) << 1)
                | (u8::from(cfg.trace_heap) << 2),
        );
        encode_reachability(out, &self.reachability);
        // root_to_cu is derived from the CU list on decode.
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let cus = r.seq(16, |r| {
            let id = CuId(r.u32()?);
            let root = MethodId(r.u32()?);
            let size = r.u32()?;
            let nodes = r.seq(17, |r| {
                Some(InlineNode {
                    method: MethodId(r.u32()?),
                    parent: r.option(Reader::u32)?,
                    offset: r.u32()?,
                    size: r.u32()?,
                    children: r.seq(24, |r| Some((decode_call_site(r)?, r.u32()?)))?,
                })
            })?;
            // Inline-tree indices must stay in range.
            let n = nodes.len() as u32;
            if nodes.iter().any(|node| {
                node.parent.is_some_and(|p| p >= n) || node.children.iter().any(|&(_, c)| c >= n)
            }) {
                return None;
            }
            Some(CompilationUnit {
                id,
                root,
                nodes,
                size,
            })
        })?;
        // CompiledProgram::cu indexes the list by id, so ids must equal
        // positions.
        if cus.iter().enumerate().any(|(i, cu)| cu.id.index() != i) {
            return None;
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

/// The deepest array nesting a persisted element type may have: 255, the
/// JVM's limit on the dimensions of an array type. Every array in the
/// bundled programs is one-dimensional (its element type nests no array
/// at all). A decoded type is dropped recursively, one frame per level,
/// so a damaged or forged entry nesting 100 000 levels would overflow a
/// worker's stack; one nested deeper than this is refused instead.
const MAX_ARRAY_DEPTH: usize = 255;

fn encode_type_ref(out: &mut Vec<u8>, ty: &TypeRef) {
    // One tag byte per array level, so decode needs no recursion.
    let mut t = ty;
    while let TypeRef::Array(inner) = t {
        put_u8(out, 5);
        t = inner;
    }
    match t {
        TypeRef::Bool => put_u8(out, 0),
        TypeRef::Int => put_u8(out, 1),
        TypeRef::Double => put_u8(out, 2),
        TypeRef::Str => put_u8(out, 3),
        TypeRef::Object(c) => {
            put_u8(out, 4);
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
        if depth > MAX_ARRAY_DEPTH {
            return None;
        }
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

fn encode_hobject(out: &mut Vec<u8>, obj: &HObject) {
    match &obj.kind {
        HObjectKind::Instance { class, fields } => {
            put_u8(out, 0);
            put_u32(out, class.0);
            put_seq(out, fields, encode_value);
        }
        HObjectKind::Array { elem, elems } => {
            put_u8(out, 1);
            encode_type_ref(out, elem);
            put_seq(out, elems, encode_value);
        }
        HObjectKind::Str(s) => {
            put_u8(out, 2);
            put_string(out, s);
        }
        HObjectKind::Boxed(d) => {
            put_u8(out, 3);
            put_u64(out, d.to_bits());
        }
        HObjectKind::Blob { name, size } => {
            put_u8(out, 4);
            put_string(out, name);
            put_u32(out, *size);
        }
    }
}

/// Reads an object [`encode_hobject`] wrote, refusing a field or element
/// that is not `valid`.
fn decode_hobject(r: &mut Reader<'_>, valid: impl Fn(&Value) -> bool) -> Option<HObject> {
    let value = |r: &mut Reader<'_>| decode_value(r).filter(&valid);
    let kind = match r.u8()? {
        0 => HObjectKind::Instance {
            class: ClassId(r.u32()?),
            fields: r.seq(1, value)?,
        },
        1 => HObjectKind::Array {
            elem: decode_type_ref(r)?,
            elems: r.seq(1, value)?,
        },
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
            put_u8(out, 0);
            put_string(out, sig);
        }
        InclusionReason::MethodConstant(sig) => {
            put_u8(out, 1);
            put_string(out, sig);
        }
        InclusionReason::InternedString => put_u8(out, 2),
        InclusionReason::DataSection => put_u8(out, 3),
        InclusionReason::Resource(name) => {
            put_u8(out, 4);
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

/// The `snapshot` entry.
impl DiskCodec for HeapSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        let heap = self.heap();
        put_seq(out, heap.objects(), encode_hobject);
        let mut statics: Vec<(FieldId, Value)> = heap.statics().collect();
        statics.sort_unstable_by_key(|(f, _)| f.0);
        put_seq(out, &statics, |out, (f, v)| {
            put_u32(out, f.0);
            encode_value(out, v);
        });
        // The interned table is recoverable from the object ids alone:
        // the key is the Str object's own content.
        let mut interned: Vec<u32> = heap.interned().map(|(_, o)| o.0).collect();
        interned.sort_unstable();
        put_seq(out, interned, put_u32);
        put_seq(out, self.entries(), |out, e| {
            put_u32(out, e.obj.0);
            put_u32(out, e.size);
            put_option(out, &e.parent, |out, (p, link)| {
                put_u32(out, p.0);
                match link {
                    ParentLink::Field(f) => {
                        put_u8(out, 0);
                        put_u32(out, f.0);
                    }
                    ParentLink::Index(i) => {
                        put_u8(out, 1);
                        put_u32(out, *i);
                    }
                }
            });
            put_option(out, &e.root, encode_reason);
            put_option(out, &e.cu, |out, cu| put_u32(out, cu.0));
        });
        let mut folded: Vec<u32> = self.folded().iter().map(|o| o.0).collect();
        folded.sort_unstable();
        put_seq(out, folded, put_u32);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        // `BuildHeap::get` panics out of range, so every reference must
        // name an object for a corrupt entry to stay a miss: values are
        // checked as they are read, against the count that prefixes the
        // objects.
        let n_objects = r.clone().u32()?;
        let in_heap = |v: &Value| v.referent().is_none_or(|o| o < n_objects);
        // The shortest object is an empty string: a tag and its length.
        let objects = r.seq(5, |r| decode_hobject(r, in_heap))?;
        let statics = r.seq_with(5, HashMap::with_capacity, |statics, r| {
            statics.insert(FieldId(r.u32()?), decode_value(r).filter(in_heap)?);
            Some(())
        })?;
        let interned = r.seq_with(4, HashMap::with_capacity, |interned, r| {
            let o = r.u32()?;
            let HObjectKind::Str(s) = &objects.get(o as usize)?.kind else {
                return None;
            };
            interned.insert(s.clone(), ObjId(o));
            Some(())
        })?;
        let object = |r: &mut Reader<'_>| r.u32().filter(|&o| o < n_objects).map(ObjId);
        let entries = r.seq(11, |r| {
            Some(SnapEntry {
                obj: object(r)?,
                size: r.u32()?,
                parent: r.option(|r| {
                    let p = object(r)?;
                    let link = match r.u8()? {
                        0 => ParentLink::Field(FieldId(r.u32()?)),
                        1 => ParentLink::Index(r.u32()?),
                        _ => return None,
                    };
                    Some((p, link))
                })?,
                root: r.option(decode_reason)?,
                cu: r.option(|r| r.u32().map(CuId))?,
            })
        })?;
        let folded = r.seq_with(4, HashSet::with_capacity, |folded, r| {
            folded.insert(object(r)?);
            Some(())
        })?;
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

/// The `order` entry: one strategy's plan.
impl DiskCodec for LayoutOrders {
    fn encode(&self, out: &mut Vec<u8>) {
        put_option(out, &self.cu_order, |out, order| {
            put_seq(out, order.iter().map(|c| c.0), put_u32);
        });
        put_option(out, &self.object_order, |out, order| {
            put_seq(out, order.iter().map(|o| o.0), put_u32);
        });
        put_option(out, &self.native_order, |out, order| {
            put_seq(out, order.iter().copied(), put_u32);
        });
        put_option(out, &self.predicted, |out, p| {
            for v in [
                p.first_touch.text,
                p.first_touch.heap,
                p.optimized.text,
                p.optimized.heap,
            ] {
                put_u64(out, v);
            }
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let perm =
            |r: &mut Reader<'_>| r.seq(4, Reader::u32).filter(|ids| is_self_permutation(ids));
        Some(LayoutOrders {
            cu_order: r.option(|r| Some(perm(r)?.into_iter().map(CuId).collect()))?,
            // Object ids are sparse (folded objects leave holes), so the
            // order is not a permutation of `0..len`; `LayoutOrders::fits`
            // checks it against the snapshot it is laid out with.
            object_order: r.option(|r| ids(r, ObjId))?,
            native_order: r.option(perm)?,
            predicted: r.option(|r| {
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
            })?,
        })
    }
}

// --- LoweredShard ----------------------------------------------------------
// One CU's lowering. No cache stage persists it (shards are realized in
// memory by the one run of each build); the codec stays for the benchmark's
// typed round trip. Locals travel as u32 (the reader has no u16
// primitive); operator enums as their tag tables. Decode validates tags
// and value ranges totally; it does not check bounds relative to a build
// (locals vs. n_locals, string indices, jump targets).

fn put_local(out: &mut Vec<u8>, l: &Local) {
    put_u32(out, u32::from(l.0));
}

fn decode_local(r: &mut Reader<'_>) -> Option<Local> {
    Some(Local(u16::try_from(r.u32()?).ok()?))
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
            put_u8(out, 0);
            put_local(out, d);
            put_u64(out, *v as u64);
        }
        LoweredInstr::ConstDouble(d, v) => {
            put_u8(out, 1);
            put_local(out, d);
            put_u64(out, v.to_bits());
        }
        LoweredInstr::ConstBool(d, v) => {
            put_u8(out, 2);
            put_local(out, d);
            put_u8(out, u8::from(*v));
        }
        LoweredInstr::ConstStr(d, s) => {
            put_u8(out, 3);
            put_local(out, d);
            put_u32(out, *s);
        }
        LoweredInstr::ConstNull(d) => {
            put_u8(out, 4);
            put_local(out, d);
        }
        LoweredInstr::Move(d, s) => {
            put_u8(out, 5);
            put_local(out, d);
            put_local(out, s);
        }
        LoweredInstr::Bin(op, d, a, b) => {
            put_u8(out, 6);
            op.encode(out);
            put_local(out, d);
            put_local(out, a);
            put_local(out, b);
        }
        LoweredInstr::Un(op, d, a) => {
            put_u8(out, 7);
            op.encode(out);
            put_local(out, d);
            put_local(out, a);
        }
        LoweredInstr::New(d, c) => {
            put_u8(out, 8);
            put_local(out, d);
            put_u32(out, c.0);
        }
        LoweredInstr::NewArray(d, elem, len) => {
            put_u8(out, 9);
            put_local(out, d);
            encode_type_ref(out, elem);
            put_local(out, len);
        }
        LoweredInstr::GetField(d, o, f) => {
            put_u8(out, 10);
            put_local(out, d);
            put_local(out, o);
            put_u32(out, f.0);
        }
        LoweredInstr::PutField(o, f, s) => {
            put_u8(out, 11);
            put_local(out, o);
            put_u32(out, f.0);
            put_local(out, s);
        }
        LoweredInstr::GetStatic(d, f) => {
            put_u8(out, 12);
            put_local(out, d);
            put_u32(out, f.0);
        }
        LoweredInstr::PutStatic(f, s) => {
            put_u8(out, 13);
            put_u32(out, f.0);
            put_local(out, s);
        }
        LoweredInstr::ArrayGet(d, a, i) => {
            put_u8(out, 14);
            put_local(out, d);
            put_local(out, a);
            put_local(out, i);
        }
        LoweredInstr::ArraySet(a, i, s) => {
            put_u8(out, 15);
            put_local(out, a);
            put_local(out, i);
            put_local(out, s);
        }
        LoweredInstr::ArrayLen(d, a) => {
            put_u8(out, 16);
            put_local(out, d);
            put_local(out, a);
        }
        LoweredInstr::StrLen(d, s) => {
            put_u8(out, 17);
            put_local(out, d);
            put_local(out, s);
        }
        LoweredInstr::StrCharAt(d, s, i) => {
            put_u8(out, 18);
            put_local(out, d);
            put_local(out, s);
            put_local(out, i);
        }
        LoweredInstr::StrConcat(d, a, b) => {
            put_u8(out, 19);
            put_local(out, d);
            put_local(out, a);
            put_local(out, b);
        }
        LoweredInstr::Call {
            dst,
            target,
            args,
            site_block,
            site_instr,
        } => {
            put_u8(out, 20);
            put_option(out, dst, put_local);
            match target {
                LoweredCallee::Static(m) => {
                    put_u8(out, 0);
                    put_u32(out, m.0);
                }
                LoweredCallee::Virtual(s) => {
                    put_u8(out, 1);
                    put_u32(out, s.0);
                }
            }
            put_seq(out, args.iter(), put_local);
            put_u32(out, *site_block);
            put_u32(out, *site_instr);
        }
        LoweredInstr::Intrinsic { dst, op, args } => {
            put_u8(out, 21);
            put_option(out, dst, put_local);
            op.encode(out);
            put_seq(out, args.iter(), put_local);
        }
        LoweredInstr::Spawn { method, args } => {
            put_u8(out, 22);
            put_u32(out, method.0);
            put_seq(out, args.iter(), put_local);
        }
        LoweredInstr::Ret(v) => {
            put_u8(out, 23);
            put_option(out, v, put_local);
        }
        LoweredInstr::Jump(e) => {
            put_u8(out, 24);
            encode_jump_edge(out, e);
        }
        LoweredInstr::Br {
            cond,
            then_e,
            else_e,
        } => {
            put_u8(out, 25);
            put_local(out, cond);
            encode_jump_edge(out, then_e);
            encode_jump_edge(out, else_e);
        }
    }
}

fn decode_lowered_instr(r: &mut Reader<'_>) -> Option<LoweredInstr> {
    let locals = |r: &mut Reader<'_>| Some(r.seq(4, decode_local)?.into_boxed_slice());
    Some(match r.u8()? {
        0 => LoweredInstr::ConstInt(decode_local(r)?, r.i64()?),
        1 => LoweredInstr::ConstDouble(decode_local(r)?, r.f64()?),
        2 => LoweredInstr::ConstBool(decode_local(r)?, r.bool()?),
        3 => LoweredInstr::ConstStr(decode_local(r)?, r.u32()?),
        4 => LoweredInstr::ConstNull(decode_local(r)?),
        5 => LoweredInstr::Move(decode_local(r)?, decode_local(r)?),
        6 => LoweredInstr::Bin(
            BinOp::decode(r)?,
            decode_local(r)?,
            decode_local(r)?,
            decode_local(r)?,
        ),
        7 => LoweredInstr::Un(UnOp::decode(r)?, decode_local(r)?, decode_local(r)?),
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
        20 => LoweredInstr::Call {
            dst: r.option(decode_local)?,
            target: match r.u8()? {
                0 => LoweredCallee::Static(MethodId(r.u32()?)),
                1 => LoweredCallee::Virtual(SelectorId(r.u32()?)),
                _ => return None,
            },
            args: locals(r)?,
            site_block: r.u32()?,
            site_instr: r.u32()?,
        },
        21 => LoweredInstr::Intrinsic {
            dst: r.option(decode_local)?,
            op: Intrinsic::decode(r)?,
            args: locals(r)?,
        },
        22 => LoweredInstr::Spawn {
            method: MethodId(r.u32()?),
            args: locals(r)?,
        },
        23 => LoweredInstr::Ret(r.option(decode_local)?),
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
    put_seq(out, m.block_start.iter().copied(), put_u32);
    put_seq(out, &m.code, encode_lowered_instr);
}

fn decode_lowered_method(r: &mut Reader<'_>) -> Option<LoweredMethod> {
    Some(LoweredMethod {
        n_locals: u16::try_from(r.u32()?).ok()?,
        block_start: r.seq(4, Reader::u32)?,
        code: r.seq(2, decode_lowered_instr)?,
    })
}

fn encode_lowered_paths(out: &mut Vec<u8>, p: &LoweredPaths) {
    let (block_head, edges, n_blocks) = p.raw_parts();
    put_seq(out, block_head.iter().copied(), put_u32);
    put_u32(out, n_blocks);
    put_seq(out, edges, |out, e| {
        put_u8(out, u8::from(e.cut));
        put_u64(out, e.inc);
    });
}

fn decode_lowered_paths(r: &mut Reader<'_>) -> Option<LoweredPaths> {
    let block_head = r.seq(4, Reader::u32)?;
    let n_blocks = r.u32()?;
    let edges = r.seq(9, |r| {
        Some(PathEdge {
            cut: r.bool()?,
            inc: r.u64()?,
        })
    })?;
    LoweredPaths::from_raw(block_head, edges, n_blocks)
}

impl DiskCodec for LoweredShard {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.cu);
        put_seq(out, &self.methods, |out, (mi, m)| {
            put_u32(out, *mi);
            encode_lowered_method(out, m);
        });
        put_seq(out, &self.paths, |out, (mi, p)| {
            put_u32(out, *mi);
            encode_lowered_paths(out, p);
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(LoweredShard {
            cu: r.u32()?,
            methods: r.seq(16, |r| Some((r.u32()?, decode_lowered_method(r)?)))?,
            paths: r.seq(16, |r| Some((r.u32()?, decode_lowered_paths(r)?)))?,
        })
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
