//! Pipeline invariant verifiers: binary layout, profile traces, identity
//! collisions, profile coverage, and the profile/snapshot matching
//! contract of `order_objects`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use nimage_compiler::CompiledProgram;
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_image::BinaryImage;
use nimage_ir::Program;
use nimage_order::{CodeOrderProfile, HeapOrderProfile};
use nimage_profiler::{Record, Trace};

use crate::Diagnostic;

/// One placed entity (CU or object) in a [`LayoutView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Human-readable identity (CU root signature, object id).
    pub label: String,
    /// Absolute offset in the image.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

/// A layout-checker view of a binary image: sections plus every placed
/// CU and object. Decoupled from [`BinaryImage`] so tests can hand-craft
/// corrupt layouts that `BinaryImage::build` itself would refuse to
/// construct.
#[derive(Debug, Clone)]
pub struct LayoutView {
    /// Page size the layout claims to align to.
    pub page_size: u64,
    /// `.text` section offset (must be 0).
    pub text_offset: u64,
    /// `.text` section size, including the native tail.
    pub text_size: u64,
    /// `.svm_heap` section offset.
    pub heap_offset: u64,
    /// `.svm_heap` section size.
    pub heap_size: u64,
    /// Start of the native tail within `.text`.
    pub native_start: u64,
    /// CU placements.
    pub cus: Vec<Placement>,
    /// Object placements.
    pub objects: Vec<Placement>,
    /// Number of CUs the compiled program expects to be placed.
    pub expected_cus: usize,
    /// Number of snapshot objects expected to be placed.
    pub expected_objects: usize,
}

impl LayoutView {
    /// Extracts the placement view of a built image.
    pub fn from_image(
        program: &Program,
        compiled: &CompiledProgram,
        snapshot: &HeapSnapshot,
        image: &BinaryImage,
    ) -> LayoutView {
        let cus = image
            .cu_order
            .iter()
            .map(|&cu| Placement {
                label: program.method_signature(compiled.cu(cu).root),
                offset: image.cu_offset(cu),
                size: u64::from(compiled.cu(cu).size),
            })
            .collect();
        let objects = image
            .object_order
            .iter()
            .filter_map(|&obj| {
                let offset = image.object_offset(obj)?;
                let size = u64::from(snapshot.entry(obj)?.size);
                Some(Placement {
                    label: obj.to_string(),
                    offset,
                    size,
                })
            })
            .collect();
        LayoutView {
            page_size: image.options.page_size,
            text_offset: image.text.offset,
            text_size: image.text.size,
            heap_offset: image.svm_heap.offset,
            heap_size: image.svm_heap.size,
            native_start: image.native_start,
            cus,
            objects,
            expected_cus: compiled.cus.len(),
            expected_objects: snapshot.entries().len(),
        }
    }
}

/// Verifies a layout view. All findings are errors.
///
/// Checked invariants: sections are page-aligned and disjoint; every
/// expected CU/object is placed exactly once; no two placements of a
/// section overlap; CU placements stay below the native tail (profiled
/// placement must never move native pages); objects stay inside the heap
/// section.
pub fn check_layout(view: &LayoutView) -> Vec<Diagnostic> {
    let mut out = vec![];
    if view.page_size == 0 || !view.page_size.is_power_of_two() {
        out.push(Diagnostic::error(
            "layout::align",
            "image",
            format!("page size {} is not a power of two", view.page_size),
        ));
        return out;
    }
    if view.text_offset != 0 {
        out.push(Diagnostic::error(
            "layout::section",
            ".text",
            format!("section starts at {:#x}, expected 0", view.text_offset),
        ));
    }
    for (name, offset) in [
        (".svm_heap", view.heap_offset),
        ("native tail", view.native_start),
    ] {
        if offset % view.page_size != 0 {
            out.push(Diagnostic::error(
                "layout::align",
                name,
                format!(
                    "starts at {offset:#x}, not page-aligned ({})",
                    view.page_size
                ),
            ));
        }
    }
    if view.heap_offset < view.text_offset + view.text_size {
        out.push(Diagnostic::error(
            "layout::overlap",
            ".svm_heap",
            format!(
                "heap section at {:#x} overlaps .text ending at {:#x}",
                view.heap_offset,
                view.text_offset + view.text_size,
            ),
        ));
    }
    if view.native_start > view.text_size {
        out.push(Diagnostic::error(
            "layout::section",
            "native tail",
            format!(
                "native tail starts at {:#x}, beyond .text end {:#x}",
                view.native_start, view.text_size,
            ),
        ));
    }

    check_placements(
        ".text",
        &view.cus,
        view.expected_cus,
        view.text_offset,
        view.native_start,
        "layout::native-tail",
        &mut out,
    );
    check_placements(
        ".svm_heap",
        &view.objects,
        view.expected_objects,
        view.heap_offset,
        view.heap_offset + view.heap_size,
        "layout::bounds",
        &mut out,
    );
    out
}

/// Coverage, overlap and bounds checks for one section's placements.
fn check_placements(
    section: &str,
    placements: &[Placement],
    expected: usize,
    lo: u64,
    hi: u64,
    bounds_code: &'static str,
    out: &mut Vec<Diagnostic>,
) {
    if placements.len() != expected {
        out.push(Diagnostic::error(
            "layout::coverage",
            section,
            format!("{} placement(s), expected {expected}", placements.len()),
        ));
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for p in placements {
        if !seen.insert(&p.label) {
            out.push(Diagnostic::error(
                "layout::coverage",
                section,
                format!("{} is placed more than once", p.label),
            ));
        }
        if p.offset < lo || p.offset + p.size > hi {
            out.push(Diagnostic::error(
                bounds_code,
                section,
                format!(
                    "{} spans {:#x}..{:#x}, outside {lo:#x}..{hi:#x}",
                    p.label,
                    p.offset,
                    p.offset + p.size,
                ),
            ));
        }
    }
    let mut by_offset: Vec<&Placement> = placements.iter().collect();
    by_offset.sort_by_key(|p| (p.offset, p.size));
    for pair in by_offset.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.offset + a.size > b.offset && a.size > 0 && b.size > 0 {
            out.push(Diagnostic::error(
                "layout::overlap",
                section,
                format!(
                    "{} ({:#x}..{:#x}) overlaps {} at {:#x}",
                    a.label,
                    a.offset,
                    a.offset + a.size,
                    b.label,
                    b.offset,
                ),
            ));
        }
    }
}

/// Verifies a profiling trace: string-table indices must resolve
/// (errors), and within each thread a path event for a signature that
/// also has a CU-entry event should not precede that CU entry (warning —
/// the instrumentation emits CU entries first).
pub fn check_trace(trace: &Trace) -> Vec<Diagnostic> {
    let mut out = vec![];
    let n = trace.strings.len() as u32;
    for (t, thread) in trace.threads.iter().enumerate() {
        let entity = format!("thread {t}");
        let mut cu_entered: BTreeSet<u32> = BTreeSet::new();
        let mut warned: BTreeSet<u32> = BTreeSet::new();
        let has_cu_entry: BTreeSet<u32> = thread
            .records()
            .filter_map(|r| match r {
                Record::CuEntry { sig } => Some(sig),
                _ => None,
            })
            .collect();
        for (i, r) in thread.records().enumerate() {
            let sig = match r {
                Record::CuEntry { sig } | Record::MethodEntry { sig } => sig,
                Record::Path { method, .. } => method,
            };
            if sig >= n {
                out.push(Diagnostic::error(
                    "profile::string-index",
                    &entity,
                    format!("record {i} references string {sig}, table has {n}"),
                ));
                continue;
            }
            match r {
                Record::CuEntry { sig } => {
                    cu_entered.insert(sig);
                }
                Record::Path { method, .. } => {
                    if has_cu_entry.contains(&method)
                        && !cu_entered.contains(&method)
                        && warned.insert(method)
                    {
                        out.push(Diagnostic::warning(
                            "profile::order",
                            &entity,
                            format!(
                                "path event for {} at record {i} precedes its CU entry",
                                trace.string(method),
                            ),
                        ));
                    }
                }
                Record::MethodEntry { .. } => {}
            }
        }
    }
    out
}

/// Collision statistics over a set of 64-bit identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdAudit {
    /// Total identities audited.
    pub total: usize,
    /// Distinct identity values.
    pub distinct: usize,
    /// Identity values carried by more than one entity.
    pub colliding: usize,
    /// Largest number of entities sharing one identity.
    pub max_multiplicity: usize,
}

/// Audits 64-bit identities (profile ids or strategy-assigned ids) for
/// duplicates.
pub fn audit_ids(ids: impl IntoIterator<Item = u64>) -> IdAudit {
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    let mut total = 0usize;
    for id in ids {
        *counts.entry(id).or_insert(0) += 1;
        total += 1;
    }
    IdAudit {
        total,
        distinct: counts.len(),
        colliding: counts.values().filter(|&&c| c > 1).count(),
        max_multiplicity: counts.values().copied().max().unwrap_or(0),
    }
}

/// Diagnostics for an identity audit: a warning when collisions exist.
/// Collisions are legal (ties keep default order on matching) but erode
/// matching accuracy, which is why the paper segregates incremental-id
/// counters by type.
pub fn id_collision_diagnostics(audit: &IdAudit, entity: &str) -> Vec<Diagnostic> {
    if audit.colliding == 0 {
        return vec![];
    }
    vec![Diagnostic::warning(
        "profile::id-collision",
        entity,
        format!(
            "{} of {} identities are shared ({} distinct, worst multiplicity {})",
            audit.total - audit.distinct + audit.colliding,
            audit.total,
            audit.distinct,
            audit.max_multiplicity,
        ),
    )]
}

/// How much of a code-ordering profile resolves against this build, and
/// how much of this build the profile covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageReport {
    /// Signatures named by the profile.
    pub profile_entries: usize,
    /// Profile signatures that resolve to a CU root of this build.
    pub matched: usize,
    /// CUs in this build.
    pub cus: usize,
    /// Distinct CU roots named by the profile.
    pub covered: usize,
}

/// Compares a code-ordering profile against a compiled program.
pub fn profile_coverage(
    program: &Program,
    compiled: &CompiledProgram,
    profile: &CodeOrderProfile,
) -> CoverageReport {
    let roots: BTreeSet<String> = compiled.root_signatures(program).into_iter().collect();
    let named: BTreeSet<&String> = profile.sigs.iter().filter(|s| roots.contains(*s)).collect();
    CoverageReport {
        profile_entries: profile.sigs.len(),
        matched: profile.sigs.iter().filter(|s| roots.contains(*s)).count(),
        cus: compiled.cus.len(),
        covered: named.len(),
    }
}

/// Diagnostics for a coverage report: warnings for unresolvable profile
/// entries (expected across builds with different inlining, but worth
/// surfacing) and for a profile that covers nothing.
pub fn coverage_diagnostics(report: &CoverageReport) -> Vec<Diagnostic> {
    let mut out = vec![];
    if report.matched < report.profile_entries {
        out.push(Diagnostic::warning(
            "profile::coverage",
            "code profile",
            format!(
                "{} of {} profile signature(s) do not resolve to a CU of this build",
                report.profile_entries - report.matched,
                report.profile_entries,
            ),
        ));
    }
    if report.profile_entries > 0 && report.covered == 0 {
        out.push(Diagnostic::warning(
            "profile::coverage",
            "code profile",
            "profile covers no CU of this build; ordering will be the default".to_string(),
        ));
    }
    out
}

/// Verifies the `order_objects` contract on an object order.
///
/// The order must be a permutation of the snapshot in which all matched
/// objects (identity present in the profile) come first in non-decreasing
/// profile rank, identity ties keep their default snapshot order (FIFO),
/// and unmatched objects follow in default snapshot order.
pub fn check_matching(
    snapshot: &HeapSnapshot,
    ids: &HashMap<ObjId, u64>,
    profile: &HeapOrderProfile,
    order: &[ObjId],
) -> Vec<Diagnostic> {
    let mut out = vec![];
    let entity = "object order";

    if order.len() != snapshot.entries().len() {
        out.push(Diagnostic::error(
            "match::permutation",
            entity,
            format!(
                "order has {} object(s), snapshot has {}",
                order.len(),
                snapshot.entries().len(),
            ),
        ));
    }
    let mut seen: BTreeSet<ObjId> = BTreeSet::new();
    for &obj in order {
        if snapshot.index_of(obj).is_none() {
            out.push(Diagnostic::error(
                "match::permutation",
                entity,
                format!("{obj} is not a snapshot object"),
            ));
        }
        if !seen.insert(obj) {
            out.push(Diagnostic::error(
                "match::permutation",
                entity,
                format!("{obj} appears more than once"),
            ));
        }
    }
    if !out.is_empty() {
        return out; // sequence checks assume a permutation
    }

    let mut rank: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, &id) in profile.ids.iter().enumerate() {
        rank.entry(id).or_insert(i);
    }
    let rank_of =
        |obj: ObjId| -> Option<usize> { ids.get(&obj).and_then(|id| rank.get(id)).copied() };

    let mut prev: Option<(ObjId, Option<usize>)> = None;
    for &obj in order {
        let r = rank_of(obj);
        if let Some((pobj, pr)) = prev {
            match (pr, r) {
                (None, Some(_)) => {
                    out.push(Diagnostic::error(
                        "match::partition",
                        entity,
                        format!("matched {obj} is placed after unmatched {pobj}"),
                    ));
                    return out;
                }
                (Some(a), Some(b)) if b < a => {
                    out.push(Diagnostic::error(
                        "match::rank-order",
                        entity,
                        format!("{obj} (profile rank {b}) is placed after {pobj} (rank {a})"),
                    ));
                    return out;
                }
                (Some(a), Some(b))
                    if a == b && snapshot.index_of(obj) < snapshot.index_of(pobj) =>
                {
                    out.push(Diagnostic::error(
                        "match::fifo",
                        entity,
                        format!("identity tie between {pobj} and {obj} breaks snapshot order"),
                    ));
                    return out;
                }
                (None, None) if snapshot.index_of(obj) < snapshot.index_of(pobj) => {
                    out.push(Diagnostic::error(
                        "match::default-order",
                        entity,
                        format!("unmatched {obj} is placed after unmatched {pobj}"),
                    ));
                    return out;
                }
                _ => {}
            }
        }
        prev = Some((obj, r));
    }
    out
}
