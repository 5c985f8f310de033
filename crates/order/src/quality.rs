//! Layout-quality metrics: how well an object order packs an access set.
//!
//! These are the diagnostics behind the paper's Fig. 6 intuition, exposed
//! as a library so tools (and the `nimage` CLI) can quantify a layout
//! without running the paging simulator: a layout is good when the
//! accessed objects sit in a **dense prefix** and the **scatter** — the
//! number of contiguous accessed runs — is small.

use std::collections::{HashMap, HashSet};

use nimage_heap::{HeapSnapshot, ObjId};

/// Metrics of one `(layout order, accessed set)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutQuality {
    /// Number of accessed objects found in the layout.
    pub accessed: usize,
    /// Bytes of accessed objects.
    pub accessed_bytes: u64,
    /// Bytes from the start of the section up to and including the last
    /// accessed object — the "span" a prefetcher must cover.
    pub span_bytes: u64,
    /// Density of the span: `accessed_bytes / span_bytes` (1.0 = perfectly
    /// packed prefix; → 0 = scattered across the whole section).
    pub density: f64,
    /// Number of maximal contiguous runs of accessed objects (1 = one
    /// block; higher = fragmented).
    pub runs: usize,
}

/// Computes layout quality for `order` (a permutation of the snapshot's
/// objects) against the set of objects the program accesses.
///
/// Objects in `accessed` that are not part of the snapshot are ignored
/// (e.g. PEA-folded objects, which cost nothing at run time).
pub fn layout_quality(
    snapshot: &HeapSnapshot,
    order: &[ObjId],
    accessed: &HashSet<ObjId>,
) -> LayoutQuality {
    let mut accessed_count = 0usize;
    let mut accessed_bytes = 0u64;
    let mut span_bytes = 0u64;
    let mut cursor = 0u64;
    let mut runs = 0usize;
    let mut prev_accessed = false;
    for &obj in order {
        let Some(entry) = snapshot.entry(obj) else {
            continue;
        };
        let size = u64::from(entry.size);
        let is_accessed = accessed.contains(&obj);
        if is_accessed {
            accessed_count += 1;
            accessed_bytes += size;
            span_bytes = cursor + size;
            if !prev_accessed {
                runs += 1;
            }
        }
        prev_accessed = is_accessed;
        cursor += size;
    }
    let density = if span_bytes == 0 {
        1.0
    } else {
        accessed_bytes as f64 / span_bytes as f64
    };
    LayoutQuality {
        accessed: accessed_count,
        accessed_bytes,
        span_bytes,
        density,
        runs,
    }
}

/// Fraction of the optimized build's objects whose identity matches the
/// instrumented build unambiguously.
///
/// An object is *matched* only if its id occurs exactly once in the
/// optimized build **and** exactly once in the instrumented build — a
/// colliding id group is unusable for cross-build ordering, because the
/// orderer cannot tell which member the profile meant (Sec. 5's matching
/// problem).
///
/// It measures uniqueness, not correctness. It counts ids that are unique
/// in both builds, and never checks that such an id names the *same*
/// object in both: an id unique on each side but given to two different
/// objects counts as matched. So the ratio can rank schemes against their
/// fault reductions. On the three microservices it reads 1.000 for
/// incremental id and 0.907 for the structural hash, above heap path's
/// 0.806, while Fig. 3 ranks their fault reductions the other way round
/// (heap path 1.79, incremental id 1.58, structural hash 1.36).
pub fn matched_object_ratio(instrumented_ids: &[u64], optimized_ids: &[u64]) -> f64 {
    if optimized_ids.is_empty() {
        return 1.0;
    }
    let count = |ids: &[u64]| -> HashMap<u64, u32> {
        let mut m = HashMap::new();
        for &v in ids {
            *m.entry(v).or_insert(0) += 1;
        }
        m
    };
    let instr = count(instrumented_ids);
    let opt = count(optimized_ids);
    let matched = optimized_ids
        .iter()
        .filter(|v| opt[v] == 1 && instr.get(v) == Some(&1))
        .count();
    matched as f64 / optimized_ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{
        compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
    };
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_ir::{ProgramBuilder, TypeRef};

    fn cells(n: i64) -> (nimage_ir::Program, HeapSnapshot) {
        let mut pb = ProgramBuilder::new();
        let cell = pb.add_class("q.Cell", None);
        let val = pb.add_instance_field(cell, "v", TypeRef::Int);
        let holder = pb.add_class("q.Holder", None);
        let field = pb.add_static_field(holder, "C", TypeRef::array_of(TypeRef::Object(cell)));
        let cl = pb.declare_clinit(holder);
        let mut f = pb.body(cl);
        let len = f.iconst(n);
        let arr = f.new_array(TypeRef::Object(cell), len);
        let from = f.iconst(0);
        f.for_range(from, len, |f, i| {
            let o = f.new_object(cell);
            f.put_field(o, val, i);
            f.array_set(arr, i, o);
        });
        f.put_static(field, arr);
        f.ret(None);
        pb.finish_body(cl, f);
        let mc = pb.add_class("q.Main", None);
        let main = pb.declare_static(mc, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let a = f.get_static(field);
        let z = f.iconst(0);
        let c = f.array_get(a, z);
        let v = f.get_field(c, val);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
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
        (p, snap)
    }

    #[test]
    fn packed_prefix_has_density_one_and_one_run() {
        let (_p, snap) = cells(20);
        let order: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
        // Access the first three objects of the layout.
        let accessed: HashSet<ObjId> = order[..3].iter().copied().collect();
        let q = layout_quality(&snap, &order, &accessed);
        assert_eq!(q.accessed, 3);
        assert_eq!(q.runs, 1);
        assert!((q.density - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scattered_accesses_have_low_density_and_many_runs() {
        let (_p, snap) = cells(20);
        let order: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
        // Access every 5th object.
        let accessed: HashSet<ObjId> = order.iter().step_by(5).copied().collect();
        let q = layout_quality(&snap, &order, &accessed);
        assert!(q.runs > 1);
        assert!(q.density < 0.5, "density {:.3}", q.density);
    }

    #[test]
    fn reordering_improves_the_metric() {
        let (_p, snap) = cells(40);
        let default: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
        let accessed: HashSet<ObjId> = default.iter().step_by(7).copied().collect();
        let scattered_q = layout_quality(&snap, &default, &accessed);
        // Pack accessed first.
        let mut packed: Vec<ObjId> = default
            .iter()
            .copied()
            .filter(|o| accessed.contains(o))
            .collect();
        packed.extend(default.iter().copied().filter(|o| !accessed.contains(o)));
        let packed_q = layout_quality(&snap, &packed, &accessed);
        assert!(packed_q.density > scattered_q.density);
        assert_eq!(packed_q.runs, 1);
        assert_eq!(packed_q.accessed, scattered_q.accessed);
    }

    #[test]
    fn matched_ratio_requires_uniqueness_on_both_sides() {
        // id 1: unique both sides -> matched. id 2: collides in optimized.
        // id 3: unique in optimized but collides in instrumented.
        // id 4: only in optimized.
        let instrumented = [1u64, 2, 3, 3];
        let optimized = [1u64, 2, 2, 3, 4];
        let r = matched_object_ratio(&instrumented, &optimized);
        assert!((r - 0.2).abs() < 1e-9, "ratio {r}");
        assert_eq!(matched_object_ratio(&[], &[]), 1.0);
    }

    #[test]
    fn unknown_objects_are_ignored() {
        let (_p, snap) = cells(5);
        let order: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
        let mut accessed = HashSet::new();
        accessed.insert(ObjId(9999)); // not in snapshot
        let q = layout_quality(&snap, &order, &accessed);
        assert_eq!(q.accessed, 0);
        assert_eq!(q.runs, 0);
        assert_eq!(q.density, 1.0);
    }
}
