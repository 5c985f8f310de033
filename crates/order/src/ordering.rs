//! Applying ordering profiles to a (possibly different) build: the
//! cross-build matching of Sec. 4 and Sec. 5.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use nimage_compiler::{CompiledProgram, CuId, ProgramIndex};
use nimage_heap::{HeapSnapshot, ObjId};

use crate::analyses::{CodeOrderProfile, HeapOrderProfile, KeyHasher, ObjectSpans};

/// Which code-ordering strategy produced the profile (Sec. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeGranularity {
    /// *cu ordering*: profile entries are CU root-method signatures
    /// (Sec. 4.1).
    Cu,
    /// *method ordering*: profile entries are method signatures, including
    /// inlined methods (Sec. 4.2). A profile entry places the first CU (in
    /// default order) that *contains* the method.
    Method,
}

/// Computes the `.text` CU order of the optimized build from a
/// code-ordering profile gathered on the instrumented build.
///
/// Profile entries are matched by signature — the only identity that is
/// stable across builds with different inlining. Signatures that do not
/// resolve in this build (e.g. a CU root of the instrumented build that got
/// fully inlined here) are skipped. CUs not named by the profile keep their
/// default (alphabetical) relative order after the profiled ones, so cold
/// code moves to the back.
pub fn order_cus(
    index: &ProgramIndex<'_>,
    compiled: &CompiledProgram,
    profile: &CodeOrderProfile,
    granularity: CodeGranularity,
) -> Vec<CuId> {
    order_cus_split(index, compiled, profile, granularity).0
}

/// Like [`order_cus`], but also returns the length of the hot prefix: the
/// number of CUs placed from the profile (the rest are the never-touched
/// CUs exiled past the hot frontier). This is the hot/cold split the
/// layout optimizer consumes.
///
/// Methods sharing a signature share its entry: at *cu* granularity the
/// entry places the last CU in default order whose root has the
/// signature, at *method* granularity the first CU containing a method
/// with it.
pub fn order_cus_split(
    index: &ProgramIndex<'_>,
    compiled: &CompiledProgram,
    profile: &CodeOrderProfile,
    granularity: CodeGranularity,
) -> (Vec<CuId>, usize) {
    // Signature id → CU to place for that signature.
    let mut cu_of_sig = vec![NO_CU; index.n_sigs()];
    match granularity {
        CodeGranularity::Cu => {
            for cu in &compiled.cus {
                cu_of_sig[index.sig_id(cu.root) as usize] = cu.id.0;
            }
        }
        CodeGranularity::Method => {
            for cu in &compiled.cus {
                for m in cu.methods() {
                    let slot = &mut cu_of_sig[index.sig_id(m) as usize];
                    if *slot == NO_CU {
                        *slot = cu.id.0;
                    }
                }
            }
        }
    }

    let mut placed = vec![false; compiled.cus.len()];
    let mut order: Vec<CuId> = vec![];
    for sig in &profile.sigs {
        let cu = index
            .sig_id_of(sig)
            .map_or(NO_CU, |s| cu_of_sig[s as usize]);
        if cu != NO_CU && !placed[cu as usize] {
            placed[cu as usize] = true;
            order.push(CuId(cu));
        }
    }
    let hot = order.len();
    for cu in &compiled.cus {
        if !placed[cu.id.index()] {
            order.push(cu.id);
        }
    }
    debug_assert_eq!(
        order.len(),
        compiled.cus.len(),
        "CU order must be a permutation of the compiled CUs"
    );
    (order, hot)
}

/// No CU for a signature.
const NO_CU: u32 = u32::MAX;

/// Computes the `.svm_heap` object order of the optimized build from a
/// heap-ordering profile.
///
/// `ids` are the strategy identities computed on *this* build's snapshot
/// (same strategy as the profile). Objects whose identity appears in the
/// profile are placed first, in profile order (stable on identity ties:
/// objects sharing an identity keep their default relative order); the
/// remaining objects follow in default order.
pub fn order_objects(
    snapshot: &HeapSnapshot,
    ids: &HashMap<ObjId, u64>,
    profile: &HeapOrderProfile,
) -> Vec<ObjId> {
    order_objects_split_spans(snapshot, ids, profile).0
}

/// Like [`order_objects`], but also returns the length of the hot prefix
/// — the number of objects matched by the profile (the rest follow in
/// default order), the hot/cold split the layout optimizer consumes —
/// and each matched object's measured touched-byte spans out of the
/// profile: the third element is parallel to the hot prefix of the
/// returned order (`spans[i]` belongs to `order[i]`), empty per object
/// when the profile carries no measurement for its identity. This is the span channel into the layout
/// optimizer's fault predictor (`HeapInput::spans`); objects sharing an
/// identity all inherit that identity's spans.
pub fn order_objects_split_spans(
    snapshot: &HeapSnapshot,
    ids: &HashMap<ObjId, u64>,
    profile: &HeapOrderProfile,
) -> (Vec<ObjId>, usize, Vec<ObjectSpans>) {
    let mut rank: HashMap<u64, usize, BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(profile.ids.len(), Default::default());
    for (i, &id) in profile.ids.iter().enumerate() {
        rank.entry(id).or_insert(i);
    }
    let mut matched: Vec<(usize, ObjId)> = vec![];
    let mut unmatched: Vec<ObjId> = vec![];
    for e in snapshot.entries() {
        match ids.get(&e.obj).and_then(|id| rank.get(id)) {
            Some(&r) => matched.push((r, e.obj)),
            None => unmatched.push(e.obj),
        }
    }
    matched.sort_by_key(|&(r, _)| r); // stable: ties keep default order
    let hot = matched.len();
    let hot_spans: Vec<ObjectSpans> = matched
        .iter()
        .map(|&(r, _)| profile.spans.get(r).cloned().unwrap_or_default())
        .collect();
    let order: Vec<ObjId> = matched
        .into_iter()
        .map(|(_, o)| o)
        .chain(unmatched)
        .collect();
    debug_assert_eq!(
        order.len(),
        snapshot.entries().len(),
        "object order must be a permutation of the snapshot"
    );
    (order, hot, hot_spans)
}

/// Fraction of profile identities that resolve to an object of this build's
/// snapshot — the matching accuracy that separates the three strategies in
/// Sec. 7.2.
pub fn match_rate(ids: &HashMap<ObjId, u64>, profile: &HeapOrderProfile) -> f64 {
    if profile.ids.is_empty() {
        return 1.0;
    }
    let present: std::collections::HashSet<u64> = ids.values().copied().collect();
    let hits = profile.ids.iter().filter(|id| present.contains(id)).count();
    hits as f64 / profile.ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{assign_ids, HeapStrategy};
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{
        compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
    };
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_ir::{Program, ProgramBuilder, TypeRef};

    /// Many single-method CUs (no inlining) plus one helper that gets
    /// inlined in the regular build.
    fn many_cu_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Many", None);
        let mut methods = vec![];
        for name in ["alpha", "beta", "gamma", "delta"] {
            let m = pb.declare_static(c, name, &[], Some(TypeRef::Int));
            let mut f = pb.body(m);
            let mut v = f.iconst(1);
            for _ in 0..100 {
                let one = f.iconst(1);
                v = f.add(v, one);
            }
            f.ret(Some(v));
            pb.finish_body(m, f);
            methods.push(m);
        }
        let cond = pb.add_static_field(c, "COND", TypeRef::Bool);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let acc = f.iconst(0);
        let take = f.get_static(cond);
        let ms = methods.clone();
        f.if_then(take, |f| {
            for &m in &ms {
                let v = f.call_static(m, &[], true).unwrap();
                let s = f.add(acc, v);
                f.assign(acc, s);
            }
        });
        // Hot path: call gamma then alpha.
        let v = f.call_static(methods[2], &[], true).unwrap();
        let s = f.add(acc, v);
        f.assign(acc, s);
        let v = f.call_static(methods[0], &[], true).unwrap();
        let s = f.add(acc, v);
        f.assign(acc, s);
        f.ret(Some(acc));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.build().unwrap()
    }

    fn compiled(p: &Program) -> CompiledProgram {
        let reach = analyze(p, &AnalysisConfig::default());
        let cfg = InlineConfig {
            inline_threshold: 0,
            ..InlineConfig::default()
        };
        compile(
            &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
            reach,
            &cfg,
            InstrumentConfig::NONE,
            None,
        )
    }

    #[test]
    fn cu_order_places_profiled_roots_first() {
        let p = many_cu_program();
        let cp = compiled(&p);
        let profile = CodeOrderProfile {
            sigs: vec![
                "t.Many.main(0)".into(),
                "t.Many.gamma(0)".into(),
                "t.Many.alpha(0)".into(),
            ],
        };
        let order = order_cus(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &profile,
            CodeGranularity::Cu,
        );
        let sig = |cu: CuId| p.method_signature(cp.cu(cu).root);
        assert_eq!(sig(order[0]), "t.Many.main(0)");
        assert_eq!(sig(order[1]), "t.Many.gamma(0)");
        assert_eq!(sig(order[2]), "t.Many.alpha(0)");
        // The rest keep alphabetical order.
        assert_eq!(sig(order[3]), "t.Many.beta(0)");
        assert_eq!(sig(order[4]), "t.Many.delta(0)");
        assert_eq!(order.len(), cp.cus.len());
    }

    #[test]
    fn unknown_profile_signatures_are_skipped() {
        let p = many_cu_program();
        let cp = compiled(&p);
        let profile = CodeOrderProfile {
            sigs: vec!["ghost.Klass.gone(0)".into(), "t.Many.beta(0)".into()],
        };
        let order = order_cus(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &profile,
            CodeGranularity::Cu,
        );
        assert_eq!(p.method_signature(cp.cu(order[0]).root), "t.Many.beta(0)");
        assert_eq!(order.len(), cp.cus.len());
    }

    #[test]
    fn method_granularity_resolves_inlined_methods_to_containing_cu() {
        // helper is small and inlined into main; a method profile naming
        // helper must place main's CU.
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.In", None);
        let helper = pb.declare_static(c, "helper", &[], Some(TypeRef::Int));
        let mut f = pb.body(helper);
        let v = f.iconst(3);
        f.ret(Some(v));
        pb.finish_body(helper, f);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let v = f.call_static(helper, &[], true).unwrap();
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
        // helper has no own CU.
        assert!(cp.cu_of_root(helper).is_none());
        let profile = CodeOrderProfile {
            sigs: vec!["t.In.helper(0)".into()],
        };
        let order = order_cus(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &profile,
            CodeGranularity::Method,
        );
        assert_eq!(cp.cu(order[0]).root, main);
    }

    /// A wide registry of same-type nodes; PEA folding in the "optimized"
    /// build removes some nodes, shifting incremental counters of every
    /// later node onto the *wrong* object, while heap paths (array index +
    /// root) still pin down the survivors. This is Sec. 7.2's finding:
    /// "one cannot rely on the encounter order when traversing the heap
    /// object graph … hashing the heap paths is more robust".
    #[test]
    fn heap_path_matching_survives_divergence_better_than_incremental() {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("t.Node", None);
        let f_val = pb.add_instance_field(node, "val", TypeRef::Int);
        let holder = pb.add_class("t.Holder", None);
        let f_reg =
            pb.add_static_field(holder, "REGISTRY", TypeRef::array_of(TypeRef::Object(node)));
        let cl = pb.declare_clinit(holder);
        let mut f = pb.body(cl);
        let n = f.iconst(40);
        let arr = f.new_array(TypeRef::Object(node), n);
        let from = f.iconst(0);
        f.for_range(from, n, |f, i| {
            let o = f.new_object(node);
            f.put_field(o, f_val, i);
            f.array_set(arr, i, o);
        });
        f.put_static(f_reg, arr);
        f.ret(None);
        pb.finish_body(cl, f);
        let mc = pb.add_class("t.Main", None);
        let main = pb.declare_static(mc, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let a = f.get_static(f_reg);
        let z = f.iconst(0);
        let h = f.array_get(a, z);
        let v = f.get_field(h, f_val);
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
        // "Instrumented" snapshot: no folding.
        let snap_a = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        // "Optimized" snapshot: PEA folds some registry nodes.
        let cfg_b = HeapBuildConfig {
            pea_fold: true,
            pea_seed: 11,
            pea_fold_ratio: 6,
            ..HeapBuildConfig::default()
        };
        let snap_b = snapshot(&ProgramIndex::new(&p, DEFAULT_MAX_PATHS), &cp, &cfg_b).unwrap();
        assert!(
            snap_b.entries().len() < snap_a.entries().len(),
            "folding must remove entries"
        );

        // `val` of a node object, used as its semantic identity.
        let val_of = |snap: &nimage_heap::HeapSnapshot, o: nimage_heap::ObjId| -> Option<i64> {
            match &snap.heap().get(o).kind {
                nimage_heap::HObjectKind::Instance { class, fields }
                    if p.class(*class).name == "t.Node" =>
                {
                    match fields[0] {
                        nimage_ir::Value::Int(v) => Some(v),
                        _ => None,
                    }
                }
                _ => None,
            }
        };

        // Fraction of B's nodes whose profile match (by id) is the
        // semantically same object in A.
        let aligned_rate = |strategy: HeapStrategy| -> f64 {
            let ids_a = assign_ids(&p, &snap_a, strategy);
            let ids_b = assign_ids(&p, &snap_b, strategy);
            let mut by_id_a: HashMap<u64, nimage_heap::ObjId> = HashMap::new();
            for e in snap_a.entries() {
                by_id_a.insert(ids_a[&e.obj], e.obj);
            }
            let mut total = 0;
            let mut aligned = 0;
            for e in snap_b.entries() {
                let Some(vb) = val_of(&snap_b, e.obj) else {
                    continue;
                };
                total += 1;
                if let Some(&oa) = by_id_a.get(&ids_b[&e.obj]) {
                    if val_of(&snap_a, oa) == Some(vb) {
                        aligned += 1;
                    }
                }
            }
            aligned as f64 / total as f64
        };

        let incr = aligned_rate(HeapStrategy::IncrementalId);
        let path = aligned_rate(HeapStrategy::HeapPath);
        let hash = aligned_rate(HeapStrategy::structural_default());
        assert!(
            path > incr,
            "heap path ({path}) must align better than incremental ({incr})"
        );
        assert!(
            hash > incr,
            "structural hash ({hash}) must align better than incremental ({incr})"
        );
        // Surviving nodes keep their array slot, so heap path aligns all.
        assert!(path > 0.95, "heap path aligned rate was {path}");
    }

    #[test]
    fn order_objects_places_profiled_first_in_profile_order() {
        let p = many_cu_program();
        let cp = compiled(&p);
        let snap = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        if snap.entries().len() < 2 {
            return; // nothing to reorder in this tiny snapshot
        }
        let ids = assign_ids(&p, &snap, HeapStrategy::HeapPath);
        // Profile accesses the last object first.
        let last = snap.entries().last().unwrap().obj;
        let profile = HeapOrderProfile {
            ids: vec![ids[&last]],
            spans: vec![],
        };
        let order = order_objects(&snap, &ids, &profile);
        assert_eq!(order[0], last);
        assert_eq!(order.len(), snap.entries().len());
        // All objects present exactly once.
        let set: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), order.len());
    }

    #[test]
    fn empty_profile_keeps_default_order() {
        let p = many_cu_program();
        let cp = compiled(&p);
        let snap = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        let ids = assign_ids(&p, &snap, HeapStrategy::HeapPath);
        let order = order_objects(&snap, &ids, &HeapOrderProfile::default());
        let default: Vec<_> = snap.entries().iter().map(|e| e.obj).collect();
        assert_eq!(order, default);
        assert_eq!(match_rate(&ids, &HeapOrderProfile::default()), 1.0);
    }
}
