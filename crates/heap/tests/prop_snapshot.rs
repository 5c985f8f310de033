//! Property tests of heap-snapshot invariants over randomly shaped object
//! registries.

use proptest::prelude::*;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS};
use nimage_heap::{snapshot, HObjectKind, HeapBuildConfig, HeapSnapshot};
use nimage_ir::{Program, ProgramBuilder, TypeRef};

/// Builds a program whose initializer allocates `chains` chains of
/// `depth`-long node lists plus a `blobs`-element int array, all reachable
/// from static fields.
fn registry_program(chains: usize, depth: usize, blobs: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let node = pb.add_class("p.Node", None);
    let f_next = pb.add_instance_field(node, "next", TypeRef::Object(node));
    let f_val = pb.add_instance_field(node, "val", TypeRef::Int);
    let holder = pb.add_class("p.Holder", None);
    let f_heads = pb.add_static_field(holder, "HEADS", TypeRef::array_of(TypeRef::Object(node)));
    let f_blob = pb.add_static_field(holder, "BLOB", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(holder);
    let mut f = pb.body(cl);
    let nchains = f.iconst(chains as i64);
    let heads = f.new_array(TypeRef::Object(node), nchains);
    let from = f.iconst(0);
    f.for_range(from, nchains, |f, c| {
        let head = f.new_object(node);
        f.put_field(head, f_val, c);
        let cur = f.copy(head);
        let from2 = f.iconst(0);
        let d = f.iconst(depth as i64);
        f.for_range(from2, d, |f, i| {
            let n = f.new_object(node);
            f.put_field(n, f_val, i);
            f.put_field(cur, f_next, n);
            f.assign(cur, n);
        });
        f.array_set(heads, c, head);
    });
    f.put_static(f_heads, heads);
    let blen = f.iconst(blobs as i64);
    let blob = f.new_array(TypeRef::Int, blen);
    f.put_static(f_blob, blob);
    f.ret(None);
    pb.finish_body(cl, f);

    let mainc = pb.add_class("p.Main", None);
    let main = pb.declare_static(mainc, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let hs = f.get_static(f_heads);
    let z = f.iconst(0);
    let h0 = f.array_get(hs, z);
    let v = f.get_field(h0, f_val);
    let b = f.get_static(f_blob);
    let _ = b;
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

fn build_snapshot(p: &Program, cfg: &HeapBuildConfig) -> HeapSnapshot {
    let reach = analyze(p, &AnalysisConfig::default());
    let cp = compile(
        &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    snapshot(&ProgramIndex::new(p, DEFAULT_MAX_PATHS), &cp, cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot structural invariants: unique entries, consistent index,
    /// acyclic parent chains ending in roots, sizes positive.
    #[test]
    fn snapshot_invariants(
        chains in 1usize..6,
        depth in 0usize..20,
        blobs in 0usize..64,
        seed in 0u64..8,
    ) {
        let p = registry_program(chains, depth, blobs);
        let cfg = HeapBuildConfig { clinit_seed: seed, ..HeapBuildConfig::default() };
        let snap = build_snapshot(&p, &cfg);
        let mut seen = std::collections::HashSet::new();
        for (i, e) in snap.entries().iter().enumerate() {
            prop_assert!(seen.insert(e.obj), "duplicate entry");
            prop_assert_eq!(snap.index_of(e.obj), Some(i));
            prop_assert!(e.size > 0);
            // Exactly one of parent/root.
            prop_assert!(e.parent.is_some() ^ e.root.is_some());
            // Parent chain terminates at a root.
            let path = snap.path_to_root(e.obj).expect("path exists");
            prop_assert!(path.last().unwrap().root.is_some());
            prop_assert!(path.len() <= snap.entries().len());
        }
        // Expected population: chains*(depth+1) nodes + heads array + blob.
        let nodes = snap
            .entries()
            .iter()
            .filter(|e| matches!(snap.heap().get(e.obj).kind, HObjectKind::Instance { .. }))
            .count();
        prop_assert_eq!(nodes, chains * (depth + 1));
    }

    /// PEA folding only removes objects; survivors keep relative order and
    /// never reference a folded parent.
    #[test]
    fn folding_is_a_subsequence(
        chains in 1usize..5,
        depth in 4usize..24,
        pea_seed in 0u64..8,
    ) {
        let p = registry_program(chains, depth, 16);
        let base = build_snapshot(&p, &HeapBuildConfig::default());
        let folded_cfg = HeapBuildConfig {
            pea_fold: true,
            pea_seed,
            pea_fold_ratio: 6,
            ..HeapBuildConfig::default()
        };
        let folded = build_snapshot(&p, &folded_cfg);
        prop_assert!(folded.entries().len() <= base.entries().len());
        // Survivor order is a subsequence of the base order.
        let base_order: Vec<_> = base.entries().iter().map(|e| e.obj).collect();
        let mut cursor = 0usize;
        for e in folded.entries() {
            while cursor < base_order.len() && base_order[cursor] != e.obj {
                cursor += 1;
            }
            prop_assert!(cursor < base_order.len(), "survivor kept base order");
        }
        for e in folded.entries() {
            if let Some((parent, _)) = e.parent {
                prop_assert!(!folded.folded().contains(&parent));
            }
        }
    }

    /// Initializer shuffles never change the *set* of snapshot contents,
    /// only the order/slots (same object population sizes).
    #[test]
    fn shuffle_preserves_population(
        seed_a in 0u64..16,
        seed_b in 0u64..16,
    ) {
        let p = registry_program(4, 6, 32);
        let a = build_snapshot(&p, &HeapBuildConfig { clinit_seed: seed_a, ..HeapBuildConfig::default() });
        let b = build_snapshot(&p, &HeapBuildConfig { clinit_seed: seed_b, ..HeapBuildConfig::default() });
        prop_assert_eq!(a.entries().len(), b.entries().len());
        prop_assert_eq!(a.total_bytes(), b.total_bytes());
    }
}
