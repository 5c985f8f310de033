//! Property tests of the ordering/matching laws of `nimage-order`.

use std::collections::HashMap;

use proptest::prelude::*;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS};
use nimage_heap::{snapshot, HeapBuildConfig, HeapSnapshot, ObjId};
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_order::{assign_ids, order_objects, CodeOrderProfile, HeapOrderProfile, HeapStrategy};

/// A registry-of-cells snapshot of parameterizable size.
fn cells_snapshot(n: i64) -> (Program, HeapSnapshot) {
    let mut pb = ProgramBuilder::new();
    let cell = pb.add_class("prop.Cell", None);
    let val = pb.add_instance_field(cell, "v", TypeRef::Int);
    let holder = pb.add_class("prop.Holder", None);
    let field = pb.add_static_field(holder, "CELLS", TypeRef::array_of(TypeRef::Object(cell)));
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
    let mainc = pb.add_class("prop.Main", None);
    let main = pb.declare_static(mainc, "main", &[], Some(TypeRef::Int));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Matched objects always precede unmatched ones, and matched objects
    /// appear in non-decreasing profile-rank order.
    #[test]
    fn matched_prefix_in_rank_order(
        n in 4i64..32,
        picks in proptest::collection::vec(0usize..64, 1..16),
    ) {
        let (p, snap) = cells_snapshot(n);
        let ids = assign_ids(&p, &snap, HeapStrategy::HeapPath);
        // Build a profile from a random subset of real ids (dedup keeps
        // first occurrence, like the analyses do).
        let all: Vec<u64> = snap.entries().iter().map(|e| ids[&e.obj]).collect();
        let profile_ids: Vec<u64> = picks.iter().map(|&i| all[i % all.len()]).collect();
        let profile = HeapOrderProfile { ids: profile_ids.clone(), spans: vec![] };

        let rank: HashMap<u64, usize> = {
            let mut m = HashMap::new();
            for (i, &id) in profile_ids.iter().enumerate() {
                m.entry(id).or_insert(i);
            }
            m
        };
        let order = order_objects(&snap, &ids, &profile);
        let ranks: Vec<Option<usize>> = order
            .iter()
            .map(|o| ids.get(o).and_then(|id| rank.get(id)).copied())
            .collect();
        // No Some after the first None.
        let first_none = ranks.iter().position(Option::is_none).unwrap_or(ranks.len());
        prop_assert!(ranks[first_none..].iter().all(Option::is_none));
        // Matched prefix is sorted by rank.
        let matched: Vec<usize> = ranks[..first_none].iter().map(|r| r.unwrap()).collect();
        prop_assert!(matched.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Identity assignment is a function of the snapshot alone: same
    /// snapshot, same ids; and every strategy covers every entry.
    #[test]
    fn ids_are_total_and_deterministic(n in 4i64..24) {
        let (p, snap) = cells_snapshot(n);
        for strat in HeapStrategy::all() {
            let a = assign_ids(&p, &snap, strat);
            let b = assign_ids(&p, &snap, strat);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.len(), snap.entries().len());
        }
    }

    /// Structural hashes of content-distinct cells never collide in these
    /// small populations (the hash is 64-bit and the contents differ in
    /// `v`).
    #[test]
    fn structural_ids_distinguish_distinct_content(n in 2i64..48) {
        let (p, snap) = cells_snapshot(n);
        let ids = assign_ids(&p, &snap, HeapStrategy::structural_default());
        let mut seen: HashMap<u64, ObjId> = HashMap::new();
        for e in snap.entries() {
            if let nimage_heap::HObjectKind::Instance { class, .. } =
                &snap.heap().get(e.obj).kind
            {
                if p.class(*class).name == "prop.Cell" {
                    let id = ids[&e.obj];
                    prop_assert!(
                        seen.insert(id, e.obj).is_none(),
                        "collision between cells at id {id:#x}"
                    );
                }
            }
        }
    }

    /// The CSV interchange format loses nothing: signatures (any
    /// characters but line breaks, inner spaces and commas included), ids
    /// and touched-byte spans all survive `to_csv` → `from_csv`.
    #[test]
    fn profiles_roundtrip_through_csv(
        sigs in proptest::collection::vec(proptest::collection::vec(0usize..9, 0..12), 0..16),
        entries in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4)),
            0..24,
        ),
    ) {
        const ALPHABET: [char; 9] = ['a', 'Z', '.', '$', '<', '>', ',', ' ', ':'];
        let code = CodeOrderProfile {
            sigs: sigs
                .iter()
                .map(|cs| {
                    let name: String = cs.iter().map(|&c| ALPHABET[c]).collect();
                    format!("p.C.{name}({})", cs.len())
                })
                .collect(),
        };
        prop_assert_eq!(&CodeOrderProfile::from_csv(&code.to_csv()), &code);

        let (ids, spans) = entries.into_iter().unzip();
        let heap = HeapOrderProfile { ids, spans };
        prop_assert_eq!(&HeapOrderProfile::from_csv(&heap.to_csv()), &heap);
    }
}
