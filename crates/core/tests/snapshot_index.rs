//! `HeapSnapshot`'s dense object index against an oracle: for every
//! object id of the heap, `entry` and `index_of` must answer what a linear
//! scan of `entries()` answers — on the bundled microservices and one AWFY
//! program, under both builds' heap configurations (the optimized one
//! folds objects by PEA), and again after a `DiskCodec` round trip.

use std::collections::HashMap;

use nimage_compiler::InstrumentConfig;
use nimage_core::diskcache::Reader;
use nimage_core::{BuildOptions, DiskCodec, Pipeline};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_ir::Program;
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Checks `snap`'s index against one linear scan of its entries.
fn assert_index_matches_scan(what: &str, snap: &HeapSnapshot) {
    let mut scan: HashMap<ObjId, usize> = HashMap::new();
    for (i, e) in snap.entries().iter().enumerate() {
        assert!(
            scan.insert(e.obj, i).is_none(),
            "{what}: {:?} listed twice",
            e.obj
        );
    }
    let n = snap.heap().len() as u32;
    for o in (0..n).map(ObjId) {
        let want = scan.get(&o).copied();
        assert_eq!(snap.index_of(o), want, "{what}: index_of({o:?})");
        assert_eq!(
            snap.entry(o).map(|e| e.obj),
            want.map(|_| o),
            "{what}: entry({o:?})"
        );
    }
    for o in [ObjId(n), ObjId(n + 1), ObjId(u32::MAX)] {
        assert_eq!(snap.index_of(o), None, "{what}: out-of-range {o:?}");
        assert!(snap.entry(o).is_none(), "{what}: out-of-range {o:?}");
    }
    for &o in snap.folded() {
        assert!(snap.entry(o).is_none(), "{what}: folded {o:?} indexed");
    }
}

/// Both snapshots of `program` (instrumented and optimized heap
/// configurations, over one optimized compile), checked fresh and after
/// a disk round trip. Returns how many objects PEA folded.
fn check_program(name: &str, program: &Program) -> usize {
    let opts = BuildOptions::default();
    let configs = [
        ("instrumented", opts.heap_instrumented.clone()),
        ("optimized", opts.heap_optimized.clone()),
    ];
    let p = Pipeline::new(program, opts);
    let compiled = p.compile_stage(p.analyze_stage(), InstrumentConfig::NONE, None);
    let mut folded = 0;
    for (variant, cfg) in &configs {
        let snap = p.snapshot_stage(&compiled, cfg).expect("snapshot");
        let what = format!("{name} {variant}");
        assert_index_matches_scan(&what, &snap);
        folded += snap.folded().len();

        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let decoded = HeapSnapshot::decode(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(decoded.entries(), snap.entries());
        assert_index_matches_scan(&format!("{what} decoded"), &decoded);
    }
    folded
}

#[test]
fn dense_index_agrees_with_a_scan_of_the_entries() {
    let mut folded = 0;
    for m in Microservice::all() {
        folded += check_program(&format!("{m:?}"), &m.program());
    }
    folded += check_program("Havlak", &Awfy::Havlak.program_at(&RuntimeScale::default()));
    assert!(folded > 0, "no snapshot folded an object: PEA never ran");
}
