//! The two ablations that are not matrix cells: the structural hash's
//! `MAX_DEPTH` sweep and Algorithm 1's per-type counters against one
//! global counter. Both read their builds from the engine and return table
//! rows of deterministic values.

use std::collections::{HashMap, HashSet};

use nimage_core::{BuildOptions, Engine, Workload, WorkloadSpec};
use nimage_heap::{HObjectKind, HeapSnapshot, ObjId};
use nimage_ir::{Program, ProgramBuilder, TypeRef, Value};
use nimage_order::{
    assign_global_incremental_ids, assign_ids, match_rate, HeapOrderProfile, HeapStrategy,
};
use nimage_vm::StopWhen;

/// `abl_structural_depth` — the structural hash's `MAX_DEPTH` trade-off
/// (Sec. 5.2) on `program`, through its matrix row's handle `w`, a row per
/// depth 0–4: the instrumented snapshot's distinct ids, and the share (%)
/// of a profile naming every instrumented object, in snapshot order, that
/// the optimized snapshot's ids resolve.
pub(crate) fn structural_depth_rows(
    w: &Workload<'_, '_, '_>,
    program: &Program,
) -> Vec<(String, Vec<f64>)> {
    let artifacts = w.profile().expect("profiling run");
    let instrumented = w.instrumented_parts().expect("instrumented build");
    let optimized = w
        .optimized_image(&artifacts, None)
        .expect("optimized build");
    (0..=4)
        .map(|depth| {
            let strategy = HeapStrategy::StructuralHash { max_depth: depth };
            let ids = assign_ids(program, &instrumented.snapshot, strategy);
            let distinct: HashSet<u64> = ids.values().copied().collect();
            let profile = HeapOrderProfile {
                ids: (instrumented.snapshot.entries().iter())
                    .map(|e| ids[&e.obj])
                    .collect(),
                spans: vec![],
            };
            let optimized_ids = assign_ids(program, &optimized.snapshot, strategy);
            let matched = 100.0 * match_rate(&optimized_ids, &profile);
            (depth.to_string(), vec![distinct.len() as f64, matched])
        })
        .collect()
}

/// `abl_incremental_global` — Algorithm 1's design choice of *per-type*
/// incremental counters against a single global counter.
///
/// The paper packs the type id into the upper 32 bits so that "the
/// inaccuracies introduced by an object affect only the ordering of the
/// objects of the same type". The second program's heap gains one early
/// `Scratch` object before the `Config` objects the program reads.
/// Per-type counters keep every `Config` identity; a global counter shifts
/// them all. A row per counter scheme: both snapshots' entry counts, and
/// the share (%) of `Config` identities that survive.
pub(crate) fn counter_rows(engine: &Engine) -> Vec<(String, Vec<f64>)> {
    let programs = [registry(false), registry(true)];
    let snapshots = programs.each_ref().map(|p| {
        let spec = WorkloadSpec::new("registry", p, BuildOptions::default(), StopWhen::Exit);
        let built = engine.workload(&spec).instrumented_parts();
        built.expect("registry build").snapshot
    });
    let [a, b] = &snapshots;
    let p = &programs[0];
    let entries = [a, b].map(|s| s.entries().len() as f64);
    let per_type = |s: &HeapSnapshot| assign_ids(p, s, HeapStrategy::IncrementalId);
    let global = |s: &HeapSnapshot| assign_global_incremental_ids(p, s);
    [
        ("per-type", stable_share(p, a, b, per_type)),
        ("global", stable_share(p, a, b, global)),
    ]
    .map(|(name, stable)| (name.to_string(), vec![entries[0], entries[1], stable]))
    .into()
}

/// Interleaved `Scratch`/`Config` registry. With `extra_scratch`, one more
/// `Scratch` object is allocated before everything else: the "inaccuracy
/// introduced by an object" whose blast radius the per-type counters are
/// designed to contain (Sec. 5.1).
fn registry(extra_scratch: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let scratch = pb.add_class("abl.Scratch", None);
    let f_pad = pb.add_instance_field(scratch, "pad", TypeRef::Int);
    let config = pb.add_class("abl.Config", None);
    let f_key = pb.add_instance_field(config, "key", TypeRef::Int);
    // Configs hold a child object, so they are interior (non-leaf) nodes:
    // scalar replacement does not fold them, only the Scratch leaves.
    let detail = pb.add_class("abl.Detail", None);
    let f_detail_v = pb.add_instance_field(detail, "v", TypeRef::Int);
    let f_child = pb.add_instance_field(config, "child", TypeRef::Object(detail));

    let holder = pb.add_class("abl.Holder", None);
    let f_scratch = pb.add_static_field(
        holder,
        "SCRATCH",
        TypeRef::array_of(TypeRef::Object(scratch)),
    );
    let f_configs = pb.add_static_field(
        holder,
        "CONFIGS",
        TypeRef::array_of(TypeRef::Object(config)),
    );
    let f_extra = pb.add_static_field(holder, "EXTRA", TypeRef::Object(scratch));
    let cl = pb.declare_clinit(holder);
    let mut f = pb.body(cl);
    if extra_scratch {
        let e = f.new_object(scratch);
        let tag = f.iconst(-1);
        f.put_field(e, f_pad, tag);
        f.put_static(f_extra, e);
    }
    let n = f.iconst(400);
    let scr = f.new_array(TypeRef::Object(scratch), n);
    let cfgs = f.new_array(TypeRef::Object(config), n);
    let from = f.iconst(0);
    f.for_range(from, n, |f, i| {
        let s = f.new_object(scratch);
        f.put_field(s, f_pad, i);
        f.array_set(scr, i, s);
        let c = f.new_object(config);
        f.put_field(c, f_key, i);
        let d = f.new_object(detail);
        f.put_field(d, f_detail_v, i);
        f.put_field(c, f_child, d);
        f.array_set(cfgs, i, c);
    });
    f.put_static(f_scratch, scr);
    f.put_static(f_configs, cfgs);
    f.ret(None);
    pb.finish_body(cl, f);

    let mainc = pb.add_class("abl.Main", None);
    let main = pb.declare_static(mainc, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let _ = f.get_static(f_extra);
    let cfgs = f.get_static(f_configs);
    let _ = f.get_static(f_scratch);
    let acc = f.iconst(0);
    let from = f.iconst(0);
    let n = f.array_len(cfgs);
    f.for_range(from, n, |f, i| {
        let c = f.array_get(cfgs, i);
        let v = f.get_field(c, f_key);
        let s = f.add(acc, v);
        f.assign(acc, s);
    });
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().expect("a well-formed registry program")
}

/// The share (%) of `b`'s `Config` objects whose `ids` identity equals
/// that of the `Config` with the same key in `a`.
fn stable_share(
    p: &Program,
    a: &HeapSnapshot,
    b: &HeapSnapshot,
    ids: impl Fn(&HeapSnapshot) -> HashMap<ObjId, u64>,
) -> f64 {
    let keyed = |snap: &HeapSnapshot| -> HashMap<i64, u64> {
        let ids = ids(snap);
        let key_of = |o: ObjId| match &snap.heap().get(o).kind {
            HObjectKind::Instance { class, fields } if p.class(*class).name == "abl.Config" => {
                match fields[0] {
                    Value::Int(v) => Some(v),
                    _ => None,
                }
            }
            _ => None,
        };
        (snap.entries().iter())
            .filter_map(|e| Some((key_of(e.obj)?, ids[&e.obj])))
            .collect()
    };
    let (ids_a, ids_b) = (keyed(a), keyed(b));
    let stable = ids_b.iter().filter(|(k, id)| ids_a.get(k) == Some(id));
    100.0 * stable.count() as f64 / ids_b.len().max(1) as f64
}
