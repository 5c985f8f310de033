//! Ablation — Algorithm 1's design choice of *per-type* incremental
//! counters vs a single global counter.
//!
//! The paper packs the type id into the upper 32 bits so that "the
//! inaccuracies introduced by an object affect only the ordering of the
//! objects of the same type". This bench demonstrates exactly that: a heap
//! where PEA folding removes objects of one type (`Scratch`) that are
//! interleaved before the objects the program actually accesses
//! (`Config`). Per-type counters keep every `Config` identity stable;
//! a global counter shifts them all.

use nimage_compiler::{ProgramIndex, DEFAULT_MAX_PATHS};
use std::collections::HashMap;

use nimage_heap::{HeapBuildConfig, HeapSnapshot, ObjId};
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_order::{assign_global_incremental_ids, assign_ids, HeapStrategy};

/// Interleaved Scratch/Config registry. With `extra_scratch`, one more
/// Scratch object is allocated before everything else — the "inaccuracy
/// introduced by an object" whose blast radius the per-type counters are
/// designed to contain (Sec. 5.1).
fn program(extra_scratch: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let scratch = pb.add_class("abl.Scratch", None);
    let f_pad = pb.add_instance_field(scratch, "pad", TypeRef::Int);
    let config = pb.add_class("abl.Config", None);
    let f_key = pb.add_instance_field(config, "key", TypeRef::Int);
    // Configs hold a child object, so they are interior (non-leaf) nodes —
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
    let extra = f.get_static(f_extra);
    let _ = extra;
    let cfgs = f.get_static(f_configs);
    let scr = f.get_static(f_scratch);
    let _ = scr;
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
    pb.build().unwrap()
}

fn snapshot_of(p: &Program) -> HeapSnapshot {
    let reach = nimage_analysis::analyze(p, &nimage_analysis::AnalysisConfig::default());
    let cp = nimage_compiler::compile(
        &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
        reach,
        &nimage_compiler::InlineConfig::default(),
        nimage_compiler::InstrumentConfig::NONE,
        None,
    );
    nimage_heap::snapshot(
        &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap()
}

/// Fraction of Config objects whose identity is unchanged between the
/// unfolded ("instrumented") and folded ("optimized") snapshots.
fn stable_fraction(
    p: &Program,
    a: &HeapSnapshot,
    b: &HeapSnapshot,
    ids: impl Fn(&HeapSnapshot) -> HashMap<ObjId, u64>,
) -> f64 {
    let ids_a = ids(a);
    let ids_b = ids(b);
    let key_of = |snap: &HeapSnapshot, o: ObjId| -> Option<i64> {
        match &snap.heap().get(o).kind {
            nimage_heap::HObjectKind::Instance { class, fields }
                if p.class(*class).name == "abl.Config" =>
            {
                match fields[0] {
                    nimage_ir::Value::Int(v) => Some(v),
                    _ => None,
                }
            }
            _ => None,
        }
    };
    let mut id_by_key_a = HashMap::new();
    for e in a.entries() {
        if let Some(k) = key_of(a, e.obj) {
            id_by_key_a.insert(k, ids_a[&e.obj]);
        }
    }
    let mut total = 0;
    let mut stable = 0;
    for e in b.entries() {
        if let Some(k) = key_of(b, e.obj) {
            total += 1;
            if id_by_key_a.get(&k) == Some(&ids_b[&e.obj]) {
                stable += 1;
            }
        }
    }
    stable as f64 / total.max(1) as f64
}

fn main() {
    // "Instrumented" build vs "optimized" build whose heap gained one extra
    // early Scratch object (e.g. kept alive by different inlining/PEA).
    let pa = program(false);
    let pb_ = program(true);
    let a = snapshot_of(&pa);
    let b = snapshot_of(&pb_);
    println!("\n=== Ablation: per-type vs global incremental counters ===");
    println!(
        "snapshots: {} vs {} entries (one divergent early object);",
        a.entries().len(),
        b.entries().len()
    );
    println!("fraction of accessed Config identities that survive the divergence:");
    let per_type = stable_fraction(&pa, &a, &b, |s| {
        assign_ids(&pa, s, HeapStrategy::IncrementalId)
    });
    let global = stable_fraction(&pa, &a, &b, |s| assign_global_incremental_ids(&pa, s));
    println!("  per-type counters : {:>6.1}%", per_type * 100.0);
    println!("  global counter    : {:>6.1}%", global * 100.0);
    assert!(
        per_type > global,
        "type segregation must contain the damage"
    );
}
