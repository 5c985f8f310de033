//! The structural program fingerprint (`CacheKey::of_hash("program", ..)`)
//! is what every workload's cache keys hang off: it must see every part of
//! a program, agree between two builds of the same program, and never move
//! by accident — a moved key silently orphans every disk cache.

use nimage_core::CacheKey;
use nimage_ir::{Program, ProgramBuilder, TypeRef};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn key(p: &Program) -> CacheKey {
    CacheKey::of_hash("program", p)
}

/// The knobs of [`tiny`]: each one reaches a different part of `Program`.
/// Bundled programs only expose `entry` and `resources` for mutation, so
/// everything else is varied at construction.
struct Shape {
    class_name: &'static str,
    field_ty: TypeRef,
    init_group: u32,
    spare_local: bool,
    int_lit: i64,
    double_lit: f64,
    swap_blocks: bool,
    jump_to_second: bool,
    entry_is_helper: bool,
    resource_size: u32,
    selectors_reversed: bool,
}

impl Shape {
    fn base() -> Shape {
        Shape {
            class_name: "t.Main",
            field_ty: TypeRef::Int,
            init_group: 7,
            spare_local: false,
            int_lit: 40,
            double_lit: 1.5,
            swap_blocks: false,
            jump_to_second: false,
            entry_is_helper: false,
            resource_size: 64,
            selectors_reversed: false,
        }
    }
}

/// One class, one field, two static methods; `main` has three blocks
/// (entry jumping to one of two returning blocks).
fn tiny(s: &Shape) -> Program {
    let mut pb = ProgramBuilder::new();
    let (first, second) = if s.selectors_reversed {
        ("pong", "ping")
    } else {
        ("ping", "pong")
    };
    pb.intern_selector(first, 0);
    pb.intern_selector(second, 0);
    let cls = pb.add_class(s.class_name, None);
    pb.set_init_group(cls, s.init_group);
    pb.add_instance_field(cls, "x", s.field_ty.clone());
    let main = pb.declare_static(cls, "main", &[], Some(TypeRef::Int));
    let helper = pb.declare_static(cls, "helper", &[], None);

    let mut f = pb.body(main);
    let (b1, b2) = (f.new_block(), f.new_block());
    f.dconst(s.double_lit);
    if s.spare_local {
        f.local();
    }
    f.jump(if s.jump_to_second { b2 } else { b1 });
    let (int_blk, zero_blk) = if s.swap_blocks { (b2, b1) } else { (b1, b2) };
    f.switch_to(int_blk);
    let v = f.iconst(s.int_lit);
    f.ret(Some(v));
    f.switch_to(zero_blk);
    let z = f.iconst(0);
    f.ret(Some(z));
    pb.finish_body(main, f);

    let mut f = pb.body(helper);
    f.ret(None);
    pb.finish_body(helper, f);

    pb.set_entry(if s.entry_is_helper { helper } else { main });
    pb.add_resource("META-INF/t", s.resource_size);
    pb.build().expect("valid program")
}

/// Pinned since disk format v7, which replaced the MurmurHash3 stream
/// with the fingerprint's own word hasher. If this fails, the sequence of
/// writes `Program`'s `Hash` makes (or the hasher, seed or tag framing)
/// changed, and every `nimage` disk cache in the wild now misses on every
/// key: when the change is intended, bump `DISK_FORMAT_VERSION` so the
/// dead entries can be told apart and collected, then update the
/// constant.
#[test]
fn golden_key_of_a_tiny_program_is_pinned() {
    assert_eq!(
        key(&tiny(&Shape::base())),
        CacheKey(0x8ddc_583e_f36e_17b9, 0x48fa_c805_b316_bb2c)
    );
}

#[test]
fn every_single_mutation_moves_the_key() {
    fn with(edit: impl FnOnce(&mut Shape)) -> Shape {
        let mut s = Shape::base();
        edit(&mut s);
        s
    }
    let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
    let mutants: Vec<(&str, Shape)> = vec![
        ("class rename", with(|s| s.class_name = "t.Mair")),
        ("field type", with(|s| s.field_ty = TypeRef::Double)),
        ("init_group", with(|s| s.init_group = 8)),
        ("method n_locals", with(|s| s.spare_local = true)),
        ("one ConstInt", with(|s| s.int_lit = 41)),
        (
            "ConstDouble by 1 ulp",
            with(|s| s.double_lit = f64::from_bits(1.5f64.to_bits() + 1)),
        ),
        ("0.0", with(|s| s.double_lit = 0.0)),
        ("-0.0", with(|s| s.double_lit = -0.0)),
        ("NaN payload 1", with(|s| s.double_lit = nan(1))),
        ("NaN payload 2", with(|s| s.double_lit = nan(2))),
        ("two blocks swapped", with(|s| s.swap_blocks = true)),
        ("a Terminator target", with(|s| s.jump_to_second = true)),
        ("entry", with(|s| s.entry_is_helper = true)),
        ("a Resource.size", with(|s| s.resource_size = 65)),
        ("selector order", with(|s| s.selectors_reversed = true)),
    ];
    let mut seen = vec![("base", key(&tiny(&Shape::base())))];
    for (what, shape) in &mutants {
        let k = key(&tiny(shape));
        assert_eq!(k, key(&tiny(shape)), "{what}: rebuilding moved the key");
        for (other, ok) in &seen {
            assert_ne!(k, *ok, "{what} fingerprints like {other}");
        }
        seen.push((what, k));
    }
}

#[test]
fn bundled_program_keys_are_stable_and_see_the_public_fields() {
    let p = Microservice::Micronaut.program();
    let base = key(&p);
    assert_eq!(base, key(&Microservice::Micronaut.program()));
    assert_eq!(base, key(&p.clone()));
    assert_ne!(base, key(&Microservice::Quarkus.program()));
    assert_ne!(base, CacheKey::of_hash("other-tag", &p));

    let mut no_entry = p.clone();
    no_entry.entry = None;
    assert_ne!(base, key(&no_entry));

    let mut resized = p.clone();
    resized
        .resources
        .first_mut()
        .expect("bundled resources")
        .size += 1;
    assert_ne!(base, key(&resized));
}

/// Every bundled program — the three microservices and the fourteen AWFY
/// programs, each at the default and the small runtime scale — has a key
/// of its own.
#[test]
fn bundled_programs_have_pairwise_distinct_keys() {
    let mut keyed: Vec<(String, CacheKey)> = vec![];
    for (at, scale) in [
        ("default", RuntimeScale::default()),
        ("small", RuntimeScale::small()),
    ] {
        for m in Microservice::all() {
            keyed.push((format!("{m:?} {at}"), key(&m.program_at(&scale))));
        }
        for a in Awfy::all() {
            keyed.push((format!("{} {at}", a.name()), key(&a.program_at(&scale))));
        }
    }
    assert_eq!(keyed.len(), 34);
    for (i, (a, ka)) in keyed.iter().enumerate() {
        for (b, kb) in &keyed[i + 1..] {
            assert_ne!(ka, kb, "{a} fingerprints like {b}");
        }
    }
}
