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

/// The key of every bundled program as the workloads build it (`program()`,
/// the scale `nimage eval` runs). Pinned so that a change to how the IR is
/// stored — `Instr`'s layout, boxed payloads, exact-size blocks — can be
/// shown to leave the `Hash` stream, and so every disk cache, where it was.
/// If this fails, see [`golden_key_of_a_tiny_program_is_pinned`].
#[test]
fn golden_keys_of_the_bundled_programs_are_pinned() {
    const GOLDEN: [(&str, CacheKey); 17] = [
        (
            "micronaut",
            CacheKey(0xf54b_abb1_fb04_995d, 0xda24_e123_bd2c_107a),
        ),
        (
            "quarkus",
            CacheKey(0x62d5_9604_4451_5411, 0xac10_491c_8efe_bd94),
        ),
        (
            "spring",
            CacheKey(0xaf58_bba0_e15c_2878, 0xa857_49d3_966a_1c63),
        ),
        (
            "Bounce",
            CacheKey(0xf6e6_59cb_1cd7_95ad, 0xedba_3682_a02c_2b15),
        ),
        ("CD", CacheKey(0x40ae_56cc_d00e_d01f, 0xfaa6_b8dd_09c9_3653)),
        (
            "DeltaBlue",
            CacheKey(0x5661_6c3e_f9d9_3750, 0x59dc_d972_f308_6c8c),
        ),
        (
            "Havlak",
            CacheKey(0x754b_bb94_72f8_c88d, 0xfba2_3377_89f3_18f8),
        ),
        (
            "Json",
            CacheKey(0x264b_c373_0d0e_3243, 0xc2fa_7c38_10fb_6a1c),
        ),
        (
            "List",
            CacheKey(0x8b7c_5296_b4b2_c7e5, 0x0188_7d46_4512_8478),
        ),
        (
            "Mandelbrot",
            CacheKey(0xc232_a204_fe6d_2cc3, 0x1ed6_d4ac_014d_e9d1),
        ),
        (
            "NBody",
            CacheKey(0x9e72_b1d0_9649_6236, 0xae79_bf9f_4c43_4af6),
        ),
        (
            "Permute",
            CacheKey(0x2718_1621_1f00_c603, 0xf685_1902_71e3_e7da),
        ),
        (
            "Queens",
            CacheKey(0xe969_de48_ead5_4aac, 0x9d38_137c_754b_cf11),
        ),
        (
            "Richards",
            CacheKey(0xa5d9_79da_d429_2dad, 0xffbe_5cbb_f1a8_7051),
        ),
        (
            "Sieve",
            CacheKey(0x0159_7944_8601_410e, 0x91b5_95a0_370e_3551),
        ),
        (
            "Storage",
            CacheKey(0x3476_85b0_a362_25a6, 0x08a6_c9bb_f2db_fa90),
        ),
        (
            "Towers",
            CacheKey(0x33db_4279_d372_054b, 0xff08_3684_3ee5_f346),
        ),
    ];
    let micro = Microservice::all().map(|m| (m.name(), m.program()));
    let awfy = Awfy::all().map(|a| (a.name(), a.program()));
    let actual: Vec<(&str, CacheKey)> = micro
        .iter()
        .chain(&awfy)
        .map(|(name, p)| (*name, key(p)))
        .collect();
    assert_eq!(actual, GOLDEN);
}
