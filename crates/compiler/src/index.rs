//! The per-program facts every stage joins on, built once per program.
//!
//! Compilation, build-time execution, lowering, the VM, trace replay and
//! ordering all look up the same derived facts of one [`Program`]: method
//! and field signatures (the build-stable join keys of the profiles),
//! instance-field layouts, base code sizes and heap-access sites, where
//! each method's calls and data instructions are, and the Ball–Larus
//! tables of each method. A [`ProgramIndex`] holds each of them,
//! filled on first use, so a workload derives every fact once however many
//! stages and builds read it.
//!
//! The index is lazy and lives beside the program, never inside it: the
//! program's derived `Hash` is the cache fingerprint, and a warm run whose
//! stages are all cache hits reads none of these facts and so builds none.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nimage_ir::{ClassId, FieldId, Instr, MethodId, Program};

use crate::instrument::heap_access_sites;
use crate::path::{PathNumbering, ProfilingCfg};

/// Interned signature id: methods (or fields) whose signatures are equal
/// share one.
pub type SigId = u32;

/// The empty slot of the signature table, and "none" in the other
/// dense tables.
const NONE: u32 = u32::MAX;

/// The lazily built fact tables of one program. See the module docs.
pub struct ProgramIndex<'p> {
    program: &'p Program,
    max_paths: u64,
    on_build: Option<Box<dyn Fn() + Send + Sync>>,
    built: OnceLock<()>,
    sigs: OnceLock<Signatures>,
    layouts: OnceLock<Layouts>,
    /// Per method, `code_size | heap_access_sites << 32`, or `UNSIZED`
    /// until first asked for: a compile reads only reachable methods.
    sizes: OnceLock<Box<[AtomicU64]>>,
    sites: OnceLock<Sites>,
    paths: OnceLock<Box<[OnceLock<Box<MethodPaths>>]>>,
}

/// One method's profiling CFG and its Ball–Larus numbering.
pub type MethodPaths = (ProfilingCfg, PathNumbering);

// Constant: which tables happen to be built is scheduling state, like the
// lowering container's shards.
impl fmt::Debug for ProgramIndex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgramIndex(..)")
    }
}

/// Every method and field signature in one string; equal method
/// signatures are interned once.
struct Signatures {
    arena: String,
    /// End offset in `arena` of each interned signature; it starts where
    /// the previous one ends.
    ends: Vec<u32>,
    of_method: Vec<SigId>,
    of_field: Vec<SigId>,
    /// The highest method id with each signature (`NONE` for a field-only
    /// signature).
    last_method: Vec<u32>,
    /// Open-addressing table of method signatures: `SigId`s, `NONE` empty.
    table: Vec<u32>,
}

/// Every class's instance-field layout, superclass fields first.
struct Layouts {
    /// Class `c`'s layout is `fields[start[c]..start[c + 1]]`.
    fields: Vec<FieldId>,
    start: Vec<u32>,
    /// Each instance field's slot, the same in every layout holding it
    /// (`NONE` for static fields).
    slot: Vec<u32>,
}

/// The `(block, instruction)` positions of the instructions the build
/// stages look for, per method in body order: method `m`'s are
/// `at[start[m]..start[m + 1]]`.
#[derive(Default)]
struct SiteList {
    start: Vec<u32>,
    at: Vec<(u32, u32)>,
}

impl SiteList {
    fn of(&self, m: MethodId) -> &[(u32, u32)] {
        &self.at[self.start[m.index()] as usize..self.start[m.index() + 1] as usize]
    }
}

/// Both site lists, filled by one pass over every method body.
struct Sites {
    /// Calls and spawns.
    calls: SiteList,
    /// Static-field accesses and string and double constants.
    data: SiteList,
}

/// A method size not computed yet.
const UNSIZED: u64 = u64::MAX;

impl<'p> ProgramIndex<'p> {
    /// An empty index of `program`; path tables number paths under
    /// `max_paths` (the VM's configured limit).
    pub fn new(program: &'p Program, max_paths: u64) -> ProgramIndex<'p> {
        ProgramIndex {
            program,
            max_paths,
            on_build: None,
            built: OnceLock::new(),
            sigs: OnceLock::new(),
            layouts: OnceLock::new(),
            sizes: OnceLock::new(),
            sites: OnceLock::new(),
            paths: OnceLock::new(),
        }
    }

    /// Calls `f` once, when the index builds its first table.
    #[must_use]
    pub fn on_first_build(mut self, f: impl Fn() + Send + Sync + 'static) -> ProgramIndex<'p> {
        self.on_build = Some(Box::new(f));
        self
    }

    fn build<'a, T>(&'a self, cell: &'a OnceLock<T>, f: impl FnOnce() -> T) -> &'a T {
        cell.get_or_init(|| {
            self.built.get_or_init(|| {
                if let Some(hook) = &self.on_build {
                    hook();
                }
            });
            f()
        })
    }

    /// The indexed program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The Ball–Larus path limit of [`ProgramIndex::paths`].
    pub fn max_paths(&self) -> u64 {
        self.max_paths
    }

    fn sigs(&self) -> &Signatures {
        self.build(&self.sigs, || Signatures::of(self.program))
    }

    /// [`Program::method_signature`] of `m`, without allocating.
    pub fn sig(&self, m: MethodId) -> &str {
        self.sigs().interned(self.sig_id(m))
    }

    /// [`Program::field_signature`] of `f`, without allocating.
    pub fn field_sig(&self, f: FieldId) -> &str {
        self.sigs().interned(self.sigs().of_field[f.index()])
    }

    /// The interned id of `m`'s signature, shared by every method with an
    /// equal signature. Method signature ids are dense below
    /// [`ProgramIndex::n_sigs`].
    pub fn sig_id(&self, m: MethodId) -> SigId {
        self.sigs().of_method[m.index()]
    }

    /// Number of interned signatures (methods and fields).
    pub fn n_sigs(&self) -> usize {
        self.sigs().ends.len()
    }

    /// The id of a method signature, if some method has it.
    pub fn sig_id_of(&self, sig: &str) -> Option<SigId> {
        let s = self.sigs();
        let mask = s.table.len() - 1;
        let mut at = str_hash(sig) as usize & mask;
        loop {
            match s.table[at] {
                NONE => return None,
                id if s.interned(id) == sig => return Some(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The method with signature `sig`; of several, the highest id.
    pub fn method_of(&self, sig: &str) -> Option<MethodId> {
        self.sig_id_of(sig)
            .map(|id| MethodId(self.sigs().last_method[id as usize]))
    }

    fn layouts(&self) -> &Layouts {
        self.build(&self.layouts, || Layouts::of(self.program))
    }

    /// [`Program::all_instance_fields`] of `class`, without allocating.
    pub fn layout(&self, class: ClassId) -> &[FieldId] {
        let l = self.layouts();
        &l.fields[l.start[class.index()] as usize..l.start[class.index() + 1] as usize]
    }

    /// The slot of `field` in instances of `class`, if the field is part of
    /// the class's layout.
    pub fn field_slot(&self, class: ClassId, field: FieldId) -> Option<usize> {
        let slot = self.layouts().slot[field.index()] as usize;
        (self.layout(class).get(slot) == Some(&field)).then_some(slot)
    }

    /// `(code size, heap-access sites)` of `m`. Racing first readers both
    /// compute the same value, so a relaxed store suffices.
    fn size(&self, m: MethodId) -> (u32, u32) {
        let slots = self.build(&self.sizes, || {
            (0..self.program.methods().len())
                .map(|_| AtomicU64::new(UNSIZED))
                .collect()
        });
        let slot = &slots[m.index()];
        let mut packed = slot.load(Ordering::Relaxed);
        if packed == UNSIZED {
            let method = self.program.method(m);
            packed = u64::from(method.code_size()) | u64::from(heap_access_sites(method)) << 32;
            slot.store(packed, Ordering::Relaxed);
        }
        (packed as u32, (packed >> 32) as u32)
    }

    /// [`nimage_ir::Method::code_size`] of `m`.
    pub fn code_size(&self, m: MethodId) -> u32 {
        self.size(m).0
    }

    /// Number of field/array access sites in `m`'s body.
    pub fn heap_access_sites(&self, m: MethodId) -> u32 {
        self.size(m).1
    }

    fn sites(&self) -> &Sites {
        self.build(&self.sites, || {
            let mut sites = Sites {
                calls: SiteList::default(),
                data: SiteList::default(),
            };
            for method in self.program.methods() {
                sites.calls.start.push(sites.calls.at.len() as u32);
                sites.data.start.push(sites.data.at.len() as u32);
                for (bi, block) in method.blocks.iter().enumerate() {
                    for (ii, ins) in block.instrs.iter().enumerate() {
                        let list = match ins {
                            Instr::Call { .. } | Instr::Spawn { .. } => &mut sites.calls,
                            Instr::GetStatic(..)
                            | Instr::PutStatic(..)
                            | Instr::ConstStr(..)
                            | Instr::ConstDouble(..) => &mut sites.data,
                            _ => continue,
                        };
                        list.at.push((bi as u32, ii as u32));
                    }
                }
            }
            sites.calls.start.push(sites.calls.at.len() as u32);
            sites.data.start.push(sites.data.at.len() as u32);
            sites
        })
    }

    /// `(block, instruction)` of every call and spawn in `m`'s body, in
    /// body order: what the inliner visits, without scanning the body
    /// each time a CU reaches the method.
    pub fn call_sites(&self, m: MethodId) -> &[(u32, u32)] {
        self.sites().calls.of(m)
    }

    /// `(block, instruction)` of every static-field access and string or
    /// double constant in `m`'s body, in body order: the instructions that
    /// root heap objects and intern string literals.
    pub fn data_sites(&self, m: MethodId) -> &[(u32, u32)] {
        self.sites().data.of(m)
    }

    /// The profiling CFG of `m` and its Ball–Larus numbering under
    /// [`ProgramIndex::max_paths`], built on first use.
    pub fn paths(&self, m: MethodId) -> &MethodPaths {
        let slots = self.build(&self.paths, || {
            (0..self.program.methods().len())
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[m.index()].get_or_init(|| {
            let cfg = ProfilingCfg::build(self.program.method(m));
            let num = PathNumbering::compute(&cfg, self.max_paths);
            Box::new((cfg, num))
        })
    }
}

impl Signatures {
    fn of(program: &Program) -> Signatures {
        let n_methods = program.methods().len();
        let mut sigs = Signatures {
            arena: String::new(),
            ends: Vec::new(),
            of_method: Vec::with_capacity(n_methods),
            of_field: Vec::with_capacity(program.fields().len()),
            last_method: Vec::new(),
            table: vec![NONE; (2 * n_methods).next_power_of_two().max(2)],
        };
        let mask = sigs.table.len() - 1;
        for (i, m) in program.methods().iter().enumerate() {
            let start = sigs.arena.len();
            let arena = &mut sigs.arena;
            arena.push_str(&program.class(m.owner).name);
            arena.push('.');
            arena.push_str(&m.name);
            let _ = write!(arena, "({})", m.params.len());
            let sig = &sigs.arena[start..];
            let mut at = str_hash(sig) as usize & mask;
            let id = loop {
                match sigs.table[at] {
                    NONE => {
                        let id = sigs.ends.len() as SigId;
                        sigs.table[at] = id;
                        sigs.ends.push(sigs.arena.len() as u32);
                        sigs.last_method.push(i as u32);
                        break id;
                    }
                    id if sigs.interned(id) == sig => {
                        sigs.arena.truncate(start);
                        sigs.last_method[id as usize] = i as u32;
                        break id;
                    }
                    _ => at = (at + 1) & mask,
                }
            };
            sigs.of_method.push(id);
        }
        // Field signatures are never looked up by string, so they are
        // appended without deduplication.
        for f in program.fields() {
            let _ = write!(sigs.arena, "{}.{}", program.class(f.owner).name, f.name);
            sigs.of_field.push(sigs.ends.len() as SigId);
            sigs.ends.push(sigs.arena.len() as u32);
            sigs.last_method.push(NONE);
        }
        sigs
    }

    fn interned(&self, id: SigId) -> &str {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        };
        &self.arena[start..self.ends[id as usize] as usize]
    }
}

impl Layouts {
    fn of(program: &Program) -> Layouts {
        let mut fields = Vec::new();
        let mut start = Vec::with_capacity(program.classes().len() + 1);
        let mut slot = vec![NONE; program.fields().len()];
        for c in 0..program.classes().len() {
            let c = ClassId(c as u32);
            start.push(fields.len() as u32);
            let layout = program.all_instance_fields(c);
            // A class's own fields end its layout, so their slots are
            // final here; inherited ones were set by their declaring class.
            let own = program.class(c).instance_fields.len();
            for (s, f) in layout.iter().enumerate().skip(layout.len() - own) {
                slot[f.index()] = s as u32;
            }
            fields.extend(layout);
        }
        start.push(fields.len() as u32);
        Layouts {
            fields,
            start,
            slot,
        }
    }
}

/// A multiply–rotate hash over 8-byte words: the signature table's
/// probe sequence. Signatures come from the program, not from input, so
/// crafted collisions cost only probe length.
fn str_hash(s: &str) -> u64 {
    let mut h = s.len() as u64;
    let mut words = s.as_bytes().chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_ir::{ProgramBuilder, TypeRef};

    #[test]
    fn facts_equal_the_program_queries() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let x = pb.add_instance_field(a, "x", TypeRef::Int);
        let b = pb.add_class("t.B", Some(a));
        let y = pb.add_instance_field(b, "y", TypeRef::Int);
        let count = pb.add_static_field(b, "COUNT", TypeRef::Int);
        let m = pb.declare_static(b, "m", &[TypeRef::Object(b)], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let o = f.param(0);
        let v = f.get_field(o, y);
        f.put_field(o, x, v);
        f.ret(Some(v));
        pb.finish_body(m, f);
        // Instructions 1, 2 and 3 are sites: a string constant, a static
        // read and a call.
        let main = pb.declare_static(b, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let o = f.new_object(b);
        f.sconst("s");
        f.get_static(count);
        let r = f.call_static(m, &[o], true).unwrap();
        f.ret(Some(r));
        pb.finish_body(main, f);
        let p = pb.build().unwrap();
        let index = ProgramIndex::new(&p, 1 << 16);
        assert_eq!(index.sig(m), p.method_signature(m));
        assert_eq!(index.field_sig(count), p.field_signature(count));
        assert_eq!(index.method_of("t.B.m(1)"), Some(m));
        assert_eq!(index.method_of("t.B.m(2)"), None);
        assert_eq!(index.layout(b), p.all_instance_fields(b));
        assert_eq!(index.field_slot(b, y), Some(1));
        assert_eq!(index.field_slot(a, y), None);
        assert_eq!(index.field_slot(b, count), None);
        assert_eq!(index.code_size(m), p.method(m).code_size());
        assert_eq!(index.heap_access_sites(m), 2);
        assert_eq!(index.call_sites(main), [(0, 3)]);
        assert_eq!(index.data_sites(main), [(0, 1), (0, 2)]);
        assert!(index.call_sites(m).is_empty() && index.data_sites(m).is_empty());
    }

    #[test]
    fn the_hook_fires_once_on_the_first_table() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let p = ProgramBuilder::new().build().unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let c = calls.clone();
        let index = ProgramIndex::new(&p, 1).on_first_build(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(index.method_of("t.A.m(0)"), None);
        let _ = index.n_sigs();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
