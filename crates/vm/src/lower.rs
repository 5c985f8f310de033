//! Lazy, per-CU sharded lowering of a compiled program into dense, decoded
//! instruction arrays the interpreter can dispatch over by index.
//!
//! The tree-walking path of [`crate::Vm`] re-reads (and clones) an
//! [`nimage_ir::Instr`] out of `Program → Method → Block → Vec<Instr>` on
//! every step. A [`LoweredProgram`] flattens method bodies:
//!
//! * each method becomes one exact-size slice of 16-byte [`LoweredInstr`]s
//!   with the block terminators lowered to ordinary instructions, so the hot
//!   loop is a single bounds-checked index into a slice and a `match` on a
//!   reference — **no per-step allocation, no clone**;
//! * a jump carries its target's block index (which the Ball–Larus runtime
//!   keys on), and the method's `block_start` table maps it to the flat code
//!   index of the block's head;
//! * string literals are interned into a per-program table (`ConstStr`
//!   carries a `u32` index instead of an owned `String`);
//! * virtual dispatch reads a dense `class × selector → method` vtable and
//!   field access a dense `class × field → slot` table, both precomputed
//!   from the exact `resolve_virtual` / `all_instance_fields` semantics;
//! * the Ball–Larus path tables of every executable method (every method
//!   appearing in a compilation unit) are flattened into dense
//!   `(from_mini × target_block)` edge tables, replacing the per-run
//!   `HashMap` of `(ProfilingCfg, PathNumbering)` pairs.
//!
//! # Sharding
//!
//! Method bodies are **not** lowered up front. [`LoweredProgram::new`]
//! builds only the cheap global tables (vtable, field slots, root→CU map,
//! and the frozen string table — see below); the per-method instruction
//! arrays live in `OnceLock` slots grouped into **per-CU shards** that are
//! realized on first call into the CU ([`LoweredProgram::ensure_cu`], the
//! interpreter's fault-in path). Shards live in memory only: the engine
//! executes each build once and pages every layout from that run's access
//! log, so a warm engine whose runs are disk hits lowers nothing at all. A
//! realized shard can still be extracted as a serializable
//! [`LoweredShard`] ([`LoweredProgram::extract_shard`]).
//!
//! The string table is frozen eagerly by a pre-scan that replays the exact
//! interning traversal whole-program lowering used (methods in index order,
//! blocks and instructions in order, first occurrence wins). Realization
//! order therefore can never change a `ConstStr` index, which keeps every
//! observable — including the trace string table and the run report —
//! bit-identical between lazy and whole-program lowering.
//!
//! A `LoweredProgram` lives as long as the one run it serves: the evaluation
//! engine executes each build once, so it builds a fresh container for that
//! run, reads its shard counters when the run ends and drops it on the
//! worker that ran it. The container is still `Sync` — concurrent runs
//! against one copy fault each shard in exactly once (`OnceLock` guards make
//! realization idempotent and race-free). Results are bit-identical to the
//! tree-walking path by construction — the lowered tables are pure
//! reindexings of the structures the reference interpreter consults lazily.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use nimage_compiler::{CompiledProgram, CuId, PathNumbering, ProfilingCfg, ProgramIndex};
use nimage_ir::{
    BinOp, Callee, ClassId, FieldId, Instr, Intrinsic, Local, MethodId, MethodKind, Program,
    SelectorId, Terminator, TypeRef, UnOp, Value,
};

/// Sentinel for "absent" entries in the dense u32 lookup tables.
pub const NO_ENTRY: u32 = u32::MAX;

/// Sentinel for "absent" entries in the dense field-slot table.
pub const NO_SLOT: u16 = u16::MAX;

/// A control-flow edge: the original block index of the target (the unit
/// the Ball–Larus tables are keyed on). The target's flat code index is
/// [`LoweredMethod::block_start`]`[block]`.
#[derive(Debug, Clone, Copy)]
pub struct JumpEdge {
    /// Original basic-block index of the target.
    pub block: u32,
}

/// A decoded instruction of the lowered engine. Mirrors
/// [`nimage_ir::Instr`] with owned-data operands replaced by table indices,
/// plus the three block terminators lowered to ordinary instructions so the
/// step loop never consults `Block::terminator`.
///
/// Like `Instr` it is 16 bytes: calls, intrinsics, spawns and an array's
/// element type — the rare variants that would not fit — hold their
/// payload behind a thin `Box`, and an edge is only its target block.
#[derive(Debug, Clone)]
pub enum LoweredInstr {
    /// `dst = <int literal>`
    ConstInt(Local, i64),
    /// `dst = <double literal>`
    ConstDouble(Local, f64),
    /// `dst = <bool literal>`
    ConstBool(Local, bool),
    /// `dst = strings[idx]` (interned literal, by string-table index).
    ConstStr(Local, u32),
    /// `dst = null`
    ConstNull(Local),
    /// `dst = src`
    Move(Local, Local),
    /// `dst = a <op> b`
    Bin(BinOp, Local, Local, Local),
    /// `dst = <op> a`
    Un(UnOp, Local, Local),
    /// `dst = new C()`
    New(Local, ClassId),
    /// `dst = new elem[len]`
    NewArray(Local, Box<TypeRef>, Local),
    /// `dst = obj.field`
    GetField(Local, Local, FieldId),
    /// `obj.field = src`
    PutField(Local, FieldId, Local),
    /// `dst = C.field`
    GetStatic(Local, FieldId),
    /// `C.field = src`
    PutStatic(FieldId, Local),
    /// `dst = arr[idx]`
    ArrayGet(Local, Local, Local),
    /// `arr[idx] = src`
    ArraySet(Local, Local, Local),
    /// `dst = arr.length`
    ArrayLen(Local, Local),
    /// `dst = s.length()`
    StrLen(Local, Local),
    /// `dst = s.charAt(i)`
    StrCharAt(Local, Local, Local),
    /// `dst = a + b` (string concatenation)
    StrConcat(Local, Local, Local),
    /// `dst? = call(args...)` with the call site pre-baked for the inline
    /// lookup.
    Call(Box<LoweredCall>),
    /// `dst? = intrinsic(args...)`
    Intrinsic(Box<LoweredIntrinsic>),
    /// Spawn a new thread executing a static method.
    Spawn(Box<LoweredSpawn>),
    /// Lowered `Terminator::Ret`.
    Ret(Option<Local>),
    /// Lowered `Terminator::Jump`.
    Jump(JumpEdge),
    /// Lowered `Terminator::Br`.
    Br {
        /// Condition local.
        cond: Local,
        /// Edge taken when the condition is true.
        then_e: JumpEdge,
        /// Edge taken when the condition is false.
        else_e: JumpEdge,
    },
}

const _: () = assert!(std::mem::size_of::<LoweredInstr>() == 16);

/// Payload of [`LoweredInstr::Call`].
#[derive(Debug, Clone)]
pub struct LoweredCall {
    /// Destination local for the return value, if any.
    pub dst: Option<Local>,
    /// Pre-resolved call target.
    pub target: LoweredCallee,
    /// Argument locals.
    pub args: Box<[Local]>,
    /// Original block index of this call site.
    pub site_block: u32,
    /// Original instruction index within the block.
    pub site_instr: u32,
}

/// Payload of [`LoweredInstr::Intrinsic`].
#[derive(Debug, Clone)]
pub struct LoweredIntrinsic {
    /// Destination local, if the intrinsic produces a value.
    pub dst: Option<Local>,
    /// Which intrinsic.
    pub op: Intrinsic,
    /// Argument locals.
    pub args: Box<[Local]>,
}

/// Payload of [`LoweredInstr::Spawn`].
#[derive(Debug, Clone)]
pub struct LoweredSpawn {
    /// Entry method of the new thread.
    pub method: MethodId,
    /// Argument locals.
    pub args: Box<[Local]>,
}

/// Call target of a lowered call.
#[derive(Debug, Clone, Copy)]
pub enum LoweredCallee {
    /// Direct call.
    Static(MethodId),
    /// Virtual dispatch through the dense vtable.
    Virtual(SelectorId),
}

/// One flattened Ball–Larus edge: whether `from_mini → head_of(target)` is
/// a cut edge, and its increment if it is not.
#[derive(Debug, Clone, Copy)]
pub struct PathEdge {
    /// The edge terminates the current path.
    pub cut: bool,
    /// Ball–Larus increment (0 for cut edges).
    pub inc: u64,
}

/// Flattened Ball–Larus tables of one method: the per-block head mini and
/// the dense `(from_mini × target_block)` edge table, precomputed from the
/// same [`ProfilingCfg`] / [`PathNumbering`] the reference interpreter builds lazily.
#[derive(Debug, Clone)]
pub struct LoweredPaths {
    /// Head mini-block index of each basic block.
    pub block_head: Vec<u32>,
    /// `edges[from_mini * n_blocks + target_block]`.
    edges: Vec<PathEdge>,
    n_blocks: u32,
}

impl LoweredPaths {
    fn build(cfg: &ProfilingCfg, num: &PathNumbering, n_blocks: usize) -> LoweredPaths {
        let block_head: Vec<u32> = (0..n_blocks).map(|b| cfg.head_of_block(b).0).collect();
        let n_minis = cfg.minis().len();
        let mut edges = Vec::with_capacity(n_minis * n_blocks);
        for from in 0..n_minis {
            let from = nimage_compiler::MiniBlockId(from as u32);
            for &head in &block_head {
                let head = nimage_compiler::MiniBlockId(head);
                edges.push(PathEdge {
                    cut: num.is_cut(from, head),
                    inc: num.increment(from, head),
                });
            }
        }
        LoweredPaths {
            block_head,
            edges,
            n_blocks: n_blocks as u32,
        }
    }

    /// The edge `from_mini → head_of(target_block)`.
    #[inline]
    pub fn edge(&self, from_mini: u32, target_block: u32) -> PathEdge {
        self.edges[(from_mini * self.n_blocks + target_block) as usize]
    }

    /// The raw table parts, for serialization: `(block_head, edges,
    /// n_blocks)`.
    pub fn raw_parts(&self) -> (&[u32], &[PathEdge], u32) {
        (&self.block_head, &self.edges, self.n_blocks)
    }

    /// Rebuilds the table from raw parts, validating the shape invariants
    /// the lookup path indexes on. `None` on inconsistent parts (a corrupt
    /// disk entry must stay a miss, never a panic).
    pub fn from_raw(
        block_head: Vec<u32>,
        edges: Vec<PathEdge>,
        n_blocks: u32,
    ) -> Option<LoweredPaths> {
        if block_head.len() != n_blocks as usize {
            return None;
        }
        if n_blocks == 0 {
            return edges.is_empty().then_some(LoweredPaths {
                block_head,
                edges,
                n_blocks,
            });
        }
        if !edges.len().is_multiple_of(n_blocks as usize) {
            return None;
        }
        let rows = edges.len() / n_blocks as usize;
        // Every block head is a mini-block row the edge lookup may start
        // from.
        if block_head.iter().any(|&h| h as usize >= rows) {
            return None;
        }
        Some(LoweredPaths {
            block_head,
            edges,
            n_blocks,
        })
    }
}

/// One flattened method body, both arrays at exact size.
#[derive(Debug, Clone)]
pub struct LoweredMethod {
    /// Flat decoded instruction array; terminators included, so
    /// `code[block_start[b]..]` starts at block `b`'s first instruction.
    pub code: Box<[LoweredInstr]>,
    /// Flat code index of each basic block's first instruction.
    pub block_start: Box<[u32]>,
    /// Local-slot count (copied from the IR method).
    pub n_locals: u16,
}

/// The serializable lowering of one compilation unit: the flattened bodies
/// (and, for heap-tracing builds, path tables) of every method in the CU's
/// inline tree, sorted by method index. It has a disk codec
/// (`nimage_core`'s `DiskCodec`) but no cache stage: shards are realized in
/// memory by the runs that need them.
#[derive(Debug, Clone)]
pub struct LoweredShard {
    /// The compilation unit this shard lowers.
    pub cu: u32,
    /// `(method index, flattened body)`, strictly ascending by index.
    pub methods: Vec<(u32, LoweredMethod)>,
    /// `(method index, path tables)`, strictly ascending by index; empty
    /// for non-tracing builds.
    pub paths: Vec<(u32, LoweredPaths)>,
}

/// The sharded lowering of a (program, compiled build) pair. Global tables
/// are eager; method bodies are grouped into per-CU shards realized on
/// demand. Lent to a VM run behind an `Arc`.
pub struct LoweredProgram {
    /// Flattened method bodies, indexed by dense method index; realized
    /// when the owning CU's shard is.
    methods: Vec<OnceLock<LoweredMethod>>,
    /// Interned string literals referenced by [`LoweredInstr::ConstStr`].
    /// Frozen at construction (see the module docs), so shard realization
    /// order never perturbs an index.
    strings: Vec<String>,
    /// Frozen literal → index map the shard lowering reads.
    string_idx: HashMap<String, u32>,
    /// Dense `class × selector → method` vtable ([`NO_ENTRY`] = miss),
    /// row-major by class.
    vtable: Vec<u32>,
    n_selectors: usize,
    /// Dense `class × field → instance-field slot` table ([`NO_SLOT`] =
    /// field not on that class), row-major by class.
    field_slots: Vec<u16>,
    n_fields: usize,
    /// Default field values per class, in `all_instance_fields` layout
    /// order (the `New` fast path).
    field_defaults: Vec<Box<[Value]>>,
    /// CU rooted at each method ([`NO_ENTRY`] = not a root).
    root_cu: Vec<u32>,
    /// Flattened Ball–Larus tables per method; realized with the owning
    /// shard, and only for heap-tracing builds.
    paths: Vec<OnceLock<LoweredPaths>>,
    /// Shard guards, one per CU: set exactly once when the CU's methods
    /// are realized.
    cus: Vec<OnceLock<()>>,
    trace_heap: bool,
    max_paths: u64,
    /// Shards realized by the interpreter's fault-in path.
    lazy_shards: AtomicU64,
    /// Shards realized ahead of execution (shard extraction, or
    /// whole-program [`LoweredProgram::build`]).
    eager_shards: AtomicU64,
}

// Deliberately constant, like `Parallelism`: which shards
// happen to be realized is interior-mutable scheduling state that must
// never leak into a content-cache fingerprint — the lowering itself is
// fully determined by the (program, compiled, max_paths) inputs.
impl std::fmt::Debug for LoweredProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LoweredProgram(..)")
    }
}

impl LoweredProgram {
    /// Creates the lazy sharded container: global tables (vtable, field
    /// slots, defaults, root→CU map) and the frozen string table are built
    /// eagerly; no method body is lowered until its CU's shard is faulted
    /// in.
    ///
    /// `max_paths` must match the executing VM's configured Ball–Larus
    /// path limit (the numbering depends on it).
    pub fn new(program: &Program, compiled: &CompiledProgram, max_paths: u64) -> LoweredProgram {
        LoweredProgram::indexed(&ProgramIndex::new(program, max_paths), compiled)
    }

    /// [`LoweredProgram::new`] over a program index, whose `max_paths`
    /// plays the limit's part. The engine's lowering: the field layouts
    /// come from the index, as do the path tables of the shards
    /// [`LoweredProgram::ensure_cu`] realizes with the same index.
    pub fn indexed(index: &ProgramIndex<'_>, compiled: &CompiledProgram) -> LoweredProgram {
        let program = index.program();
        let n_methods = program.methods().len();
        let n_classes = program.classes().len();
        let n_fields = program.fields().len();
        let n_selectors = program.selectors().len();

        // Freeze the string table by replaying the exact interning
        // traversal of whole-program lowering: methods in index order,
        // blocks and instructions in order, first occurrence appends.
        let mut strings: Vec<String> = vec![];
        let mut string_idx: HashMap<String, u32> = HashMap::new();
        for mi in 0..n_methods {
            let m = MethodId(mi as u32);
            let blocks = &program.method(m).blocks;
            for &(b, i) in index.data_sites(m) {
                if let Instr::ConstStr(_, s) = &blocks[b as usize].instrs[i as usize] {
                    if !string_idx.contains_key(s.as_str()) {
                        let i = strings.len() as u32;
                        strings.push(String::clone(s));
                        string_idx.insert(String::clone(s), i);
                    }
                }
            }
        }

        // Dense vtable with `resolve_virtual`'s answers: a class's row is its
        // superclass's row overridden by its own virtual methods (the first
        // of a selector wins), so rows are filled superclasses first.
        let mut vtable = vec![NO_ENTRY; n_classes * n_selectors];
        let mut filled = vec![false; n_classes];
        for c in 0..n_classes {
            let mut chain = vec![];
            let mut cur = Some(ClassId(c as u32));
            while let Some(k) = cur.filter(|k| !filled[k.index()]) {
                chain.push(k);
                cur = program.class(k).superclass;
            }
            for &k in chain.iter().rev() {
                let row = k.index() * n_selectors;
                if let Some(sup) = program.class(k).superclass {
                    let sup = sup.index() * n_selectors;
                    vtable.copy_within(sup..sup + n_selectors, row);
                }
                for &m in program.class(k).methods.iter().rev() {
                    let method = program.method(m);
                    if method.kind == MethodKind::Virtual {
                        vtable[row + method.selector.index()] = m.0;
                    }
                }
                filled[k.index()] = true;
            }
        }

        // Dense field-slot table + per-class default field images, both in
        // all_instance_fields (superclass-first) layout order.
        let mut field_slots = vec![NO_SLOT; n_classes * n_fields];
        let mut field_defaults = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let layout = index.layout(ClassId(c as u32));
            for (slot, f) in layout.iter().enumerate() {
                field_slots[c * n_fields + f.index()] = slot as u16;
            }
            field_defaults.push(
                layout
                    .iter()
                    .map(|&f| Value::default_for(&program.field(f).ty))
                    .collect(),
            );
        }

        let mut root_cu = vec![NO_ENTRY; n_methods];
        for cu in &compiled.cus {
            root_cu[cu.root.index()] = cu.id.0;
        }

        LoweredProgram {
            methods: (0..n_methods).map(|_| OnceLock::new()).collect(),
            strings,
            string_idx,
            vtable,
            n_selectors,
            field_slots,
            n_fields,
            field_defaults,
            root_cu,
            paths: (0..n_methods).map(|_| OnceLock::new()).collect(),
            cus: (0..compiled.cus.len()).map(|_| OnceLock::new()).collect(),
            trace_heap: compiled.instrumentation.trace_heap,
            max_paths: index.max_paths(),
            lazy_shards: AtomicU64::new(0),
            eager_shards: AtomicU64::new(0),
        }
    }

    /// Lowers every method body of `program` up front (every shard counts
    /// as eagerly lowered). The sharded container realizes the identical
    /// bits lazily; this whole-program variant is kept for callers that
    /// want the complete lowering immediately (and as the differential
    /// reference the lazy path is pinned against).
    pub fn build(program: &Program, compiled: &CompiledProgram, max_paths: u64) -> LoweredProgram {
        let index = ProgramIndex::new(program, max_paths);
        let lp = LoweredProgram::indexed(&index, compiled);
        for cu in &compiled.cus {
            lp.fault_cu(&index, compiled, cu.id, &lp.eager_shards);
        }
        // Whole-program lowering also covered methods outside every CU's
        // inline tree (never executable, but part of the full lowering).
        for mi in 0..program.methods().len() {
            lp.realize_method(program, MethodId(mi as u32));
        }
        lp
    }

    /// Lowers one method body into its slot (idempotent, race-free).
    fn realize_method(&self, program: &Program, m: MethodId) {
        self.methods[m.index()].get_or_init(|| lower_method(program, m, &self.string_idx));
    }

    /// Lowers every method of `cu`'s inline tree, plus its Ball–Larus
    /// tables (flattened from the index's) on heap-tracing builds.
    fn realize_cu(&self, index: &ProgramIndex<'_>, compiled: &CompiledProgram, cu: CuId) {
        debug_assert_eq!(
            index.max_paths(),
            self.max_paths,
            "index of another path limit"
        );
        for node in &compiled.cu(cu).nodes {
            self.realize_method(index.program(), node.method);
            if self.trace_heap {
                self.paths[node.method.index()].get_or_init(|| {
                    let (cfg, num) = index.paths(node.method);
                    LoweredPaths::build(cfg, num, index.program().method(node.method).blocks.len())
                });
            }
        }
    }

    /// Realizes a CU's shard exactly once, crediting `counter` when this
    /// call did the work. Concurrent callers of the same CU block on the
    /// shard guard until the winner finishes, so a shard is never observed
    /// half-realized. Returns whether this call realized the shard — for
    /// exactly one caller per CU, so callers can attribute the fault.
    fn fault_cu(
        &self,
        index: &ProgramIndex<'_>,
        compiled: &CompiledProgram,
        cu: CuId,
        counter: &AtomicU64,
    ) -> bool {
        let slot = &self.cus[cu.index()];
        if slot.get().is_some() {
            return false;
        }
        let mut fresh = false;
        slot.get_or_init(|| {
            self.realize_cu(index, compiled, cu);
            fresh = true;
        });
        if fresh {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// The interpreter's fault-in path: realizes `cu`'s shard on first
    /// call into the CU. Counted as a lazily lowered shard; `true` when
    /// this call did the lowering (the VM's shard-fault trace event).
    #[inline]
    pub fn ensure_cu(
        &self,
        index: &ProgramIndex<'_>,
        compiled: &CompiledProgram,
        cu: CuId,
    ) -> bool {
        self.fault_cu(index, compiled, cu, &self.lazy_shards)
    }

    /// Extracts the serializable shard of `cu`, realizing it first if
    /// needed (counted eager).
    pub fn extract_shard(
        &self,
        program: &Program,
        compiled: &CompiledProgram,
        cu: CuId,
    ) -> LoweredShard {
        if !self.is_cu_lowered(cu) {
            let index = ProgramIndex::new(program, self.max_paths);
            self.fault_cu(&index, compiled, cu, &self.eager_shards);
        }
        let mut mids: Vec<u32> = compiled.cu(cu).nodes.iter().map(|n| n.method.0).collect();
        mids.sort_unstable();
        mids.dedup();
        let methods = mids
            .iter()
            .map(|&mi| {
                let m = self.methods[mi as usize]
                    .get()
                    .expect("shard realized above")
                    .clone();
                (mi, m)
            })
            .collect();
        let paths = mids
            .iter()
            .filter_map(|&mi| self.paths[mi as usize].get().map(|p| (mi, p.clone())))
            .collect();
        LoweredShard {
            cu: cu.0,
            methods,
            paths,
        }
    }

    /// Number of compilation units (= number of shards).
    pub fn n_cus(&self) -> usize {
        self.cus.len()
    }

    /// Whether `cu`'s shard has been realized.
    pub fn is_cu_lowered(&self, cu: CuId) -> bool {
        self.cus[cu.index()].get().is_some()
    }

    /// Shards realized by the interpreter's fault-in path so far.
    pub fn shards_lowered_lazy(&self) -> u64 {
        self.lazy_shards.load(Ordering::Relaxed)
    }

    /// Shards realized ahead of execution (shard extraction, whole-program
    /// build) so far.
    pub fn shards_lowered_eager(&self) -> u64 {
        self.eager_shards.load(Ordering::Relaxed)
    }

    /// The flattened body of a method. The owning shard must have been
    /// realized — every out-of-line entry goes through
    /// [`LoweredProgram::ensure_cu`], and inlined frames stay within the
    /// entered CU.
    #[inline]
    pub fn method(&self, m: MethodId) -> &LoweredMethod {
        self.methods[m.index()]
            .get()
            .expect("method's CU shard faulted in before execution")
    }

    /// Number of interned string literals.
    pub fn n_strings(&self) -> usize {
        self.strings.len()
    }

    /// An interned string literal.
    #[inline]
    pub fn string(&self, idx: u32) -> &str {
        &self.strings[idx as usize]
    }

    /// Virtual dispatch through the dense vtable (same result as
    /// [`Program::resolve_virtual`]).
    #[inline]
    pub fn resolve_virtual(&self, class: ClassId, selector: SelectorId) -> Option<MethodId> {
        let m = self.vtable[class.index() * self.n_selectors + selector.index()];
        (m != NO_ENTRY).then_some(MethodId(m))
    }

    /// Instance-field slot of `field` on `class`, if the field is part of
    /// the class's layout.
    #[inline]
    pub fn field_slot(&self, class: ClassId, field: FieldId) -> Option<usize> {
        let s = self.field_slots[class.index() * self.n_fields + field.index()];
        (s != NO_SLOT).then_some(s as usize)
    }

    /// Default field values of a class, in layout order.
    #[inline]
    pub fn field_defaults(&self, class: ClassId) -> &[Value] {
        &self.field_defaults[class.index()]
    }

    /// The CU rooted at `method` (same result as
    /// [`CompiledProgram::cu_of_root`]).
    #[inline]
    pub fn cu_of_root(&self, method: MethodId) -> Option<CuId> {
        let c = self.root_cu[method.index()];
        (c != NO_ENTRY).then_some(CuId(c))
    }

    /// The flattened Ball–Larus tables of a method (present only for
    /// heap-tracing builds, once the owning shard is realized).
    #[inline]
    pub fn paths(&self, m: MethodId) -> Option<&LoweredPaths> {
        self.paths[m.index()].get()
    }
}

/// Flattens one method body against the frozen string table.
fn lower_method(
    program: &Program,
    mid: MethodId,
    string_idx: &HashMap<String, u32>,
) -> LoweredMethod {
    let m = program.method(mid);
    // First pass: flat start index of every block (instrs + one lowered
    // terminator each).
    let mut block_start = Vec::with_capacity(m.blocks.len());
    let mut off = 0u32;
    for b in &m.blocks {
        block_start.push(off);
        off += b.instrs.len() as u32 + 1;
    }
    // Second pass: emit.
    let mut code = Vec::with_capacity(off as usize);
    for (bi, b) in m.blocks.iter().enumerate() {
        for (ii, ins) in b.instrs.iter().enumerate() {
            code.push(lower_instr(ins, bi, ii, string_idx));
        }
        let edge = |t: nimage_ir::BlockId| JumpEdge { block: t.0 };
        code.push(match &b.terminator {
            Terminator::Ret(v) => LoweredInstr::Ret(*v),
            Terminator::Jump(t) => LoweredInstr::Jump(edge(*t)),
            Terminator::Br {
                cond,
                then_blk,
                else_blk,
            } => LoweredInstr::Br {
                cond: *cond,
                then_e: edge(*then_blk),
                else_e: edge(*else_blk),
            },
        });
    }
    LoweredMethod {
        code: code.into_boxed_slice(),
        block_start: block_start.into_boxed_slice(),
        n_locals: m.n_locals,
    }
}

fn lower_instr(
    ins: &Instr,
    block: usize,
    instr: usize,
    string_idx: &HashMap<String, u32>,
) -> LoweredInstr {
    match ins {
        Instr::ConstInt(d, v) => LoweredInstr::ConstInt(*d, *v),
        Instr::ConstDouble(d, v) => LoweredInstr::ConstDouble(*d, *v),
        Instr::ConstBool(d, v) => LoweredInstr::ConstBool(*d, *v),
        Instr::ConstStr(d, s) => {
            let idx = *string_idx
                .get(s.as_str())
                .expect("string table frozen by the construction pre-scan");
            LoweredInstr::ConstStr(*d, idx)
        }
        Instr::ConstNull(d) => LoweredInstr::ConstNull(*d),
        Instr::Move(d, s) => LoweredInstr::Move(*d, *s),
        Instr::Bin(op, d, a, b) => LoweredInstr::Bin(*op, *d, *a, *b),
        Instr::Un(op, d, a) => LoweredInstr::Un(*op, *d, *a),
        Instr::New(d, c) => LoweredInstr::New(*d, *c),
        Instr::NewArray(d, elem, len) => LoweredInstr::NewArray(*d, elem.clone(), *len),
        Instr::GetField(d, o, f) => LoweredInstr::GetField(*d, *o, *f),
        Instr::PutField(o, f, s) => LoweredInstr::PutField(*o, *f, *s),
        Instr::GetStatic(d, f) => LoweredInstr::GetStatic(*d, *f),
        Instr::PutStatic(f, s) => LoweredInstr::PutStatic(*f, *s),
        Instr::ArrayGet(d, a, i) => LoweredInstr::ArrayGet(*d, *a, *i),
        Instr::ArraySet(a, i, s) => LoweredInstr::ArraySet(*a, *i, *s),
        Instr::ArrayLen(d, a) => LoweredInstr::ArrayLen(*d, *a),
        Instr::StrLen(d, s) => LoweredInstr::StrLen(*d, *s),
        Instr::StrCharAt(d, s, i) => LoweredInstr::StrCharAt(*d, *s, *i),
        Instr::StrConcat(d, a, b) => LoweredInstr::StrConcat(*d, *a, *b),
        Instr::Call(call) => LoweredInstr::Call(Box::new(LoweredCall {
            dst: call.dst,
            target: match call.callee {
                Callee::Static(m) => LoweredCallee::Static(m),
                Callee::Virtual { selector, .. } => LoweredCallee::Virtual(selector),
            },
            args: call.args.as_slice().into(),
            site_block: block as u32,
            site_instr: instr as u32,
        })),
        Instr::Intrinsic(call) => LoweredInstr::Intrinsic(Box::new(LoweredIntrinsic {
            dst: call.dst,
            op: call.op,
            args: call.args.as_slice().into(),
        })),
        Instr::Spawn(spawn) => LoweredInstr::Spawn(Box::new(LoweredSpawn {
            method: spawn.method,
            args: spawn.args.as_slice().into(),
        })),
    }
}
