//! The interpreter VM: executes a compiled image under the paging simulator
//! with optional profiling instrumentation.
//!
//! Execution is fully deterministic: threads are scheduled round-robin with
//! a fixed quantum, allocation order is program order, and every source of
//! time is an operation counter. Page faults arise exactly where a real
//! memory-mapped binary would fault: on first execution of a compilation
//! unit's bytes in `.text`, and on first access to a snapshot object's bytes
//! in `.svm_heap`.

use std::sync::Arc;

use nimage_compiler::{CallCountProfile, CompiledProgram, CuId, PathNumbering, ProfilingCfg};
use nimage_heap::HeapSnapshot;
use nimage_image::BinaryImage;
use nimage_ir::{
    eval_bin, eval_intrinsic, eval_un, BinOp, Callee, Instr, Intrinsic, Local, MethodId, Program,
    Terminator,
};
use nimage_profiler::{DumpMode, ThreadHandle, TraceSession};
use nimage_trace::Tracer;

use crate::heap_rt::{RtHeap, RtObject, RtValue};
use crate::lower::{JumpEdge, LoweredCallee, LoweredInstr, LoweredProgram};
use crate::paging::{PagingConfig, PagingSim};
use crate::report::{ExitKind, ResponsePoint, RunReport};

/// Probe cost model: extra interpreter operations charged per
/// instrumentation action (the source of Sec. 7.4's overhead factors).
#[derive(Debug, Clone, Copy)]
pub struct ProbeCosts {
    /// Per CU-entry record.
    pub cu_entry: u64,
    /// Per method-entry record (method ordering instruments *every* method
    /// entry, including inlined copies, hence its higher overhead).
    pub method_entry: u64,
    /// Per path-record flush (heap tracing).
    pub path_flush: u64,
    /// Per traced object identifier (heap tracing).
    pub obj_id: u64,
}

impl Default for ProbeCosts {
    fn default() -> Self {
        ProbeCosts {
            cu_entry: 14,
            method_entry: 30,
            path_flush: 4,
            obj_id: 1,
        }
    }
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Paging behaviour.
    pub paging: PagingConfig,
    /// Instructions per thread scheduling slice.
    pub quantum: u32,
    /// Probe costs for instrumented runs.
    pub probe_costs: ProbeCosts,
    /// Hard operation budget (guards against runaway programs).
    pub max_ops: u64,
    /// Trace-buffer dump mode for instrumented runs.
    pub dump_mode: DumpMode,
    /// Trace-buffer capacity in bytes.
    pub trace_buffer: usize,
    /// Native-runtime startup pages touched before `main` (libc/VM init at
    /// the end of `.text`, cf. Fig. 6).
    pub startup_native_pages: u64,
    /// Maximum Ball–Larus paths per method before cutting.
    pub max_paths: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            paging: PagingConfig::default(),
            quantum: 64,
            probe_costs: ProbeCosts::default(),
            max_ops: 500_000_000,
            dump_mode: DumpMode::OnFull,
            trace_buffer: 64 * 1024,
            startup_native_pages: 6,
            max_paths: 1 << 14,
        }
    }
}

/// When to stop the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Run until every thread terminates (AWFY workloads).
    Exit,
    /// Stop at the first `respond` intrinsic, then kill the process
    /// (microservice workloads, Sec. 7.1).
    FirstResponse,
}

/// A runtime error (mirrors the build-time [`nimage_heap::ClinitError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Null dereference.
    NullDeref {
        /// Signature of the executing method.
        method: String,
    },
    /// Out-of-bounds array or string index.
    IndexOutOfBounds {
        /// Signature of the executing method.
        method: String,
    },
    /// Division by zero.
    DivisionByZero {
        /// Signature of the executing method.
        method: String,
    },
    /// Operand kind mismatch (a workload-builder bug).
    TypeMismatch {
        /// Signature of the executing method.
        method: String,
        /// Details.
        detail: String,
    },
    /// Virtual dispatch failure.
    NoSuchMethod {
        /// Receiver class.
        class: String,
        /// Selector.
        selector: String,
    },
    /// A call target had no compilation unit (compiler invariant breach).
    MissingCu {
        /// Signature of the target method.
        method: String,
    },
    /// The VM configuration is invalid (e.g. a non-power-of-two
    /// fault-around window), detected before any execution.
    Config {
        /// Details.
        detail: String,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NullDeref { method } => write!(f, "null dereference in {method}"),
            VmError::IndexOutOfBounds { method } => write!(f, "index out of bounds in {method}"),
            VmError::DivisionByZero { method } => write!(f, "division by zero in {method}"),
            VmError::TypeMismatch { method, detail } => {
                write!(f, "type mismatch in {method}: {detail}")
            }
            VmError::NoSuchMethod { class, selector } => {
                write!(f, "no method {selector} on {class}")
            }
            VmError::MissingCu { method } => write!(f, "no compilation unit for {method}"),
            VmError::Config { detail } => write!(f, "invalid VM configuration: {detail}"),
        }
    }
}

impl std::error::Error for VmError {}

struct Frame {
    method: MethodId,
    cu: CuId,
    node: u32,
    locals: Vec<RtValue>,
    block: usize,
    ip: usize,
    /// Caller local receiving this frame's return value.
    ret_slot: Option<Local>,
    // Ball–Larus state (meaningful only when heap tracing is on).
    mini: u32,
    path_start: u32,
    path_acc: u64,
    pending: Vec<u64>,
}

struct ThreadCtx {
    frames: Vec<Frame>,
    handle: Option<ThreadHandle>,
    done: bool,
}

/// The virtual machine for one image execution.
pub struct Vm<'a> {
    program: &'a Program,
    compiled: &'a CompiledProgram,
    snapshot: &'a HeapSnapshot,
    image: &'a BinaryImage,
    config: VmConfig,
    paging: PagingSim,
    heap: RtHeap,
    session: Option<TraceSession>,
    /// The pre-lowered program [`Vm::run`] dispatches over (`None` until
    /// then unless the builder shared one, and throughout
    /// [`Vm::run_reference`]).
    lowered: Option<Arc<LoweredProgram>>,
    /// Trace string-table index per method (dense by method index;
    /// `u32::MAX` = not yet interned). Interning stays lazy so the string
    /// table's insertion order matches the reference interpreter exactly.
    sig_ids: Vec<u32>,
    /// Lazily built Ball–Larus tables of the reference interpreter (dense
    /// by method index).
    path_tables: Vec<Option<Box<(ProfilingCfg, PathNumbering)>>>,
    /// Heap refs of already-interned string literals, dense by
    /// string-table index (`u32::MAX` = not yet interned; interning is
    /// stable, so caching the ref skips the hash lookup).
    str_refs: Vec<u32>,
    threads: Vec<ThreadCtx>,
    ops: u64,
    probe_ops: u64,
    /// Dynamic call counts, dense by method index.
    call_counts: Vec<u64>,
    first_response: Option<ResponsePoint>,
    entry_return: Option<RtValue>,
    native_seen: std::collections::HashSet<u32>,
    native_touch_pages: Vec<u32>,
    /// Object-relative touched-byte spans per snapshot object, recorded on
    /// heap-traced runs (keyed by raw snapshot object index). Canonicalized
    /// — sorted, merged — into `RunReport::heap_touch_spans` at exit.
    heap_touch_spans: std::collections::HashMap<u32, Vec<(u64, u64)>>,
    /// Extra cost factor for memory-mapped (mode 2) trace writes: every
    /// record is made durable immediately instead of staged in a local
    /// buffer, which the paper's Sec. 7.4 shows costs roughly twice as
    /// much per event.
    probe_scale: u64,
    /// Observability sink for page-fault and shard-fault point events.
    /// Disabled by default (one branch per fault); never consulted on the
    /// per-op dispatch path, so a disabled tracer costs nothing there.
    trace: Tracer,
}

/// Builder for a [`Vm`]: the four mandatory inputs up front, everything
/// shareable or optional — heap template, pre-lowered program, tracer —
/// as chained setters. [`Vm::new`] is its no-options form.
pub struct VmBuilder<'a> {
    program: &'a Program,
    compiled: &'a CompiledProgram,
    snapshot: &'a HeapSnapshot,
    image: &'a BinaryImage,
    config: VmConfig,
    template: Option<Arc<crate::HeapTemplate>>,
    lowered: Option<Arc<LoweredProgram>>,
    trace: Tracer,
}

impl<'a> VmBuilder<'a> {
    /// Starts a builder over the mandatory execution inputs.
    pub fn new(
        program: &'a Program,
        compiled: &'a CompiledProgram,
        snapshot: &'a HeapSnapshot,
        image: &'a BinaryImage,
        config: VmConfig,
    ) -> VmBuilder<'a> {
        VmBuilder {
            program,
            compiled,
            snapshot,
            image,
            config,
            template: None,
            lowered: None,
            trace: Tracer::disabled(),
        }
    }

    /// Shares a pre-materialized heap template (`None`: materialize a
    /// private heap from the snapshot).
    #[must_use]
    pub fn heap_template(mut self, template: Option<Arc<crate::HeapTemplate>>) -> VmBuilder<'a> {
        self.template = template;
        self
    }

    /// Shares a pre-lowered program (`None`: lower lazily per CU). Must
    /// have been built from the same `(program, compiled)` pair with the
    /// same `max_paths` as the config.
    #[must_use]
    pub fn lowered(mut self, lowered: Option<Arc<LoweredProgram>>) -> VmBuilder<'a> {
        self.lowered = lowered;
        self
    }

    /// Records page-fault and shard-fault instants into `trace`. The
    /// default is [`Tracer::disabled`] — zero events, one branch per
    /// fault. Tracing never changes results: the paging simulator runs
    /// identically either way, and the report is assembled from the same
    /// state (pinned by `core/tests/trace_neutral.rs`).
    #[must_use]
    pub fn tracer(mut self, trace: Tracer) -> VmBuilder<'a> {
        self.trace = trace;
        self
    }

    /// Builds the VM.
    #[must_use]
    pub fn build(self) -> Vm<'a> {
        let VmBuilder {
            program,
            compiled,
            snapshot,
            image,
            config,
            template,
            lowered,
            trace,
        } = self;
        let heap = match template {
            Some(t) => RtHeap::from_template(t),
            None => RtHeap::from_build_heap(snapshot.heap()),
        };
        let session = if compiled.instrumentation.any() {
            Some(TraceSession::new(config.dump_mode, config.trace_buffer))
        } else {
            None
        };
        let probe_scale = match config.dump_mode {
            DumpMode::OnFull => 1,
            DumpMode::MemoryMapped => 2,
        };
        let n_methods = program.methods().len();
        Vm {
            paging: PagingSim::new(image, config.paging.clone()),
            heap,
            program,
            compiled,
            snapshot,
            image,
            config,
            session,
            lowered,
            sig_ids: vec![u32::MAX; n_methods],
            path_tables: vec![None; n_methods],
            str_refs: vec![],
            threads: vec![],
            ops: 0,
            probe_ops: 0,
            call_counts: vec![0; n_methods],
            first_response: None,
            entry_return: None,
            native_seen: std::collections::HashSet::new(),
            native_touch_pages: Vec::new(),
            heap_touch_spans: std::collections::HashMap::new(),
            probe_scale,
            trace,
        }
    }
}

impl<'a> Vm<'a> {
    /// Creates a VM over a built image, materializing a private copy of the
    /// snapshot heap.
    pub fn new(
        program: &'a Program,
        compiled: &'a CompiledProgram,
        snapshot: &'a HeapSnapshot,
        image: &'a BinaryImage,
        config: VmConfig,
    ) -> Vm<'a> {
        VmBuilder::new(program, compiled, snapshot, image, config).build()
    }

    fn sig_idx(&mut self, m: MethodId) -> u32 {
        let cached = self.sig_ids[m.index()];
        if cached != u32::MAX {
            return cached;
        }
        let sig = self.program.method_signature(m);
        let i = self
            .session
            .as_mut()
            .expect("sig interning requires a session")
            .intern(&sig);
        self.sig_ids[m.index()] = i;
        i
    }

    fn trace_heap(&self) -> bool {
        self.compiled.instrumentation.trace_heap
    }

    fn path_table(&mut self, m: MethodId) -> &(ProfilingCfg, PathNumbering) {
        let i = m.index();
        if self.path_tables[i].is_none() {
            let cfg = ProfilingCfg::build(self.program.method(m));
            let num = PathNumbering::compute(&cfg, self.config.max_paths);
            self.path_tables[i] = Some(Box::new((cfg, num)));
        }
        self.path_tables[i].as_deref().expect("just filled")
    }

    /// Records `n` major-fault instants against `section` (no-op — one
    /// branch — when the tracer is disabled; faults are rare next to ops,
    /// so the enabled path never shows up on the run either).
    #[inline]
    fn fault_instants(&self, section: &'static str, n: u64) {
        if n == 0 || !self.trace.is_enabled() {
            return;
        }
        for _ in 0..n {
            self.trace
                .instant("page-fault", || format!("section={section}"));
        }
    }

    /// Touches the code bytes of an inline node.
    fn touch_code(&mut self, cu: CuId, node: u32) {
        let cu_ref = self.compiled.cu(cu);
        let n = &cu_ref.nodes[node as usize];
        let off = self.image.cu_offset(cu) + u64::from(n.offset);
        let faults = self
            .paging
            .touch_range(self.image, off, u64::from(n.size.max(1)));
        self.fault_instants(".text", faults);
    }

    /// Runtime error helper.
    fn err_sig(&self, m: MethodId) -> String {
        self.program.method_signature(m)
    }

    /// Pushes a new frame for `method` executing inside `(cu, node)`.
    fn push_frame(
        &mut self,
        thread: usize,
        method: MethodId,
        cu: CuId,
        node: u32,
        args: Vec<RtValue>,
        ret_slot: Option<Local>,
    ) {
        self.touch_code(cu, node);
        self.call_counts[method.index()] += 1;
        if self.compiled.instrumentation.trace_methods {
            let sig = self.sig_idx(method);
            let th = self.threads[thread].handle.expect("traced thread");
            self.session
                .as_mut()
                .expect("session")
                .record_method_entry(th, sig);
            self.probe_ops += self.config.probe_costs.method_entry * self.probe_scale;
        }
        let m = self.program.method(method);
        let mut locals = vec![RtValue::Null; m.n_locals as usize];
        locals[..args.len()].copy_from_slice(&args);
        // The entry mini-block is the head of block 0, which ProfilingCfg
        // numbers 0 unconditionally.
        let mini = 0;
        self.threads[thread].frames.push(Frame {
            method,
            cu,
            node,
            locals,
            block: 0,
            ip: 0,
            ret_slot,
            mini,
            path_start: mini,
            path_acc: 0,
            pending: vec![],
        });
    }

    /// Enters a CU out-of-line (thread start or non-inlined call).
    fn enter_cu(
        &mut self,
        thread: usize,
        method: MethodId,
        args: Vec<RtValue>,
        ret_slot: Option<Local>,
    ) -> Result<(), VmError> {
        let cu = match &self.lowered {
            Some(lp) => lp.cu_of_root(method),
            None => self.compiled.cu_of_root(method),
        }
        .ok_or_else(|| VmError::MissingCu {
            method: self.err_sig(method),
        })?;
        // Fault the CU's lowering shard in on first entry (no-op once
        // realized; pre-lowered shards never hit the slow path). The
        // realizing call is unique per CU, so the instant fires exactly
        // once per lazily lowered shard — but on whichever sharing run got
        // there first, hence the *root* (logically detached) event.
        if let Some(lp) = &self.lowered {
            if lp.ensure_cu(self.program, self.compiled, cu) {
                self.trace
                    .root_instant("shard-fault", || format!("cu={}", cu.index()));
            }
        }
        if self.compiled.instrumentation.trace_cu {
            let sig = self.sig_idx(method);
            let th = self.threads[thread].handle.expect("traced thread");
            self.session
                .as_mut()
                .expect("session")
                .record_cu_entry(th, sig);
            self.probe_ops += self.config.probe_costs.cu_entry * self.probe_scale;
        }
        self.push_frame(thread, method, cu, 0, args, ret_slot);
        Ok(())
    }

    fn flush_path(&mut self, thread: usize) {
        if !self.trace_heap() {
            return;
        }
        let frame = self.threads[thread]
            .frames
            .last_mut()
            .expect("flush with live frame");
        let method = frame.method;
        let start = frame.path_start;
        let acc = frame.path_acc;
        let pending = std::mem::take(&mut frame.pending);
        let th = self.threads[thread].handle.expect("traced thread");
        let sig = self.sig_idx(method);
        self.probe_ops += (self.config.probe_costs.path_flush
            + self.config.probe_costs.obj_id * pending.len() as u64)
            * self.probe_scale;
        self.session
            .as_mut()
            .expect("session")
            .record_path(th, sig, start, acc, pending);
    }

    /// Advances Ball–Larus state across the intra-block cut edge after a
    /// call instruction.
    fn path_after_call(&mut self, thread: usize) {
        if !self.trace_heap() {
            return;
        }
        self.flush_path(thread);
        let frame = self.threads[thread].frames.last_mut().expect("frame");
        frame.mini += 1; // minis of a block are contiguous
        frame.path_start = frame.mini;
        frame.path_acc = 0;
    }

    /// Advances Ball–Larus state across a block transition.
    fn path_block_edge(&mut self, thread: usize, target_block: usize) {
        if !self.trace_heap() {
            return;
        }
        let (method, from_mini) = {
            let f = self.threads[thread].frames.last().expect("frame");
            (f.method, f.mini)
        };
        let (head, cut, inc) = {
            let (cfg, num) = self.path_table(method);
            let from = nimage_compiler::MiniBlockId(from_mini);
            let head = cfg.head_of_block(target_block);
            (head, num.is_cut(from, head), num.increment(from, head))
        };
        if cut {
            self.flush_path(thread);
            let frame = self.threads[thread].frames.last_mut().unwrap();
            frame.mini = head.0;
            frame.path_start = head.0;
            frame.path_acc = 0;
        } else {
            let frame = self.threads[thread].frames.last_mut().unwrap();
            frame.path_acc += inc;
            frame.mini = head.0;
        }
    }

    /// The 64-bit profile identifier traced for an object access (0 when the
    /// accessed object is not part of the heap snapshot).
    fn trace_id_of(&self, r: u32) -> u64 {
        match self.heap.as_obj_id(r) {
            Some(obj) if self.snapshot.index_of(obj).is_some() => u64::from(r) + 1,
            _ => 0,
        }
    }

    /// Touches bytes of the native tail: records the logical first-touch
    /// order (the profile of the native-reordering extension) and routes the
    /// access through the tail's page permutation, if one was applied.
    fn touch_native(&mut self, logical_offset: u64) {
        let ps = self.image.options.page_size;
        if logical_offset >= self.image.native_start && logical_offset < self.image.text.size {
            let page = ((logical_offset - self.image.native_start) / ps) as u32;
            if self.native_seen.insert(page) {
                self.native_touch_pages.push(page);
            }
        }
        let mapped = self.image.map_native_offset(logical_offset);
        if self.paging.touch(self.image, mapped) {
            self.fault_instants(".text", 1);
        }
    }

    /// Touches the `.svm_heap` bytes of an image object access.
    fn touch_object(&mut self, r: u32, byte_offset: u64) {
        if let Some(obj) = self.heap.as_obj_id(r) {
            if let Some(off) = self.image.object_offset(obj) {
                if self.paging.touch(self.image, off + byte_offset) {
                    self.fault_instants(".svm_heap", 1);
                }
                if self.trace_heap() {
                    // Grow the last span when accesses walk forward (the
                    // common field/array scan); anything else opens a new
                    // span and is merged at report time.
                    let spans = self.heap_touch_spans.entry(obj.0).or_default();
                    match spans.last_mut() {
                        Some(s) if byte_offset >= s.0 && byte_offset <= s.1 => {
                            s.1 = s.1.max(byte_offset + 1);
                        }
                        _ => spans.push((byte_offset, byte_offset + 1)),
                    }
                }
            }
        }
    }

    /// Records a traced heap access (paging + pending trace id + probe cost).
    fn heap_access(&mut self, thread: usize, r: u32, byte_offset: u64) {
        self.touch_object(r, byte_offset);
        if self.trace_heap() {
            let id = self.trace_id_of(r);
            self.probe_ops += self.config.probe_costs.obj_id * self.probe_scale;
            self.threads[thread]
                .frames
                .last_mut()
                .expect("frame")
                .pending
                .push(id);
        }
    }

    /// Runs the program on the pre-lowered engine: index-driven dispatch
    /// over flat, pre-decoded instruction arrays (see [`crate::lower`]).
    ///
    /// # Errors
    /// Returns a [`VmError`] if the program performs an illegal operation.
    ///
    /// # Panics
    /// Panics if the program has no entry point.
    pub fn run(mut self, stop: StopWhen) -> Result<RunReport, VmError> {
        let lp = self.lowered.take().unwrap_or_else(|| {
            // Standalone runs get the lazy sharded container; shards
            // fault in per CU as execution first enters them.
            Arc::new(LoweredProgram::new(
                self.program,
                self.compiled,
                self.config.max_paths,
            ))
        });
        self.str_refs = vec![u32::MAX; lp.n_strings()];
        self.lowered = Some(lp);
        self.execute(stop)
    }

    /// Runs the program on the reference interpreter: a tree-walker over
    /// the IR itself, sharing no dispatch code with [`Vm::run`] and ignoring
    /// any [`VmBuilder::lowered`] program. It is the differential oracle —
    /// every observable (report, trace, faults) must be bit-identical to
    /// [`Vm::run`]'s, which `core/tests/lowered_determinism.rs` pins — and
    /// has no other caller; nothing in a configuration selects it.
    ///
    /// # Errors
    /// Returns a [`VmError`] if the program performs an illegal operation.
    ///
    /// # Panics
    /// Panics if the program has no entry point.
    pub fn run_reference(mut self, stop: StopWhen) -> Result<RunReport, VmError> {
        self.lowered = None;
        self.execute(stop)
    }

    /// The scheduler loop shared by both engines: steps lowered code iff
    /// `self.lowered` is set.
    fn execute(mut self, stop: StopWhen) -> Result<RunReport, VmError> {
        let entry = self.program.entry.expect("program has an entry point");

        // Native runtime startup: the dynamic loader, libc init and VM
        // runtime touch entry points scattered across the statically linked
        // libraries before main (relocations, TLS setup, locale tables…).
        let ps = self.image.options.page_size;
        let tail_pages = (self.image.options.native_tail / ps).max(1);
        for p in 0..self.config.startup_native_pages {
            let page = if p == 0 { 0 } else { (p * 53 + 7) % tail_pages };
            self.touch_native(self.image.native_start + page * ps);
        }

        // Main thread.
        self.threads.push(ThreadCtx {
            frames: vec![],
            handle: None,
            done: false,
        });
        if let Some(s) = self.session.as_mut() {
            self.threads[0].handle = Some(s.start_thread());
        }
        self.enter_cu(0, entry, vec![], None)?;

        let quantum = self.config.quantum;
        // Clone the Arc out of `self` so the lowered step can borrow
        // instruction references without aliasing `&mut self`.
        let lowered = self.lowered.clone();
        let mut killed = false;
        'sched: loop {
            let mut any_live = false;
            for t in 0..self.threads.len() {
                if self.threads[t].done {
                    continue;
                }
                any_live = true;
                for _ in 0..quantum {
                    if self.threads[t].frames.is_empty() {
                        if let (Some(s), Some(h)) = (self.session.as_mut(), self.threads[t].handle)
                        {
                            s.end_thread(h);
                        }
                        self.threads[t].done = true;
                        break;
                    }
                    if self.ops >= self.config.max_ops {
                        break 'sched;
                    }
                    match &lowered {
                        Some(lp) => self.step_lowered(lp, t)?,
                        None => self.step(t)?,
                    }
                    if stop == StopWhen::FirstResponse && self.first_response.is_some() {
                        killed = true;
                        break 'sched;
                    }
                }
            }
            if !any_live {
                break;
            }
        }

        if killed {
            if let Some(s) = self.session.as_mut() {
                s.kill();
            }
        } else if let Some(s) = self.session.as_mut() {
            // Normal exit: terminate any still-live threads (server threads
            // of exited programs are torn down by the runtime).
            s.kill();
        }

        let mut call_counts = CallCountProfile::new();
        for (i, &n) in self.call_counts.iter().enumerate() {
            if n > 0 {
                call_counts.record(&self.program.method_signature(MethodId(i as u32)), n);
            }
        }

        let exit = if killed {
            ExitKind::FirstResponse
        } else if self.ops >= self.config.max_ops {
            ExitKind::OpsBudget
        } else {
            ExitKind::Exited
        };

        let text_first = self.image.text.offset / self.image.options.page_size;
        let text_pages = self.image.text_pages();
        let heap_first = self.image.svm_heap.offset / self.image.options.page_size;
        let heap_pages = self
            .image
            .svm_heap
            .size
            .div_ceil(self.image.options.page_size);

        let mut heap_touch_spans: Vec<(u32, Vec<(u64, u64)>)> = self
            .heap_touch_spans
            .iter()
            .map(|(&obj, spans)| (obj, merge_spans(spans)))
            .collect();
        heap_touch_spans.sort_unstable_by_key(|&(obj, _)| obj);

        let session_stats = self.session.as_ref().map(|s| s.stats());
        let trace = self.session.take().map(|s| s.into_trace());
        Ok(RunReport {
            heap_touch_spans,
            ops: self.ops,
            probe_ops: self.probe_ops,
            native_touch_pages: self.native_touch_pages,
            faults: self.paging.faults(),
            first_response: self.first_response,
            call_counts,
            trace,
            session_stats,
            exit,
            entry_return: self.entry_return,
            text_page_states: self.paging.page_states(text_first, text_pages),
            heap_page_states: self.paging.page_states(heap_first, heap_pages),
        })
    }

    /// Executes one instruction or terminator on thread `t`.
    fn step(&mut self, t: usize) -> Result<(), VmError> {
        self.ops += 1;
        let frame = self.threads[t].frames.last().expect("live frame");
        let method = frame.method;
        let block = frame.block;
        let ip = frame.ip;
        let m = self.program.method(method);
        if ip < m.blocks[block].instrs.len() {
            // Clone is avoided: instructions are small except Call/Spawn
            // argument vectors.
            let ins = m.blocks[block].instrs[ip].clone();
            self.exec_instr(t, method, &ins)?;
            // exec_instr may have pushed a frame; ip of *this* frame was
            // already advanced inside exec_instr for calls. For non-calls,
            // advance here.
            if !matches!(ins, Instr::Call { .. }) {
                if let Some(f) = self.threads[t].frames.last_mut() {
                    if f.method == method && f.block == block && f.ip == ip {
                        f.ip += 1;
                    }
                }
            }
            Ok(())
        } else {
            self.exec_terminator(t, method, block)
        }
    }

    /// Executes one lowered instruction on thread `t`: a single index into
    /// the method's flat code array and a `match` on a reference — no
    /// clone, no per-step allocation. `lp` is borrowed from the `Arc`
    /// clone held by [`Vm::run`], so instruction references never alias
    /// `&mut self`.
    fn step_lowered(&mut self, lp: &LoweredProgram, t: usize) -> Result<(), VmError> {
        self.ops += 1;
        let (method, pc) = {
            let f = self.threads[t].frames.last().expect("live frame");
            (f.method, f.ip)
        };
        match &lp.method(method).code[pc] {
            LoweredInstr::ConstInt(d, v) => self.set_local(t, *d, RtValue::Int(*v)),
            LoweredInstr::ConstDouble(d, v) => self.set_local(t, *d, RtValue::Double(*v)),
            LoweredInstr::ConstBool(d, v) => self.set_local(t, *d, RtValue::Bool(*v)),
            LoweredInstr::ConstNull(d) => self.set_local(t, *d, RtValue::Null),
            LoweredInstr::ConstStr(d, sidx) => {
                let cached = self.str_refs[*sidx as usize];
                let r = if cached != u32::MAX {
                    cached
                } else {
                    let r = self.heap.intern(lp.string(*sidx));
                    self.str_refs[*sidx as usize] = r;
                    r
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Ref(r));
            }
            LoweredInstr::Move(d, s) => {
                let v = self.local(t, *s);
                self.set_local(t, *d, v);
            }
            LoweredInstr::Bin(op, d, a, b) => {
                let va = self.local(t, *a);
                let vb = self.local(t, *b);
                let r = eval_bin(*op, va, vb).ok_or_else(|| match op {
                    BinOp::Div | BinOp::Rem => VmError::DivisionByZero {
                        method: self.err_sig(method),
                    },
                    _ => VmError::TypeMismatch {
                        method: self.err_sig(method),
                        detail: format!("{op:?} on {va:?}, {vb:?}"),
                    },
                })?;
                self.set_local(t, *d, r);
            }
            LoweredInstr::Un(op, d, a) => {
                let va = self.local(t, *a);
                let r = eval_un(*op, va).ok_or_else(|| VmError::TypeMismatch {
                    method: self.err_sig(method),
                    detail: format!("{op:?} on {va:?}"),
                })?;
                self.set_local(t, *d, r);
            }
            LoweredInstr::New(d, c) => {
                let fields = lp.field_defaults(*c).to_vec();
                let r = self.heap.alloc(RtObject::Instance { class: *c, fields });
                self.set_local(t, *d, RtValue::Ref(r));
            }
            LoweredInstr::NewArray(d, elem, len) => {
                let n = self.as_int(t, *len, method)?;
                if n < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    });
                }
                let r = self.heap.alloc(RtObject::Array {
                    elem: elem.clone(),
                    elems: vec![RtValue::default_for(elem); n as usize],
                });
                self.set_local(t, *d, RtValue::Ref(r));
            }
            LoweredInstr::GetField(d, obj, fid) => {
                let r = self.as_ref_val(t, *obj, method)?;
                let (slot, v) = self.field_slot_lowered(lp, r, *fid, method)?;
                self.heap_access(t, r, 16 + 8 * slot as u64);
                self.set_local(t, *d, v);
            }
            LoweredInstr::PutField(obj, fid, src) => {
                let r = self.as_ref_val(t, *obj, method)?;
                let v = self.local(t, *src);
                let slot = self.field_slot_lowered(lp, r, *fid, method)?.0;
                self.heap_access(t, r, 16 + 8 * slot as u64);
                match self.heap.get_mut(r) {
                    RtObject::Instance { fields, .. } => fields[slot] = v,
                    _ => unreachable!("field_slot validated"),
                }
            }
            LoweredInstr::GetStatic(d, fid) => {
                let v = self.heap.static_value(self.program, *fid);
                self.set_local(t, *d, v);
            }
            LoweredInstr::PutStatic(fid, src) => {
                let v = self.local(t, *src);
                self.heap.set_static(*fid, v);
            }
            LoweredInstr::ArrayGet(d, arr, idx) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let i = self.as_int(t, *idx, method)?;
                let v = match self.heap.get(r) {
                    RtObject::Array { elems, .. } => *elems
                        .get(usize::try_from(i).map_err(|_| VmError::IndexOutOfBounds {
                            method: self.err_sig(method),
                        })?)
                        .ok_or_else(|| VmError::IndexOutOfBounds {
                            method: self.err_sig(method),
                        })?,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array access on {other:?}"),
                        })
                    }
                };
                self.heap_access(t, r, 24 + 8 * i as u64);
                self.set_local(t, *d, v);
            }
            LoweredInstr::ArraySet(arr, idx, src) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let i = self.as_int(t, *idx, method)?;
                let v = self.local(t, *src);
                self.heap_access(t, r, 24 + 8 * i.max(0) as u64);
                let program = self.program;
                match self.heap.get_mut(r) {
                    RtObject::Array { elems, .. } => {
                        let len = elems.len();
                        *elems
                            .get_mut(usize::try_from(i).unwrap_or(len))
                            .ok_or_else(|| VmError::IndexOutOfBounds {
                                method: program.method_signature(method),
                            })? = v;
                    }
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: program.method_signature(method),
                            detail: format!("array access on {other:?}"),
                        })
                    }
                }
            }
            LoweredInstr::ArrayLen(d, arr) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let n = match self.heap.get(r) {
                    RtObject::Array { elems, .. } => elems.len() as i64,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array length on {other:?}"),
                        })
                    }
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Int(n));
            }
            LoweredInstr::StrLen(d, s) => {
                let r = self.as_ref_val(t, *s, method)?;
                let n = self.str_content(r, method)?.len() as i64;
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Int(n));
            }
            LoweredInstr::StrCharAt(d, s, i) => {
                let r = self.as_ref_val(t, *s, method)?;
                let idx = self.as_int(t, *i, method)?;
                let content = self.str_content(r, method)?;
                let ch = content
                    .as_bytes()
                    .get(usize::try_from(idx).map_err(|_| VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    })?)
                    .copied()
                    .ok_or_else(|| VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    })?;
                self.touch_object(r, 24 + idx as u64);
                self.set_local(t, *d, RtValue::Int(i64::from(ch)));
            }
            LoweredInstr::StrConcat(d, a, b) => {
                let sa = self.display_value(self.local(t, *a));
                let sb = self.display_value(self.local(t, *b));
                let r = self.heap.alloc(RtObject::Str(format!("{sa}{sb}")));
                self.set_local(t, *d, RtValue::Ref(r));
            }
            LoweredInstr::Call {
                dst,
                target,
                args,
                site_block,
                site_instr,
            } => {
                self.ops += 1; // calls cost an extra op
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                let target_m = match target {
                    LoweredCallee::Static(m2) => *m2,
                    LoweredCallee::Virtual(sel) => {
                        let recv = match argv.first() {
                            Some(RtValue::Ref(r)) => *r,
                            _ => {
                                return Err(VmError::NullDeref {
                                    method: self.err_sig(method),
                                })
                            }
                        };
                        let class = match self.heap.get(recv) {
                            RtObject::Instance { class, .. } => *class,
                            other => {
                                return Err(VmError::TypeMismatch {
                                    method: self.err_sig(method),
                                    detail: format!("virtual call on {other:?}"),
                                })
                            }
                        };
                        lp.resolve_virtual(class, *sel)
                            .ok_or_else(|| VmError::NoSuchMethod {
                                class: self.program.class(class).name.clone(),
                                selector: self.program.selector_name(*sel).to_string(),
                            })?
                    }
                };
                // End the caller's current path at the call boundary.
                self.path_after_call(t);
                // Advance the caller past the call before pushing the callee.
                let (cu, node);
                {
                    let f = self.threads[t].frames.last_mut().expect("frame");
                    f.ip += 1;
                    cu = f.cu;
                    node = f.node;
                }
                // Inlined at this exact (pre-baked) site?
                let site = nimage_analysis::CallSite {
                    method,
                    block: *site_block as usize,
                    instr: *site_instr as usize,
                };
                let child = self.compiled.cu(cu).nodes[node as usize]
                    .child_at(site)
                    .filter(|&c| self.compiled.cu(cu).nodes[c as usize].method == target_m);
                match child {
                    Some(c) => self.push_frame(t, target_m, cu, c, argv, *dst),
                    None => self.enter_cu(t, target_m, argv, *dst)?,
                }
                return Ok(());
            }
            LoweredInstr::Intrinsic { dst, op, args } => {
                let ps = self.image.options.page_size;
                let tail_pages = (self.image.options.native_tail / ps).max(1);
                let page = (*op as u64 + 2) * 131 % tail_pages;
                self.touch_native(self.image.native_start + page * ps);
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                if *op == Intrinsic::Respond && self.first_response.is_none() {
                    self.first_response = Some(ResponsePoint {
                        ops: self.ops,
                        probe_ops: self.probe_ops,
                        faults: self.paging.faults(),
                    });
                }
                let v = eval_intrinsic(*op, &argv);
                if let Some(d) = dst {
                    self.set_local(t, *d, v.unwrap_or(RtValue::Null));
                }
            }
            LoweredInstr::Spawn { method: m2, args } => {
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                self.threads.push(ThreadCtx {
                    frames: vec![],
                    handle: None,
                    done: false,
                });
                let nt = self.threads.len() - 1;
                if let Some(s) = self.session.as_mut() {
                    self.threads[nt].handle = Some(s.start_thread());
                }
                self.enter_cu(nt, *m2, argv, None)?;
            }
            LoweredInstr::Ret(v) => {
                self.flush_path(t);
                let frame = self.threads[t].frames.pop().expect("frame");
                let value = v.map(|l| frame.locals[l.index()]);
                if let Some(parent) = self.threads[t].frames.last_mut() {
                    if let Some(slot) = frame.ret_slot {
                        parent.locals[slot.index()] = value.unwrap_or(RtValue::Null);
                    }
                } else if t == 0 && self.entry_return.is_none() {
                    self.entry_return = value;
                }
                return Ok(());
            }
            LoweredInstr::Jump(e) => {
                self.path_block_edge_lowered(lp, t, e);
                self.threads[t].frames.last_mut().expect("frame").ip = e.pc as usize;
                return Ok(());
            }
            LoweredInstr::Br {
                cond,
                then_e,
                else_e,
            } => {
                let c = match self.local(t, *cond) {
                    RtValue::Bool(b) => b,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("branch on {other:?}"),
                        })
                    }
                };
                let e = if c { then_e } else { else_e };
                self.path_block_edge_lowered(lp, t, e);
                self.threads[t].frames.last_mut().expect("frame").ip = e.pc as usize;
                return Ok(());
            }
        }
        // Straight-line instruction: advance this frame's flat pc. Only
        // calls and terminators (handled above) change the frame stack of
        // thread `t`, so the top frame is still the executing one.
        self.threads[t].frames.last_mut().expect("frame").ip += 1;
        Ok(())
    }

    /// Ball–Larus block transition on the lowered path: the same cut /
    /// increment decision as [`Vm::path_block_edge`], read from the dense
    /// pre-lowered edge table instead of the lazy `HashMap`s.
    fn path_block_edge_lowered(&mut self, lp: &LoweredProgram, t: usize, edge: &JumpEdge) {
        if !self.trace_heap() {
            return;
        }
        let (method, from_mini) = {
            let f = self.threads[t].frames.last().expect("frame");
            (f.method, f.mini)
        };
        let p = lp
            .paths(method)
            .expect("path tables built for traced builds");
        let head = p.block_head[edge.block as usize];
        let e = p.edge(from_mini, edge.block);
        if e.cut {
            self.flush_path(t);
            let frame = self.threads[t].frames.last_mut().expect("frame");
            frame.mini = head;
            frame.path_start = head;
            frame.path_acc = 0;
        } else {
            let frame = self.threads[t].frames.last_mut().expect("frame");
            frame.path_acc += e.inc;
            frame.mini = head;
        }
    }

    /// Field-slot lookup through the pre-lowered `class × field` table;
    /// error messages match [`Vm::field_slot`] byte for byte.
    fn field_slot_lowered(
        &self,
        lp: &LoweredProgram,
        r: u32,
        fid: nimage_ir::FieldId,
        method: MethodId,
    ) -> Result<(usize, RtValue), VmError> {
        match self.heap.get(r) {
            RtObject::Instance { class, fields } => match lp.field_slot(*class, fid) {
                Some(slot) => Ok((slot, fields[slot])),
                None => Err(VmError::TypeMismatch {
                    method: self.err_sig(method),
                    detail: format!(
                        "field {} not on {}",
                        self.program.field_signature(fid),
                        self.program.class(*class).name
                    ),
                }),
            },
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(method),
                detail: format!("field access on {other:?}"),
            }),
        }
    }

    fn local(&self, t: usize, l: Local) -> RtValue {
        self.threads[t].frames.last().expect("frame").locals[l.index()]
    }

    fn set_local(&mut self, t: usize, l: Local, v: RtValue) {
        self.threads[t].frames.last_mut().expect("frame").locals[l.index()] = v;
    }

    fn as_ref_val(&self, t: usize, l: Local, m: MethodId) -> Result<u32, VmError> {
        match self.local(t, l) {
            RtValue::Ref(r) => Ok(r),
            RtValue::Null => Err(VmError::NullDeref {
                method: self.err_sig(m),
            }),
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(m),
                detail: format!("expected reference, got {other:?}"),
            }),
        }
    }

    fn as_int(&self, t: usize, l: Local, m: MethodId) -> Result<i64, VmError> {
        match self.local(t, l) {
            RtValue::Int(i) => Ok(i),
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(m),
                detail: format!("expected int, got {other:?}"),
            }),
        }
    }

    fn exec_instr(&mut self, t: usize, method: MethodId, ins: &Instr) -> Result<(), VmError> {
        match ins {
            Instr::ConstInt(d, v) => self.set_local(t, *d, RtValue::Int(*v)),
            Instr::ConstDouble(d, v) => self.set_local(t, *d, RtValue::Double(*v)),
            Instr::ConstBool(d, v) => self.set_local(t, *d, RtValue::Bool(*v)),
            Instr::ConstNull(d) => self.set_local(t, *d, RtValue::Null),
            Instr::ConstStr(d, s) => {
                let r = self.heap.intern(s);
                // Loading an interned literal reads its String object from
                // the image heap.
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Ref(r));
            }
            Instr::Move(d, s) => {
                let v = self.local(t, *s);
                self.set_local(t, *d, v);
            }
            Instr::Bin(op, d, a, b) => {
                let va = self.local(t, *a);
                let vb = self.local(t, *b);
                let r = eval_bin(*op, va, vb).ok_or_else(|| match op {
                    BinOp::Div | BinOp::Rem => VmError::DivisionByZero {
                        method: self.err_sig(method),
                    },
                    _ => VmError::TypeMismatch {
                        method: self.err_sig(method),
                        detail: format!("{op:?} on {va:?}, {vb:?}"),
                    },
                })?;
                self.set_local(t, *d, r);
            }
            Instr::Un(op, d, a) => {
                let va = self.local(t, *a);
                let r = eval_un(*op, va).ok_or_else(|| VmError::TypeMismatch {
                    method: self.err_sig(method),
                    detail: format!("{op:?} on {va:?}"),
                })?;
                self.set_local(t, *d, r);
            }
            Instr::New(d, c) => {
                let r = self.heap.alloc_instance(self.program, *c);
                self.set_local(t, *d, RtValue::Ref(r));
            }
            Instr::NewArray(d, elem, len) => {
                let n = self.as_int(t, *len, method)?;
                if n < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    });
                }
                let r = self.heap.alloc(RtObject::Array {
                    elem: elem.clone(),
                    elems: vec![RtValue::default_for(elem); n as usize],
                });
                self.set_local(t, *d, RtValue::Ref(r));
            }
            Instr::GetField(d, obj, fid) => {
                let r = self.as_ref_val(t, *obj, method)?;
                let (slot, v) = self.field_slot(r, *fid, method)?;
                self.heap_access(t, r, 16 + 8 * slot as u64);
                self.set_local(t, *d, v);
            }
            Instr::PutField(obj, fid, src) => {
                let r = self.as_ref_val(t, *obj, method)?;
                let v = self.local(t, *src);
                let slot = self.field_slot(r, *fid, method)?.0;
                self.heap_access(t, r, 16 + 8 * slot as u64);
                match self.heap.get_mut(r) {
                    RtObject::Instance { fields, .. } => fields[slot] = v,
                    _ => unreachable!("field_slot validated"),
                }
            }
            Instr::GetStatic(d, fid) => {
                let v = self.heap.static_value(self.program, *fid);
                self.set_local(t, *d, v);
            }
            Instr::PutStatic(fid, src) => {
                let v = self.local(t, *src);
                self.heap.set_static(*fid, v);
            }
            Instr::ArrayGet(d, arr, idx) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let i = self.as_int(t, *idx, method)?;
                let v = match self.heap.get(r) {
                    RtObject::Array { elems, .. } => *elems
                        .get(usize::try_from(i).map_err(|_| VmError::IndexOutOfBounds {
                            method: self.err_sig(method),
                        })?)
                        .ok_or_else(|| VmError::IndexOutOfBounds {
                            method: self.err_sig(method),
                        })?,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array access on {other:?}"),
                        })
                    }
                };
                self.heap_access(t, r, 24 + 8 * i as u64);
                self.set_local(t, *d, v);
            }
            Instr::ArraySet(arr, idx, src) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let i = self.as_int(t, *idx, method)?;
                let v = self.local(t, *src);
                self.heap_access(t, r, 24 + 8 * i.max(0) as u64);
                let sig = self.err_sig(method);
                match self.heap.get_mut(r) {
                    RtObject::Array { elems, .. } => {
                        let len = elems.len();
                        *elems
                            .get_mut(usize::try_from(i).unwrap_or(len))
                            .ok_or(VmError::IndexOutOfBounds { method: sig })? = v;
                    }
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: sig,
                            detail: format!("array access on {other:?}"),
                        })
                    }
                }
            }
            Instr::ArrayLen(d, arr) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let n = match self.heap.get(r) {
                    RtObject::Array { elems, .. } => elems.len() as i64,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array length on {other:?}"),
                        })
                    }
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Int(n));
            }
            Instr::StrLen(d, s) => {
                let r = self.as_ref_val(t, *s, method)?;
                let n = self.str_content(r, method)?.len() as i64;
                self.touch_object(r, 0);
                self.set_local(t, *d, RtValue::Int(n));
            }
            Instr::StrCharAt(d, s, i) => {
                let r = self.as_ref_val(t, *s, method)?;
                let idx = self.as_int(t, *i, method)?;
                let content = self.str_content(r, method)?;
                let ch = content
                    .as_bytes()
                    .get(usize::try_from(idx).map_err(|_| VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    })?)
                    .copied()
                    .ok_or_else(|| VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    })?;
                self.touch_object(r, 24 + idx as u64);
                self.set_local(t, *d, RtValue::Int(i64::from(ch)));
            }
            Instr::StrConcat(d, a, b) => {
                let sa = self.display_value(self.local(t, *a));
                let sb = self.display_value(self.local(t, *b));
                let r = self.heap.alloc(RtObject::Str(format!("{sa}{sb}")));
                self.set_local(t, *d, RtValue::Ref(r));
            }
            Instr::Call { dst, callee, args } => {
                self.ops += 1; // calls cost an extra op
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                let target = match callee {
                    Callee::Static(m2) => *m2,
                    Callee::Virtual { selector, .. } => {
                        let recv = match argv.first() {
                            Some(RtValue::Ref(r)) => *r,
                            _ => {
                                return Err(VmError::NullDeref {
                                    method: self.err_sig(method),
                                })
                            }
                        };
                        let class = match self.heap.get(recv) {
                            RtObject::Instance { class, .. } => *class,
                            other => {
                                return Err(VmError::TypeMismatch {
                                    method: self.err_sig(method),
                                    detail: format!("virtual call on {other:?}"),
                                })
                            }
                        };
                        self.program
                            .resolve_virtual(class, *selector)
                            .ok_or_else(|| VmError::NoSuchMethod {
                                class: self.program.class(class).name.clone(),
                                selector: self.program.selector_name(*selector).to_string(),
                            })?
                    }
                };
                // End the caller's current path at the call boundary.
                self.path_after_call(t);
                // Advance the caller past the call before pushing the callee.
                let (cu, node, block, ip);
                {
                    let f = self.threads[t].frames.last_mut().expect("frame");
                    f.ip += 1;
                    cu = f.cu;
                    node = f.node;
                    block = f.block;
                    ip = f.ip - 1;
                }
                // Inlined at this exact site?
                let site = nimage_analysis::CallSite {
                    method,
                    block,
                    instr: ip,
                };
                let child = self.compiled.cu(cu).nodes[node as usize]
                    .child_at(site)
                    .filter(|&c| self.compiled.cu(cu).nodes[c as usize].method == target);
                match child {
                    Some(c) => self.push_frame(t, target, cu, c, argv, *dst),
                    None => self.enter_cu(t, target, argv, *dst)?,
                }
            }
            Instr::Intrinsic { dst, op, args } => {
                // Intrinsics execute native code at the end of .text; each
                // lands on its own (scattered) page of the statically
                // linked libraries, like libm entry points do.
                let ps = self.image.options.page_size;
                let tail_pages = (self.image.options.native_tail / ps).max(1);
                let page = (*op as u64 + 2) * 131 % tail_pages;
                self.touch_native(self.image.native_start + page * ps);
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                if *op == Intrinsic::Respond && self.first_response.is_none() {
                    self.first_response = Some(ResponsePoint {
                        ops: self.ops,
                        probe_ops: self.probe_ops,
                        faults: self.paging.faults(),
                    });
                }
                let v = eval_intrinsic(*op, &argv);
                if let Some(d) = dst {
                    self.set_local(t, *d, v.unwrap_or(RtValue::Null));
                }
            }
            Instr::Spawn { method: m2, args } => {
                let argv: Vec<RtValue> = args.iter().map(|&l| self.local(t, l)).collect();
                self.threads.push(ThreadCtx {
                    frames: vec![],
                    handle: None,
                    done: false,
                });
                let nt = self.threads.len() - 1;
                if let Some(s) = self.session.as_mut() {
                    self.threads[nt].handle = Some(s.start_thread());
                }
                self.enter_cu(nt, *m2, argv, None)?;
            }
        }
        Ok(())
    }

    fn exec_terminator(&mut self, t: usize, method: MethodId, block: usize) -> Result<(), VmError> {
        let m = self.program.method(method);
        match m.blocks[block].terminator.clone() {
            Terminator::Ret(v) => {
                self.flush_path(t);
                let frame = self.threads[t].frames.pop().expect("frame");
                let value = v.map(|l| frame.locals[l.index()]);
                if let Some(parent) = self.threads[t].frames.last_mut() {
                    if let Some(slot) = frame.ret_slot {
                        parent.locals[slot.index()] = value.unwrap_or(RtValue::Null);
                    }
                } else if t == 0 && self.entry_return.is_none() {
                    self.entry_return = value;
                }
            }
            Terminator::Jump(target) => {
                self.path_block_edge(t, target.index());
                let frame = self.threads[t].frames.last_mut().expect("frame");
                frame.block = target.index();
                frame.ip = 0;
            }
            Terminator::Br {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = match self.local(t, cond) {
                    RtValue::Bool(b) => b,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("branch on {other:?}"),
                        })
                    }
                };
                let target = if c { then_blk } else { else_blk };
                self.path_block_edge(t, target.index());
                let frame = self.threads[t].frames.last_mut().expect("frame");
                frame.block = target.index();
                frame.ip = 0;
            }
        }
        Ok(())
    }

    fn field_slot(
        &self,
        r: u32,
        fid: nimage_ir::FieldId,
        method: MethodId,
    ) -> Result<(usize, RtValue), VmError> {
        match self.heap.get(r) {
            RtObject::Instance { class, fields } => {
                let layout = self.program.all_instance_fields(*class);
                let slot =
                    layout
                        .iter()
                        .position(|&f| f == fid)
                        .ok_or_else(|| VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!(
                                "field {} not on {}",
                                self.program.field_signature(fid),
                                self.program.class(*class).name
                            ),
                        })?;
                Ok((slot, fields[slot]))
            }
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(method),
                detail: format!("field access on {other:?}"),
            }),
        }
    }

    fn str_content(&self, r: u32, method: MethodId) -> Result<&str, VmError> {
        match self.heap.get(r) {
            RtObject::Str(s) => Ok(s),
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(method),
                detail: format!("string op on {other:?}"),
            }),
        }
    }

    fn display_value(&self, v: RtValue) -> String {
        match v {
            RtValue::Null => "null".to_string(),
            RtValue::Bool(b) => b.to_string(),
            RtValue::Int(i) => i.to_string(),
            RtValue::Double(d) => format!("{d}"),
            RtValue::Ref(r) => match self.heap.get(r) {
                RtObject::Str(s) => s.clone(),
                other => format!("<{other:?}>"),
            },
        }
    }
}

/// Canonicalizes a recorded span list: sorted by start, overlapping or
/// adjacent spans merged. The recording fast path only extends the last
/// span, so revisits out of order leave duplicates this pass removes.
fn merge_spans(spans: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut v = spans.to_vec();
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_costs_default_order_matches_the_paper() {
        let c = ProbeCosts::default();
        assert!(c.method_entry > c.cu_entry);
        assert!(c.cu_entry > c.path_flush);
        assert!(c.path_flush >= c.obj_id);
    }
}
