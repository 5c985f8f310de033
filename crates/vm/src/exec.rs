//! The interpreter VM: executes a compiled image with optional profiling
//! instrumentation, logging its first touches for the paging replay.
//!
//! Execution is fully deterministic: threads are scheduled round-robin with
//! a fixed quantum, allocation order is program order, and every source of
//! time is an operation counter. Page faults arise exactly where a real
//! memory-mapped binary would fault: on first execution of a compilation
//! unit's bytes in `.text`, and on first access to a snapshot object's bytes
//! in `.svm_heap` — computed after the run by paging its
//! [`AccessLog`] against the image ([`crate::access`]).

use std::sync::Arc;

use nimage_compiler::{CallCountProfile, CompiledProgram, CuId, PathNumbering, ProfilingCfg};
use nimage_heap::{HObjectKind, HeapSnapshot, ObjId};
use nimage_image::BinaryImage;
use nimage_ir::{
    eval_bin, eval_double_bin, eval_double_un, eval_int_bin, eval_int_un, eval_intrinsic, eval_un,
    BinOp, Callee, Instr, Intrinsic, Local, MethodId, Program, Terminator, UnOp, Value,
};
use nimage_profiler::{DumpMode, ThreadHandle, TraceSession};
use nimage_trace::Tracer;

use crate::access::{tail_pages, AccessLog, FirstTouches};
use crate::heap_rt::RtHeap;
use crate::lower::{JumpEdge, LoweredCallee, LoweredInstr, LoweredProgram};
use crate::paging::{PagingConfig, PagingConfigError, SectionFaults};
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

impl From<PagingConfigError> for VmError {
    fn from(e: PagingConfigError) -> Self {
        VmError::Config {
            detail: e.to_string(),
        }
    }
}

struct Frame {
    method: MethodId,
    cu: CuId,
    node: u32,
    locals: Vec<Value>,
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
    image: &'a BinaryImage,
    config: VmConfig,
    /// First touches of this run, paged against the image at exit.
    touches: FirstTouches,
    heap: RtHeap<'a>,
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
    entry_return: Option<Value>,
    native_touch_pages: Vec<u32>,
    /// Buffers of frames the lowered engine returned from, reused by its
    /// next calls: once the stack has been this deep, a call allocates
    /// nothing.
    spare_locals: Vec<Vec<Value>>,
    spare_pending: Vec<Vec<u64>>,
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
/// shareable or optional — pre-lowered program, tracer — as chained
/// setters. [`Vm::new`] is its no-options form.
pub struct VmBuilder<'a> {
    program: &'a Program,
    compiled: &'a CompiledProgram,
    snapshot: &'a HeapSnapshot,
    image: &'a BinaryImage,
    config: VmConfig,
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
            lowered: None,
            trace: Tracer::disabled(),
        }
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
    /// fault. Tracing never changes results: the paging replay runs
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
            lowered,
            trace,
        } = self;
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
            touches: FirstTouches::new(compiled, snapshot, &image.options),
            heap: RtHeap::new(snapshot.heap(), program),
            program,
            compiled,
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
            native_touch_pages: Vec::new(),
            spare_locals: Vec::new(),
            spare_pending: Vec::new(),
            probe_scale,
            trace,
        }
    }
}

impl<'a> Vm<'a> {
    /// Creates a VM over a built image. The run reads the snapshot heap in
    /// place and keeps its own writes to it private ([`RtHeap`]).
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

    /// Runtime error helper.
    fn err_sig(&self, m: MethodId) -> String {
        self.program.method_signature(m)
    }

    /// A new locals buffer for a frame of `method`: `args`, then nulls.
    /// The reference interpreter's; the lowered engine recycles buffers
    /// ([`Vm::callee_locals`]).
    fn fresh_locals(&self, method: MethodId, args: &[Value]) -> Vec<Value> {
        let mut locals = vec![Value::Null; self.program.method(method).n_locals as usize];
        locals[..args.len()].copy_from_slice(args);
        locals
    }

    /// The locals of a lowered call from thread `t`'s top frame to
    /// `method`: a buffer recycled from a returned frame when one is spare,
    /// with the arguments copied straight from the caller's locals.
    fn callee_locals(&mut self, t: usize, method: MethodId, args: &[Local]) -> Vec<Value> {
        let n = self.program.method(method).n_locals as usize;
        let mut locals = self.spare_locals.pop().unwrap_or_default();
        locals.clear();
        locals.resize(n, Value::Null);
        let caller = &self.threads[t].frames.last().expect("frame").locals;
        for (slot, a) in locals[..args.len()].iter_mut().zip(args) {
            *slot = caller[a.index()];
        }
        locals
    }

    /// Returns a popped frame's buffers for reuse.
    fn recycle(&mut self, frame: Frame) {
        let mut pending = frame.pending;
        pending.clear();
        self.spare_pending.push(pending);
        self.spare_locals.push(frame.locals);
    }

    /// Pushes a new frame for `method` executing inside `(cu, node)`, with
    /// its locals (arguments first) already filled.
    fn push_frame(
        &mut self,
        thread: usize,
        method: MethodId,
        cu: CuId,
        node: u32,
        locals: Vec<Value>,
        ret_slot: Option<Local>,
    ) {
        self.touches.code(cu, node);
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
        let pending = self.spare_pending.pop().unwrap_or_default();
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
            pending,
        });
    }

    /// Enters a CU out-of-line (thread start or non-inlined call).
    fn enter_cu(
        &mut self,
        thread: usize,
        method: MethodId,
        locals: Vec<Value>,
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
        // realized; a whole-program lowering never hits the slow path). The
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
        self.push_frame(thread, method, cu, 0, locals, ret_slot);
        Ok(())
    }

    fn flush_path(&mut self, thread: usize) {
        if !self.trace_heap() {
            return;
        }
        let method = self.threads[thread]
            .frames
            .last()
            .expect("flush with live frame")
            .method;
        let sig = self.sig_idx(method);
        let th = self.threads[thread].handle.expect("traced thread");
        let frame = self.threads[thread].frames.last_mut().expect("frame");
        self.probe_ops += (self.config.probe_costs.path_flush
            + self.config.probe_costs.obj_id * frame.pending.len() as u64)
            * self.probe_scale;
        self.session.as_mut().expect("session").record_path(
            th,
            sig,
            frame.path_start,
            frame.path_acc,
            &frame.pending,
        );
        frame.pending.clear();
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

    /// Touches logical page `page` of the native tail (below its page
    /// count): logged for paging, and recorded in the logical first-touch
    /// order (the profile of the native-reordering extension) when the page
    /// lies inside the tail.
    fn touch_native(&mut self, page: u64) {
        let ps = self.image.options.page_size;
        if self.touches.native(page as u32) && page * ps < self.image.options.native_tail {
            self.native_touch_pages.push(page as u32);
        }
    }

    /// The native-tail page an intrinsic's code lands on: each intrinsic
    /// has its own (scattered) page of the statically linked libraries,
    /// like libm entry points do.
    fn intrinsic_page(&self, op: Intrinsic) -> u64 {
        (op as u64 + 2) * 131 % tail_pages(&self.image.options)
    }

    /// Records the first `respond`: the counters now, the faults once the
    /// log is paged.
    fn note_response(&mut self) {
        if self.first_response.is_none() {
            self.first_response = Some(ResponsePoint {
                ops: self.ops,
                probe_ops: self.probe_ops,
                faults: SectionFaults::default(),
            });
            self.touches.respond();
        }
    }

    /// Touches the `.svm_heap` bytes of an object access; `true` when the
    /// object is in the image.
    fn touch_object(&mut self, r: u32, byte_offset: u64) -> bool {
        touch_heap(&self.heap, &mut self.touches, r, byte_offset)
    }

    /// Records a traced heap access (paging + pending trace id + probe cost).
    fn heap_access(&mut self, thread: usize, r: u32, byte_offset: u64) {
        let in_image = self.touch_object(r, byte_offset);
        if self.trace_heap() {
            let id = trace_id(r, in_image);
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
    /// Returns a [`VmError`] if the program performs an illegal operation
    /// or the paging configuration is invalid.
    ///
    /// # Panics
    /// Panics if the program has no entry point.
    pub fn run(self, stop: StopWhen) -> Result<RunReport, VmError> {
        self.run_logged(stop).map(|(report, _)| report)
    }

    /// [`Vm::run`], also returning the run's [`AccessLog`]: with it,
    /// [`crate::relayout`] produces this build's report on any other image
    /// without executing again.
    ///
    /// # Errors
    /// As [`Vm::run`].
    ///
    /// # Panics
    /// Panics if the program has no entry point.
    pub fn run_logged(mut self, stop: StopWhen) -> Result<(RunReport, AccessLog), VmError> {
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
    /// As [`Vm::run`].
    ///
    /// # Panics
    /// Panics if the program has no entry point.
    pub fn run_reference(mut self, stop: StopWhen) -> Result<RunReport, VmError> {
        self.lowered = None;
        self.execute(stop).map(|(report, _)| report)
    }

    /// The scheduler loop shared by both engines: steps lowered code iff
    /// `self.lowered` is set, then pages the run's log against the image.
    fn execute(mut self, stop: StopWhen) -> Result<(RunReport, AccessLog), VmError> {
        self.config.paging.validate()?;
        let entry = self.program.entry.expect("program has an entry point");

        // Native runtime startup: the dynamic loader, libc init and VM
        // runtime touch entry points scattered across the statically linked
        // libraries before main (relocations, TLS setup, locale tables…).
        let tail = tail_pages(&self.image.options);
        for p in 0..self.config.startup_native_pages {
            let page = if p == 0 { 0 } else { (p * 53 + 7) % tail };
            self.touch_native(page);
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
        let locals = self.fresh_locals(entry, &[]);
        self.enter_cu(0, entry, locals, None)?;

        // Clone the Arc out of `self` so the lowered engine can borrow
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
                let end = match &lowered {
                    Some(lp) => self.run_quantum(lp, t, stop)?,
                    None => self.step_quantum(t, stop)?,
                };
                match end {
                    QuantumEnd::Yield => {}
                    QuantumEnd::Budget => break 'sched,
                    QuantumEnd::Killed => {
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

        let (log, heap_touch_spans) = self.touches.finish();
        let session_stats = self.session.as_ref().map(|s| s.stats());
        let trace = self.session.take().map(|s| s.into_trace());
        let mut report = RunReport {
            heap_touch_spans,
            ops: self.ops,
            probe_ops: self.probe_ops,
            native_touch_pages: self.native_touch_pages,
            faults: SectionFaults::default(),
            first_response: self.first_response,
            call_counts,
            trace,
            session_stats,
            exit,
            entry_return: self.entry_return,
            text_page_states: vec![],
            heap_page_states: vec![],
        };
        log.page_into(
            &mut report,
            self.compiled,
            self.image,
            &self.config.paging,
            &self.trace,
        );
        Ok((report, log))
    }

    /// Marks thread `t` done, ending its trace thread, once its last frame
    /// has returned; `true` when it has.
    fn end_if_finished(&mut self, t: usize) -> bool {
        if !self.threads[t].frames.is_empty() {
            return false;
        }
        if let (Some(s), Some(h)) = (self.session.as_mut(), self.threads[t].handle) {
            s.end_thread(h);
        }
        self.threads[t].done = true;
        true
    }

    /// One scheduling quantum of thread `t` on the reference interpreter.
    /// Before each op: thread end, then the op budget; after it: the first
    /// response.
    fn step_quantum(&mut self, t: usize, stop: StopWhen) -> Result<QuantumEnd, VmError> {
        for _ in 0..self.config.quantum {
            if self.end_if_finished(t) {
                return Ok(QuantumEnd::Yield);
            }
            if self.ops >= self.config.max_ops {
                return Ok(QuantumEnd::Budget);
            }
            self.step(t)?;
            if stop == StopWhen::FirstResponse && self.first_response.is_some() {
                return Ok(QuantumEnd::Killed);
            }
        }
        Ok(QuantumEnd::Yield)
    }

    /// One scheduling quantum of thread `t` on the lowered engine, with
    /// exactly [`Vm::step_quantum`]'s checks per op. Runs of fast ops go
    /// through [`Vm::run_fast`]; those can neither end the thread nor
    /// respond, so only the quantum and the op budget bound a run. Every
    /// other op is one [`Vm::step_lowered`].
    fn run_quantum(
        &mut self,
        lp: &LoweredProgram,
        t: usize,
        stop: StopWhen,
    ) -> Result<QuantumEnd, VmError> {
        let mut left = u64::from(self.config.quantum);
        while left > 0 {
            if self.end_if_finished(t) {
                return Ok(QuantumEnd::Yield);
            }
            if self.ops >= self.config.max_ops {
                return Ok(QuantumEnd::Budget);
            }
            let budget = left.min(self.config.max_ops - self.ops);
            let (ran, end) = self.run_fast(lp, t, budget)?;
            left -= ran;
            if end == FastEnd::Slow {
                // The checks above still hold for this op.
                self.step_lowered(lp, t)?;
                left -= 1;
                if stop == StopWhen::FirstResponse && self.first_response.is_some() {
                    return Ok(QuantumEnd::Killed);
                }
            }
        }
        Ok(QuantumEnd::Yield)
    }

    /// Runs up to `budget` ops of thread `t`'s top frame with the frame,
    /// its code and its path table held in locals. This is the lowered
    /// engine's only implementation of the constants, `Move`, `Bin`,
    /// `Un`, `Jump`, `Br`, `GetField`, `PutField`, `ArrayGet` and
    /// `ArraySet`, errors included. Stops after a cut Ball–Larus edge,
    /// whose path it flushes, and before any other op, which is
    /// [`Vm::step_lowered`]'s. Returns the number of ops run.
    fn run_fast(
        &mut self,
        lp: &LoweredProgram,
        t: usize,
        budget: u64,
    ) -> Result<(u64, FastEnd), VmError> {
        let trace_heap = self.trace_heap();
        let obj_cost = self.config.probe_costs.obj_id * self.probe_scale;
        let program = self.program;
        let Frame {
            method,
            locals,
            ip,
            mini,
            path_acc,
            pending,
            ..
        } = self.threads[t].frames.last_mut().expect("live frame");
        let method = *method;
        let code = &lp.method(method).code[..];
        let paths = trace_heap.then(|| {
            lp.paths(method)
                .expect("path tables built for traced builds")
        });
        let locals = &mut locals[..];
        let heap = &mut self.heap;
        let touches = &mut self.touches;
        let mismatch = |detail: String| VmError::TypeMismatch {
            method: program.method_signature(method),
            detail,
        };
        let out_of_bounds = || VmError::IndexOutOfBounds {
            method: program.method_signature(method),
        };
        let mut pc = *ip;
        let mut n = 0;
        let mut probe = 0;
        let mut end = FastEnd::Ran;
        let mut cut_to = None;
        // A heap access: its first touch and, on heap-traced builds, the
        // object's trace id and probe cost (`Vm::heap_access`).
        macro_rules! access {
            ($r:expr, $offset:expr) => {{
                let in_image = touch_heap(heap, touches, $r, $offset);
                if trace_heap {
                    probe += obj_cost;
                    pending.push(trace_id($r, in_image));
                }
            }};
        }
        // Takes a control-flow edge; a cut one ends the run.
        macro_rules! edge {
            ($e:expr) => {{
                let e: &JumpEdge = $e;
                pc = e.pc as usize;
                n += 1;
                if let Some(p) = paths {
                    let head = p.block_head[e.block as usize];
                    let pe = p.edge(*mini, e.block);
                    if pe.cut {
                        cut_to = Some(head);
                        break;
                    }
                    *path_acc += pe.inc;
                    *mini = head;
                }
                continue;
            }};
        }
        while n < budget {
            match &code[pc] {
                LoweredInstr::ConstInt(d, v) => locals[d.index()] = Value::Int(*v),
                LoweredInstr::ConstDouble(d, v) => locals[d.index()] = Value::Double(*v),
                LoweredInstr::ConstBool(d, v) => locals[d.index()] = Value::Bool(*v),
                LoweredInstr::ConstNull(d) => locals[d.index()] = Value::Null,
                // Copies tag and payload apart, as the typed cells below
                // store them: a 16-byte load of a value stored that way
                // cannot be forwarded from the two stores and stalls.
                LoweredInstr::Move(d, s) => {
                    locals[d.index()] = match locals[s.index()] {
                        Value::Int(x) => Value::Int(x),
                        Value::Double(x) => Value::Double(x),
                        Value::Bool(x) => Value::Bool(x),
                        v => v,
                    }
                }
                // Operands are read where they lie and their tags matched
                // here; the typed cells hand the result to `put` in the arm
                // that computes it, which stores it straight into the
                // destination. Copying both operands into `eval_bin` and
                // its `Option` result back out cost a store-forwarding
                // stall per op. Every other operand pair, and every cell
                // without a value, takes the generic table and its errors.
                LoweredInstr::Bin(op, d, a, b) => {
                    let d = d.index();
                    let done = match (&locals[a.index()], &locals[b.index()]) {
                        (&Value::Int(x), &Value::Int(y)) => {
                            eval_int_bin(*op, x, y, |v| locals[d] = v)
                        }
                        (&Value::Double(x), &Value::Double(y)) => {
                            eval_double_bin(*op, x, y, |v| locals[d] = v)
                        }
                        (&va, &vb) => eval_bin(*op, va, vb).map(|v| locals[d] = v),
                    };
                    if done.is_none() {
                        let (va, vb) = (locals[a.index()], locals[b.index()]);
                        return Err(bin_error(program, method, *op, va, vb));
                    }
                }
                LoweredInstr::Un(op, d, a) => {
                    let d = d.index();
                    let done = match locals[a.index()] {
                        Value::Int(x) => eval_int_un(*op, x, |v| locals[d] = v),
                        Value::Double(x) => eval_double_un(*op, x, |v| locals[d] = v),
                        va => eval_un(*op, va).map(|v| locals[d] = v),
                    };
                    if done.is_none() {
                        return Err(un_error(program, method, *op, locals[a.index()]));
                    }
                }
                LoweredInstr::Jump(e) => edge!(e),
                LoweredInstr::Br {
                    cond,
                    then_e,
                    else_e,
                } => match locals[cond.index()] {
                    Value::Bool(c) => edge!(if c { then_e } else { else_e }),
                    other => return Err(mismatch(format!("branch on {other:?}"))),
                },
                LoweredInstr::GetField(d, obj, fid) => {
                    let r = ref_of(program, method, locals[obj.index()])?;
                    let (slot, v) = field_slot(program, lp, heap, r, *fid, method)?;
                    access!(r, 16 + 8 * slot as u64);
                    locals[d.index()] = v;
                }
                LoweredInstr::PutField(obj, fid, src) => {
                    let r = ref_of(program, method, locals[obj.index()])?;
                    let slot = field_slot(program, lp, heap, r, *fid, method)?.0;
                    access!(r, 16 + 8 * slot as u64);
                    match heap.get_mut(r) {
                        HObjectKind::Instance { fields, .. } => fields[slot] = locals[src.index()],
                        _ => unreachable!("field_slot checked"),
                    }
                }
                LoweredInstr::ArrayGet(d, arr, idx) => {
                    let r = ref_of(program, method, locals[arr.index()])?;
                    let i = int_of(program, method, locals[idx.index()])?;
                    let v = match heap.get(r) {
                        HObjectKind::Array { elems, .. } => *usize::try_from(i)
                            .ok()
                            .and_then(|i| elems.get(i))
                            .ok_or_else(out_of_bounds)?,
                        other => return Err(mismatch(format!("array access on {other:?}"))),
                    };
                    access!(r, 24 + 8 * i as u64);
                    locals[d.index()] = v;
                }
                LoweredInstr::ArraySet(arr, idx, src) => {
                    let r = ref_of(program, method, locals[arr.index()])?;
                    let i = int_of(program, method, locals[idx.index()])?;
                    let at = match heap.get(r) {
                        HObjectKind::Array { elems, .. } => usize::try_from(i)
                            .ok()
                            .filter(|&i| i < elems.len())
                            .ok_or_else(out_of_bounds)?,
                        other => return Err(mismatch(format!("array access on {other:?}"))),
                    };
                    access!(r, 24 + 8 * at as u64);
                    match heap.get_mut(r) {
                        HObjectKind::Array { elems, .. } => elems[at] = locals[src.index()],
                        _ => unreachable!("checked above"),
                    }
                }
                _ => {
                    end = FastEnd::Slow;
                    break;
                }
            }
            pc += 1;
            n += 1;
        }
        *ip = pc;
        self.ops += n;
        self.probe_ops += probe;
        if let Some(head) = cut_to {
            self.flush_path(t);
            let frame = self.threads[t].frames.last_mut().expect("frame");
            frame.mini = head;
            frame.path_start = head;
            frame.path_acc = 0;
        }
        Ok((n, end))
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

    /// Executes one lowered instruction on thread `t`: the slow path of
    /// [`Vm::run_quantum`], taking every op [`Vm::run_fast`] stops before.
    /// `lp` is borrowed from the `Arc` clone held by [`Vm::run`], so
    /// instruction references never alias `&mut self`.
    fn step_lowered(&mut self, lp: &LoweredProgram, t: usize) -> Result<(), VmError> {
        self.ops += 1;
        let (method, pc) = {
            let f = self.threads[t].frames.last().expect("live frame");
            (f.method, f.ip)
        };
        match &lp.method(method).code[pc] {
            LoweredInstr::ConstInt(..)
            | LoweredInstr::ConstDouble(..)
            | LoweredInstr::ConstBool(..)
            | LoweredInstr::ConstNull(..)
            | LoweredInstr::Move(..)
            | LoweredInstr::Bin(..)
            | LoweredInstr::Un(..)
            | LoweredInstr::GetField(..)
            | LoweredInstr::PutField(..)
            | LoweredInstr::ArrayGet(..)
            | LoweredInstr::ArraySet(..)
            | LoweredInstr::Jump(..)
            | LoweredInstr::Br { .. } => unreachable!("run by Vm::run_fast"),
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
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::New(d, c) => {
                let fields = lp.field_defaults(*c).to_vec();
                let r = self.heap.alloc(HObjectKind::Instance { class: *c, fields });
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::NewArray(d, elem, len) => {
                let n = self.as_int(t, *len, method)?;
                if n < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    });
                }
                let r = self.heap.alloc(HObjectKind::Array {
                    elem: elem.clone(),
                    elems: vec![Value::default_for(elem); n as usize],
                });
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::GetStatic(d, fid) => {
                let v = self.heap.static_value(*fid);
                self.set_local(t, *d, v);
            }
            LoweredInstr::PutStatic(fid, src) => {
                let v = self.local(t, *src);
                self.heap.set_static(*fid, v);
            }
            LoweredInstr::ArrayLen(d, arr) => {
                let r = self.as_ref_val(t, *arr, method)?;
                let n = match self.heap.get(r) {
                    HObjectKind::Array { elems, .. } => elems.len() as i64,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array length on {other:?}"),
                        })
                    }
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
            }
            LoweredInstr::StrLen(d, s) => {
                let r = self.as_ref_val(t, *s, method)?;
                let n = self.str_content(r, method)?.len() as i64;
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
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
                self.set_local(t, *d, Value::Int(i64::from(ch)));
            }
            LoweredInstr::StrConcat(d, a, b) => {
                let sa = self.display_value(self.local(t, *a));
                let sb = self.display_value(self.local(t, *b));
                let r = self.heap.alloc(HObjectKind::Str(format!("{sa}{sb}")));
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::Call {
                dst,
                target,
                args,
                site_block,
                site_instr,
            } => {
                self.ops += 1; // calls cost an extra op
                let target_m = match target {
                    LoweredCallee::Static(m2) => *m2,
                    LoweredCallee::Virtual(sel) => {
                        let recv = match args.first().map(|&l| self.local(t, l)) {
                            Some(Value::Ref(r)) => r,
                            _ => {
                                return Err(VmError::NullDeref {
                                    method: self.err_sig(method),
                                })
                            }
                        };
                        let class = match self.heap.get(recv) {
                            HObjectKind::Instance { class, .. } => *class,
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
                let locals = self.callee_locals(t, target_m, args);
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
                    Some(c) => self.push_frame(t, target_m, cu, c, locals, *dst),
                    None => self.enter_cu(t, target_m, locals, *dst)?,
                }
                return Ok(());
            }
            LoweredInstr::Intrinsic { dst, op, args } => {
                self.touch_native(self.intrinsic_page(*op));
                let argv: Vec<Value> = args.iter().map(|&l| self.local(t, l)).collect();
                if *op == Intrinsic::Respond {
                    self.note_response();
                }
                let v = eval_intrinsic(*op, &argv);
                if let Some(d) = dst {
                    self.set_local(t, *d, v.unwrap_or(Value::Null));
                }
            }
            LoweredInstr::Spawn { method: m2, args } => {
                let locals = self.callee_locals(t, *m2, args);
                self.threads.push(ThreadCtx {
                    frames: vec![],
                    handle: None,
                    done: false,
                });
                let nt = self.threads.len() - 1;
                if let Some(s) = self.session.as_mut() {
                    self.threads[nt].handle = Some(s.start_thread());
                }
                self.enter_cu(nt, *m2, locals, None)?;
            }
            LoweredInstr::Ret(v) => {
                self.flush_path(t);
                let frame = self.threads[t].frames.pop().expect("frame");
                let value = v.map(|l| frame.locals[l.index()]);
                if let Some(parent) = self.threads[t].frames.last_mut() {
                    if let Some(slot) = frame.ret_slot {
                        parent.locals[slot.index()] = value.unwrap_or(Value::Null);
                    }
                } else if t == 0 && self.entry_return.is_none() {
                    self.entry_return = value;
                }
                self.recycle(frame);
                return Ok(());
            }
        }
        // Straight-line instruction: advance this frame's flat pc. Only
        // calls and terminators (handled above) change the frame stack of
        // thread `t`, so the top frame is still the executing one.
        self.threads[t].frames.last_mut().expect("frame").ip += 1;
        Ok(())
    }

    fn local(&self, t: usize, l: Local) -> Value {
        self.threads[t].frames.last().expect("frame").locals[l.index()]
    }

    fn set_local(&mut self, t: usize, l: Local, v: Value) {
        self.threads[t].frames.last_mut().expect("frame").locals[l.index()] = v;
    }

    fn as_ref_val(&self, t: usize, l: Local, m: MethodId) -> Result<u32, VmError> {
        ref_of(self.program, m, self.local(t, l))
    }

    fn as_int(&self, t: usize, l: Local, m: MethodId) -> Result<i64, VmError> {
        int_of(self.program, m, self.local(t, l))
    }

    fn exec_instr(&mut self, t: usize, method: MethodId, ins: &Instr) -> Result<(), VmError> {
        match ins {
            Instr::ConstInt(d, v) => self.set_local(t, *d, Value::Int(*v)),
            Instr::ConstDouble(d, v) => self.set_local(t, *d, Value::Double(*v)),
            Instr::ConstBool(d, v) => self.set_local(t, *d, Value::Bool(*v)),
            Instr::ConstNull(d) => self.set_local(t, *d, Value::Null),
            Instr::ConstStr(d, s) => {
                let r = self.heap.intern(s);
                // Loading an interned literal reads its String object from
                // the image heap.
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Ref(r));
            }
            Instr::Move(d, s) => {
                let v = self.local(t, *s);
                self.set_local(t, *d, v);
            }
            Instr::Bin(op, d, a, b) => {
                let va = self.local(t, *a);
                let vb = self.local(t, *b);
                let r = eval_bin(*op, va, vb)
                    .ok_or_else(|| bin_error(self.program, method, *op, va, vb))?;
                self.set_local(t, *d, r);
            }
            Instr::Un(op, d, a) => {
                let va = self.local(t, *a);
                let r = eval_un(*op, va).ok_or_else(|| un_error(self.program, method, *op, va))?;
                self.set_local(t, *d, r);
            }
            Instr::New(d, c) => {
                let r = self.heap.alloc_instance(self.program, *c);
                self.set_local(t, *d, Value::Ref(r));
            }
            Instr::NewArray(d, elem, len) => {
                let n = self.as_int(t, *len, method)?;
                if n < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        method: self.err_sig(method),
                    });
                }
                let r = self.heap.alloc(HObjectKind::Array {
                    elem: elem.clone(),
                    elems: vec![Value::default_for(elem); n as usize],
                });
                self.set_local(t, *d, Value::Ref(r));
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
                    HObjectKind::Instance { fields, .. } => fields[slot] = v,
                    _ => unreachable!("field_slot validated"),
                }
            }
            Instr::GetStatic(d, fid) => {
                let v = self.heap.static_value(*fid);
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
                    HObjectKind::Array { elems, .. } => *elems
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
                    HObjectKind::Array { elems, .. } => {
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
                    HObjectKind::Array { elems, .. } => elems.len() as i64,
                    other => {
                        return Err(VmError::TypeMismatch {
                            method: self.err_sig(method),
                            detail: format!("array length on {other:?}"),
                        })
                    }
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
            }
            Instr::StrLen(d, s) => {
                let r = self.as_ref_val(t, *s, method)?;
                let n = self.str_content(r, method)?.len() as i64;
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
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
                self.set_local(t, *d, Value::Int(i64::from(ch)));
            }
            Instr::StrConcat(d, a, b) => {
                let sa = self.display_value(self.local(t, *a));
                let sb = self.display_value(self.local(t, *b));
                let r = self.heap.alloc(HObjectKind::Str(format!("{sa}{sb}")));
                self.set_local(t, *d, Value::Ref(r));
            }
            Instr::Call { dst, callee, args } => {
                self.ops += 1; // calls cost an extra op
                let argv: Vec<Value> = args.iter().map(|&l| self.local(t, l)).collect();
                let target = match callee {
                    Callee::Static(m2) => *m2,
                    Callee::Virtual { selector, .. } => {
                        let recv = match argv.first() {
                            Some(Value::Ref(r)) => *r,
                            _ => {
                                return Err(VmError::NullDeref {
                                    method: self.err_sig(method),
                                })
                            }
                        };
                        let class = match self.heap.get(recv) {
                            HObjectKind::Instance { class, .. } => *class,
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
                let locals = self.fresh_locals(target, &argv);
                match child {
                    Some(c) => self.push_frame(t, target, cu, c, locals, *dst),
                    None => self.enter_cu(t, target, locals, *dst)?,
                }
            }
            Instr::Intrinsic { dst, op, args } => {
                // Intrinsics execute native code at the end of .text.
                self.touch_native(self.intrinsic_page(*op));
                let argv: Vec<Value> = args.iter().map(|&l| self.local(t, l)).collect();
                if *op == Intrinsic::Respond {
                    self.note_response();
                }
                let v = eval_intrinsic(*op, &argv);
                if let Some(d) = dst {
                    self.set_local(t, *d, v.unwrap_or(Value::Null));
                }
            }
            Instr::Spawn { method: m2, args } => {
                let argv: Vec<Value> = args.iter().map(|&l| self.local(t, l)).collect();
                self.threads.push(ThreadCtx {
                    frames: vec![],
                    handle: None,
                    done: false,
                });
                let nt = self.threads.len() - 1;
                if let Some(s) = self.session.as_mut() {
                    self.threads[nt].handle = Some(s.start_thread());
                }
                let locals = self.fresh_locals(*m2, &argv);
                self.enter_cu(nt, *m2, locals, None)?;
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
                        parent.locals[slot.index()] = value.unwrap_or(Value::Null);
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
                    Value::Bool(b) => b,
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
    ) -> Result<(usize, Value), VmError> {
        match self.heap.get(r) {
            HObjectKind::Instance { class, fields } => {
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
            HObjectKind::Str(s) => Ok(s),
            other => Err(VmError::TypeMismatch {
                method: self.err_sig(method),
                detail: format!("string op on {other:?}"),
            }),
        }
    }

    fn display_value(&self, v: Value) -> String {
        match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Double(d) => format!("{d}"),
            Value::Ref(r) => match self.heap.get(r) {
                HObjectKind::Str(s) => s.clone(),
                other => format!("<{other:?}>"),
            },
        }
    }
}

/// What ended a thread's scheduling quantum.
enum QuantumEnd {
    /// The quantum ran out or the thread finished: on to the next thread.
    Yield,
    /// The op budget is spent.
    Budget,
    /// The first response arrived under [`StopWhen::FirstResponse`].
    Killed,
}

/// Where [`Vm::run_fast`] stopped.
#[derive(PartialEq, Eq)]
enum FastEnd {
    /// After its budget, or after a cut Ball–Larus edge.
    Ran,
    /// Before an op that [`Vm::step_lowered`] runs.
    Slow,
}

/// The error `Bin(op)` of `method` raises when the operator table has no
/// value for `va, vb`. Both engines build it here.
#[cold]
fn bin_error(program: &Program, method: MethodId, op: BinOp, va: Value, vb: Value) -> VmError {
    match op {
        BinOp::Div | BinOp::Rem => VmError::DivisionByZero {
            method: program.method_signature(method),
        },
        _ => VmError::TypeMismatch {
            method: program.method_signature(method),
            detail: format!("{op:?} on {va:?}, {vb:?}"),
        },
    }
}

/// The error `Un(op)` of `method` raises when the operator table has no
/// value for `va`. Both engines build it here.
#[cold]
fn un_error(program: &Program, method: MethodId, op: UnOp, va: Value) -> VmError {
    VmError::TypeMismatch {
        method: program.method_signature(method),
        detail: format!("{op:?} on {va:?}"),
    }
}

/// `v` as an object reference, or the error an op of `method` raises.
#[inline]
fn ref_of(program: &Program, method: MethodId, v: Value) -> Result<u32, VmError> {
    match v {
        Value::Ref(r) => Ok(r),
        Value::Null => Err(VmError::NullDeref {
            method: program.method_signature(method),
        }),
        other => Err(VmError::TypeMismatch {
            method: program.method_signature(method),
            detail: format!("expected reference, got {other:?}"),
        }),
    }
}

/// `v` as an int, or the error an op of `method` raises.
#[inline]
fn int_of(program: &Program, method: MethodId, v: Value) -> Result<i64, VmError> {
    match v {
        Value::Int(i) => Ok(i),
        other => Err(VmError::TypeMismatch {
            method: program.method_signature(method),
            detail: format!("expected int, got {other:?}"),
        }),
    }
}

/// The slot and value of field `fid` of object `r`, through the
/// pre-lowered `class × field` table; error messages match
/// [`Vm::field_slot`] byte for byte. Forced inline so the `(slot, value)`
/// result stays out of memory on [`Vm::run_fast`]'s path.
#[inline(always)]
fn field_slot(
    program: &Program,
    lp: &LoweredProgram,
    heap: &RtHeap<'_>,
    r: u32,
    fid: nimage_ir::FieldId,
    method: MethodId,
) -> Result<(usize, Value), VmError> {
    match heap.get(r) {
        HObjectKind::Instance { class, fields } => match lp.field_slot(*class, fid) {
            Some(slot) => Ok((slot, fields[slot])),
            None => Err(VmError::TypeMismatch {
                method: program.method_signature(method),
                detail: format!(
                    "field {} not on {}",
                    program.field_signature(fid),
                    program.class(*class).name
                ),
            }),
        },
        other => Err(VmError::TypeMismatch {
            method: program.method_signature(method),
            detail: format!("field access on {other:?}"),
        }),
    }
}

/// Touches the `.svm_heap` bytes of an access to heap object `r`; `true`
/// when the object is in the image.
#[inline]
fn touch_heap(heap: &RtHeap<'_>, touches: &mut FirstTouches, r: u32, byte_offset: u64) -> bool {
    heap.is_image_object(r) && touches.object(ObjId(r), byte_offset)
}

/// The 64-bit profile identifier traced for an access to heap object `r`
/// (0 when the object is not part of the heap snapshot).
#[inline]
fn trace_id(r: u32, in_image: bool) -> u64 {
    if in_image {
        u64::from(r) + 1
    } else {
        0
    }
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
