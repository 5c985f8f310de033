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

use nimage_compiler::{CallCountProfile, CompiledProgram, CuId, ProgramIndex};
use nimage_heap::exec::{
    array_len, bin_error, branch_error, char_at, display_value, exec_data, field_slot, int_of,
    kind_error, no_such_method, out_of_bounds, receiver_class, ref_of, str_of, un_error,
};
use nimage_heap::{ExecError, ExecHeap, ExecHooks, HObjectKind, HeapSnapshot, ObjId};
use nimage_image::BinaryImage;
use nimage_ir::{
    eval_bin, eval_double_bin, eval_double_un, eval_int_bin, eval_int_un, eval_intrinsic, eval_un,
    Call, Callee, Instr, Intrinsic, IntrinsicCall, Local, MethodId, Program, Spawn, Terminator,
    Value,
};
use nimage_profiler::{DumpMode, ThreadHandle, TraceSession};
use nimage_trace::Tracer;

use crate::access::{tail_pages, AccessLog, FirstTouches};
use crate::heap_rt::RtHeap;
use crate::lower::{
    JumpEdge, LoweredCall, LoweredCallee, LoweredInstr, LoweredIntrinsic, LoweredProgram,
    LoweredSpawn,
};
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
            max_paths: nimage_compiler::DEFAULT_MAX_PATHS,
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

/// A runtime error: an instruction's failure, which the build-time
/// interpreter raises alike, or one only a VM run can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// An instruction failed.
    Exec(ExecError),
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
            VmError::Exec(e) => e.fmt(f),
            VmError::MissingCu { method } => write!(f, "no compilation unit for {method}"),
            VmError::Config { detail } => write!(f, "invalid VM configuration: {detail}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<ExecError> for VmError {
    fn from(e: ExecError) -> Self {
        VmError::Exec(e)
    }
}

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
    /// The program's signatures, field layouts and path tables.
    index: Arc<ProgramIndex<'a>>,
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
    index: Option<Arc<ProgramIndex<'a>>>,
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
            index: None,
            lowered: None,
            trace: Tracer::disabled(),
        }
    }

    /// Shares the program's index (`None`: the VM indexes the program
    /// itself). Must index the program given to [`VmBuilder::new`] under
    /// the config's `max_paths`.
    #[must_use]
    pub fn index(mut self, index: Option<Arc<ProgramIndex<'a>>>) -> VmBuilder<'a> {
        self.index = index;
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
            index,
            lowered,
            trace,
        } = self;
        let index = index.unwrap_or_else(|| Arc::new(ProgramIndex::new(program, config.max_paths)));
        debug_assert!(
            std::ptr::eq(index.program(), program) && index.max_paths() == config.max_paths,
            "index of another program or path limit"
        );
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
            index,
            compiled,
            image,
            config,
            session,
            lowered,
            sig_ids: vec![u32::MAX; n_methods],
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
        let i = self
            .session
            .as_mut()
            .expect("sig interning requires a session")
            .intern(self.index.sig(m));
        self.sig_ids[m.index()] = i;
        i
    }

    fn trace_heap(&self) -> bool {
        self.compiled.instrumentation.trace_heap
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
            method: self.program.method_signature(method),
        })?;
        // Fault the CU's lowering shard in on first entry (no-op once
        // realized; a whole-program lowering never hits the slow path). The
        // realizing call is unique per CU, so the instant fires exactly
        // once per lazily lowered shard — but on whichever sharing run got
        // there first, hence the *root* (logically detached) event.
        if let Some(lp) = &self.lowered {
            if lp.ensure_cu(&self.index, self.compiled, cu) {
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
            let (cfg, num) = self.index.paths(method);
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
        touch_heap(self.heap.snapshot_len(), &mut self.touches, r, byte_offset)
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
            Arc::new(LoweredProgram::indexed(&self.index, self.compiled))
        });
        self.str_refs = vec![u32::MAX; lp.n_strings()];
        self.lowered = Some(lp);
        self.execute(stop)
    }

    /// Runs the program on the reference interpreter: a tree-walker over
    /// the IR itself, sharing no dispatch code with [`Vm::run`] and ignoring
    /// any [`VmBuilder::lowered`] program. Its data instructions run
    /// through [`exec_data`], as the build-time interpreter's do. It is the differential oracle —
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
                call_counts.record(self.index.sig(MethodId(i as u32)), n);
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
        let lowered = lp.method(method);
        let (code, block_start) = (&lowered.code[..], &lowered.block_start[..]);
        let paths = trace_heap.then(|| {
            lp.paths(method)
                .expect("path tables built for traced builds")
        });
        let locals = &mut locals[..];
        let heap = &mut self.heap;
        let touches = &mut self.touches;
        let mut pc = *ip;
        let mut n = 0;
        let mut probe = 0;
        let mut end = FastEnd::Ran;
        let mut cut_to = None;
        // A heap access: its first touch and, on heap-traced builds, the
        // object's trace id and probe cost (`RefHooks::access`).
        macro_rules! access {
            ($r:expr, $offset:expr) => {{
                let in_image = touch_heap(heap.snapshot_len(), touches, $r, $offset);
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
                pc = block_start[e.block as usize] as usize;
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
                        return Err(bin_error(program, method, *op, va, vb).into());
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
                        return Err(un_error(program, method, *op, locals[a.index()]).into());
                    }
                }
                LoweredInstr::Jump(e) => edge!(e),
                LoweredInstr::Br {
                    cond,
                    then_e,
                    else_e,
                } => match locals[cond.index()] {
                    Value::Bool(c) => edge!(if c { then_e } else { else_e }),
                    other => return Err(branch_error(program, method, other).into()),
                },
                LoweredInstr::GetField(d, obj, fid) => {
                    let r = ref_of(program, method, locals[obj.index()])?;
                    let (slot, v) = field_slot(program, method, heap.object(r), *fid, |c| {
                        lp.field_slot(c, *fid)
                    })?;
                    access!(r, 16 + 8 * slot as u64);
                    locals[d.index()] = v;
                }
                LoweredInstr::PutField(obj, fid, src) => {
                    let r = ref_of(program, method, locals[obj.index()])?;
                    let slot = field_slot(program, method, heap.object(r), *fid, |c| {
                        lp.field_slot(c, *fid)
                    })?
                    .0;
                    access!(r, 16 + 8 * slot as u64);
                    match heap.object_mut(r) {
                        HObjectKind::Instance { fields, .. } => fields[slot] = locals[src.index()],
                        _ => unreachable!("field_slot checked"),
                    }
                }
                LoweredInstr::ArrayGet(d, arr, idx) => {
                    let r = ref_of(program, method, locals[arr.index()])?;
                    let i = int_of(program, method, locals[idx.index()])?;
                    let v = match heap.object(r) {
                        HObjectKind::Array { elems, .. } => *usize::try_from(i)
                            .ok()
                            .and_then(|i| elems.get(i))
                            .ok_or_else(|| out_of_bounds(program, method, i, elems.len()))?,
                        other => {
                            return Err(kind_error(program, method, "array access", other).into())
                        }
                    };
                    access!(r, 24 + 8 * i as u64);
                    locals[d.index()] = v;
                }
                LoweredInstr::ArraySet(arr, idx, src) => {
                    let r = ref_of(program, method, locals[arr.index()])?;
                    let i = int_of(program, method, locals[idx.index()])?;
                    let at = match heap.object(r) {
                        HObjectKind::Array { elems, .. } => usize::try_from(i)
                            .ok()
                            .filter(|&i| i < elems.len())
                            .ok_or_else(|| out_of_bounds(program, method, i, elems.len()))?,
                        other => {
                            return Err(kind_error(program, method, "array access", other).into())
                        }
                    };
                    access!(r, 24 + 8 * at as u64);
                    match heap.object_mut(r) {
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
        // Borrowed through the `&'a Program`, not through `self`.
        let program = self.program;
        if let Some(ins) = program.method(method).blocks[block].instrs.get(ip) {
            self.exec_instr(t, method, ins)?;
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
                    let r = self.heap.intern_str(lp.string(*sidx));
                    self.str_refs[*sidx as usize] = r;
                    r
                };
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::New(d, c) => {
                let fields = lp.field_defaults(*c).to_vec();
                let r = self
                    .heap
                    .alloc_object(HObjectKind::Instance { class: *c, fields });
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::NewArray(d, elem, len) => {
                let n = int_of(self.program, method, self.local(t, *len))?;
                let n =
                    usize::try_from(n).map_err(|_| out_of_bounds(self.program, method, n, 0))?;
                let r = self.heap.alloc_object(HObjectKind::Array {
                    elem: (**elem).clone(),
                    elems: vec![Value::default_for(elem); n],
                });
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::GetStatic(d, fid) => {
                let v = self.heap.read_static(self.program, *fid);
                self.set_local(t, *d, v);
            }
            LoweredInstr::PutStatic(fid, src) => {
                let v = self.local(t, *src);
                self.heap.write_static(*fid, v);
            }
            LoweredInstr::ArrayLen(d, arr) => {
                let r = ref_of(self.program, method, self.local(t, *arr))?;
                let n = array_len(self.program, method, self.heap.object(r))?;
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
            }
            LoweredInstr::StrLen(d, s) => {
                let r = ref_of(self.program, method, self.local(t, *s))?;
                let n = str_of(self.program, method, self.heap.object(r))?.len() as i64;
                self.touch_object(r, 0);
                self.set_local(t, *d, Value::Int(n));
            }
            LoweredInstr::StrCharAt(d, s, i) => {
                let r = ref_of(self.program, method, self.local(t, *s))?;
                let at = int_of(self.program, method, self.local(t, *i))?;
                let ch = char_at(self.program, method, self.heap.object(r), at)?;
                self.touch_object(r, 24 + at as u64);
                self.set_local(t, *d, Value::Int(ch));
            }
            LoweredInstr::StrConcat(d, a, b) => {
                let sa = display_value(&self.heap, self.local(t, *a));
                let sb = display_value(&self.heap, self.local(t, *b));
                let r = self
                    .heap
                    .alloc_object(HObjectKind::Str(format!("{sa}{sb}")));
                self.set_local(t, *d, Value::Ref(r));
            }
            LoweredInstr::Call(call) => {
                let LoweredCall {
                    dst,
                    target,
                    args,
                    site_block,
                    site_instr,
                } = &**call;
                self.ops += 1; // calls cost an extra op
                let target_m = match target {
                    LoweredCallee::Static(m2) => *m2,
                    LoweredCallee::Virtual(sel) => {
                        let recv = args.first().map(|&l| self.local(t, l));
                        let class = receiver_class(self.program, method, &self.heap, recv)?;
                        lp.resolve_virtual(class, *sel)
                            .ok_or_else(|| no_such_method(self.program, class, *sel))?
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
            LoweredInstr::Intrinsic(call) => {
                let LoweredIntrinsic { dst, op, args } = &**call;
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
            LoweredInstr::Spawn(spawn) => {
                let LoweredSpawn { method: m2, args } = &**spawn;
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

    /// Executes instruction `ins` of `method` on thread `t`: calls,
    /// intrinsics and spawns here, every data op through the shared
    /// [`exec_data`].
    fn exec_instr(&mut self, t: usize, method: MethodId, ins: &Instr) -> Result<(), VmError> {
        match ins {
            Instr::Call(call) => {
                let Call { dst, callee, args } = &**call;
                self.ops += 1; // calls cost an extra op
                let argv: Vec<Value> = args.iter().map(|&l| self.local(t, l)).collect();
                let target = match callee {
                    Callee::Static(m2) => *m2,
                    Callee::Virtual { selector, .. } => {
                        let class = receiver_class(
                            self.program,
                            method,
                            &self.heap,
                            argv.first().copied(),
                        )?;
                        self.program
                            .resolve_virtual(class, *selector)
                            .ok_or_else(|| no_such_method(self.program, class, *selector))?
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
            Instr::Intrinsic(call) => {
                let IntrinsicCall { dst, op, args } = &**call;
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
            Instr::Spawn(spawn) => {
                let Spawn { method: m2, args } = &**spawn;
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
            data => {
                let frame = self.threads[t].frames.last_mut().expect("frame");
                let mut hooks = RefHooks {
                    snapshot_len: self.heap.snapshot_len(),
                    touches: &mut self.touches,
                    pending: self
                        .compiled
                        .instrumentation
                        .trace_heap
                        .then_some(&mut frame.pending),
                    probe_ops: &mut self.probe_ops,
                    obj_cost: self.config.probe_costs.obj_id * self.probe_scale,
                };
                exec_data(
                    &self.index,
                    &mut self.heap,
                    method,
                    &mut frame.locals,
                    data,
                    &mut hooks,
                )?;
            }
        }
        Ok(())
    }

    fn exec_terminator(&mut self, t: usize, method: MethodId, block: usize) -> Result<(), VmError> {
        let program = self.program;
        match &program.method(method).blocks[block].terminator {
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
                let target = match self.local(t, *cond) {
                    Value::Bool(true) => then_blk,
                    Value::Bool(false) => else_blk,
                    other => return Err(branch_error(program, method, other).into()),
                };
                self.path_block_edge(t, target.index());
                let frame = self.threads[t].frames.last_mut().expect("frame");
                frame.block = target.index();
                frame.ip = 0;
            }
        }
        Ok(())
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

/// Touches the `.svm_heap` bytes of an access to heap object `r`; `true`
/// when the object is in the image.
#[inline]
fn touch_heap(snapshot_len: u32, touches: &mut FirstTouches, r: u32, byte_offset: u64) -> bool {
    r < snapshot_len && touches.object(ObjId(r), byte_offset)
}

/// What the reference interpreter records of a data op's heap accesses:
/// first touches, and on heap-traced builds each accessed object's trace
/// id and probe cost, as [`Vm::run_fast`]'s `access!` does.
struct RefHooks<'v> {
    snapshot_len: u32,
    touches: &'v mut FirstTouches,
    /// The executing frame's pending trace ids, on heap-traced builds.
    pending: Option<&'v mut Vec<u64>>,
    probe_ops: &'v mut u64,
    obj_cost: u64,
}

impl ExecHooks for RefHooks<'_> {
    fn touch(&mut self, r: u32, offset: u64) {
        touch_heap(self.snapshot_len, self.touches, r, offset);
    }

    fn access(&mut self, r: u32, offset: u64) {
        let in_image = touch_heap(self.snapshot_len, self.touches, r, offset);
        if let Some(pending) = &mut self.pending {
            *self.probe_ops += self.obj_cost;
            pending.push(trace_id(r, in_image));
        }
    }
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
