//! # nimage-core
//!
//! The end-to-end profile-guided binary-reordering pipeline of the paper's
//! Fig. 1, as a library facade over the nimage workspace:
//!
//! 1. **Profiling build** — compile with instrumentation (which perturbs
//!    inlining!), snapshot the heap, build the image;
//! 2. **Profiling run** — execute the instrumented image; the VM emits
//!    CU-entry / method-entry / path records into per-thread buffers;
//! 3. **Post-processing** — replay the trace through the ordering analyses,
//!    producing the code-ordering and heap-ordering CSV profiles (the heap
//!    profiles carry strategy-specific 64-bit identities computed on the
//!    *instrumented* build's snapshot);
//! 4. **Optimizing build** — recompile with the PGO call counts (different
//!    inlining again), snapshot with optimized-build divergence (parallel
//!    initializer order, PEA folding), recompute strategy identities on the
//!    *new* snapshot, match them against the profile, and lay out the image
//!    with the reordered CUs and objects;
//! 5. **Measurement** — run the baseline (same optimized build, default
//!    layout) and the reordered image, comparing page faults per section
//!    and simulated execution time.
//!
//! ```no_run
//! use nimage_core::{BuildOptions, EvalRequest, Strategy, WorkloadSpec};
//! use nimage_vm::StopWhen;
//! # fn program() -> nimage_ir::Program { unimplemented!() }
//!
//! # fn main() -> Result<(), nimage_core::PipelineError> {
//! let program = program();
//! let outcome = EvalRequest::new()
//!     .workload(WorkloadSpec::new("demo", &program, BuildOptions::default(), StopWhen::Exit))
//!     .strategy(Strategy::CuPlusHeapPath)
//!     .run()?;
//! let eval = &outcome.cells[0].eval;
//! println!("text-fault reduction: {:.2}x", eval.text_fault_reduction());
//! println!("speedup: {:.2}x", eval.speedup(&nimage_vm::CostModel::ssd()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod diskcache;
pub mod engine;
mod persist;
pub mod report;

pub use cache::{ArtifactCache, CacheKey, Memo, MemoStats};
pub use diskcache::{
    DiskCacheOptions, DiskCacheStats, DiskCodec, DiskStore, DiskUsage, GcReport,
    DISK_FORMAT_VERSION,
};
pub use engine::{
    BuildRequest, Engine, EngineOptions, MatrixCell, Rows, ShardStats, StageTimes, TraceOptions,
    Workload, WorkloadSpec,
};
pub use nimage_trace::{MetricsSnapshot, TraceSummary, Tracer};
pub use persist::{load_profiles, save_profiles, SavedProfiles};
pub use report::{CellReport, EvalOutcome, EvalRequest, Report, StageReport, REPORT_VERSION};

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use nimage_analysis::{analyze, AnalysisConfig, Reachability};
use nimage_compiler::{
    compile, CallCountProfile, CompiledProgram, CuId, InlineConfig, InstrumentConfig, ProgramIndex,
};
use nimage_heap::{snapshot, ExecError, HeapBuildConfig, HeapSnapshot, ObjId};
pub use nimage_image::optimize::PredictedFaults;
use nimage_image::optimize::{optimize_layout, split_native_tail, CodeInput, HeapInput};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_ir::Program;
use nimage_order::{
    assign_ids, ids_of, order_cus, order_cus_split, order_objects, order_objects_split_spans,
    replay_indexed, CodeGranularity, CodeOrderProfile, HeapOrderProfile, HeapStrategy, ReplayError,
};
pub use nimage_par::Parallelism;
use nimage_verify::{errors_of, irlint, pipeline as checks, Diagnostic};
use nimage_vm::{
    AccessLog, CostModel, HeapTemplate, LoweredProgram, RunReport, StopWhen, VmBuilder, VmConfig,
    VmError,
};

/// An ordering strategy of the paper (Sec. 4, Sec. 5, and the combined
/// `cu+heap path` of Sec. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Code ordering by CU-entry trace (Sec. 4.1).
    Cu,
    /// Code ordering by method-entry trace (Sec. 4.2).
    Method,
    /// Heap ordering with incremental IDs (Sec. 5.1).
    IncrementalId,
    /// Heap ordering with the structural hash, `MAX_DEPTH = 2` (Sec. 5.2).
    StructuralHash,
    /// Heap ordering with heap-path hashes (Sec. 5.3).
    HeapPath,
    /// The combination the paper reports end-to-end numbers for: *cu*
    /// code ordering plus *heap path* object ordering.
    CuPlusHeapPath,
    /// Beyond the paper: *cu* first-touch ordering refined by the
    /// fault-cost-aware layout optimizer (`nimage_image::optimize`)
    /// — hot/cold splitting of the native tail plus fault-around-window
    /// clustering of the hot CU prefix, chosen by candidate search under
    /// the paging cost model.
    CuClustered,
    /// [`Strategy::CuClustered`] code ordering plus *heap path* object
    /// ordering, both refined by the layout optimizer.
    CuClusteredPlusHeapPath,
}

impl Strategy {
    /// All strategies: the paper's figures' order, then the clustered
    /// extensions.
    pub fn all() -> [Strategy; 8] {
        [
            Strategy::Cu,
            Strategy::Method,
            Strategy::IncrementalId,
            Strategy::StructuralHash,
            Strategy::HeapPath,
            Strategy::CuPlusHeapPath,
            Strategy::CuClustered,
            Strategy::CuClusteredPlusHeapPath,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Cu => "cu",
            Strategy::Method => "method",
            Strategy::IncrementalId => "incremental id",
            Strategy::StructuralHash => "structural hash",
            Strategy::HeapPath => "heap path",
            Strategy::CuPlusHeapPath => "cu+heap path",
            Strategy::CuClustered => "cu clustered",
            Strategy::CuClusteredPlusHeapPath => "cu clustered+heap path",
        }
    }

    /// Whether this strategy reorders code.
    pub fn orders_code(&self) -> bool {
        matches!(
            self,
            Strategy::Cu
                | Strategy::Method
                | Strategy::CuPlusHeapPath
                | Strategy::CuClustered
                | Strategy::CuClusteredPlusHeapPath
        )
    }

    /// Whether this strategy reorders the heap snapshot.
    pub fn orders_heap(&self) -> bool {
        matches!(
            self,
            Strategy::IncrementalId
                | Strategy::StructuralHash
                | Strategy::HeapPath
                | Strategy::CuPlusHeapPath
                | Strategy::CuClusteredPlusHeapPath
        )
    }

    /// The heap identity scheme the strategy uses, if it orders the heap.
    pub fn heap_strategy(&self) -> Option<HeapStrategy> {
        match self {
            Strategy::IncrementalId => Some(HeapStrategy::IncrementalId),
            Strategy::StructuralHash => Some(HeapStrategy::structural_default()),
            Strategy::HeapPath | Strategy::CuPlusHeapPath | Strategy::CuClusteredPlusHeapPath => {
                Some(HeapStrategy::HeapPath)
            }
            _ => None,
        }
    }

    /// Whether this strategy runs the fault-cost-aware layout optimizer
    /// over its first-touch orders (and so also hot/cold-splits the
    /// native tail).
    pub fn clustered(&self) -> bool {
        matches!(
            self,
            Strategy::CuClustered | Strategy::CuClusteredPlusHeapPath
        )
    }
}

/// Configuration of every pipeline stage.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Reachability analysis knobs.
    pub analysis: AnalysisConfig,
    /// Inliner knobs (shared by all builds; effective sizes differ through
    /// instrumentation and PGO).
    pub inline: InlineConfig,
    /// Image layout knobs.
    pub image: ImageOptions,
    /// Heap-build configuration of the profiling (instrumented) build.
    pub heap_instrumented: HeapBuildConfig,
    /// Heap-build configuration of the optimized build — different
    /// initializer seed and PEA folding enabled, modelling the cross-build
    /// divergence of Sec. 2.
    pub heap_optimized: HeapBuildConfig,
    /// VM configuration (paging, probe costs, dump mode).
    pub vm: VmConfig,
    /// Extension beyond the paper (its Appendix A future work): also
    /// reorder the pages of the statically linked native tail using the
    /// instrumented run's first-touch order. Off by default, so the
    /// headline experiments match the paper's setup.
    pub reorder_native: bool,
    /// Run the `nimage-verify` checkers on every build stage: IR lints and
    /// vtable soundness before building, layout invariants on every built
    /// image, trace well-formedness on every profiling run. Any
    /// error-severity finding aborts the pipeline with
    /// [`PipelineError::Verify`].
    pub verify: bool,
    /// Read by nothing: every pipeline stage is serial, and the only
    /// parallelism is the engine's cell scheduler
    /// ([`EngineOptions::n_threads`]). Kept because the repo benchmark
    /// still sets it. [`Parallelism`]'s `Debug` rendering is constant, so
    /// the field never enters cache fingerprints.
    pub threads: Parallelism,
    /// Upgrade the *heap path* identity scheme to its per-type salted
    /// variant ([`HeapStrategy::HeapPathSalted`]), which disambiguates
    /// colliding root-to-object paths with per-`(type, path)` occurrence
    /// counters. Off by default so headline numbers match the paper's
    /// Algorithm 3.
    pub salted_heap_ids: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            analysis: AnalysisConfig::default(),
            inline: InlineConfig::default(),
            image: ImageOptions::default(),
            heap_instrumented: HeapBuildConfig {
                clinit_seed: 1,
                ..HeapBuildConfig::default()
            },
            heap_optimized: HeapBuildConfig {
                clinit_seed: 2,
                pea_fold: true,
                pea_seed: 3,
                ..HeapBuildConfig::default()
            },
            vm: VmConfig::default(),
            reorder_native: false,
            verify: false,
            threads: Parallelism::serial(),
            salted_heap_ids: false,
        }
    }
}

impl BuildOptions {
    /// The heap identity scheme `strategy` uses under these options:
    /// [`Strategy::heap_strategy`], with *heap path* upgraded to the salted
    /// variant when [`BuildOptions::salted_heap_ids`] is set.
    pub fn heap_strategy_for(&self, strategy: Strategy) -> Option<HeapStrategy> {
        strategy.heap_strategy().map(|hs| match hs {
            HeapStrategy::HeapPath if self.salted_heap_ids => HeapStrategy::HeapPathSalted,
            other => other,
        })
    }

    /// The heap identity schemes post-processing produces profiles for
    /// under these options, in the paper's order.
    pub fn heap_strategies(&self) -> [HeapStrategy; 3] {
        [
            HeapStrategy::IncrementalId,
            HeapStrategy::structural_default(),
            if self.salted_heap_ids {
                HeapStrategy::HeapPathSalted
            } else {
                HeapStrategy::HeapPath
            },
        ]
    }
}

/// Everything needed to execute one build. The parts are shared, so the
/// engine's cache and the serial [`Pipeline`] builders hand out the same
/// type.
#[derive(Debug, Clone)]
pub struct BuildParts {
    /// The compiled program (CUs).
    pub compiled: Arc<CompiledProgram>,
    /// The heap snapshot.
    pub snapshot: Arc<HeapSnapshot>,
    /// The laid-out binary image.
    pub image: Arc<BinaryImage>,
}

/// The profiles produced by the profiling run (step 3 of Fig. 1).
#[derive(Debug)]
pub struct ProfiledArtifacts {
    /// PGO call counts (consumed by the optimizing build's inliner).
    pub call_counts: CallCountProfile,
    /// *cu ordering* profile: CU-root signatures in first-entry order.
    pub cu_profile: CodeOrderProfile,
    /// *method ordering* profile: method signatures in first-entry order.
    pub method_profile: CodeOrderProfile,
    /// Heap-ordering profiles, one per identity scheme.
    pub heap_profiles: HashMap<HeapStrategy, HeapOrderProfile>,
    /// Native-tail pages in first-touch order (the extension profile).
    pub native_pages: Vec<u32>,
    /// The instrumented run's report (for overhead accounting).
    pub instrumented_report: RunReport,
}

/// The ordering stage's complete output: placement orders for both
/// sections plus — for the clustered strategies — the native-tail page
/// permutation and the cost model's predicted fault counts.
///
/// `LayoutOrders::default()` means "no reordering anywhere": it builds the
/// default layout, exactly like the old `(None, None)` order pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutOrders {
    /// CU placement order for `.text` (`None` = compiler order).
    pub cu_order: Option<Vec<CuId>>,
    /// Object placement order for `.svm_heap` (`None` = snapshot order).
    pub object_order: Option<Vec<ObjId>>,
    /// Native-tail page permutation chosen by the layout optimizer
    /// (`position[logical] = physical`). `None` leaves the tail to the
    /// [`BuildOptions::reorder_native`] profile path.
    pub native_order: Option<Vec<u32>>,
    /// The optimizer's predicted faults (clustered strategies only).
    pub predicted: Option<LayoutPrediction>,
}

impl LayoutOrders {
    /// Whether these orders can lay out the build `(compiled, snapshot)`
    /// under `options`: each order present covers its whole section —
    /// every CU, every snapshot object exactly once, every native-tail
    /// page. With the permutation checks of the disk decode, a plan that
    /// passes this never panics [`BinaryImage::build`] or
    /// [`BinaryImage::set_native_page_order`].
    pub fn fits(
        &self,
        compiled: &CompiledProgram,
        snapshot: &HeapSnapshot,
        options: &ImageOptions,
    ) -> bool {
        self.cu_order
            .as_ref()
            .is_none_or(|o| o.len() == compiled.cus.len())
            && self
                .object_order
                .as_ref()
                .is_none_or(|o| is_entry_permutation(o, snapshot))
            && self
                .native_order
                .as_ref()
                .is_none_or(|o| o.len() as u64 == options.native_pages())
    }
}

/// Whether `order` names every entry of `snapshot` exactly once: one pass
/// over a seen-bitmap indexed by default-order position.
fn is_entry_permutation(order: &[ObjId], snapshot: &HeapSnapshot) -> bool {
    if order.len() != snapshot.entries().len() {
        return false;
    }
    let mut seen = vec![false; order.len()];
    order
        .iter()
        .all(|&obj| match snapshot.index_of(obj).map(|i| &mut seen[i]) {
            Some(s) if !*s => {
                *s = true;
                true
            }
            _ => false,
        })
}

/// Predicted major-fault counts of the layout optimizer's candidate search:
/// the plain first-touch placement it started from and the placement it
/// chose. `optimized.total() <= first_touch.total()` by construction
/// (first-touch is candidate 0 of the search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutPrediction {
    /// Predicted faults of the first-touch placement (candidate 0).
    pub first_touch: PredictedFaults,
    /// Predicted faults of the chosen placement.
    pub optimized: PredictedFaults,
}

/// A baseline-vs-strategy measurement pair.
#[derive(Debug)]
pub struct Evaluation {
    /// The strategy evaluated.
    pub strategy: Strategy,
    /// Run of the optimized build with default layout.
    pub baseline: RunReport,
    /// Run of the optimized build with the strategy's layout.
    pub optimized: RunReport,
}

fn ratio(base: u64, opt: u64) -> f64 {
    if opt == 0 {
        if base == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        base as f64 / opt as f64
    }
}

impl Evaluation {
    /// `.text` page-fault reduction factor (baseline / optimized; > 1 is
    /// better — Fig. 2/3's metric for code strategies).
    pub fn text_fault_reduction(&self) -> f64 {
        ratio(self.baseline.faults.text, self.optimized.faults.text)
    }

    /// `.svm_heap` page-fault reduction factor (Fig. 2/3's metric for heap
    /// strategies).
    pub fn heap_fault_reduction(&self) -> f64 {
        ratio(
            self.baseline.faults.svm_heap,
            self.optimized.faults.svm_heap,
        )
    }

    /// Combined fault reduction over both sections (the `cu+heap path`
    /// metric).
    pub fn total_fault_reduction(&self) -> f64 {
        ratio(self.baseline.faults.total(), self.optimized.faults.total())
    }

    /// The reduction factor the paper reports for this strategy: `.text`
    /// faults for code strategies, `.svm_heap` faults for heap strategies,
    /// both for the combined strategy.
    pub fn reported_fault_reduction(&self) -> f64 {
        match self.strategy {
            Strategy::Cu | Strategy::Method | Strategy::CuClustered => self.text_fault_reduction(),
            Strategy::IncrementalId | Strategy::StructuralHash | Strategy::HeapPath => {
                self.heap_fault_reduction()
            }
            Strategy::CuPlusHeapPath | Strategy::CuClusteredPlusHeapPath => {
                self.total_fault_reduction()
            }
        }
    }

    /// Execution-time speedup under a cost model (Fig. 4/5). Uses
    /// time-to-first-response when the runs observed one (microservices),
    /// end-to-end time otherwise (AWFY).
    pub fn speedup(&self, cm: &CostModel) -> f64 {
        let time = |r: &RunReport| {
            r.time_to_first_response_ns(cm)
                .unwrap_or_else(|| r.time_ns(cm))
        };
        time(&self.baseline) / time(&self.optimized)
    }
}

/// A pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Build-time initializer execution failed.
    Clinit(ExecError),
    /// The VM hit a runtime error.
    Vm(VmError),
    /// Trace post-processing failed.
    Replay(ReplayError),
    /// The instrumented run produced no trace.
    NoTrace,
    /// A `nimage-verify` checker found broken invariants (only raised when
    /// [`BuildOptions::verify`] is set).
    Verify(Vec<Diagnostic>),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Clinit(e) => write!(f, "build-time execution failed: {e}"),
            PipelineError::Vm(e) => write!(f, "execution failed: {e}"),
            PipelineError::Replay(e) => write!(f, "trace post-processing failed: {e}"),
            PipelineError::NoTrace => write!(f, "instrumented run produced no trace"),
            PipelineError::Verify(diags) => {
                write!(f, "verification failed with {} finding(s):", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for PipelineError {}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Clinit(e)
    }
}
impl From<VmError> for PipelineError {
    fn from(e: VmError) -> Self {
        PipelineError::Vm(e)
    }
}
impl From<ReplayError> for PipelineError {
    fn from(e: ReplayError) -> Self {
        PipelineError::Replay(e)
    }
}

/// The parts of one VM run, as a builder: the three mandatory build
/// artifacts plus an optional pre-lowered program and an optional
/// [`Tracer`] for VM-level fault events. The VM reads the snapshot heap in
/// place, so there is no heap state to share.
///
/// ```ignore
/// pipeline.run(
///     RunParts::new(&compiled, &snapshot, &image).lowered(lowered),
///     StopWhen::Exit,
/// )?
/// ```
#[derive(Debug)]
pub struct RunParts<'a> {
    compiled: &'a CompiledProgram,
    snapshot: &'a HeapSnapshot,
    image: &'a BinaryImage,
    lowered: Option<Arc<LoweredProgram>>,
    tracer: Tracer,
}

impl<'a> RunParts<'a> {
    /// Starts a run description from the three mandatory build artifacts.
    /// No shared lowered program, tracing disabled.
    pub fn new(
        compiled: &'a CompiledProgram,
        snapshot: &'a HeapSnapshot,
        image: &'a BinaryImage,
    ) -> Self {
        RunParts {
            compiled,
            snapshot,
            image,
            lowered: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Reads nothing: the VM overlays the snapshot heap itself
    /// ([`nimage_vm::HeapTemplate`] holds nothing). Kept because the repo
    /// benchmark still calls it; deleted with that benchmark's
    /// `staged.rs`.
    #[must_use]
    pub fn heap(self, _heap: Option<Arc<HeapTemplate>>) -> Self {
        self
    }

    /// Lends the run a pre-built [`LoweredProgram`], whose shard counters
    /// the caller can read once the run ends; without one the VM builds a
    /// private lazy container and lowers each CU on first entry.
    #[must_use]
    pub fn lowered(mut self, lowered: Option<Arc<LoweredProgram>>) -> Self {
        self.lowered = lowered;
        self
    }

    /// Attaches a tracer for VM-level events (page-fault and shard-fault
    /// instants). The default disabled tracer compiles down to a no-op on
    /// the dispatch path.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

/// The end-to-end pipeline for one program.
#[derive(Debug)]
pub struct Pipeline<'p> {
    program: &'p Program,
    /// The program's signatures, layouts, sizes and path tables, shared by
    /// every stage.
    index: Arc<ProgramIndex<'p>>,
    opts: BuildOptions,
}

impl<'p> Pipeline<'p> {
    /// Creates a pipeline with its own lazily built program index.
    pub fn new(program: &'p Program, opts: BuildOptions) -> Self {
        let index = Arc::new(ProgramIndex::new(program, opts.vm.max_paths));
        Pipeline::indexed(index, opts)
    }

    /// Creates a pipeline over a shared program index, which must number
    /// paths under `opts.vm.max_paths`.
    pub fn indexed(index: Arc<ProgramIndex<'p>>, opts: BuildOptions) -> Self {
        debug_assert_eq!(
            index.max_paths(),
            opts.vm.max_paths,
            "index of another path limit"
        );
        Pipeline {
            program: index.program(),
            index,
            opts,
        }
    }

    /// The pipeline's options.
    pub fn options(&self) -> &BuildOptions {
        &self.opts
    }

    fn compile_with(
        &self,
        instr: InstrumentConfig,
        profile: Option<&CallCountProfile>,
    ) -> CompiledProgram {
        self.compile_stage(self.analyze_stage(), instr, profile)
    }

    /// Stage: reachability analysis. Deterministic in the program and
    /// [`AnalysisConfig`], and independent of instrumentation — every build
    /// of the pipeline shares one result.
    pub fn analyze_stage(&self) -> Reachability {
        analyze(self.program, &self.opts.analysis)
    }

    /// Stage: compilation (inlining, instrumentation, PGO).
    pub fn compile_stage(
        &self,
        reach: Reachability,
        instr: InstrumentConfig,
        profile: Option<&CallCountProfile>,
    ) -> CompiledProgram {
        compile(&self.index, reach, &self.opts.inline, instr, profile)
    }

    /// Stage: build-time initializer execution + heap snapshot under the
    /// given heap-build configuration.
    ///
    /// # Errors
    /// Fails if build-time initializers fail.
    pub fn snapshot_stage(
        &self,
        compiled: &CompiledProgram,
        cfg: &HeapBuildConfig,
    ) -> Result<HeapSnapshot, PipelineError> {
        Ok(snapshot(&self.index, compiled, cfg)?)
    }

    /// Builds the instrumented image (steps 1–2 of Fig. 1's profiling
    /// build).
    ///
    /// # Errors
    /// Fails if build-time initializers fail.
    pub fn build_instrumented(&self, instr: InstrumentConfig) -> Result<BuildParts, PipelineError> {
        let compiled = self.compile_with(instr, None);
        let snap = self.snapshot_stage(&compiled, &self.opts.heap_instrumented)?;
        let image = self.layout_stage(&compiled, &snap, LayoutOrders::default(), None)?;
        Ok(BuildParts {
            compiled: Arc::new(compiled),
            snapshot: Arc::new(snap),
            image: Arc::new(image),
        })
    }

    /// Runs an image.
    ///
    /// # Errors
    /// Propagates VM errors.
    pub fn run_image(
        &self,
        built: &BuildParts,
        stop: StopWhen,
    ) -> Result<RunReport, PipelineError> {
        self.run(
            RunParts::new(&built.compiled, &built.snapshot, &built.image),
            stop,
        )
    }

    /// Runs an image from a [`RunParts`] description.
    ///
    /// # Errors
    /// Propagates VM errors.
    pub fn run(&self, parts: RunParts<'_>, stop: StopWhen) -> Result<RunReport, PipelineError> {
        self.run_logged(parts, stop).map(|(report, _)| report)
    }

    /// [`Pipeline::run`], also returning the run's [`AccessLog`], which
    /// [`Pipeline::relayout`] pages against other images of the build.
    ///
    /// # Errors
    /// Propagates VM errors.
    pub fn run_logged(
        &self,
        parts: RunParts<'_>,
        stop: StopWhen,
    ) -> Result<(RunReport, AccessLog), PipelineError> {
        let vm = VmBuilder::new(
            self.program,
            parts.compiled,
            parts.snapshot,
            parts.image,
            self.opts.vm.clone(),
        )
        .index(Some(self.index.clone()))
        .lowered(parts.lowered)
        .tracer(parts.tracer)
        .build();
        Ok(vm.run_logged(stop)?)
    }

    /// The report [`Pipeline::run`] would return on `image`, from one
    /// logged run of the same build on another image
    /// ([`nimage_vm::relayout`]: the execution is reused, only the paging
    /// is redone). `log` must fit the build ([`AccessLog::fits`]).
    ///
    /// # Errors
    /// Fails on an invalid paging configuration.
    pub fn relayout(
        &self,
        (report, log): &(RunReport, AccessLog),
        compiled: &CompiledProgram,
        image: &BinaryImage,
        tracer: &Tracer,
    ) -> Result<RunReport, PipelineError> {
        Ok(nimage_vm::relayout(
            report,
            log,
            compiled,
            image,
            &self.opts.vm.paging,
            tracer,
        )?)
    }

    /// Performs the full profiling build + run + post-processing (steps 1–3
    /// of Fig. 1), producing every ordering profile at once.
    ///
    /// # Errors
    /// Fails on build-time, runtime or post-processing errors.
    pub fn profiling_run(&self, stop: StopWhen) -> Result<ProfiledArtifacts, PipelineError> {
        let built = self.build_instrumented(InstrumentConfig::FULL)?;
        let report = self.run_image(&built, stop)?;
        self.replay_stage(report, &built.snapshot)
    }

    /// Stage: trace post-processing (step 3 of Fig. 1) — replays the
    /// instrumented run's trace against the instrumented build's
    /// `snapshot`, producing every ordering profile at once. Each heap
    /// profile names only the objects the trace touched
    /// ([`nimage_order::ids_of`]), never the whole snapshot.
    ///
    /// # Errors
    /// Fails when the report carries no trace, on replay errors, and on
    /// trace-verification findings when [`BuildOptions::verify`] is set.
    pub fn replay_stage(
        &self,
        report: RunReport,
        snapshot: &HeapSnapshot,
    ) -> Result<ProfiledArtifacts, PipelineError> {
        let members = snapshot.entries().iter().map(|e| e.obj);
        self.profiles(report, members, &mut |hs, objs| {
            ids_of(self.program, snapshot, hs, objs)
        })
    }

    /// [`Pipeline::replay_stage`] from full identity maps of the
    /// instrumented snapshot, which `ids_for` supplies per strategy. Every
    /// map names exactly the snapshot's objects, so the first map's keys
    /// stand for the snapshot, and the artifacts are
    /// [`Pipeline::replay_stage`]'s.
    ///
    /// It remains only because the repo benchmark's stage-by-stage pass
    /// (`benchmark/src/staged.rs`) calls it; ROADMAP item 1b removes it
    /// with that file.
    ///
    /// # Errors
    /// As [`Pipeline::replay_stage`].
    pub fn post_process(
        &self,
        report: RunReport,
        ids_for: &mut dyn FnMut(HeapStrategy) -> Arc<HashMap<ObjId, u64>>,
    ) -> Result<ProfiledArtifacts, PipelineError> {
        let members = ids_for(self.opts.heap_strategies()[0]);
        self.profiles(report, members.keys().copied(), &mut |hs, objs| {
            let ids = ids_for(hs);
            objs.iter().map(|o| ids[o]).collect()
        })
    }

    /// One serial replay of the trace, keeping accesses to `members`,
    /// yields the raw first-access orders; every strategy's heap profile
    /// is then the touched objects' identities under that strategy, from
    /// `ids_of`, deduplicated in first-access order. The engine calls it
    /// directly to time the naming.
    pub(crate) fn profiles(
        &self,
        report: RunReport,
        members: impl IntoIterator<Item = ObjId>,
        ids_of: &mut dyn FnMut(HeapStrategy, &[ObjId]) -> Vec<u64>,
    ) -> Result<ProfiledArtifacts, PipelineError> {
        let trace = report.trace.as_ref().ok_or(PipelineError::NoTrace)?;
        if self.opts.verify {
            let errors = errors_of(&checks::check_trace(trace));
            if !errors.is_empty() {
                return Err(PipelineError::Verify(errors));
            }
        }
        let summary = replay_indexed(&self.index, trace, members)?;
        // The instrumented run's touched-byte spans, keyed by raw snapshot
        // object index — the same keying as `summary.object_order`, so each
        // identity's first-access entry picks up the bytes startup actually
        // touched inside that object.
        let touch_spans: HashMap<u32, Vec<(u64, u64)>> =
            report.heap_touch_spans.iter().cloned().collect();
        let heap_profiles = (self.opts.heap_strategies().into_iter())
            .map(|hs| {
                let ids = ids_of(hs, &summary.object_order);
                (hs, summary.heap_profile_with_spans(&ids, &touch_spans))
            })
            .collect();

        Ok(ProfiledArtifacts {
            call_counts: report.call_counts.clone(),
            cu_profile: CodeOrderProfile {
                sigs: summary.cu_order,
            },
            method_profile: CodeOrderProfile {
                sigs: summary.method_order,
            },
            heap_profiles,
            native_pages: report.native_touch_pages.clone(),
            instrumented_report: report,
        })
    }

    /// Builds the profile-guided optimized image with the given strategy's
    /// layout (step 4 of Fig. 1). With `strategy = None`, produces the
    /// baseline: the same PGO build with the default layout.
    ///
    /// # Errors
    /// Fails if build-time initializers fail.
    pub fn build_optimized(
        &self,
        artifacts: &ProfiledArtifacts,
        strategy: Option<Strategy>,
    ) -> Result<BuildParts, PipelineError> {
        let compiled = self.compile_with(InstrumentConfig::NONE, Some(&artifacts.call_counts));
        let snap = self.snapshot_stage(&compiled, &self.opts.heap_optimized)?;
        let orders = self.order_stage(artifacts, &compiled, &snap, strategy, None);
        let native = strategy
            .is_some()
            .then_some(artifacts.native_pages.as_slice());
        let image = self.layout_stage(&compiled, &snap, orders, native)?;
        Ok(BuildParts {
            compiled: Arc::new(compiled),
            snapshot: Arc::new(snap),
            image: Arc::new(image),
        })
    }

    /// Stage: ordering — computes a strategy's CU and object orders from
    /// the profiles. `heap_ids` optionally supplies precomputed strategy
    /// identities of `snap` (the evaluation engine caches them per
    /// snapshot × strategy); `None` computes them inline.
    ///
    /// For the clustered strategies this runs the fault-cost-aware layout
    /// optimizer over the first-touch orders (see [`optimize_layout`]);
    /// for every other strategy it returns the profile-replay orders
    /// unchanged, with no native order and no prediction.
    pub fn order_stage(
        &self,
        artifacts: &ProfiledArtifacts,
        compiled: &CompiledProgram,
        snap: &HeapSnapshot,
        strategy: Option<Strategy>,
        heap_ids: Option<&HashMap<ObjId, u64>>,
    ) -> LayoutOrders {
        if let Some(s) = strategy.filter(|s| s.clustered()) {
            return self.optimize_stage(artifacts, compiled, snap, s, heap_ids);
        }
        let cu_order = match strategy {
            Some(s) if s.orders_code() => {
                let (profile, gran) = match s {
                    Strategy::Method => (&artifacts.method_profile, CodeGranularity::Method),
                    _ => (&artifacts.cu_profile, CodeGranularity::Cu),
                };
                Some(order_cus(&self.index, compiled, profile, gran))
            }
            _ => None,
        };
        let object_order = match strategy.and_then(|s| self.opts.heap_strategy_for(s)) {
            Some(hs) => {
                let profile = &artifacts.heap_profiles[&hs];
                Some(match heap_ids {
                    Some(ids) => order_objects(snap, ids, profile),
                    None => order_objects(snap, &assign_ids(self.program, snap, hs), profile),
                })
            }
            None => None,
        };
        LayoutOrders {
            cu_order,
            object_order,
            native_order: None,
            predicted: None,
        }
    }

    /// The clustered strategies' ordering: replays the first-touch orders
    /// exactly like `cu` / `cu+heap path`, then hands them to the layout
    /// optimizer's candidate search under the demand-paging cost model
    /// (hot/cold native-tail splitting, fault-around-window clustering,
    /// page-boundary packing). First-touch is candidate 0 of the search,
    /// so the result never predicts more faults than the plain strategy.
    fn optimize_stage(
        &self,
        artifacts: &ProfiledArtifacts,
        compiled: &CompiledProgram,
        snap: &HeapSnapshot,
        strategy: Strategy,
        heap_ids: Option<&HashMap<ObjId, u64>>,
    ) -> LayoutOrders {
        let (cu_first_touch, cu_hot) = order_cus_split(
            &self.index,
            compiled,
            &artifacts.cu_profile,
            CodeGranularity::Cu,
        );
        let mut cu_sizes = vec![0u64; compiled.cus.len()];
        for cu in &compiled.cus {
            cu_sizes[cu.id.index()] = u64::from(cu.size);
        }
        let code = CodeInput {
            first_touch: &cu_first_touch,
            hot: cu_hot,
            sizes: &cu_sizes,
            native_pages: &artifacts.native_pages,
        };
        let heap_data = self.opts.heap_strategy_for(strategy).map(|hs| {
            let profile = &artifacts.heap_profiles[&hs];
            let (order, hot, hot_spans) = match heap_ids {
                Some(ids) => order_objects_split_spans(snap, ids, profile),
                None => {
                    order_objects_split_spans(snap, &assign_ids(self.program, snap, hs), profile)
                }
            };
            let mut sizes = vec![0u64; snap.entries().len()];
            for e in snap.entries() {
                if e.obj.index() >= sizes.len() {
                    sizes.resize(e.obj.index() + 1, 0);
                }
                sizes[e.obj.index()] = u64::from(e.size);
            }
            // Re-key the matched objects' measured spans by object index
            // (the predictor's indexing, like `sizes`); unmatched and
            // unmeasured objects keep an empty list → full-extent model.
            let mut spans = vec![Vec::new(); sizes.len()];
            for (&obj, s) in order[..hot].iter().zip(hot_spans) {
                spans[obj.index()] = s;
            }
            (order, hot, sizes, spans)
        });
        let heap = heap_data
            .as_ref()
            .map(|(order, hot, sizes, spans)| HeapInput {
                first_touch: order,
                hot: *hot,
                sizes,
                spans,
            });
        let plan = optimize_layout(
            &code,
            heap.as_ref(),
            &self.opts.image,
            self.opts.vm.paging.fault_around_pages,
        );
        LayoutOrders {
            cu_order: Some(plan.cu_order),
            object_order: plan.object_order,
            native_order: Some(plan.native_order),
            predicted: Some(LayoutPrediction {
                first_touch: plan.first_touch_faults,
                optimized: plan.predicted_faults,
            }),
        }
    }

    /// Stage: layout — places the CUs and objects, permutes the native tail
    /// (either from the optimizer's explicit [`LayoutOrders::native_order`]
    /// or, when [`BuildOptions::reorder_native`] is set, from the
    /// first-touch profile), and runs the build-stage verifiers.
    ///
    /// # Errors
    /// Fails on error-severity verification findings (only when
    /// [`BuildOptions::verify`] is set).
    pub fn layout_stage(
        &self,
        compiled: &CompiledProgram,
        snap: &HeapSnapshot,
        orders: LayoutOrders,
        native_profile: Option<&[u32]>,
    ) -> Result<BinaryImage, PipelineError> {
        let LayoutOrders {
            cu_order,
            object_order,
            native_order: explicit_native,
            predicted: _,
        } = orders;
        let mut image = BinaryImage::build(
            compiled,
            snap,
            cu_order,
            object_order,
            self.opts.image.clone(),
        );
        if let Some(order) = explicit_native {
            image.set_native_page_order(order);
        } else if self.opts.reorder_native {
            if let Some(pages) = native_profile {
                image.set_native_page_order(split_native_tail(pages, image.native_pages()));
            }
        }
        self.verify_built(compiled, snap, &image)?;
        Ok(image)
    }

    /// When [`BuildOptions::verify`] is set, runs the `nimage-verify`
    /// build-stage checkers (IR lints, vtable soundness, layout invariants)
    /// and fails on any error-severity finding.
    fn verify_built(
        &self,
        compiled: &CompiledProgram,
        snap: &HeapSnapshot,
        image: &BinaryImage,
    ) -> Result<(), PipelineError> {
        if !self.opts.verify {
            return Ok(());
        }
        let mut diags = irlint::lint_program(self.program);
        diags.extend(irlint::lint_virtual_targets(
            self.program,
            &compiled.reachability,
        ));
        diags.extend(nimage_verify::pea::check_pea_soundness(self.program, snap));
        diags.extend(checks::check_layout(&checks::LayoutView::from_image(
            self.program,
            compiled,
            snap,
            image,
        )));
        let errors = errors_of(&diags);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(PipelineError::Verify(errors))
        }
    }

    /// Measures `strategies` against one baseline (step 5 of Fig. 1):
    /// builds and runs the PGO build with the default layout once, then,
    /// in order, builds and runs each strategy's image. Each
    /// [`Evaluation`] carries the baseline's report and its strategy's.
    ///
    /// This is the serial path: it re-runs the VM for every image, where
    /// the engine runs each build once and pages every layout from that
    /// run's access log ([`Pipeline::relayout`]). The engine is tested
    /// against it.
    ///
    /// # Errors
    /// Propagates any pipeline stage failure.
    pub fn evaluate(
        &self,
        artifacts: &ProfiledArtifacts,
        strategies: &[Strategy],
        stop: StopWhen,
    ) -> Result<Vec<Evaluation>, PipelineError> {
        let baseline = self.run_image(&self.build_optimized(artifacts, None)?, stop)?;
        strategies
            .iter()
            .map(|&strategy| {
                let built = self.build_optimized(artifacts, Some(strategy))?;
                Ok(Evaluation {
                    strategy,
                    baseline: baseline.clone(),
                    optimized: self.run_image(&built, stop)?,
                })
            })
            .collect()
    }
}

/// Sec. 7.4's profiling-overhead factors of one workload: CPU work of the
/// build instrumented with one probe kind over the regular build's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingOverhead {
    /// CU-entry tracing (`trace_cu`).
    pub cu: f64,
    /// Method-entry tracing (`trace_methods`).
    pub method: f64,
    /// Heap-access tracing (`trace_heap`).
    pub heap: f64,
}

impl ProfilingOverhead {
    /// The mode names, in the paper's column order.
    pub const MODES: [&'static str; 3] = ["cu", "method", "heap"];

    /// The factors in [`ProfilingOverhead::MODES`] order.
    pub fn factors(&self) -> [f64; 3] {
        [self.cu, self.method, self.heap]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_vm::SectionFaults;

    fn report(text: u64, heap: u64, ops: u64) -> RunReport {
        RunReport {
            ops,
            probe_ops: 0,
            faults: SectionFaults {
                text,
                svm_heap: heap,
            },
            first_response: None,
            call_counts: CallCountProfile::new(),
            trace: None,
            session_stats: None,
            exit: nimage_vm::ExitKind::Exited,
            entry_return: None,
            native_touch_pages: vec![],
            text_page_states: vec![],
            heap_page_states: vec![],
            heap_touch_spans: vec![],
        }
    }

    #[test]
    fn strategy_metadata_is_consistent() {
        for s in Strategy::all() {
            assert!(s.orders_code() || s.orders_heap(), "{}", s.name());
            assert_eq!(s.orders_heap(), s.heap_strategy().is_some());
        }
        assert!(Strategy::CuPlusHeapPath.orders_code());
        assert!(Strategy::CuPlusHeapPath.orders_heap());
        assert_eq!(
            Strategy::StructuralHash.heap_strategy(),
            Some(HeapStrategy::StructuralHash { max_depth: 2 })
        );
    }

    #[test]
    fn reported_metric_matches_strategy_kind() {
        let eval = Evaluation {
            strategy: Strategy::Cu,
            baseline: report(20, 10, 100),
            optimized: report(10, 10, 100),
        };
        assert_eq!(eval.reported_fault_reduction(), 2.0);
        let eval = Evaluation {
            strategy: Strategy::HeapPath,
            baseline: report(20, 10, 100),
            optimized: report(20, 5, 100),
        };
        assert_eq!(eval.reported_fault_reduction(), 2.0);
        let eval = Evaluation {
            strategy: Strategy::CuPlusHeapPath,
            baseline: report(20, 10, 100),
            optimized: report(10, 5, 100),
        };
        assert_eq!(eval.reported_fault_reduction(), 2.0);
    }

    #[test]
    fn zero_fault_ratios_are_well_defined() {
        let eval = Evaluation {
            strategy: Strategy::Cu,
            baseline: report(0, 0, 100),
            optimized: report(0, 0, 100),
        };
        assert_eq!(eval.text_fault_reduction(), 1.0);
        let eval = Evaluation {
            strategy: Strategy::Cu,
            baseline: report(5, 0, 100),
            optimized: report(0, 0, 100),
        };
        assert!(eval.text_fault_reduction().is_infinite());
    }

    #[test]
    fn speedup_prefers_first_response_when_present() {
        let cm = nimage_vm::CostModel {
            ns_per_op: 1.0,
            fault_ns: 0.0,
        };
        let mut baseline = report(0, 0, 1_000);
        let mut optimized = report(0, 0, 1_000);
        baseline.first_response = Some(nimage_vm::ResponsePoint {
            ops: 400,
            probe_ops: 0,
            faults: SectionFaults::default(),
        });
        optimized.first_response = Some(nimage_vm::ResponsePoint {
            ops: 200,
            probe_ops: 0,
            faults: SectionFaults::default(),
        });
        let eval = Evaluation {
            strategy: Strategy::Cu,
            baseline,
            optimized,
        };
        assert_eq!(eval.speedup(&cm), 2.0);
    }

    #[test]
    fn default_build_options_model_cross_build_divergence() {
        let opts = BuildOptions::default();
        assert_ne!(
            opts.heap_instrumented.clinit_seed, opts.heap_optimized.clinit_seed,
            "builds must not share initializer order"
        );
        assert!(!opts.heap_instrumented.pea_fold);
        assert!(opts.heap_optimized.pea_fold);
    }

    #[test]
    fn pipeline_error_displays_sources() {
        let e = PipelineError::NoTrace;
        assert!(e.to_string().contains("no trace"));
        let e = PipelineError::Clinit(ExecError::BudgetExhausted);
        assert!(e.to_string().contains("build-time"));
    }
}
