//! The parallel evaluation engine: strategy × workload matrices over the
//! shared [`ArtifactCache`].
//!
//! The paper's experiments measure six ordering strategies over 17
//! workloads. Evaluated naively, every strategy rebuilds the optimized
//! *baseline* image and re-runs the baseline measurement — identical work
//! repeated six times — and everything runs serially. The engine instead:
//!
//! 1. **profiles once per workload** (instrumented build + run + replay),
//!    keeping only the profiles: the profiling build and its trace are
//!    freed as the replay ends,
//! 2. **caches every shared artifact** content-keyed in an
//!    [`ArtifactCache`] — reachability, the profiles, the optimized
//!    compile and snapshot, strategy ID maps, the baseline layout and the
//!    baseline measurement are each computed exactly once per workload
//!    and shared by all strategies,
//! 3. **executes each optimized build once**: the baseline run also
//!    records its first-touch [`AccessLog`], and every strategy cell pages
//!    its own layout from that log ([`Pipeline::relayout`]) instead of
//!    interpreting the same build again — exact, because a layout moves
//!    bytes but never changes what executes (`nimage_vm::access`),
//! 4. **fans the independent cells out** over a scoped thread pool that
//!    takes jobs from one ordered queue — every row's serial front first,
//!    largest program first, then the strategy cells — returning results
//!    in deterministic row-major (workload-major) order regardless of
//!    scheduling.
//!
//! Per-stage wall-clock and cache hit counts are read out through
//! [`crate::Report`] (surfaced by `nimage bench --json`). Stage times are
//! derived from the span tree the engine's always-on [`Tracer`] records
//! (DESIGN.md §14): every stage computation runs inside a span, and a
//! stage's time is the sum of its spans' *exclusive* durations (inclusive
//! minus nested spans), so nested stages never double-count — the
//! attribution the old `StageClock` hand-rolled with a thread-local
//! child-duration stack.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use nimage_analysis::Reachability;
use nimage_compiler::{CompiledProgram, InstrumentConfig, ProgramIndex};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_image::BinaryImage;
use nimage_ir::Program;
use nimage_order::HeapStrategy;
use nimage_trace::Tracer;
use nimage_vm::{AccessLog, LoweredProgram, RunReport, StopWhen};

use crate::cache::{ArtifactCache, CacheKey, Memo};
use crate::diskcache::{DiskCacheOptions, DiskCodec, DiskStore};
use crate::{
    BuildOptions, BuildParts, Evaluation, LayoutOrders, Pipeline, PipelineError, ProfiledArtifacts,
    ProfilingOverhead, RunParts, Strategy,
};

/// The pipeline's stages. A [`crate::Report`] lists its per-stage times
/// (`Report::stages`) in this order.
#[derive(Debug, Clone, Copy)]
pub struct StageTimes;

impl StageTimes {
    /// Stage names in pipeline order. These are exactly the span names
    /// the engine records, so a stage's time is the summed exclusive time
    /// of its spans.
    pub const NAMES: [&'static str; 9] = [
        "analyze", "compile", "snapshot", "lower", "replay", "order", "optimize", "layout", "run",
    ];
}

/// Observability knobs of one engine (never part of any cache
/// fingerprint — keys hash only program, build options and stop
/// condition, so tracing cannot invalidate or fork cache entries).
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Record VM-level point events — one `page-fault` instant per major
    /// fault, one `shard-fault` instant per lazily lowered CU — into the
    /// engine's tracer. Off by default: this is the only recording that
    /// scales with executed work, and the ≤ 3% run-stage overhead bound
    /// is measured against it. Stage/cell spans are always recorded
    /// (they are a few hundred events per evaluation).
    pub vm_events: bool,
    /// Per-thread event-ring capacity.
    pub capacity: usize,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions {
            vm_events: false,
            capacity: nimage_trace::DEFAULT_CAPACITY,
        }
    }
}

/// Engine construction knobs.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads for [`Engine::evaluate_matrix`]; `0` uses the
    /// machine's available parallelism.
    pub n_threads: usize,
    /// Disk-persistent cache tier. `None` (the default) keeps the cache
    /// purely in-memory; `Some` persists the serializable stages (strategy
    /// id maps and ordering plans, baseline measurements, profiling
    /// artifacts) under the given root so later processes start warm.
    pub disk: Option<DiskCacheOptions>,
    /// Observability configuration.
    pub trace: TraceOptions,
}

/// One workload of an evaluation matrix.
#[derive(Debug, Clone)]
pub struct WorkloadSpec<'p> {
    /// Display name (also the row label of the result).
    pub name: String,
    /// The program under evaluation.
    pub program: &'p Program,
    /// Pipeline configuration.
    pub opts: BuildOptions,
    /// When measured runs stop.
    pub stop: StopWhen,
}

impl<'p> WorkloadSpec<'p> {
    /// Creates a workload spec.
    pub fn new(
        name: impl Into<String>,
        program: &'p Program,
        opts: BuildOptions,
        stop: StopWhen,
    ) -> WorkloadSpec<'p> {
        WorkloadSpec {
            name: name.into(),
            program,
            opts,
            stop,
        }
    }
}

/// A typed request for one optimized build: the workload, its profiling
/// artifacts, and the layout strategy (`None` = the baseline layout).
///
/// It remains only because the repo benchmark (`benchmark/src/pass.rs`)
/// calls [`Engine::optimized_image`] with it; ROADMAP item 1b removes it
/// with that caller. Everything else asks [`Workload::optimized_image`].
#[derive(Debug)]
pub struct BuildRequest<'a, 'p, 's> {
    /// The workload to build.
    pub spec: &'s WorkloadSpec<'p>,
    /// Its profiling-run artifacts (from [`Engine::profile_workload`]).
    pub artifacts: &'a ProfiledArtifacts,
    /// The ordering strategy, or `None` for the unordered baseline
    /// layout.
    pub strategy: Option<Strategy>,
}

/// One cell of an evaluated matrix.
#[derive(Debug)]
pub struct MatrixCell {
    /// Workload name of the cell's row.
    pub workload: String,
    /// Strategy of the cell's column.
    pub strategy: Strategy,
    /// The baseline-vs-strategy measurement.
    pub eval: Evaluation,
}

/// How many lowering shards the engine's runs realized, and by which path,
/// summed over every run as it ends. `lazy` counts shards faulted in by
/// the interpreter on first call into a CU; `eager` counts shards realized
/// ahead of execution (shard extraction, whole-program builds). The engine
/// lowers only on demand, so from the engine `eager` is always 0; the
/// field stays because the repo benchmark reads it. `cus` is the total
/// shard count, so `cus - lazy - eager` shards were never lowered at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards realized by the interpreter's fault-in path.
    pub lazy: u64,
    /// Shards realized ahead of execution.
    pub eager: u64,
    /// Total shards (= CUs) across the lowered builds.
    pub cus: u64,
}

/// One workload of an engine, from [`Engine::workload`]: the spec, its
/// content fingerprint, computed once, and one lazily built
/// [`ProgramIndex`] every stage of the workload reads. Every operation on
/// the workload goes through its handle, so however many builds, plans
/// and cells a caller asks for, the program is hashed once and each fact
/// of the index is derived once.
///
/// The index belongs to the handle, not to the program: the program's
/// derived `Hash` is its cache fingerprint, and a workload whose stages
/// are all cache hits never builds it.
#[derive(Clone)]
pub struct Workload<'e, 'p, 's> {
    engine: &'e Engine,
    spec: &'s WorkloadSpec<'p>,
    base: CacheKey,
    index: Arc<ProgramIndex<'p>>,
}

impl<'e, 'p, 's> Workload<'e, 'p, 's> {
    /// Profiles the workload (steps 1–3 of Fig. 1), cached in memory and
    /// on disk.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn profile(&self) -> Result<Arc<ProfiledArtifacts>, PipelineError> {
        self.engine.profiled(self)
    }

    /// Builds the fully instrumented image ([`InstrumentConfig::FULL`])
    /// afresh on each call, outside the memos and the disk tier (only the
    /// workload's analysis is shared). The parts equal
    /// `Pipeline::build_instrumented`'s.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn instrumented_parts(&self) -> Result<BuildParts, PipelineError> {
        let p = self.pipeline();
        let front = self.engine.build_front(self, &p, Build::Instrumented)?;
        let image = self
            .engine
            .default_image(self, &p, Build::Instrumented, &front)?;
        Ok(BuildParts {
            compiled: front.compiled,
            snapshot: front.snapshot,
            image,
        })
    }

    /// Builds the profile-guided optimized image under `strategy` (`None`
    /// = the baseline layout) with the compile and snapshot stages shared
    /// behind the cache and disk tier. The parts equal
    /// `Pipeline::build_optimized`'s.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn optimized_image(
        &self,
        artifacts: &ProfiledArtifacts,
        strategy: Option<Strategy>,
    ) -> Result<BuildParts, PipelineError> {
        let p = self.pipeline();
        let e = self.engine;
        let build = Build::Optimized(artifacts);
        let front = e.build_front(self, &p, build)?;
        let image = match strategy {
            None => e.default_image(self, &p, build, &front)?,
            Some(s) => Arc::new(e.strategy_image(self, &p, artifacts, &front, s)?),
        };
        Ok(BuildParts {
            compiled: front.compiled,
            snapshot: front.snapshot,
            image,
        })
    }

    /// The ordering plan for `strategy` — the chosen orders plus, for the
    /// clustered strategies, the cost model's predicted fault counts —
    /// computed through the cache (a hit after any evaluation of the same
    /// cell).
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn layout_plan(
        &self,
        artifacts: &ProfiledArtifacts,
        strategy: Strategy,
    ) -> Result<LayoutOrders, PipelineError> {
        let p = self.pipeline();
        let front = self
            .engine
            .build_front(self, &p, Build::Optimized(artifacts))?;
        Ok((*self
            .engine
            .orders_for(self, &p, artifacts, &front, strategy))
        .clone())
    }

    /// Sec. 7.4: the execution-time overhead factors of the three
    /// single-probe instrumentation modes, each the CPU work of a run of
    /// the build with that probe over a run of the regular build. The four
    /// builds share the workload's analysis. Nothing reads their compiles,
    /// snapshots, images or runs again, so each lives only until its run
    /// ends, outside the engine's memos and disk tier.
    ///
    /// The paper measures profiling overhead in the usual warm-cache
    /// benchmarking setup (profiling happens once, offline), so the ratio
    /// is computed over CPU work only: cold-start fault latency is the
    /// subject of the other experiments, not of this one.
    ///
    /// # Errors
    /// Propagates build or run failures.
    pub fn profiling_overhead(&self) -> Result<ProfilingOverhead, PipelineError> {
        let (e, p) = (self.engine, self.pipeline());
        let work = |build: Build<'_>| -> Result<f64, PipelineError> {
            let front = e.build_front(self, &p, build)?;
            let (report, _) = e.run_default(self, &p, &front, build)?;
            Ok(match report.first_response {
                Some(rp) => (rp.ops + rp.probe_ops) as f64,
                None => (report.ops + report.probe_ops) as f64,
            })
        };
        let [regular, cu, method, heap] =
            OVERHEAD_BUILDS.map(|(name, instr)| work(Build::Overhead(name, instr)));
        let regular = regular?;
        Ok(ProfilingOverhead {
            cu: cu? / regular,
            method: method? / regular,
            heap: heap? / regular,
        })
    }

    /// Evaluates this workload's row of the matrix: one cell per
    /// strategy, as [`Engine::evaluate_matrix`] does for each of its rows.
    ///
    /// # Errors
    /// Returns the first failing cell's error.
    pub fn evaluate(&self, strategies: &[Strategy]) -> Result<Vec<MatrixCell>, PipelineError> {
        Rows {
            engine: self.engine,
            specs: std::slice::from_ref(self.spec),
            handles: vec![OnceLock::from(self.clone())],
        }
        .evaluate(strategies)
    }

    fn key(&self, stage: &str) -> CacheKey {
        CacheKey::for_stage(stage, &[self.base])
    }

    fn pipeline(&self) -> Pipeline<'p> {
        Pipeline::indexed(self.index.clone(), self.spec.opts.clone())
    }
}

/// The rows of a matrix, from [`Engine::rows`]: one [`Workload`] handle
/// per spec, made on first use by whichever operation reaches the row
/// first. Every operation on the rows shares the handles, so a matrix and
/// a later per-row map fingerprint and index each workload once.
pub struct Rows<'e, 'p, 's> {
    engine: &'e Engine,
    specs: &'s [WorkloadSpec<'p>],
    handles: Vec<OnceLock<Workload<'e, 'p, 's>>>,
}

impl<'e, 'p, 's> Rows<'e, 'p, 's> {
    /// The handle of row `row`, made on first use.
    pub fn handle(&self, row: usize) -> &Workload<'e, 'p, 's> {
        self.handles[row].get_or_init(|| self.engine.workload(&self.specs[row]))
    }

    /// [`Engine::evaluate_matrix`] over these rows.
    ///
    /// # Errors
    /// Returns the first failing cell's error (in row-major order).
    pub fn evaluate(&self, strategies: &[Strategy]) -> Result<Vec<MatrixCell>, PipelineError> {
        let e = self.engine;
        let jobs: Vec<(usize, usize)> = (0..self.specs.len())
            .flat_map(|wi| (0..strategies.len()).map(move |si| (wi, si)))
            .collect();
        let sizes: Vec<usize> = self.specs.iter().map(|s| ir_size(s.program)).collect();
        let order = job_order(&sizes, strategies.len());
        // Capped at the host's parallelism (workers beyond it only
        // contend) and gated on the cell-count cutoff. This is the
        // pipeline's only fan-out: every stage inside a cell is serial.
        let workers =
            nimage_par::workers_for(e.threads(), jobs.len(), nimage_par::cutoff::RUN_MIN_CELLS);
        let results = nimage_par::parallel_map_ordered(workers, &order, |j| {
            let (wi, si) = jobs[j];
            e.run_job(self.handle(wi), strategies[si])
        });

        let mut out = Vec::with_capacity(jobs.len());
        for (result, &(wi, si)) in results.into_iter().zip(&jobs) {
            out.push(MatrixCell {
                workload: self.specs[wi].name.clone(),
                strategy: strategies[si],
                eval: result?,
            });
        }
        // Opportunistic lifecycle sweep: if this evaluation wrote new
        // entries and the cache is capped, bring it back under the caps.
        if e.disk.as_ref().is_some_and(|d| d.stats().stores > 0) {
            e.gc_disk();
        }
        Ok(out)
    }

    /// `f` on every row's handle, fanned out over the engine's workers,
    /// largest program first (as the matrix starts its rows). The results
    /// come back in row order.
    pub fn map<T: Send>(&self, f: impl Fn(&Workload<'e, 'p, 's>) -> T + Sync) -> Vec<T> {
        let sizes: Vec<usize> = self.specs.iter().map(|s| ir_size(s.program)).collect();
        let workers = nimage_par::workers_for(
            self.engine.threads(),
            self.specs.len(),
            nimage_par::cutoff::RUN_MIN_CELLS,
        );
        nimage_par::parallel_map_ordered(workers, &job_order(&sizes, 1), |i| f(self.handle(i)))
    }
}

/// Sec. 7.4's builds, named: the regular build, then one build per probe
/// kind in [`ProfilingOverhead::MODES`] order.
#[rustfmt::skip]
const OVERHEAD_BUILDS: [(&str, InstrumentConfig); 4] = [
    ("overhead-regular", InstrumentConfig::NONE),
    ("overhead-cu", InstrumentConfig { trace_cu: true, ..InstrumentConfig::NONE }),
    ("overhead-method", InstrumentConfig { trace_methods: true, ..InstrumentConfig::NONE }),
    ("overhead-heap", InstrumentConfig { trace_heap: true, ..InstrumentConfig::NONE }),
];

/// One build of a workload: what its compile instruments and under which
/// call counts, which heap configuration its snapshot uses, and the
/// variant name its cache keys and spans carry.
#[derive(Clone, Copy)]
enum Build<'a> {
    /// The profiling build: every probe on.
    Instrumented,
    /// One of Sec. 7.4's builds, named: the regular build or one probe kind
    /// on.
    Overhead(&'static str, InstrumentConfig),
    /// The PGO build, compiled under a profile's call counts.
    Optimized(&'a ProfiledArtifacts),
}

impl Build<'_> {
    /// The variant in the build's compile and snapshot keys and spans.
    fn name(self) -> &'static str {
        match self {
            Build::Instrumented => "instrumented",
            Build::Overhead(name, _) => name,
            Build::Optimized(_) => "optimized",
        }
    }

    /// Whether the build's compile, snapshot and default image go through
    /// the engine's memos and disk tier: the optimized build's only, which
    /// every cell of its row reads. The profiling build is read once, by
    /// the profile's compute, and Sec. 7.4's builds once each.
    fn cached(self) -> bool {
        matches!(self, Build::Optimized(_))
    }

    /// The variant of its default-order image and that image's run: the
    /// optimized build's is the baseline.
    fn image(self) -> &'static str {
        match self {
            Build::Optimized(_) => "baseline",
            b => b.name(),
        }
    }
}

/// [`Engine::build_front`]'s output, with the snapshot's cache key, which
/// the identity maps derive theirs from.
struct BuildFront {
    compiled: Arc<CompiledProgram>,
    snapshot: Arc<HeapSnapshot>,
    snapshot_key: CacheKey,
}

/// The baseline half of one workload's evaluation, every part shared
/// behind the cache: the optimized build and its one execution (report
/// and access log).
struct BaselineParts {
    front: BuildFront,
    run: Arc<(RunReport, AccessLog)>,
}

/// The parallel evaluation engine. See the module docs.
#[derive(Debug)]
pub struct Engine {
    cache: ArtifactCache,
    shards: Mutex<ShardStats>,
    disk: Option<DiskStore>,
    tracer: Tracer,
    opts: EngineOptions,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineOptions::default())
    }
}

impl Engine {
    /// Creates an engine with an empty artifact cache (and the disk tier
    /// of [`EngineOptions::disk`], when configured).
    pub fn new(opts: EngineOptions) -> Engine {
        Engine {
            cache: ArtifactCache::new(),
            shards: Mutex::default(),
            disk: opts.disk.as_ref().map(DiskStore::open),
            // The engine's own tracer is always on: stage/cell spans are
            // a few hundred events per evaluation and are what
            // `Report::stages` is derived from. `TraceOptions`
            // gates only the VM-level fault instants (see `vm_tracer`).
            tracer: Tracer::with_capacity(opts.trace.capacity),
            opts,
        }
    }

    /// The engine's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The engine's construction options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The lowering shards the engine's runs have realized so far.
    pub(crate) fn shard_stats(&self) -> ShardStats {
        *self.shards.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The engine's disk tier, when configured.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The engine's tracer: stage, cell and cache events recorded so far
    /// (plus VM fault events when [`TraceOptions::vm_events`] is set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The Chrome-trace JSON (Perfetto/`chrome://tracing`-loadable) of
    /// everything recorded so far — `nimage bench --trace-out`.
    pub fn chrome_trace(&self) -> String {
        nimage_trace::chrome_trace_json(&self.tracer.events())
    }

    /// The tracer handle VM runs record into: the engine tracer when
    /// [`TraceOptions::vm_events`] is on, otherwise the disabled handle
    /// (one branch per fault, zero allocation — the compiled-in fast
    /// path).
    fn vm_tracer(&self) -> Tracer {
        if self.opts.trace.vm_events {
            self.tracer.clone()
        } else {
            Tracer::disabled()
        }
    }

    /// Memo lookup with a disk tier behind it: an in-memory miss first
    /// consults the disk store (a valid entry short-circuits the compute),
    /// and a genuine compute is written back. The in-memory slot mutex
    /// serializes both, preserving exactly-once semantics per process.
    fn disk_backed<T, E>(
        &self,
        memo: &Memo<T>,
        stage: &'static str,
        key: CacheKey,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: DiskCodec,
    {
        self.disk_backed_checked(memo, stage, key, |_| true, f)
    }

    /// [`Engine::disk_backed`] whose disk entries must also pass `check`
    /// against the build they were loaded for; one that fails is rejected
    /// and recomputed.
    fn disk_backed_checked<T, E>(
        &self,
        memo: &Memo<T>,
        stage: &'static str,
        key: CacheKey,
        check: impl FnOnce(&T) -> bool,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: DiskCodec,
    {
        memo.get_or_try(key, || {
            if let Some(d) = &self.disk {
                // Root span over read, validate, decode and check: which
                // caller performs the (exactly once per key) disk probe is
                // scheduling-dependent, but the probe's outcome is not.
                let hit = {
                    let _s = self
                        .tracer
                        .root_span("disk-load", || format!("stage={stage}"));
                    d.get_checked::<T>(stage, key, check)
                };
                if let Some(v) = hit {
                    return Ok(v);
                }
            }
            let v = f()?;
            if let Some(d) = &self.disk {
                d.put(stage, key, &v);
                self.tracer
                    .root_instant("disk-store", || format!("stage={stage}"));
            }
            Ok(v)
        })
    }

    /// One stage of `build`'s front: behind the memo and the disk tier
    /// ([`Engine::disk_backed_checked`]) when the build is cached, computed
    /// for the caller alone otherwise.
    fn build_stage<T, E>(
        &self,
        build: Build<'_>,
        memo: &Memo<T>,
        stage: &'static str,
        key: CacheKey,
        check: impl FnOnce(&T) -> bool,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: DiskCodec,
    {
        if build.cached() {
            self.disk_backed_checked(memo, stage, key, check, f)
        } else {
            f().map(Arc::new)
        }
    }

    /// The handle of one workload: fingerprints it — the program, megabytes
    /// of IR, structurally through its `Hash` impl; options and stop
    /// condition, a few hundred bytes, through `Debug` — and attaches an
    /// empty program index, which counts `index.builds` when it builds its
    /// first table.
    pub fn workload<'p, 's>(&self, spec: &'s WorkloadSpec<'p>) -> Workload<'_, 'p, 's> {
        let _s = self
            .tracer
            .root_span("fingerprint", || format!("workload={}", spec.name));
        let (program, bytes) = CacheKey::of_hash_sized("program", spec.program);
        self.tracer.count("fingerprint.bytes", bytes);
        let parts = [
            program,
            CacheKey::of_debug("options", &spec.opts),
            CacheKey::of_debug("stop", &spec.stop),
        ];
        let tracer = self.tracer.clone();
        let index = ProgramIndex::new(spec.program, spec.opts.vm.max_paths)
            .on_first_build(move || tracer.count("index.builds", 1));
        Workload {
            engine: self,
            spec,
            base: CacheKey::for_stage("workload", &parts),
            index: Arc::new(index),
        }
    }

    /// The configured worker-thread count (`0` = host parallelism).
    fn threads(&self) -> usize {
        if self.opts.n_threads > 0 {
            self.opts.n_threads
        } else {
            nimage_par::host_parallelism()
        }
    }

    /// Evaluates every `(workload, strategy)` cell of the matrix, sharing
    /// cached artifacts within and across rows and fanning independent
    /// cells out over worker threads. Results come back in deterministic
    /// row-major order — `specs[0] × strategies[0..]`, then `specs[1]`, … —
    /// and are bit-identical to the serial uncached loop's.
    ///
    /// # Errors
    /// Returns the first failing cell's error (in row-major order).
    pub fn evaluate_matrix(
        &self,
        specs: &[WorkloadSpec<'_>],
        strategies: &[Strategy],
    ) -> Result<Vec<MatrixCell>, PipelineError> {
        self.rows(specs).evaluate(strategies)
    }

    /// The rows of `specs`, each handle made on first use: by the row's
    /// front in [`Rows::evaluate`], so the program hashes of different
    /// workloads overlap instead of queueing ahead of the fan-out.
    pub fn rows<'p, 's>(&self, specs: &'s [WorkloadSpec<'p>]) -> Rows<'_, 'p, 's> {
        Rows {
            engine: self,
            specs,
            handles: specs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Enforces the configured disk-cache size caps: deletes stale temp
    /// files and evicts least-recently-accessed entries until the cache
    /// is under [`DiskCacheOptions::max_bytes`]/[`DiskCacheOptions::max_entries`].
    /// `None` (no sweep) when no disk tier or no cap is configured.
    pub fn gc_disk(&self) -> Option<crate::diskcache::GcReport> {
        let d = self.disk.as_ref()?;
        let opts = self.opts.disk.as_ref()?;
        if !opts.capped() {
            return None;
        }
        let _s = self.tracer.root_span("disk-gc", String::new);
        let r = d.gc(opts.max_bytes, opts.max_entries);
        self.tracer.count("disk.gc.sweeps", 1);
        self.tracer
            .count("disk.gc.evicted_entries", r.evicted_entries);
        self.tracer.count("disk.gc.evicted_bytes", r.evicted_bytes);
        Some(r)
    }

    /// Profiles one workload: [`Workload::profile`] on a new handle.
    ///
    /// It remains only because the repo benchmark (`benchmark/src/pass.rs`)
    /// calls it; ROADMAP item 1b removes it with that caller.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn profile_workload(
        &self,
        spec: &WorkloadSpec<'_>,
    ) -> Result<Arc<ProfiledArtifacts>, PipelineError> {
        self.workload(spec).profile()
    }

    /// The instrumented build: [`Workload::instrumented_parts`] on a new
    /// handle.
    ///
    /// It remains only because the repo benchmark (`benchmark/src/pass.rs`)
    /// calls it; ROADMAP item 1b removes it with that caller.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn instrumented_parts(&self, spec: &WorkloadSpec<'_>) -> Result<BuildParts, PipelineError> {
        self.workload(spec).instrumented_parts()
    }

    /// The optimized build `req` describes: [`Workload::optimized_image`]
    /// on a new handle.
    ///
    /// It remains only because the repo benchmark (`benchmark/src/pass.rs`)
    /// calls it; ROADMAP item 1b removes it with that caller.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn optimized_image(
        &self,
        req: &BuildRequest<'_, '_, '_>,
    ) -> Result<BuildParts, PipelineError> {
        self.workload(req.spec)
            .optimized_image(req.artifacts, req.strategy)
    }

    /// The ordering-stage output for one workload × strategy: a plan
    /// (orders, plus predicted fault counts for the clustered strategies)
    /// memoized and persisted under the `order` disk stage. A disk plan
    /// that does not fit the build is rejected and recomputed. The
    /// strategy's identities of the optimized snapshot are looked up only
    /// when the plan is computed.
    fn orders_for(
        &self,
        w: &Workload<'_, '_, '_>,
        p: &Pipeline<'_>,
        artifacts: &ProfiledArtifacts,
        front: &BuildFront,
        strategy: Strategy,
    ) -> Arc<LayoutOrders> {
        let key = CacheKey::for_stage(
            "order",
            &[w.base, CacheKey::of_debug("strategy", &strategy)],
        );
        match self.disk_backed_checked::<_, std::convert::Infallible>(
            &self.cache.plans,
            "order",
            key,
            |plan| plan.fits(&front.compiled, &front.snapshot, &p.options().image),
            || {
                let ids = strategy
                    .heap_strategy()
                    .map(|hs| self.heap_ids(w, front.snapshot_key, &front.snapshot, hs));
                // The layout optimizer keeps its own span name.
                let span = if strategy.clustered() {
                    "optimize"
                } else {
                    "order"
                };
                let _s = self.tracer.root_span(span, || {
                    format!("workload={} strategy={}", w.spec.name, strategy.name())
                });
                Ok(p.order_stage(
                    artifacts,
                    &front.compiled,
                    &front.snapshot,
                    Some(strategy),
                    ids.as_deref(),
                ))
            },
        ) {
            Ok(plan) => plan,
        }
    }

    /// One strategy's image: its cached plan laid out with the profiled
    /// native pages. Unmemoized — every cell's layout is its own.
    fn strategy_image(
        &self,
        w: &Workload<'_, '_, '_>,
        p: &Pipeline<'_>,
        artifacts: &ProfiledArtifacts,
        front: &BuildFront,
        strategy: Strategy,
    ) -> Result<BinaryImage, PipelineError> {
        let orders = self.orders_for(w, p, artifacts, front, strategy);
        let _s = self.tracer.span_with("layout", || {
            format!("workload={} strategy={}", w.spec.name, strategy.name())
        });
        p.layout_stage(
            &front.compiled,
            &front.snapshot,
            (*orders).clone(),
            Some(artifacts.native_pages.as_slice()),
        )
    }

    fn run_job(
        &self,
        w: &Workload<'_, '_, '_>,
        strategy: Strategy,
    ) -> Result<Evaluation, PipelineError> {
        // The cell span is a logical root: cells are the unit of
        // scheduling, so their thread and physical parent vary.
        let _cell = self.tracer.root_span("cell", || {
            format!("workload={} strategy={}", w.spec.name, strategy.name())
        });
        let artifacts = self.profiled(w)?;
        let parts = self.baseline_parts(w, &artifacts)?;
        self.evaluate_cell(w, &artifacts, &parts, strategy)
    }

    fn reach(&self, w: &Workload<'_, '_, '_>, p: &Pipeline<'_>) -> Arc<Reachability> {
        self.cache.reach.get_or(w.key("analyze"), || {
            let _s = self
                .tracer
                .root_span("analyze", || format!("workload={}", w.spec.name));
            p.analyze_stage()
        })
    }

    /// One scheme's identity of every object of the optimized snapshot
    /// (`snap`), which [`Pipeline::order_stage`] matches a profile
    /// against: memoised and persisted under `assign-ids`. A profile names
    /// only its touched objects (`profiled`), so no instrumented snapshot
    /// comes here.
    fn heap_ids(
        &self,
        w: &Workload<'_, '_, '_>,
        snap_key: CacheKey,
        snap: &HeapSnapshot,
        hs: HeapStrategy,
    ) -> Arc<HashMap<ObjId, u64>> {
        let key = CacheKey::for_stage(
            "assign-ids",
            &[snap_key, CacheKey::of_debug("strategy", &hs)],
        );
        match self.disk_backed::<_, std::convert::Infallible>(
            &self.cache.heap_ids,
            "assign-ids",
            key,
            || {
                let _s = self
                    .tracer
                    .root_span("order", || format!("workload={} ids={hs:?}", w.spec.name));
                Ok(nimage_order::assign_ids(w.spec.program, snap, hs))
            },
        ) {
            Ok(v) => v,
        }
    }

    /// The strategy-independent front of one build — compile → snapshot,
    /// each behind the cache and the disk tier when the build is cached
    /// ([`Build::cached`]); reachability (memoized, never persisted, shared
    /// by every build of the workload) is resolved only by a compile that
    /// is computed.
    fn build_front(
        &self,
        w: &Workload<'_, '_, '_>,
        p: &Pipeline<'_>,
        build: Build<'_>,
    ) -> Result<BuildFront, PipelineError> {
        let opts = &w.spec.opts;
        let (instr, counts, heap_cfg) = match build {
            Build::Instrumented => (InstrumentConfig::FULL, None, &opts.heap_instrumented),
            Build::Overhead(_, instr) => (instr, None, &opts.heap_instrumented),
            Build::Optimized(a) => (
                InstrumentConfig::NONE,
                Some(&a.call_counts),
                &opts.heap_optimized,
            ),
        };
        let variant = build.name();
        let snapshot_key = w.key(&format!("snapshot:{variant}"));
        let span_args = || format!("workload={} variant={variant}", w.spec.name);
        let Ok(compiled) = self.build_stage::<_, std::convert::Infallible>(
            build,
            &self.cache.compiled,
            "compile",
            w.key(&format!("compile:{variant}")),
            |_| true,
            || {
                // Only a compile that actually runs needs reachability: a
                // disk hit above never analyzes.
                let reach = self.reach(w, p);
                let _s = self.tracer.root_span("compile", span_args);
                Ok(p.compile_stage((*reach).clone(), instr, counts))
            },
        );
        let snapshot = self.build_stage(
            build,
            &self.cache.snapshots,
            "snapshot",
            snapshot_key,
            |snap| snap.fits(w.spec.program),
            || {
                let _s = self.tracer.root_span("snapshot", span_args);
                p.snapshot_stage(&compiled, heap_cfg)
            },
        )?;
        Ok(BuildFront {
            compiled,
            snapshot,
            snapshot_key,
        })
    }

    /// A build's default-order image, shared across cells behind the image
    /// memo when the build is cached.
    fn default_image(
        &self,
        w: &Workload<'_, '_, '_>,
        p: &Pipeline<'_>,
        build: Build<'_>,
        front: &BuildFront,
    ) -> Result<Arc<BinaryImage>, PipelineError> {
        let variant = build.image();
        let layout = || {
            let _s = self.tracer.root_span("layout", || {
                format!("workload={} variant={variant}", w.spec.name)
            });
            p.layout_stage(
                &front.compiled,
                &front.snapshot,
                LayoutOrders::default(),
                None,
            )
        };
        if !build.cached() {
            return layout().map(Arc::new);
        }
        self.cache
            .images
            .get_or_try(w.key(&format!("layout:{variant}")), layout)
    }

    /// Adds a finished run's shard counts to the engine's and drops its
    /// lowered code: inside the caller's `run` span, on the worker that ran
    /// it.
    fn retire_lowered(&self, lowered: Arc<LoweredProgram>) {
        let mut s = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        s.lazy += lowered.shards_lowered_lazy();
        s.eager += lowered.shards_lowered_eager();
        s.cus += lowered.n_cus() as u64;
        drop(s);
        // The last reference: the run's code is freed here, outside the lock.
        drop(lowered);
    }

    /// One run of `build`'s default-order image, with the run's access log.
    ///
    /// The run executes on a sharded program that nothing else shares:
    /// each build runs once, and its run is memoised or used once. Making
    /// the container builds only the cheap global tables; method bodies
    /// are lowered per CU on first call, inside the run, and the container
    /// is retired ([`Engine::retire_lowered`]) inside the run's `run` span.
    /// The baseline run, which every cell of its row shares, records a root
    /// span; the others nest under their caller's span.
    fn run_default(
        &self,
        w: &Workload<'_, '_, '_>,
        p: &Pipeline<'_>,
        front: &BuildFront,
        build: Build<'_>,
    ) -> Result<(RunReport, AccessLog), PipelineError> {
        let image = self.default_image(w, p, build, front)?;
        let lowered = {
            let _s = self.tracer.root_span("lower", || {
                format!("workload={} variant={}", w.spec.name, build.name())
            });
            Arc::new(LoweredProgram::indexed(&w.index, &front.compiled))
        };
        let detail = || format!("workload={} variant={}", w.spec.name, build.image());
        let _s = match build {
            Build::Optimized(_) => self.tracer.root_span("run", detail),
            _ => self.tracer.span_with("run", detail),
        };
        self.tracer.count("vm.executions", 1);
        let run = p.run_logged(
            RunParts::new(&front.compiled, &front.snapshot, &image)
                .lowered(Some(lowered.clone()))
                .tracer(self.vm_tracer()),
            w.spec.stop,
        );
        self.retire_lowered(lowered);
        run
    }

    /// The profiling half (steps 1–3 of Fig. 1), computed once per
    /// workload. The instrumented build is made, run and replayed here and
    /// freed when the compute ends; the replay consumes the run's trace,
    /// so the memoised and persisted profile holds none.
    fn profiled(&self, w: &Workload<'_, '_, '_>) -> Result<Arc<ProfiledArtifacts>, PipelineError> {
        self.disk_backed(&self.cache.profiles, "profile", w.key("profile"), || {
            let _p = self
                .tracer
                .root_span("profile", || format!("workload={}", w.spec.name));
            let p = w.pipeline();
            let front = self.build_front(w, &p, Build::Instrumented)?;
            let (report, _) = self.run_default(w, &p, &front, Build::Instrumented)?;
            let _s = self
                .tracer
                .span_with("replay", || format!("workload={}", w.spec.name));
            // Only the touched objects are named, so the instrumented
            // snapshot's identities are neither memoised nor persisted.
            let members = front.snapshot.entries().iter().map(|e| e.obj);
            p.profiles(report, members, &mut |hs, objs| {
                let _s = self
                    .tracer
                    .span_with("order", || format!("workload={} ids={hs:?}", w.spec.name));
                nimage_order::ids_of(w.spec.program, &front.snapshot, hs, objs)
            })
        })
    }

    /// The optimized build and its one execution, computed once per
    /// workload and shared by every strategy cell. The execution — default
    /// layout, lowered program — happens only when the run
    /// is neither in memory nor on disk; a disk entry whose log does not
    /// fit the build is rejected and recomputed.
    fn baseline_parts(
        &self,
        w: &Workload<'_, '_, '_>,
        artifacts: &ProfiledArtifacts,
    ) -> Result<BaselineParts, PipelineError> {
        let p = w.pipeline();
        let build = Build::Optimized(artifacts);
        let front = self.build_front(w, &p, build)?;
        let run = self.disk_backed_checked(
            &self.cache.runs,
            "baseline-run",
            w.key("run:baseline"),
            |(report, log)| log.fits(report, &front.compiled, &front.snapshot, &p.options().image),
            || self.run_default(w, &p, &front, build),
        )?;
        Ok(BaselineParts { front, run })
    }

    /// One strategy cell: the strategy's image, then the baseline run's
    /// access log paged against it — no execution.
    fn evaluate_cell(
        &self,
        w: &Workload<'_, '_, '_>,
        artifacts: &ProfiledArtifacts,
        parts: &BaselineParts,
        strategy: Strategy,
    ) -> Result<Evaluation, PipelineError> {
        let p = w.pipeline();
        let front = &parts.front;
        let image = self.strategy_image(w, &p, artifacts, front, strategy)?;
        let optimized = {
            let _s = self.tracer.span_with("run", || {
                format!("workload={} strategy={}", w.spec.name, strategy.name())
            });
            self.tracer.count("vm.relayouts", 1);
            p.relayout(&parts.run, &front.compiled, &image, &self.vm_tracer())?
        };
        Ok(Evaluation {
            strategy,
            baseline: parts.run.0.clone(),
            optimized,
        })
    }
}

/// A program's IR size: every block's instructions plus its terminator,
/// over all methods. It ranks rows by the length of their front.
fn ir_size(program: &Program) -> usize {
    program
        .methods()
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.instrs.len() + 1)
        .sum()
}

/// The start order of a matrix's cells, as row-major job indices
/// (`row * n_strategies + strategy`), given each row's [`ir_size`].
///
/// A row's first cell is its *front*: it runs the row's serial chain —
/// fingerprint, analyze, compile, snapshot, instrumented run, replay,
/// optimized compile, snapshot, baseline run — that every other cell of
/// the row waits on. All fronts start first, largest program first, so
/// the longest chains overlap and no worker blocks on a row whose chain
/// another worker has not reached. The remaining cells follow row by row
/// in the same order. The sort is stable: equal sizes keep row order.
fn job_order(row_sizes: &[usize], n_strategies: usize) -> Vec<usize> {
    if n_strategies == 0 {
        return vec![];
    }
    let mut rows: Vec<usize> = (0..row_sizes.len()).collect();
    rows.sort_by_key(|&r| std::cmp::Reverse(row_sizes[r]));
    let fronts = rows.iter().map(|&r| r * n_strategies);
    let rest = rows
        .iter()
        .flat_map(|&r| (1..n_strategies).map(move |s| r * n_strategies + s));
    fronts.chain(rest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_trace::Tracer;

    #[test]
    fn fronts_start_first_largest_program_first() {
        // micro's rows: micronaut, quarkus, spring.
        let order = job_order(&[297_393, 245_499, 391_745], 8);
        let mut expected = vec![16, 0, 8];
        expected.extend(17..24);
        expected.extend(1..8);
        expected.extend(9..16);
        assert_eq!(order, expected);
    }

    #[test]
    fn equal_sizes_keep_row_order() {
        assert_eq!(job_order(&[5, 7, 5, 7], 2), [2, 6, 0, 4, 3, 7, 1, 5]);
        assert_eq!(job_order(&[3, 3, 3], 1), [0, 1, 2]);
        assert_eq!(job_order(&[3, 3], 0), Vec::<usize>::new());
        assert_eq!(job_order(&[], 8), Vec::<usize>::new());
    }

    #[test]
    fn report_stages_list_stage_names_in_pipeline_order() {
        let engine = Engine::default();
        {
            let _run = engine.tracer().span("run");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = engine.report(&crate::EvalRequest::new(), &[]);
        let names: Vec<_> = report.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, StageTimes::NAMES);
        let run = report.stages.iter().find(|s| s.name == "run").unwrap();
        assert!(run.exclusive_ns > 0 && run.count == 1);
    }

    #[test]
    fn nested_spans_attribute_exclusive_time_to_each_stage() {
        // run physically containing compile: exclusive attribution must
        // subtract the nested span, as the old per-stage clock did.
        let tracer = Tracer::new();
        {
            let _run = tracer.span("run");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _compile = tracer.span("compile");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let agg = nimage_trace::aggregate(&tracer.events());
        let run = agg["run"];
        let compile = agg["compile"];
        assert!(run.inclusive_ns > compile.inclusive_ns);
        assert_eq!(
            run.exclusive_ns,
            run.inclusive_ns - compile.inclusive_ns,
            "parent exclusive = inclusive minus nested child"
        );
        assert_eq!(compile.exclusive_ns, compile.inclusive_ns);
    }
}
