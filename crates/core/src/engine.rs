//! The parallel evaluation engine: strategy × workload matrices over the
//! shared [`ArtifactCache`].
//!
//! The paper's experiments measure six ordering strategies over 17
//! workloads. Evaluated naively, every strategy rebuilds the optimized
//! *baseline* image and re-runs the baseline measurement — identical work
//! repeated six times — and everything runs serially. The engine instead:
//!
//! 1. **profiles once per workload** (instrumented build + run + replay),
//! 2. **caches every shared artifact** content-keyed in an
//!    [`ArtifactCache`] — reachability, both compiles, both snapshots,
//!    strategy ID maps, the baseline layout and the baseline measurement
//!    are each computed exactly once per workload and shared by all
//!    strategies,
//! 3. **executes each optimized build once**: the baseline run also
//!    records its first-touch [`AccessLog`], and every strategy cell pages
//!    its own layout from that log ([`Pipeline::relayout`]) instead of
//!    interpreting the same build again — exact, because a layout moves
//!    bytes but never changes what executes (`nimage_vm::access`),
//! 4. **fans the independent cells out** over a scoped thread pool with a
//!    work-stealing job queue, returning results in deterministic
//!    row-major (workload-major) order regardless of scheduling.
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
use std::sync::{Arc, OnceLock};

use nimage_analysis::Reachability;
use nimage_compiler::{CompiledProgram, InstrumentConfig};
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
    RunParts, Strategy,
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

/// How many lowering shards the engine's cached containers realized, and
/// by which path. `lazy` counts shards faulted in by the interpreter on
/// first call into a CU; `eager` counts shards realized ahead of execution
/// (shard extraction, whole-program builds). The engine lowers only on
/// demand, so from the engine `eager` is always 0; the field stays because
/// the repo benchmark reads it. `cus` is the total shard count, so
/// `cus - lazy - eager` shards were never lowered at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards realized by the interpreter's fault-in path.
    pub lazy: u64,
    /// Shards realized ahead of execution.
    pub eager: u64,
    /// Total shards (= CUs) across the cached containers.
    pub cus: u64,
}

/// Per-workload context: the spec plus its content fingerprint, computed
/// once per workload by [`Engine::ctx`].
struct Ctx<'p, 's> {
    spec: &'s WorkloadSpec<'p>,
    base: CacheKey,
}

impl<'p, 's> Ctx<'p, 's> {
    fn key(&self, stage: &str) -> CacheKey {
        CacheKey::for_stage(stage, &[self.base])
    }

    fn pipeline(&self) -> Pipeline<'p> {
        Pipeline::new(self.spec.program, self.spec.opts.clone())
    }
}

/// [`Engine::build_front`]'s output, with the cache keys downstream stages
/// derive theirs from.
struct BuildFront {
    compiled: Arc<CompiledProgram>,
    compile_key: CacheKey,
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

    /// Fingerprints one workload. The program — megabytes of IR — is
    /// hashed structurally through its `Hash` impl; options and stop
    /// condition are a few hundred bytes and keep going through `Debug`.
    fn ctx<'p, 's>(&self, spec: &'s WorkloadSpec<'p>) -> Ctx<'p, 's> {
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
        Ctx {
            spec,
            base: CacheKey::for_stage("workload", &parts),
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
    pub fn evaluate_matrix<'p>(
        &self,
        specs: &[WorkloadSpec<'p>],
        strategies: &[Strategy],
    ) -> Result<Vec<MatrixCell>, PipelineError> {
        // One context per row, fingerprinted by the first cell of the row
        // to run: the workers start on different rows, so the program
        // hashes of different workloads overlap instead of queueing ahead
        // of the fan-out.
        let ctxs: Vec<OnceLock<Ctx<'p, '_>>> = specs.iter().map(|_| OnceLock::new()).collect();
        let jobs: Vec<(usize, usize)> = (0..specs.len())
            .flat_map(|wi| (0..strategies.len()).map(move |si| (wi, si)))
            .collect();
        // Capped at the host's parallelism (workers beyond it only
        // contend) and gated on the cell-count cutoff. This is the
        // pipeline's only fan-out: every stage inside a cell is serial.
        let workers = nimage_par::workers_for(
            self.threads(),
            jobs.len(),
            nimage_par::cutoff::RUN_MIN_CELLS,
        );
        // Seed worker deques workload-major so workers start on different
        // rows (the shared per-row stages serialize behind the cache
        // slots); stealing rebalances the strategy cells.
        let results = nimage_par::parallel_map_seeded(
            workers,
            jobs.len(),
            |j| jobs[j].0,
            |j| {
                let (wi, si) = jobs[j];
                let ctx = ctxs[wi].get_or_init(|| self.ctx(&specs[wi]));
                self.run_job(ctx, strategies[si])
            },
        );

        let mut out = Vec::with_capacity(jobs.len());
        for (result, &(wi, si)) in results.into_iter().zip(&jobs) {
            out.push(MatrixCell {
                workload: specs[wi].name.clone(),
                strategy: strategies[si],
                eval: result?,
            });
        }
        // Opportunistic lifecycle sweep: if this evaluation wrote new
        // entries and the cache is capped, bring it back under the caps.
        if self.disk.as_ref().is_some_and(|d| d.stats().stores > 0) {
            self.gc_disk();
        }
        Ok(out)
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

    /// Profiles one workload (steps 1–3 of Fig. 1), cached in memory and
    /// on disk.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn profile_workload(
        &self,
        spec: &WorkloadSpec<'_>,
    ) -> Result<Arc<ProfiledArtifacts>, PipelineError> {
        self.profiled(&self.ctx(spec))
    }

    /// Builds the fully instrumented image ([`InstrumentConfig::FULL`])
    /// with the compile and snapshot stages shared behind the cache and
    /// disk tier. The parts equal `Pipeline::build_instrumented`'s.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn instrumented_parts(&self, spec: &WorkloadSpec<'_>) -> Result<BuildParts, PipelineError> {
        let ctx = self.ctx(spec);
        let p = ctx.pipeline();
        let front = self.build_front(&ctx, &p, None)?;
        let image = self.default_image(
            &ctx,
            &p,
            ctx.key("layout:instrumented"),
            "instrumented",
            &front,
        )?;
        Ok(BuildParts {
            compiled: front.compiled,
            snapshot: front.snapshot,
            image,
        })
    }

    /// Builds the profile-guided optimized image described by `req` with
    /// the compile and snapshot stages shared behind the cache and disk
    /// tier. The parts equal `Pipeline::build_optimized`'s.
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn optimized_image(
        &self,
        req: &BuildRequest<'_, '_, '_>,
    ) -> Result<BuildParts, PipelineError> {
        let ctx = self.ctx(req.spec);
        let p = ctx.pipeline();
        let front = self.build_front(&ctx, &p, Some(req.artifacts))?;
        let image = match req.strategy {
            None => self.default_image(&ctx, &p, ctx.key("layout:baseline"), "baseline", &front)?,
            Some(s) => Arc::new(self.strategy_image(&ctx, &p, req.artifacts, &front, s)?),
        };
        Ok(BuildParts {
            compiled: front.compiled,
            snapshot: front.snapshot,
            image,
        })
    }

    /// The ordering-stage output for one workload × strategy: a plan
    /// (orders, plus predicted fault counts for the clustered strategies)
    /// memoized and persisted under the `order` disk stage. A disk plan
    /// that does not fit the build is rejected and recomputed. The
    /// strategy's identities of the optimized snapshot are looked up only
    /// when the plan is computed.
    fn orders_for(
        &self,
        ctx: &Ctx<'_, '_>,
        p: &Pipeline<'_>,
        artifacts: &ProfiledArtifacts,
        front: &BuildFront,
        strategy: Strategy,
    ) -> Arc<LayoutOrders> {
        let key = CacheKey::for_stage(
            "order",
            &[ctx.base, CacheKey::of_debug("strategy", &strategy)],
        );
        match self.disk_backed_checked::<_, std::convert::Infallible>(
            &self.cache.plans,
            "order",
            key,
            |plan| plan.fits(&front.compiled, &front.snapshot, &p.options().image),
            || {
                let ids = ctx
                    .spec
                    .opts
                    .heap_strategy_for(strategy)
                    .map(|hs| self.heap_ids(ctx, front.snapshot_key, &front.snapshot, hs));
                // The layout optimizer's search keeps its own span name.
                let span = if strategy.clustered() {
                    "optimize"
                } else {
                    "order"
                };
                let _s = self.tracer.root_span(span, || {
                    format!("workload={} strategy={}", ctx.spec.name, strategy.name())
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

    /// The ordering plan for one workload × strategy — the chosen orders
    /// plus, for the clustered strategies, the cost model's predicted
    /// fault counts — computed through the cache (a hit after any
    /// evaluation of the same cell).
    ///
    /// # Errors
    /// Propagates pipeline failures.
    pub fn layout_plan(
        &self,
        spec: &WorkloadSpec<'_>,
        artifacts: &ProfiledArtifacts,
        strategy: Strategy,
    ) -> Result<LayoutOrders, PipelineError> {
        let ctx = self.ctx(spec);
        let p = ctx.pipeline();
        let front = self.build_front(&ctx, &p, Some(artifacts))?;
        Ok((*self.orders_for(&ctx, &p, artifacts, &front, strategy)).clone())
    }

    /// One strategy's image: its cached plan laid out with the profiled
    /// native pages. Unmemoized — every cell's layout is its own.
    fn strategy_image(
        &self,
        ctx: &Ctx<'_, '_>,
        p: &Pipeline<'_>,
        artifacts: &ProfiledArtifacts,
        front: &BuildFront,
        strategy: Strategy,
    ) -> Result<BinaryImage, PipelineError> {
        let orders = self.orders_for(ctx, p, artifacts, front, strategy);
        let _s = self.tracer.span_with("layout", || {
            format!("workload={} strategy={}", ctx.spec.name, strategy.name())
        });
        p.layout_stage(
            &front.compiled,
            &front.snapshot,
            (*orders).clone(),
            Some(artifacts.native_pages.as_slice()),
        )
    }

    fn run_job(&self, ctx: &Ctx<'_, '_>, strategy: Strategy) -> Result<Evaluation, PipelineError> {
        // The cell span is a logical root: cells are the unit of
        // work-stealing, so their thread and physical parent vary.
        let _cell = self.tracer.root_span("cell", || {
            format!("workload={} strategy={}", ctx.spec.name, strategy.name())
        });
        let artifacts = self.profiled(ctx)?;
        let parts = self.baseline_parts(ctx, &artifacts)?;
        self.evaluate_cell(ctx, &artifacts, &parts, strategy)
    }

    fn reach(&self, ctx: &Ctx<'_, '_>, p: &Pipeline<'_>) -> Arc<Reachability> {
        self.cache.reach.get_or(ctx.key("analyze"), || {
            let _s = self
                .tracer
                .root_span("analyze", || format!("workload={}", ctx.spec.name));
            p.analyze_stage()
        })
    }

    fn heap_ids(
        &self,
        ctx: &Ctx<'_, '_>,
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
                    .root_span("order", || format!("workload={} ids={hs:?}", ctx.spec.name));
                Ok(nimage_order::assign_ids(ctx.spec.program, snap, hs))
            },
        ) {
            Ok(v) => v,
        }
    }

    /// The strategy-independent front of one build variant — compile →
    /// snapshot, each behind the cache and the disk tier; reachability
    /// (memoized, never persisted) is resolved only by a compile that
    /// misses both. Without a profile this is the instrumented build; with
    /// one, the PGO-optimized build compiled under its call counts.
    fn build_front(
        &self,
        ctx: &Ctx<'_, '_>,
        p: &Pipeline<'_>,
        pgo: Option<&ProfiledArtifacts>,
    ) -> Result<BuildFront, PipelineError> {
        let opts = &ctx.spec.opts;
        let (variant, compile_key, snapshot_key, instr, heap_cfg) = match pgo {
            None => (
                "instrumented",
                ctx.key("compile:instrumented"),
                ctx.key("snapshot:instrumented"),
                InstrumentConfig::FULL,
                &opts.heap_instrumented,
            ),
            Some(_) => (
                "optimized",
                ctx.key("compile:optimized"),
                ctx.key("snapshot:optimized"),
                InstrumentConfig::NONE,
                &opts.heap_optimized,
            ),
        };
        let span_args = || format!("workload={} variant={variant}", ctx.spec.name);
        let Ok(compiled) = self.disk_backed::<_, std::convert::Infallible>(
            &self.cache.compiled,
            "compile",
            compile_key,
            || {
                // Only a compile that actually runs needs reachability: a
                // disk hit above never analyzes.
                let reach = self.reach(ctx, p);
                let _s = self.tracer.root_span("compile", span_args);
                Ok(p.compile_stage((*reach).clone(), instr, pgo.map(|a| &a.call_counts)))
            },
        );
        let snapshot = self.disk_backed_checked(
            &self.cache.snapshots,
            "snapshot",
            snapshot_key,
            |snap| snap.fits(ctx.spec.program),
            || {
                let _s = self.tracer.root_span("snapshot", span_args);
                p.snapshot_stage(&compiled, heap_cfg)
            },
        )?;
        Ok(BuildFront {
            compiled,
            compile_key,
            snapshot,
            snapshot_key,
        })
    }

    /// A build's default-order image (`variant` = `instrumented` or
    /// `baseline`), shared across cells behind the image memo.
    fn default_image(
        &self,
        ctx: &Ctx<'_, '_>,
        p: &Pipeline<'_>,
        key: CacheKey,
        variant: &'static str,
        front: &BuildFront,
    ) -> Result<Arc<BinaryImage>, PipelineError> {
        self.cache.images.get_or_try(key, || {
            let _s = self.tracer.root_span("layout", || {
                format!("workload={} variant={variant}", ctx.spec.name)
            });
            p.layout_stage(
                &front.compiled,
                &front.snapshot,
                LayoutOrders::default(),
                None,
            )
        })
    }

    /// The sharded execution program of one compile: one lazy container
    /// per compile key, lent (`Arc`) to the run of that build.
    ///
    /// Constructing the container builds only the cheap global tables;
    /// method bodies are lowered per CU on first call, inside the run.
    fn lowered_for(
        &self,
        ctx: &Ctx<'_, '_>,
        compile_key: CacheKey,
        compiled: &CompiledProgram,
        variant: &'static str,
    ) -> Arc<LoweredProgram> {
        let key = CacheKey::for_stage("lower", &[compile_key]);
        self.cache.lowered.get_or(key, || {
            let _s = self.tracer.root_span("lower", || {
                format!("workload={} variant={variant}", ctx.spec.name)
            });
            LoweredProgram::new(ctx.spec.program, compiled, ctx.spec.opts.vm.max_paths)
        })
    }

    /// The profiling half (steps 1–3 of Fig. 1), computed once per
    /// workload.
    fn profiled(&self, ctx: &Ctx<'_, '_>) -> Result<Arc<ProfiledArtifacts>, PipelineError> {
        self.disk_backed(&self.cache.profiles, "profile", ctx.key("profile"), || {
            let _p = self
                .tracer
                .root_span("profile", || format!("workload={}", ctx.spec.name));
            let p = ctx.pipeline();
            let front = self.build_front(ctx, &p, None)?;
            let image = self.default_image(
                ctx,
                &p,
                ctx.key("layout:instrumented"),
                "instrumented",
                &front,
            )?;
            let lowered = self.lowered_for(ctx, front.compile_key, &front.compiled, "instrumented");
            let report = {
                let _s = self.tracer.span_with("run", || {
                    format!("workload={} variant=instrumented", ctx.spec.name)
                });
                self.tracer.count("vm.executions", 1);
                p.run(
                    RunParts::new(&front.compiled, &front.snapshot, &image)
                        .lowered(Some(lowered))
                        .tracer(self.vm_tracer()),
                    ctx.spec.stop,
                )?
            };
            let _s = self
                .tracer
                .span_with("replay", || format!("workload={}", ctx.spec.name));
            p.post_process(report, &mut |hs| {
                self.heap_ids(ctx, front.snapshot_key, &front.snapshot, hs)
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
        ctx: &Ctx<'_, '_>,
        artifacts: &ProfiledArtifacts,
    ) -> Result<BaselineParts, PipelineError> {
        let p = ctx.pipeline();
        let front = self.build_front(ctx, &p, Some(artifacts))?;
        let run = self.disk_backed_checked(
            &self.cache.runs,
            "baseline-run",
            ctx.key("run:baseline"),
            |(report, log)| log.fits(report, &front.compiled, &front.snapshot, &p.options().image),
            || {
                let image =
                    self.default_image(ctx, &p, ctx.key("layout:baseline"), "baseline", &front)?;
                let lowered =
                    self.lowered_for(ctx, front.compile_key, &front.compiled, "optimized");
                let _s = self.tracer.root_span("run", || {
                    format!("workload={} variant=baseline", ctx.spec.name)
                });
                self.tracer.count("vm.executions", 1);
                p.run_logged(
                    RunParts::new(&front.compiled, &front.snapshot, &image)
                        .lowered(Some(lowered))
                        .tracer(self.vm_tracer()),
                    ctx.spec.stop,
                )
            },
        )?;
        Ok(BaselineParts { front, run })
    }

    /// One strategy cell: the strategy's image, then the baseline run's
    /// access log paged against it — no execution.
    fn evaluate_cell(
        &self,
        ctx: &Ctx<'_, '_>,
        artifacts: &ProfiledArtifacts,
        parts: &BaselineParts,
        strategy: Strategy,
    ) -> Result<Evaluation, PipelineError> {
        let p = ctx.pipeline();
        let front = &parts.front;
        let image = self.strategy_image(ctx, &p, artifacts, front, strategy)?;
        let optimized = {
            let _s = self.tracer.span_with("run", || {
                format!("workload={} strategy={}", ctx.spec.name, strategy.name())
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

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_trace::Tracer;

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
