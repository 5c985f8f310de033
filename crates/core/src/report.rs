//! The typed evaluation request and the versioned evaluation report.
//!
//! [`EvalRequest`] is the builder-style front door of the evaluation
//! engine: workloads × strategies plus the engine knobs (threads, disk
//! tier, tracing), replacing the positional argument lists that used to
//! thread through `evaluate_matrix` call sites. [`Report`] is the single
//! serializable result type and the only readout of an engine's
//! counters (stage times, cache and disk tiers, lowering shards,
//! metrics, trace totals). It carries a `report_version` field so
//! downstream consumers (the CI schema gate) can reject incompatible
//! output instead of misparsing it.
//!
//! The workspace has no serde: the JSON is rendered through
//! [`JsonWriter`], the one writer every emitted document shares.

use std::collections::BTreeMap;

use nimage_trace::{JsonWriter, MetricsSnapshot, TraceSummary};
use nimage_vm::CostModel;

use crate::diskcache::{DiskCacheOptions, DiskCacheStats, DiskStore};
use crate::engine::{
    Engine, EngineOptions, MatrixCell, ShardStats, StageTimes, TraceOptions, WorkloadSpec,
};
use crate::{MemoStats, PipelineError, Strategy};

/// Version of the [`Report`] JSON schema. Bump on any
/// backwards-incompatible change to [`Report::to_json`]'s shape; the CI
/// schema gate pins this value.
pub const REPORT_VERSION: u32 = 1;

/// One stage's derived timing, from the engine's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name ([`StageTimes::NAMES`] order).
    pub name: &'static str,
    /// Σ exclusive span time: wall-clock attributed to this stage alone,
    /// nested stages subtracted (never double-counts).
    pub exclusive_ns: u64,
    /// Σ inclusive span time (contains nested stages).
    pub inclusive_ns: u64,
    /// Number of spans recorded for the stage (≈ cache misses).
    pub count: u64,
}

/// One `(workload, strategy)` cell's measured outcome, reduced to the
/// serializable numbers the paper's figures report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Workload name (row).
    pub workload: String,
    /// Strategy display name (column).
    pub strategy: String,
    /// The default-layout baseline's `.text` / `.svm_heap` major faults.
    pub baseline_faults: (u64, u64),
    /// Optimized `.text` / `.svm_heap` major faults.
    pub optimized_faults: (u64, u64),
    /// The reduction factor the paper reports for this strategy's kind.
    pub fault_reduction: f64,
    /// Execution-time speedup under the SSD cost model.
    pub speedup: f64,
}

/// The complete, versioned result of one evaluation: cells plus every
/// engine counter, ready for [`Report::to_json`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Schema version of the JSON rendering ([`REPORT_VERSION`]).
    pub report_version: u32,
    /// Workload names, row order.
    pub workloads: Vec<String>,
    /// Strategy display names, column order.
    pub strategies: Vec<String>,
    /// Worker threads the evaluation ran with (`0` = host parallelism).
    pub threads: usize,
    /// Per-cell outcomes, row-major.
    pub cells: Vec<CellReport>,
    /// Per-stage derived timings, pipeline order. They count computing
    /// only (cache hits add nothing), so with several worker threads they
    /// can sum to more than the elapsed wall-clock.
    pub stages: Vec<StageReport>,
    /// In-memory cache hit/miss counters per stage.
    pub cache: Vec<MemoStats>,
    /// Disk-tier counters, when a disk cache was configured.
    pub disk: Option<DiskCacheStats>,
    /// Disk-tier counters per persisted stage.
    pub disk_stages: Option<BTreeMap<String, DiskCacheStats>>,
    /// Lowering-shard realization counters.
    pub lowered_shards: ShardStats,
    /// The metrics registry's counters/gauges/histograms.
    pub metrics: MetricsSnapshot,
    /// Trace recording totals (threads, events, drops).
    pub trace: TraceSummary,
}

/// Writes one disk tier's counters as an object.
fn disk_json<'w>(w: &'w mut JsonWriter, s: &DiskCacheStats) -> &'w mut JsonWriter {
    w.object(|w| {
        w.field("hits", s.hits)
            .field("misses", s.misses)
            .field("stores", s.stores)
            .field("rejected", s.rejected);
    })
}

impl Report {
    /// Total in-memory cache hits across all stages.
    pub fn cache_hits(&self) -> u64 {
        self.cache.iter().map(|s| s.hits).sum()
    }

    /// Total in-memory cache misses across all stages.
    pub fn cache_misses(&self) -> u64 {
        self.cache.iter().map(|s| s.misses).sum()
    }

    /// Renders the report as JSON (schema `report_version` =
    /// [`REPORT_VERSION`], pinned by `ci/report_schema.json`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`Report::to_json`]'s object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let faults = |w: &mut JsonWriter, key: &str, (text, svm_heap): (u64, u64)| {
            w.key(key).object(|w| {
                w.field("text", text).field("svm_heap", svm_heap);
            });
        };
        w.object(|w| {
            w.field("report_version", self.report_version);
            w.key("workloads").array(|w| {
                for n in &self.workloads {
                    w.value(n);
                }
            });
            w.key("strategies").array(|w| {
                for n in &self.strategies {
                    w.value(n);
                }
            });
            w.field("threads", self.threads);
            w.key("cells").array(|w| {
                for c in &self.cells {
                    w.object(|w| {
                        w.field("workload", &c.workload)
                            .field("strategy", &c.strategy);
                        faults(w, "baseline_faults", c.baseline_faults);
                        faults(w, "optimized_faults", c.optimized_faults);
                        w.field("fault_reduction", c.fault_reduction)
                            .field("speedup", c.speedup);
                    });
                }
            });
            w.key("stages").array(|w| {
                for s in &self.stages {
                    w.object(|w| {
                        w.field("name", s.name)
                            .field("exclusive_ns", s.exclusive_ns)
                            .field("inclusive_ns", s.inclusive_ns)
                            .field("count", s.count);
                    });
                }
            });
            w.key("cache").array(|w| {
                for m in &self.cache {
                    w.object(|w| {
                        w.field("name", m.name)
                            .field("hits", m.hits)
                            .field("misses", m.misses);
                    });
                }
            });
            match &self.disk {
                Some(d) => disk_json(w.key("disk"), d),
                None => w.key("disk").null(),
            };
            match &self.disk_stages {
                Some(per) => w.key("disk_stages").object(|w| {
                    for (stage, s) in per {
                        disk_json(w.key(stage), s);
                    }
                }),
                None => w.key("disk_stages").null(),
            };
            let shards = &self.lowered_shards;
            w.key("lowered_shards").object(|w| {
                w.field("lazy", shards.lazy)
                    .field("eager", shards.eager)
                    .field("cus", shards.cus);
            });
            w.key("metrics");
            self.metrics.write_json(w);
            w.key("trace").object(|w| {
                w.field("threads", self.trace.threads)
                    .field("events", self.trace.events)
                    .field("dropped", self.trace.dropped);
            });
        });
    }
}

/// The result of [`EvalRequest::run`] / [`Engine::evaluate`]: the raw
/// cells (full [`crate::Evaluation`]s, for callers that need the run
/// reports) plus the serializable [`Report`].
#[derive(Debug)]
pub struct EvalOutcome {
    /// Row-major evaluated cells.
    pub cells: Vec<MatrixCell>,
    /// The versioned report derived from the cells and engine counters.
    pub report: Report,
}

/// A typed, builder-style evaluation request: which workloads × which
/// strategies, evaluated under which engine configuration.
///
/// ```ignore
/// let outcome = EvalRequest::new()
///     .workload(spec)
///     .strategies(Strategy::all())
///     .threads(4)
///     .run()?;
/// println!("{}", outcome.report.to_json());
/// ```
#[derive(Debug, Default)]
pub struct EvalRequest<'p> {
    /// Workloads (matrix rows).
    pub specs: Vec<WorkloadSpec<'p>>,
    /// Strategies (matrix columns).
    pub strategies: Vec<Strategy>,
    /// Engine configuration [`EvalRequest::run`] constructs the engine
    /// with (ignored by [`Engine::evaluate`], which already has one).
    pub options: EngineOptions,
}

impl<'p> EvalRequest<'p> {
    /// An empty request: no workloads, no strategies, default engine
    /// options.
    pub fn new() -> Self {
        EvalRequest::default()
    }

    /// Adds one workload row.
    #[must_use]
    pub fn workload(mut self, spec: WorkloadSpec<'p>) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds workload rows.
    #[must_use]
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec<'p>>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Adds one strategy column.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Adds strategy columns.
    #[must_use]
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = Strategy>) -> Self {
        self.strategies.extend(strategies);
        self
    }

    /// Sets the worker-thread count (`0` = host parallelism).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.options.n_threads = n;
        self
    }

    /// Configures the disk-persistent cache tier.
    #[must_use]
    pub fn disk(mut self, disk: Option<DiskCacheOptions>) -> Self {
        self.options.disk = disk;
        self
    }

    /// Configures tracing (VM fault events, ring capacity).
    #[must_use]
    pub fn trace(mut self, trace: TraceOptions) -> Self {
        self.options.trace = trace;
        self
    }

    /// Constructs an engine from the request's options and evaluates the
    /// matrix. For reuse of an existing engine's cache across requests,
    /// use [`Engine::evaluate`].
    ///
    /// # Errors
    /// Returns the first failing cell's error (row-major order).
    pub fn run(self) -> Result<EvalOutcome, PipelineError> {
        let engine = Engine::new(EngineOptions {
            n_threads: self.options.n_threads,
            disk: self.options.disk.clone(),
            trace: self.options.trace.clone(),
        });
        engine.evaluate(&self)
    }
}

impl Engine {
    /// Evaluates the request's matrix on this engine (sharing its cache
    /// and disk tier; the request's [`EvalRequest::options`] are ignored
    /// in favor of the engine's own) and derives the versioned
    /// [`Report`].
    ///
    /// # Errors
    /// Returns the first failing cell's error (row-major order).
    pub fn evaluate(&self, req: &EvalRequest<'_>) -> Result<EvalOutcome, PipelineError> {
        let cells = self.evaluate_matrix(&req.specs, &req.strategies)?;
        let report = self.report(req, &cells);
        Ok(EvalOutcome { cells, report })
    }

    /// Builds the versioned [`Report`] for already-evaluated cells from
    /// the engine's current counters. Exposed so callers that evaluate
    /// incrementally (several `evaluate_matrix` calls against one cache)
    /// can snapshot a report at any point.
    pub fn report(&self, req: &EvalRequest<'_>, cells: &[MatrixCell]) -> Report {
        let agg = nimage_trace::aggregate(&self.tracer().events());
        let stages = StageTimes::NAMES
            .iter()
            .map(|&name| {
                let a = agg.get(name).copied().unwrap_or_default();
                StageReport {
                    name,
                    exclusive_ns: a.exclusive_ns,
                    inclusive_ns: a.inclusive_ns,
                    count: a.count,
                }
            })
            .collect();
        let cache = self.cache().stats();
        let lowered_shards = self.shard_stats();
        let cm = CostModel::ssd();
        let cell_reports = cells
            .iter()
            .map(|c| CellReport {
                workload: c.workload.clone(),
                strategy: c.strategy.name().to_string(),
                baseline_faults: (c.eval.baseline.faults.text, c.eval.baseline.faults.svm_heap),
                optimized_faults: (
                    c.eval.optimized.faults.text,
                    c.eval.optimized.faults.svm_heap,
                ),
                fault_reduction: c.eval.reported_fault_reduction(),
                speedup: c.eval.speedup(&cm),
            })
            .collect();
        // Fold the engine's structural counters into the metrics
        // snapshot, so one exporter carries everything countable.
        let mut metrics = self.tracer().metrics();
        let trace = self.tracer().summary();
        let counters = &mut metrics.counters;
        for m in &cache {
            counters.insert(format!("cache.{}.hits", m.name), m.hits);
            counters.insert(format!("cache.{}.misses", m.name), m.misses);
        }
        for (key, n) in [
            ("shards.lazy", lowered_shards.lazy),
            ("shards.eager", lowered_shards.eager),
            ("shards.cus", lowered_shards.cus),
            ("trace.events", trace.events),
            ("trace.dropped", trace.dropped),
        ] {
            counters.insert(key.to_string(), n);
        }
        Report {
            report_version: REPORT_VERSION,
            workloads: req.specs.iter().map(|s| s.name.clone()).collect(),
            strategies: req
                .strategies
                .iter()
                .map(|s| s.name().to_string())
                .collect(),
            threads: self.options().n_threads,
            cells: cell_reports,
            stages,
            cache,
            disk: self.disk().map(DiskStore::stats),
            disk_stages: self.disk().map(DiskStore::stage_stats),
            lowered_shards,
            metrics,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_request_builder_accumulates() {
        let req: EvalRequest<'_> = EvalRequest::new()
            .strategy(Strategy::Cu)
            .strategies([Strategy::Method, Strategy::HeapPath])
            .threads(3);
        assert_eq!(req.strategies.len(), 3);
        assert_eq!(req.options.n_threads, 3);
        assert!(req.specs.is_empty());
    }
}
