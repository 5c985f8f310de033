//! The typed evaluation request and the versioned evaluation report.
//!
//! [`EvalRequest`] is the builder-style front door of the evaluation
//! engine: workloads × strategies plus the engine knobs (threads, disk
//! tier, tracing), replacing the positional argument lists that used to
//! thread through `evaluate_matrix` call sites. [`Report`] is the single
//! serializable result type: it subsumes the old ad-hoc combination of
//! `EngineStats` + `ShardStats` + `StageTimes` + per-stage speedup maps
//! that `nimage bench --json` assembled by hand, and it carries a
//! `report_version` field so downstream consumers (the CI schema gate)
//! can reject incompatible output instead of misparsing it.
//!
//! All JSON here is hand-written — the workspace has no serde — via the
//! same escaping helpers the metrics exporter uses.

use std::collections::BTreeMap;

use nimage_trace::metrics::{json_f64, json_string};
use nimage_trace::{MetricsSnapshot, TraceSummary};
use nimage_vm::CostModel;

use crate::diskcache::{DiskCacheOptions, DiskCacheStats};
use crate::engine::{
    Engine, EngineOptions, EngineStats, MatrixCell, ShardStats, TraceOptions, WorkloadSpec,
};
use crate::{MemoStats, PipelineError, Strategy};

/// Version of the [`Report`] JSON schema. Bump on any
/// backwards-incompatible change to [`Report::to_json`]'s shape; the CI
/// schema gate pins this value.
pub const REPORT_VERSION: u32 = 1;

/// One stage's derived timing, from the engine's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name ([`crate::StageTimes::NAMES`] order).
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
    /// Per-stage derived timings, pipeline order.
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

fn json_stats(s: &DiskCacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"stores\":{},\"rejected\":{}}}",
        s.hits, s.misses, s.stores, s.rejected
    )
}

impl Report {
    /// Renders the report as JSON (schema `report_version` =
    /// [`REPORT_VERSION`], pinned by `ci/report_schema.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!("{{\"report_version\":{}", self.report_version));
        let names = |v: &[String]| {
            v.iter()
                .map(|n| json_string(n))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(",\"workloads\":[{}]", names(&self.workloads)));
        out.push_str(&format!(",\"strategies\":[{}]", names(&self.strategies)));
        out.push_str(&format!(",\"threads\":{}", self.threads));
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"workload\":{},\"strategy\":{},\
                     \"baseline_faults\":{{\"text\":{},\"svm_heap\":{}}},\
                     \"optimized_faults\":{{\"text\":{},\"svm_heap\":{}}},\
                     \"fault_reduction\":{},\"speedup\":{}}}",
                    json_string(&c.workload),
                    json_string(&c.strategy),
                    c.baseline_faults.0,
                    c.baseline_faults.1,
                    c.optimized_faults.0,
                    c.optimized_faults.1,
                    json_f64(c.fault_reduction),
                    json_f64(c.speedup),
                )
            })
            .collect();
        out.push_str(&format!(",\"cells\":[{}]", cells.join(",")));
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"exclusive_ns\":{},\"inclusive_ns\":{},\"count\":{}}}",
                    json_string(s.name),
                    s.exclusive_ns,
                    s.inclusive_ns,
                    s.count
                )
            })
            .collect();
        out.push_str(&format!(",\"stages\":[{}]", stages.join(",")));
        let cache: Vec<String> = self
            .cache
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":{},\"hits\":{},\"misses\":{}}}",
                    json_string(m.name),
                    m.hits,
                    m.misses
                )
            })
            .collect();
        out.push_str(&format!(",\"cache\":[{}]", cache.join(",")));
        match &self.disk {
            Some(d) => out.push_str(&format!(",\"disk\":{}", json_stats(d))),
            None => out.push_str(",\"disk\":null"),
        }
        match &self.disk_stages {
            Some(per) => {
                let entries: Vec<String> = per
                    .iter()
                    .map(|(stage, s)| format!("{}:{}", json_string(stage), json_stats(s)))
                    .collect();
                out.push_str(&format!(",\"disk_stages\":{{{}}}", entries.join(",")));
            }
            None => out.push_str(",\"disk_stages\":null"),
        }
        out.push_str(&format!(
            ",\"lowered_shards\":{{\"lazy\":{},\"eager\":{},\"cus\":{}}}",
            self.lowered_shards.lazy, self.lowered_shards.eager, self.lowered_shards.cus
        ));
        out.push_str(&format!(",\"metrics\":{}", self.metrics.to_json()));
        out.push_str(&format!(
            ",\"trace\":{{\"threads\":{},\"events\":{},\"dropped\":{}}}",
            self.trace.threads, self.trace.events, self.trace.dropped
        ));
        out.push('}');
        out
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
        let stats: EngineStats = self.stats_from(&agg);
        let stages = crate::StageTimes::NAMES
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
        for m in &stats.cache {
            metrics
                .counters
                .insert(format!("cache.{}.hits", m.name), m.hits);
            metrics
                .counters
                .insert(format!("cache.{}.misses", m.name), m.misses);
        }
        metrics
            .counters
            .insert("shards.lazy".to_string(), stats.lowered_shards.lazy);
        metrics
            .counters
            .insert("shards.eager".to_string(), stats.lowered_shards.eager);
        metrics
            .counters
            .insert("shards.cus".to_string(), stats.lowered_shards.cus);
        let trace = self.tracer().summary();
        metrics
            .counters
            .insert("trace.events".to_string(), trace.events);
        metrics
            .counters
            .insert("trace.dropped".to_string(), trace.dropped);
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
            cache: stats.cache,
            disk: stats.disk,
            disk_stages: stats.disk_stages,
            lowered_shards: stats.lowered_shards,
            metrics,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders_versioned_json() {
        let r = Report {
            report_version: REPORT_VERSION,
            workloads: vec!["micronaut\"x".to_string()],
            strategies: vec!["cu".to_string()],
            threads: 4,
            cells: vec![],
            stages: vec![StageReport {
                name: "run",
                exclusive_ns: 5,
                inclusive_ns: 7,
                count: 2,
            }],
            cache: vec![],
            disk: None,
            disk_stages: None,
            lowered_shards: ShardStats::default(),
            metrics: MetricsSnapshot::default(),
            trace: TraceSummary {
                threads: 1,
                events: 3,
                dropped: 0,
            },
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"report_version\":1"));
        assert!(j.contains("\"micronaut\\\"x\""), "escaped name: {j}");
        assert!(j.contains("\"disk\":null"));
        assert!(j.contains("\"exclusive_ns\":5"));
        assert!(j.contains("\"trace\":{\"threads\":1,\"events\":3,\"dropped\":0}"));
        assert!(j.ends_with('}'));
    }

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
