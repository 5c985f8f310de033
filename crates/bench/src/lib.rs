//! # nimage-bench
//!
//! The evaluation harness: [`Figures`] regenerates the paper's Sec. 7
//! tables from one matrix on one [`Engine`]; the other bench targets are
//! ablations, extensions and criterion microbenches (run with
//! `cargo bench`).
//!
//! | target | reproduces |
//! |---|---|
//! | `figures` | Fig. 2–5 and the Sec. 7.4 profiling-overhead table |
//! | `fig6_pagemap` | Fig. 6 — visual `.text` page map, Bounce |
//! | `abl_fault_around` | ablation — fault-around window sweep |
//! | `abl_structural_depth` | ablation — structural-hash `MAX_DEPTH` sweep |
//! | `abl_incremental_global` | ablation — per-type vs global id counters |
//! | `abl_storage_nfs` | ablation — SSD vs NFS cost models |
//! | `ext_native_tail` | extension — native-tail reordering (Appendix A) |
//! | `crit_*` | criterion microbenches of hashing, ordering, dispatch, decode |

#![warn(missing_docs)]

use nimage_core::{
    BuildOptions, Engine, Evaluation, MatrixCell, Pipeline, ProfiledArtifacts, ProfilingOverhead,
    Strategy, WorkloadSpec,
};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{CostModel, StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice};

/// The build options used by every headline experiment: paper defaults
/// (4 KiB pages, 16-page fault-around, SSD cost model) with the dump mode
/// chosen per workload class (Sec. 6.1).
pub fn eval_options(dump_mode: DumpMode) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

/// Profiling artifacts for overhead-style experiments that need the raw
/// pipeline.
///
/// # Panics
/// Panics if the pipeline fails.
pub fn profile_program(
    program: &Program,
    stop: StopWhen,
    dump_mode: DumpMode,
) -> (Pipeline<'_>, ProfiledArtifacts) {
    let pipeline = Pipeline::new(program, eval_options(dump_mode));
    let artifacts = pipeline.profiling_run(stop).expect("profiling run");
    (pipeline, artifacts)
}

/// Geometric mean.
///
/// # Panics
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty series");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One workload class of Sec. 6.1, evaluated.
#[derive(Debug)]
struct ClassResults {
    /// Row-major cells: each workload × [`Strategy::all`].
    cells: Vec<MatrixCell>,
    /// Sec. 7.4 factors per workload, in row order.
    overhead: Vec<(String, ProfilingOverhead)>,
}

/// The paper's Sec. 7 results: all 17 workloads × [`Strategy::all`] and
/// the Sec. 7.4 profiling overhead of each workload.
#[derive(Debug)]
pub struct Figures {
    /// The 14 AWFY benchmarks: run to exit, dump mode 1.
    awfy: ClassResults,
    /// The three microservices: run to the first response, dump mode 2
    /// (the memory-mapped buffers that survive the `SIGKILL`).
    micro: ClassResults,
}

impl Figures {
    /// Evaluates every workload × strategy cell in one
    /// [`Engine::evaluate_matrix`] call, then measures each workload's
    /// profiling overhead on the serial pipeline.
    ///
    /// # Panics
    /// Panics if any pipeline stage fails — the harness treats that as a
    /// broken experiment.
    pub fn evaluate(engine: &Engine) -> Figures {
        let awfy = Awfy::all().map(|b| (b.name(), b.program()));
        let micro = Microservice::all().map(|m| (m.name(), m.program()));
        let specs: Vec<WorkloadSpec<'_>> = awfy
            .iter()
            .map(|(name, program)| {
                let opts = eval_options(DumpMode::OnFull);
                WorkloadSpec::new(*name, program, opts, StopWhen::Exit)
            })
            .chain(micro.iter().map(|(name, program)| {
                let opts = eval_options(DumpMode::MemoryMapped);
                WorkloadSpec::new(*name, program, opts, StopWhen::FirstResponse)
            }))
            .collect();
        let mut cells = engine
            .evaluate_matrix(&specs, &Strategy::all())
            .unwrap_or_else(|e| panic!("figure matrix evaluation failed: {e}"));
        let mut overhead: Vec<(String, ProfilingOverhead)> = specs
            .iter()
            .map(|s| {
                let factors = Pipeline::new(s.program, s.opts.clone())
                    .profiling_overhead(s.stop)
                    .unwrap_or_else(|e| panic!("{}: overhead run failed: {e}", s.name));
                (s.name.clone(), factors)
            })
            .collect();
        let micro = ClassResults {
            cells: cells.split_off(awfy.len() * Strategy::all().len()),
            overhead: overhead.split_off(awfy.len()),
        };
        Figures {
            awfy: ClassResults { cells, overhead },
            micro,
        }
    }

    /// The five tables, in the paper's order: Fig. 2, 3, 4, 5, Sec. 7.4.
    pub fn tables(&self) -> [Table; 5] {
        let ssd = CostModel::ssd();
        let faults = |e: &Evaluation| e.reported_fault_reduction();
        let speedup = |e: &Evaluation| e.speedup(&ssd);
        [
            Table::of_strategies(
                "Fig. 2",
                "page-fault reduction, AWFY (higher is better)",
                &self.awfy,
                faults,
            ),
            Table::of_strategies(
                "Fig. 3",
                "page-fault reduction, microservices (higher is better)",
                &self.micro,
                faults,
            ),
            Table::of_strategies(
                "Fig. 4",
                "time-to-first-response speedup, microservices (higher is better)",
                &self.micro,
                speedup,
            ),
            Table::of_strategies(
                "Fig. 5",
                "execution-time speedup, AWFY (higher is better)",
                &self.awfy,
                speedup,
            ),
            Table {
                heading: "Sec. 7.4",
                title: "tracing-profiler overhead factors",
                columns: ProfilingOverhead::MODES.to_vec(),
                width: 8,
                groups: [
                    (&self.awfy, "   (AWFY geo.mean, dump mode 1)"),
                    (&self.micro, "   (microservices geo.mean, dump mode 2)"),
                ]
                .map(|(class, note)| RowGroup {
                    rows: class
                        .overhead
                        .iter()
                        .map(|(name, o)| (name.clone(), o.factors().to_vec()))
                        .collect(),
                    note,
                })
                .into(),
            },
        ]
    }

    /// Every table under its `=== heading: title ===` banner, as the
    /// `figures` bench target prints them.
    pub fn render(&self) -> String {
        self.tables()
            .iter()
            .map(|t| format!("\n=== {}: {} ===\n{}", t.heading, t.title, t.render()))
            .collect()
    }
}

/// One table of the paper's evaluation: a row per workload, a column per
/// strategy or tracing mode, and a geo.mean row under each group of rows.
#[derive(Debug)]
pub struct Table {
    /// The figure or section it reproduces (`"Fig. 2"`, …, `"Sec. 7.4"`),
    /// which is also the start of its EXPERIMENTS.md heading.
    pub heading: &'static str,
    /// What it measures.
    title: &'static str,
    /// Column names.
    columns: Vec<&'static str>,
    /// Width of each value column.
    width: usize,
    /// Row groups, each closed by its geo.mean row.
    groups: Vec<RowGroup>,
}

/// Rows of one workload class, closed by their geo.mean row.
#[derive(Debug)]
struct RowGroup {
    /// `(workload, one value per column)`.
    rows: Vec<(String, Vec<f64>)>,
    /// Text after the geo.mean row's values.
    note: &'static str,
}

impl RowGroup {
    /// The geometric mean of each column.
    fn geomeans(&self) -> Vec<f64> {
        let columns = self.rows[0].1.len();
        (0..columns)
            .map(|c| geomean(&self.rows.iter().map(|(_, v)| v[c]).collect::<Vec<_>>()))
            .collect()
    }
}

impl Table {
    /// A Fig. 2–5 table: `metric` of every cell of one class, a column per
    /// strategy of [`Strategy::all`].
    fn of_strategies(
        heading: &'static str,
        title: &'static str,
        class: &ClassResults,
        metric: impl Fn(&Evaluation) -> f64,
    ) -> Table {
        let rows = class
            .cells
            .chunks(Strategy::all().len())
            .map(|row| {
                let values = row.iter().map(|c| metric(&c.eval)).collect();
                (row[0].workload.clone(), values)
            })
            .collect();
        Table {
            heading,
            title,
            columns: Strategy::all().map(|s| s.name()).to_vec(),
            width: 15,
            groups: vec![RowGroup { rows, note: "" }],
        }
    }

    /// The table as text: a header line, then each group's rows and its
    /// geo.mean row, values to two decimals.
    pub fn render(&self) -> String {
        let w = self.width;
        let line = |name: &str, cells: String| format!("{name:<12}{cells}\n");
        let values = |vs: &[f64]| vs.iter().map(|v| format!(" {v:>w$.2}")).collect::<String>();
        let mut out = line(
            "benchmark",
            self.columns.iter().map(|c| format!(" {c:>w$}")).collect(),
        );
        for group in &self.groups {
            for (name, vs) in &group.rows {
                out += &line(name, values(vs));
            }
            out += &line("geo.mean", values(&group.geomeans()) + group.note);
        }
        out
    }

    /// The geo.mean of `column` over row group `group` (0 for the Fig.
    /// 2–5 tables; 0 = AWFY and 1 = microservices in Sec. 7.4).
    ///
    /// # Panics
    /// Panics if the group or column does not exist.
    pub fn geomean(&self, group: usize, column: &str) -> f64 {
        let c = self
            .columns
            .iter()
            .position(|&name| name == column)
            .unwrap_or_else(|| panic!("{}: no column {column:?}", self.heading));
        self.groups[group].geomeans()[c]
    }

    /// Every value of the table, the geo.mean rows included.
    pub fn values(&self) -> Vec<f64> {
        self.groups
            .iter()
            .flat_map(|g| {
                let rows = g.rows.iter().flat_map(|(_, vs)| vs.iter().copied());
                rows.chain(g.geomeans()).collect::<Vec<_>>()
            })
            .collect()
    }
}
