//! # nimage-bench
//!
//! The evaluation harness: [`Figures`] generates every table of
//! EXPERIMENTS.md — the paper's Sec. 7 figures, Fig. 6's page counts, the
//! ablations and the native-tail extension — on one [`Engine`]; the other
//! bench targets are criterion microbenches (run with `cargo bench`).
//!
//! | target | reproduces |
//! |---|---|
//! | `figures` | Fig. 2–6, the Sec. 7.4 profiling-overhead table, the ablations (fault-around window, structural-hash depth, per-type vs global counters, SSD vs NFS) and the native-tail extension (Appendix A) |
//! | `crit_*` | criterion microbenches of hashing, ordering, dispatch, decode |

#![warn(missing_docs)]

mod ablations;

use nimage_core::{
    BuildOptions, Engine, Evaluation, MatrixCell, ProfilingOverhead, Strategy, WorkloadSpec,
};
use nimage_profiler::DumpMode;
use nimage_vm::{summarize, CostModel, PagingConfig, StopWhen, VmConfig};
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

/// Geometric mean.
///
/// # Panics
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty series");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The fault-around windows (pages) of the `abl_fault_around` sweep.
const WINDOWS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The benchmarks of the `ext_native_tail` extension.
const NATIVE_TAIL: [Awfy; 3] = [Awfy::Bounce, Awfy::Mandelbrot, Awfy::Towers];

/// The fault-around window (pages) of every headline experiment.
fn default_window() -> u64 {
    VmConfig::default().paging.fault_around_pages
}

/// One workload class of Sec. 6.1, evaluated.
#[derive(Debug)]
struct ClassResults {
    /// Row-major cells: each workload × [`Strategy::all`].
    cells: Vec<MatrixCell>,
    /// Sec. 7.4 factors per workload, in row order.
    overhead: Vec<(String, ProfilingOverhead)>,
}

/// Everything EXPERIMENTS.md reports: all 17 workloads × [`Strategy::all`]
/// and the Sec. 7.4 profiling overhead of each workload, the `cu+heap path`
/// cells of the fault-around and native-tail variants, and the rows of the
/// two ablations that are not cells.
#[derive(Debug)]
pub struct Figures {
    /// The 14 AWFY benchmarks: run to exit, dump mode 1.
    awfy: ClassResults,
    /// The three microservices: run to the first response, dump mode 2
    /// (the memory-mapped buffers that survive the `SIGKILL`).
    micro: ClassResults,
    /// `cu+heap path` on Bounce under each non-default fault-around window
    /// (`window=N`), then on each [`NATIVE_TAIL`] benchmark with its native
    /// tail reordered (`<name>+native`).
    variants: Vec<MatrixCell>,
    /// `abl_structural_depth`'s rows.
    depths: Vec<(String, Vec<f64>)>,
    /// `abl_incremental_global`'s rows.
    counters: Vec<(String, Vec<f64>)>,
}

impl Figures {
    /// Evaluates everything on `engine`: the workload × strategy matrix and
    /// the variants' `cu+heap path` matrix, each in one
    /// [`Engine::evaluate_matrix`] call, each workload's profiling overhead
    /// on the engine's workers through the matrix's own row handles, and
    /// the two ablations' builds.
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
        // One handle per workload serves both the matrix and the overheads.
        let rows = engine.rows(&specs);
        let mut cells = rows
            .evaluate(&Strategy::all())
            .unwrap_or_else(|e| panic!("figure matrix evaluation failed: {e}"));
        let mut overhead: Vec<(String, ProfilingOverhead)> = rows
            .map(|w| w.profiling_overhead())
            .into_iter()
            .zip(&specs)
            .map(|(o, s)| match o {
                Ok(factors) => (s.name.clone(), factors),
                Err(e) => panic!("{}: overhead run failed: {e}", s.name),
            })
            .collect();

        let awfy_spec = |b: Awfy| specs.iter().find(|s| s.name == b.name()).expect("a row");
        let bounce = awfy_spec(Awfy::Bounce);
        let windows = WINDOWS
            .into_iter()
            .filter(|&w| w != default_window())
            .map(|w| {
                let mut opts = bounce.opts.clone();
                opts.vm.paging = PagingConfig::new(w).expect("a valid window");
                WorkloadSpec::new(format!("window={w}"), bounce.program, opts, StopWhen::Exit)
            });
        let native = NATIVE_TAIL.map(|b| {
            let spec = awfy_spec(b);
            let opts = BuildOptions {
                reorder_native: true,
                ..spec.opts.clone()
            };
            WorkloadSpec::new(
                format!("{}+native", b.name()),
                spec.program,
                opts,
                StopWhen::Exit,
            )
        });
        let variants: Vec<WorkloadSpec<'_>> = windows.chain(native).collect();
        let variants = engine
            .evaluate_matrix(&variants, &[Strategy::CuPlusHeapPath])
            .unwrap_or_else(|e| panic!("variant evaluation failed: {e}"));

        let micro = ClassResults {
            cells: cells.split_off(awfy.len() * Strategy::all().len()),
            overhead: overhead.split_off(awfy.len()),
        };
        Figures {
            awfy: ClassResults { cells, overhead },
            micro,
            variants,
            depths: ablations::structural_depth_rows(engine, bounce),
            counters: ablations::counter_rows(engine),
        }
    }

    /// Every table, in EXPERIMENTS.md's order: the paper's Fig. 2, 3, 4, 5
    /// and Sec. 7.4 first, then Fig. 6, the ablations and the extension.
    pub fn tables(&self) -> [Table; 11] {
        let ssd = CostModel::ssd();
        let nfs = CostModel::nfs();
        let faults = |e: &Evaluation| e.reported_fault_reduction();
        let speedup = |e: &Evaluation| e.speedup(&ssd);
        let awfy = |b: Awfy, s: Strategy| cell(&self.awfy.cells, b.name(), s);
        let variant = |name: &str| cell(&self.variants, name, Strategy::CuPlusHeapPath);
        let cu = awfy(Awfy::Bounce, Strategy::Cu);
        let page_counts = |states| {
            let s = summarize(states);
            [s.faulted, s.resident, s.untouched]
                .map(|n| n as f64)
                .to_vec()
        };
        let window = |w: u64| {
            let e = if w == default_window() {
                awfy(Awfy::Bounce, Strategy::CuPlusHeapPath)
            } else {
                variant(&format!("window={w}"))
            };
            let (base, opt) = (e.baseline.faults.total(), e.optimized.faults.total());
            (
                w.to_string(),
                vec![base as f64, opt as f64, e.total_fault_reduction()],
            )
        };
        let native_tail = |b: Awfy| {
            let plain = awfy(b, Strategy::CuPlusHeapPath).optimized.faults.total() as f64;
            let native = variant(&format!("{}+native", b.name()))
                .optimized
                .faults
                .total() as f64;
            (b.name().to_string(), vec![plain, native, plain / native])
        };
        let storage = |b: Awfy| {
            let speedups = [Strategy::Cu, Strategy::CuPlusHeapPath].map(|s| {
                let e = awfy(b, s);
                [e.speedup(&ssd), e.speedup(&nfs)]
            });
            (b.name().to_string(), speedups.concat())
        };
        let binaries = [("regular", &cu.baseline), ("cu-ordered", &cu.optimized)];
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
                label: "benchmark",
                columns: ProfilingOverhead::MODES.map(|m| (m, 2)).to_vec(),
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
                    note: Some(note),
                })
                .into(),
            },
            Table::of_rows(
                "Fig. 6",
                ".text pages of Bounce: faulted, resident without a fault, untouched",
                "binary",
                &[("faulted", 0), ("resident", 0), ("untouched", 0)],
                binaries
                    .map(|(name, r)| (name.to_string(), page_counts(&r.text_page_states)))
                    .into(),
                None,
            ),
            Table::of_rows(
                "abl_fault_around",
                "fault-around window sweep (Bounce, cu+heap path)",
                "pages",
                &[("base faults", 0), ("opt faults", 0), ("reduction", 2)],
                WINDOWS.map(window).into(),
                None,
            ),
            Table::of_rows(
                "abl_structural_depth",
                "structural-hash MAX_DEPTH (Bounce)",
                "depth",
                &[("distinct ids", 0), ("profile match %", 1)],
                self.depths.clone(),
                None,
            ),
            Table::of_rows(
                "abl_incremental_global",
                "per-type vs global incremental counters, one divergent early object",
                "counters",
                &[("entries", 0), ("entries +1", 0), ("stable %", 1)],
                self.counters.clone(),
                None,
            ),
            Table::of_rows(
                "ext_native_tail",
                "native-tail reordering on top of cu+heap path (Appendix A future work)",
                "benchmark",
                &[
                    ("cu+hp faults", 0),
                    ("+native faults", 0),
                    ("extra gain", 2),
                ],
                NATIVE_TAIL.map(native_tail).into(),
                None,
            ),
            Table::of_rows(
                "abl_storage_nfs",
                "speedup under the SSD and NFS cost models, AWFY",
                "benchmark",
                &[
                    ("cu SSD", 2),
                    ("cu NFS", 2),
                    ("cu+hp SSD", 2),
                    ("cu+hp NFS", 2),
                ],
                Awfy::all().map(storage).into(),
                Some(""),
            ),
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

/// The evaluation of `cells`' `(workload, strategy)` cell.
///
/// # Panics
/// Panics if there is no such cell.
fn cell<'a>(cells: &'a [MatrixCell], workload: &str, strategy: Strategy) -> &'a Evaluation {
    let found = cells
        .iter()
        .find(|c| c.workload == workload && c.strategy == strategy);
    &found
        .unwrap_or_else(|| panic!("no cell {workload} × {}", strategy.name()))
        .eval
}

/// One table of EXPERIMENTS.md: a row per workload (or per setting), a
/// column per strategy, tracing mode or measured quantity, and a geo.mean
/// row under each group of rows that has one.
#[derive(Debug)]
pub struct Table {
    /// The figure, section or ablation it reproduces (`"Fig. 2"`, …,
    /// `"abl_storage_nfs"`), which is also the start of its EXPERIMENTS.md
    /// heading.
    pub heading: &'static str,
    /// What it measures.
    title: &'static str,
    /// Header of the row-name column.
    label: &'static str,
    /// Column names, each with the decimals its values print with.
    columns: Vec<(&'static str, usize)>,
    /// Width of each value column.
    width: usize,
    /// Row groups, each closed by its geo.mean row if it has one.
    groups: Vec<RowGroup>,
}

/// Rows of one workload class or one sweep, closed by their geo.mean row
/// if it has one.
#[derive(Debug)]
struct RowGroup {
    /// `(workload, one value per column)`.
    rows: Vec<(String, Vec<f64>)>,
    /// Text after the geo.mean row's values; `None` for no geo.mean row.
    note: Option<&'static str>,
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
        let columns = Strategy::all().map(|s| (s.name(), 2));
        Table {
            width: 15,
            ..Table::of_rows(heading, title, "benchmark", &columns, rows, Some(""))
        }
    }

    /// A table of one row group, each column as wide as the widest name.
    fn of_rows(
        heading: &'static str,
        title: &'static str,
        label: &'static str,
        columns: &[(&'static str, usize)],
        rows: Vec<(String, Vec<f64>)>,
        note: Option<&'static str>,
    ) -> Table {
        Table {
            heading,
            title,
            label,
            columns: columns.to_vec(),
            width: columns.iter().map(|(c, _)| c.len()).max().unwrap_or(0),
            groups: vec![RowGroup { rows, note }],
        }
    }

    /// The table as text: a header line, then each group's rows and its
    /// geo.mean row, each value to its column's decimals.
    pub fn render(&self) -> String {
        let w = self.width;
        let line = |name: &str, cells: String| format!("{name:<12}{cells}\n");
        let values = |vs: &[f64]| {
            (vs.iter().zip(&self.columns))
                .map(|(v, (_, d))| format!(" {v:>w$.d$}"))
                .collect::<String>()
        };
        let header = self.columns.iter().map(|(c, _)| format!(" {c:>w$}"));
        let mut out = line(self.label, header.collect());
        for group in &self.groups {
            for (name, vs) in &group.rows {
                out += &line(name, values(vs));
            }
            if let Some(note) = group.note {
                out += &line("geo.mean", values(&group.geomeans()) + note);
            }
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
            .position(|&(name, _)| name == column)
            .unwrap_or_else(|| panic!("{}: no column {column:?}", self.heading));
        self.groups[group].geomeans()[c]
    }

    /// Every value of the table, the geo.mean rows included.
    pub fn values(&self) -> Vec<f64> {
        self.groups
            .iter()
            .flat_map(|g| {
                let rows = g.rows.iter().flat_map(|(_, vs)| vs.iter().copied());
                let means = g.note.map(|_| g.geomeans()).unwrap_or_default();
                rows.chain(means).collect::<Vec<_>>()
            })
            .collect()
    }
}
