//! # nimage — Improving Native-Image Startup Performance, in Rust
//!
//! A from-scratch reproduction of *Improving Native-Image Startup
//! Performance* (Basso, Prokopec, Rosà, Binder — CGO '25): profile-guided
//! reordering of the code (`.text`) and heap-snapshot (`.svm_heap`)
//! sections of ahead-of-time-compiled binaries, to reduce the page faults
//! that dominate cold-start time in Serverless/FaaS deployments.
//!
//! This crate is a facade over the workspace:
//!
//! * [`ir`] — a miniature class-based object language (the Java stand-in),
//!   including the one operator table both interpreters evaluate through;
//! * [`analysis`] — reachability/points-to analysis with saturation;
//! * [`compiler`] — inliner, compilation units, instrumentation,
//!   Ball–Larus path profiling;
//! * [`heap`] — build-time initializer execution and heap snapshotting;
//! * [`image`] — binary layout (`.text` / `.svm_heap`, 4 KiB pages);
//! * [`profiler`] — per-thread trace buffers and the two dump modes;
//! * [`vm`] — a deterministic interpreter with a demand-paging simulator
//!   (`Vm::run`; `Vm::run_reference` is the tree-walking oracle tests
//!   compare it against), which pages a run's first-touch access log
//!   after the run — so `vm::relayout` gives one run's report on any
//!   other layout of the same build;
//! * [`order`] — the paper's contribution: the single first-occurrence
//!   trace-replay pass, the ordering profiles and their CSV format, the
//!   code- and heap-ordering strategies and the cross-build
//!   object-identity matching;
//! * [`core`] — the end-to-end pipeline of the paper's Fig. 1;
//! * [`workloads`] — the evaluation programs: 14 AWFY benchmarks and three
//!   microservice frameworks.
//!
//! ## Quickstart
//!
//! ```
//! use nimage::{BuildOptions, EvalRequest, Strategy, WorkloadSpec};
//! use nimage::vm::StopWhen;
//! use nimage::workloads::{Awfy, RuntimeScale};
//!
//! # fn main() -> Result<(), nimage::PipelineError> {
//! let program = Awfy::Sieve.program_at(&RuntimeScale::small());
//! let outcome = EvalRequest::new()
//!     .workload(WorkloadSpec::new("Sieve", &program, BuildOptions::default(), StopWhen::Exit))
//!     .strategy(Strategy::CuPlusHeapPath)
//!     .run()?;
//! assert!(outcome.cells[0].eval.reported_fault_reduction() >= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

// Compiles and runs the README's code blocks, so its library snippet
// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use nimage_core::{
    ArtifactCache, BuildOptions, BuildParts, BuildRequest, CacheKey, CellReport, Engine,
    EngineOptions, EvalOutcome, EvalRequest, Evaluation, MatrixCell, Memo, MemoStats,
    MetricsSnapshot, Pipeline, PipelineError, ProfiledArtifacts, Report, RunParts, StageReport,
    StageTimes, Strategy, TraceOptions, TraceSummary, Tracer, WorkloadSpec, REPORT_VERSION,
};

/// The miniature object-language IR.
pub mod ir {
    pub use nimage_ir::*;
}
/// Reachability analysis with saturation.
pub mod analysis {
    pub use nimage_analysis::*;
}
/// Inliner, compilation units and path profiling.
pub mod compiler {
    pub use nimage_compiler::*;
}
/// Build-time heap and snapshotting.
pub mod heap {
    pub use nimage_heap::*;
}
/// Binary image layout.
pub mod image {
    pub use nimage_image::*;
}
/// Trace collection.
pub mod profiler {
    pub use nimage_profiler::*;
}
/// Interpreter VM and paging simulator.
pub mod vm {
    pub use nimage_vm::*;
}
/// Ordering strategies and profile post-processing.
pub mod order {
    pub use nimage_order::*;
}
/// Evaluation workloads.
pub mod workloads {
    pub use nimage_workloads::*;
}

/// Cross-layer static analysis and pipeline invariant verification.
pub mod verify {
    pub use nimage_verify::*;
}
