//! # nimage-vm
//!
//! The runtime half of the nimage toolchain: a deterministic interpreter
//! that executes a laid-out [`nimage_image::BinaryImage`] under a
//! demand-paging simulator, attributing major page faults to the `.text`
//! and `.svm_heap` sections exactly the way the paper measures them with
//! `perf` (Sec. 7.1).
//!
//! Execution and paging are separate: a run logs the first touch of every
//! layout-independent key ([`AccessLog`]) and the simulator pages that log
//! against an image afterwards, so one execution of a build yields its
//! report on every layout of it ([`relayout`]; see [`access`]).
//!
//! The VM also hosts the *runtime side* of the tracing profiler (Sec. 6.1):
//! when the image was compiled with instrumentation, the interpreter emits
//! CU-entry records, method-entry records and Ball–Larus path records (with
//! interleaved object identifiers) into per-thread
//! [`nimage_profiler::TraceSession`] buffers, and charges the corresponding
//! probe costs so that Sec. 7.4's overhead factors can be reproduced.
//!
//! Simulated time is `ops · ns_per_op + faults · fault_ns`
//! ([`CostModel`]); the *shape* of the paper's results (who wins, by what
//! factor) depends only on fault counts and op counts, both of which are
//! deterministic.

#![warn(missing_docs)]

pub mod access;
mod exec;
mod faultmap;
mod heap_rt;
pub mod lower;
mod paging;
mod report;

pub use access::{relayout, AccessLog, Touch};
pub use exec::{ProbeCosts, StopWhen, Vm, VmBuilder, VmConfig, VmError};
pub use faultmap::{render_ascii, summarize, touched_extent, PageMapSummary};
pub use heap_rt::{HeapTemplate, RtHeap};
pub use lower::{LoweredProgram, LoweredShard};
/// The former name of the one value type, [`nimage_ir::Value`]. Kept
/// because the repo benchmark still names it; deleted with that
/// benchmark's `staged.rs`.
pub use nimage_ir::Value as RtValue;
pub use paging::{PageState, PagingConfig, PagingConfigError, PagingSim, SectionFaults};
pub use report::{CostModel, ExitKind, ResponsePoint, RunReport};
