//! # nimage-compiler
//!
//! The ahead-of-time "Graal" stand-in of the nimage workspace: it groups
//! reachable methods into **compilation units** (CUs) via a code-size-driven
//! inliner, models the **instrumentation** that the paper's profiling build
//! inserts (which inflates method sizes and thereby perturbs inlining — the
//! root cause of cross-build divergence, Sec. 2), consumes **PGO call-count
//! profiles** (which perturb inlining again in the optimized build), and
//! implements the **Ball–Larus path numbering with path cutting** that the
//! paper's tracing profiler builds on (Sec. 6.1).
//!
//! The output of [`compile`] is a [`CompiledProgram`]: the set of CUs with
//! their inline trees and byte sizes, ready to be laid out into a binary
//! image by `nimage-image` and executed by `nimage-vm`.

#![warn(missing_docs)]

mod cu;
mod index;
mod inline;
mod instrument;
mod path;
mod pgo;

pub use cu::{CompilationUnit, CompiledProgram, CuId, InlineNode};
pub use index::{MethodPaths, ProgramIndex, SigId};
pub use inline::{compile, InlineConfig};
pub use instrument::{instrumented_method_size, InstrumentConfig};
pub use path::{MiniBlockId, PathNumbering, ProfilingCfg, StaticEvent, DEFAULT_MAX_PATHS};
pub use pgo::CallCountProfile;
