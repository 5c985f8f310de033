//! # nimage-heap
//!
//! The build-time heap of the nimage toolchain: the stand-in for Native
//! Image's *heap snapshotting* (Sec. 2 of the paper).
//!
//! At image build time, the class initializers of all reachable classes are
//! executed by a small interpreter ([`run_initializers`]); the resulting
//! object graph is then traversed in a well-defined order
//! ([`snapshot`]) starting from
//!
//! * static fields referenced by compiled code (reason `StaticField`),
//! * interned string literals in compiled code (reason `InternedString`),
//! * floating-point constants materialized in the data section
//!   (reason `DataSection`),
//! * embedded resources (reason `Resource`),
//!
//! yielding a [`HeapSnapshot`] whose **default object order follows the CU
//! order of the `.text` section** — "objects reachable from a CU A are
//! stored before objects reachable from another CU B that is stored after A"
//! (Sec. 2). Each snapshot entry records its first discovery parent and its
//! inclusion reason, which is exactly the information Algorithm 3 (*heap
//! path*) consumes.
//!
//! Cross-build divergence — the central difficulty the paper's Sec. 5
//! addresses — is modelled by [`HeapBuildConfig`]:
//!
//! * `clinit_seed` shuffles the execution order of class initializers within
//!   the same parallel-initialization group (non-deterministic parallel
//!   class initialization, Sec. 2);
//! * `pea_fold_seed` removes a build-dependent subset of leaf objects from
//!   the snapshot of optimized builds (partial-escape-analysis
//!   constant-folding, Sec. 2).

#![warn(missing_docs)]

mod clinit;
mod object;
mod snapshot;

pub use clinit::{
    exec_method, run_initializers, run_initializers_logged, ClinitEffects, ClinitError, EffectLog,
    StepBudget,
};
pub use object::{BuildHeap, HObject, HObjectKind, ObjId};
pub use snapshot::{
    init_order, snapshot, HeapBuildConfig, HeapSnapshot, InclusionReason, ParentLink, SnapEntry,
    SnapshotStats,
};
