//! # nimage-order
//!
//! The paper's primary contribution: profile-guided **code ordering**
//! (Sec. 4) and **heap-snapshot ordering** (Sec. 5), plus the
//! post-processing that turns raw traces into ordering profiles (Sec. 6.2).
//!
//! * [`murmur3`] — a from-scratch MurmurHash3 (x64, 128-bit, truncated to
//!   64 bits), the hash function both hashing strategies rely on.
//! * [`HeapStrategy`] — the three object-identity schemes: *incremental id*
//!   (Algorithm 1), *structural hash* (Algorithm 2, bounded by
//!   `MAX_DEPTH`), and *heap path* (Algorithm 3, hashing the first
//!   root-to-object path plus the root's inclusion reason).
//! * [`replay_first_access`] — the post-processing pass: scans per-thread
//!   trace records (including Ball–Larus path records) and keeps first
//!   occurrences, which is all any ordering analysis of Sec. 6.2 does. It
//!   is serial and memoised: each distinct `(method, start, path id)` key
//!   is decoded once, so its cost follows distinct paths, not records, and
//!   a fan-out would cost more than the scan. The result becomes
//!   [`CodeOrderProfile`]s and per-strategy
//!   [`HeapOrderProfile`]s, the two types that own the CSV interchange
//!   format (`to_csv` / `from_csv`) between profiling and optimizing builds.
//! * [`order_cus`] / [`order_objects`] — apply a profile to a (different!)
//!   build: CU orders are matched by root/method *signature*; heap orders
//!   are matched by re-computing the strategy's 64-bit IDs on the new
//!   build's snapshot and aligning them with the profile's IDs — the
//!   cross-build object-identity matching that Sec. 5 is about.
//!
//! [`order_cus_split`] / [`order_objects_split_spans`] hand the same
//! first-touch orders, split into hot prefix and cold rest, to the layout
//! optimizer, which lives in `nimage_image::optimize` next to the layout
//! arithmetic its fault predictor shares.

#![warn(missing_docs)]

mod analyses;
pub mod murmur3;
mod ordering;
mod quality;
mod strategies;

pub use analyses::{
    replay_first_access, CodeOrderProfile, HeapOrderProfile, ObjectSpans, ReplayError,
    ReplaySummary,
};
pub use ordering::{
    match_rate, order_cus, order_cus_split, order_objects, order_objects_split_spans,
    CodeGranularity,
};
pub use quality::{layout_quality, matched_object_ratio, LayoutQuality};
pub use strategies::{assign_global_incremental_ids, assign_ids, HeapStrategy};
