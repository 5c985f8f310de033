//! # nimage-profiler
//!
//! The tracing profiler's runtime half (Sec. 6.1): per-thread trace
//! buffers, the two buffer-dumping modes, and the binary trace-file format.
//!
//! The VM's instrumentation emits two kinds of records:
//!
//! * **CU-entry records** — one per compilation-unit entry (for *cu
//!   ordering*);
//! * **path records** — a Ball–Larus `(method, start node, path id)` triple
//!   followed by the object identifiers collected at the heap-access sites
//!   of that path: "each path ID (associated with a fixed sequence of
//!   events) determines how many object identifiers are stored after the
//!   path ID".
//!
//! Records go to a per-thread buffer. In [`DumpMode::OnFull`] the buffer is
//! flushed to the durable trace file when a record would not fit and at
//! thread termination — appropriate for workloads that terminate normally.
//! In [`DumpMode::MemoryMapped`] every record is durable immediately
//! (modelling an mmap-backed buffer that the kernel persists even across
//! `SIGKILL`), at the cost of a remap whenever a segment fills — the mode
//! the paper uses for microservice workloads killed after the first
//! response.
//!
//! Method signatures are interned in a per-session string table so that
//! records are compact and signature strings appear once per trace file.
//!
//! Records stay encoded after the run. A [`Trace`] holds each thread as a
//! [`ThreadTrace`]: the bytes the trace file stores for that thread, moved
//! out of the session without decoding, or checked in one scan by
//! [`read_trace`]. [`ThreadTrace::records`] reads them in place as
//! [`Record`]s and cannot fail; [`write_trace`] copies them verbatim.

#![warn(missing_docs)]

mod session;
mod wire;

pub use session::{DumpMode, SessionStats, ThreadHandle, TraceSession};
pub use wire::{
    read_trace, write_trace, ObjIds, Record, Records, ThreadTrace, Trace, TraceDecodeError,
    TraceRecord,
};
