//! # nimage-trace — span-based structured tracing and metrics
//!
//! The observability layer behind the engine's stage timings, the
//! `nimage bench --trace-out` Chrome-trace export and the versioned JSON
//! report (DESIGN.md §14), plus [`JsonWriter`], the one writer every JSON
//! document of the workspace is rendered through.
//!
//! ## Model
//!
//! A [`Tracer`] is a cheap-to-clone handle that is either *disabled* (a
//! single `Option` check on every call — the compiled-in fast path) or
//! *enabled*, in which case every thread that records through it appends
//! to its own fixed-capacity [`Event`] ring. Recording is lock-free on
//! the hot path: the owning thread is the only writer of its ring, and
//! publication happens with one release store of the length. Buffers are
//! merged at collection time ([`Tracer::events`]), never during a run, so
//! recording perturbs neither scheduling nor results.
//!
//! Three event kinds exist: `Begin`/`End` pairs delimit *spans* (strict
//! stack discipline per thread, enforced by the [`Span`] RAII guard) and
//! `Instant` marks a point event (a page fault, a disk-cache hit). Spans
//! and instants may be flagged *root*: work that is memoized and may
//! physically execute under whichever caller got there first (so its
//! physical parent is scheduling-dependent) is detached to the top level
//! in the *logical* tree view, which makes the logical span forest a
//! deterministic function of the workload. The *physical* per-thread
//! nesting is kept too — exclusive stage times are derived from it
//! (parent minus children), exactly the attribution the old `StageClock`
//! computed by hand.
//!
//! Determinism rules, and how the engine's spans obey them, are spelled
//! out in DESIGN.md §14.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod tree;

pub use chrome::chrome_trace_json;
pub use json::JsonWriter;
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use tree::{
    aggregate, canonical_shape, logical_roots, physical_forest, NodeKind, SpanNode, StageAgg,
};

use std::cell::{RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread event-ring capacity (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What an [`Event`] marks: the start of a span, its end, or a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (matched by a later `End` on the same thread).
    Begin,
    /// The most recently opened span on this thread closed.
    End,
    /// A point event with no duration (page fault, cache hit, ...).
    Instant,
}

/// One recorded event. Timestamps are nanoseconds since the tracer's
/// epoch (the `Instant` taken when the tracer was created), so events
/// from different threads of the same tracer share a clock.
#[derive(Debug, Clone)]
pub struct Event {
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static name — span names are the vocabulary of the trace (stage
    /// names like `"compile"`, event names like `"page-fault"`).
    pub name: &'static str,
    /// Free-form deterministic detail (`"workload=Sieve strategy=cu"`);
    /// empty when there is nothing to add. Must never embed addresses,
    /// timings or other run-varying data: the logical tree shape,
    /// including details, is asserted identical across runs.
    pub detail: String,
    /// Nanoseconds since the tracer epoch.
    pub t_ns: u64,
    /// Detach this span/instant to the top level of the *logical* tree
    /// (memoized work whose physical parent is scheduling-dependent).
    pub root: bool,
}

/// One thread's event ring. The owning thread is the only writer; any
/// thread may snapshot concurrently (acquire the published length, read
/// only below it).
struct ThreadCell {
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    /// Number of initialized slots; release-stored by the owner after
    /// writing a slot, acquire-loaded by readers.
    len: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

// Soundness: `slots[i]` is written exactly once, by the owning thread,
// before `len` is release-stored past `i`; readers only dereference
// slots below an acquire-loaded `len`. A slot is therefore never read
// and written concurrently.
unsafe impl Send for ThreadCell {}
unsafe impl Sync for ThreadCell {}

impl ThreadCell {
    fn new(capacity: usize) -> ThreadCell {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || UnsafeCell::new(MaybeUninit::uninit()));
        ThreadCell {
            slots: slots.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Owner-thread only.
    fn push(&self, ev: Event) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { (*self.slots[i].get()).write(ev) };
        self.len.store(i + 1, Ordering::Release);
    }

    /// Any thread; non-destructive.
    fn snapshot(&self) -> Vec<Event> {
        let n = self.len.load(Ordering::Acquire);
        (0..n)
            .map(|i| unsafe { (*self.slots[i].get()).assume_init_ref() }.clone())
            .collect()
    }
}

impl Drop for ThreadCell {
    fn drop(&mut self) {
        let n = *self.len.get_mut();
        for slot in &mut self.slots[..n] {
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

/// Summary of a trace for the JSON report: how many threads recorded,
/// how many events survived, how many were dropped on ring overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Total events across all rings.
    pub events: u64,
    /// Events discarded because a ring was full.
    pub dropped: u64,
}

struct TracerInner {
    id: u64,
    capacity: usize,
    epoch: Instant,
    /// All rings ever registered, in registration order (stable tids
    /// for the Chrome export).
    cells: Mutex<Vec<Arc<ThreadCell>>>,
    metrics: MetricsRegistry,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's ring per live tracer, keyed by tracer id.
    static TLS_CELLS: RefCell<Vec<(u64, Arc<ThreadCell>)>> = const { RefCell::new(Vec::new()) };
}

impl TracerInner {
    /// The calling thread's ring for this tracer, registering one on
    /// first use.
    fn cell(self: &Arc<Self>) -> Arc<ThreadCell> {
        TLS_CELLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some((_, cell)) = tls.iter().find(|(id, _)| *id == self.id) {
                return cell.clone();
            }
            // Drop entries whose tracer died (the registry holds the
            // only other strong ref, so count == 1 means ours is last).
            if tls.len() >= 32 {
                tls.retain(|(_, c)| Arc::strong_count(c) > 1);
            }
            let cell = Arc::new(ThreadCell::new(self.capacity));
            self.cells
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(cell.clone());
            tls.push((self.id, cell.clone()));
            cell
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(self: &Arc<Self>, kind: EventKind, name: &'static str, detail: String, root: bool) {
        let t_ns = self.now_ns();
        self.cell().push(Event {
            kind,
            name,
            detail,
            t_ns,
            root,
        });
    }
}

/// A handle for recording spans, instants and metrics. Clones share the
/// same buffers. [`Tracer::disabled`] (also the `Default`) records
/// nothing and costs one `Option` check per call — the fast path the
/// engine compiles in everywhere tracing is optional.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately state-free: a Tracer inside a Debug-fingerprinted
        // struct must never perturb the fingerprint (cache neutrality).
        f.write_str(match &self.inner {
            Some(_) => "Tracer(enabled)",
            None => "Tracer(disabled)",
        })
    }
}

impl Tracer {
    /// An enabled tracer with the default ring capacity.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose per-thread rings hold `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                capacity: capacity.max(16),
                epoch: Instant::now(),
                cells: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// The no-op tracer: every recording call is a single branch.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this handle records anything at all. Call sites that
    /// would allocate to build a `detail` string should check this
    /// first.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes when the returned guard drops. The guard
    /// is `!Send`: a span must begin and end on the same thread.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_inner(name, String::new(), false)
    }

    /// [`Tracer::span`] with a detail string (built lazily — the closure
    /// only runs when the tracer is enabled).
    #[inline]
    pub fn span_with(&self, name: &'static str, detail: impl FnOnce() -> String) -> Span {
        let d = if self.inner.is_some() {
            detail()
        } else {
            String::new()
        };
        self.span_inner(name, d, false)
    }

    /// A *root* span: detached to the top level of the logical tree
    /// (memoized work whose physical parent is scheduling-dependent).
    #[inline]
    pub fn root_span(&self, name: &'static str, detail: impl FnOnce() -> String) -> Span {
        let d = if self.inner.is_some() {
            detail()
        } else {
            String::new()
        };
        self.span_inner(name, d, true)
    }

    fn span_inner(&self, name: &'static str, detail: String, root: bool) -> Span {
        if let Some(inner) = &self.inner {
            inner.record(EventKind::Begin, name, detail, root);
        }
        Span {
            inner: self.inner.clone(),
            name,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Records a point event nested under the current span (if any).
    #[inline]
    pub fn instant(&self, name: &'static str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.record(EventKind::Instant, name, detail(), false);
        }
    }

    /// Records a *root* point event (detached in the logical tree).
    #[inline]
    pub fn root_instant(&self, name: &'static str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.record(EventKind::Instant, name, detail(), true);
        }
    }

    /// Adds `n` to the counter `key`. No-op when disabled.
    #[inline]
    pub fn count(&self, key: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.count(key, n);
        }
    }

    /// Sets the gauge `key` to `v`. No-op when disabled.
    #[inline]
    pub fn gauge(&self, key: &'static str, v: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(key, v);
        }
    }

    /// Records `v` into the histogram `key`. No-op when disabled.
    #[inline]
    pub fn observe(&self, key: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(key, v);
        }
    }

    /// Snapshot of the metrics registry (empty when disabled).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Snapshots every thread's events, in ring registration order.
    /// Non-destructive; safe to call while other threads still record
    /// (their in-flight events simply aren't published yet). For a
    /// consistent full trace, call after joining the recording threads —
    /// everywhere the engine calls this, the scoped threads have exited.
    #[must_use]
    pub fn events(&self) -> Vec<Vec<Event>> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let cells = inner
                    .cells
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                cells.iter().map(|c| c.snapshot()).collect()
            }
        }
    }

    /// Trace totals for the report.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        match &self.inner {
            None => TraceSummary::default(),
            Some(inner) => {
                let cells = inner
                    .cells
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let mut s = TraceSummary::default();
                for c in cells.iter() {
                    let n = c.len.load(Ordering::Acquire);
                    if n > 0 {
                        s.threads += 1;
                    }
                    s.events += n as u64;
                    s.dropped += c.dropped.load(Ordering::Relaxed);
                }
                s
            }
        }
    }
}

/// RAII guard closing a span on drop. `!Send` by construction (the
/// matching `End` must land in the same thread's ring as the `Begin`).
pub struct Span {
    inner: Option<Arc<TracerInner>>,
    name: &'static str,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner.record(EventKind::End, self.name, String::new(), false);
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Span({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.span_with("compile", || unreachable!("detail must not be built"));
            t.instant("page-fault", || unreachable!());
        }
        t.count("x", 1);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.summary(), TraceSummary::default());
        assert!(t.metrics().counters.is_empty());
    }

    #[test]
    fn spans_nest_per_thread_and_merge_at_collection() {
        let t = Tracer::new();
        {
            let _outer = t.span("run");
            t.instant("page-fault", || "section=.text".to_string());
            let _inner = t.span_with("layout", || "strategy=cu".to_string());
        }
        let threads: Vec<std::thread::JoinHandle<()>> = (0..2)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let _s = t.root_span("cell", || "workload=w".to_string());
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let events = t.events();
        assert_eq!(events.len(), 3, "three threads registered rings");
        let main = &events[0];
        assert_eq!(main.len(), 5); // begin run, instant, begin/end layout, end run
        assert_eq!(main[0].kind, EventKind::Begin);
        assert_eq!(main[0].name, "run");
        assert_eq!(main[4].kind, EventKind::End);
        assert!(main.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        let summary = t.summary();
        assert_eq!(summary.threads, 3);
        assert_eq!(summary.events, 5 + 2 + 2);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let t = Tracer::with_capacity(16);
        for _ in 0..40 {
            t.instant("e", String::new);
        }
        assert_eq!(t.events()[0].len(), 16);
        assert_eq!(t.summary().dropped, 24);
    }

    #[test]
    fn two_tracers_on_one_thread_keep_separate_rings() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.instant("only-a", String::new);
        b.instant("only-b", String::new);
        b.instant("only-b", String::new);
        assert_eq!(a.events()[0].len(), 1);
        assert_eq!(b.events()[0].len(), 2);
    }

    #[test]
    fn metrics_pass_through() {
        let t = Tracer::new();
        t.count("cache.hits", 2);
        t.count("cache.hits", 3);
        t.gauge("ratio", 0.5);
        t.observe("lat", 7);
        let m = t.metrics();
        assert_eq!(m.counters["cache.hits"], 5);
        assert_eq!(m.gauges["ratio"], 0.5);
        assert_eq!(m.histograms["lat"].count, 1);
        assert_eq!(m.histograms["lat"].sum, 7);
    }

    #[test]
    fn debug_is_state_free() {
        let enabled = Tracer::new();
        enabled.instant("x", String::new);
        assert_eq!(format!("{enabled:?}"), "Tracer(enabled)");
        assert_eq!(format!("{:?}", Tracer::disabled()), "Tracer(disabled)");
    }
}
