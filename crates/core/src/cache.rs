//! Content-keyed artifact cache for the evaluation engine.
//!
//! Every expensive pipeline stage — reachability analysis, compilation,
//! heap snapshotting, strategy ID assignment, baseline layout, baseline
//! measurement — is memoized under a 128-bit **content key** derived from
//! the inputs that determine its output: the program fingerprint, the
//! [`crate::BuildOptions`] fingerprint and any stage-specific inputs
//! (instrumentation mode, PGO profile, heap strategy). Six strategies
//! evaluated over one workload therefore compute the shared artifacts
//! exactly once; everything else is a cache hit.
//!
//! Concurrency: each key owns a slot guarded by its own mutex, so two
//! threads requesting the *same* artifact block until the first compute
//! finishes (exactly-once semantics), while requests for *different*
//! artifacts proceed in parallel. Failed computes are not cached — the
//! engine aborts on the first error anyway.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use nimage_compiler::CompiledProgram;
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_image::BinaryImage;
use nimage_order::murmur3;
use nimage_vm::{AccessLog, HeapTemplate, LoweredProgram, RunReport};

use nimage_analysis::Reachability;

use crate::{LayoutOrders, ProfiledArtifacts};

const FINGERPRINT_SEED: u64 = 0x6e69_6d61_6765; // "nimage"

/// A 128-bit content fingerprint / cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64, pub u64);

impl CacheKey {
    /// Fingerprints a value through its `Debug` rendering, salted with a
    /// `tag` naming what is being fingerprinted. The rendering is hashed
    /// with MurmurHash3 (x64, 128-bit), so semantically different values
    /// collide with negligible probability; equal values produced by the
    /// same process always agree.
    pub fn of_debug<T: fmt::Debug + ?Sized>(tag: &str, value: &T) -> CacheKey {
        let mut buf = String::with_capacity(256);
        buf.push_str(tag);
        buf.push('\u{1f}');
        let _ = write!(buf, "{value:?}");
        let (a, b) = murmur3::hash128(buf.as_bytes(), FINGERPRINT_SEED);
        CacheKey(a, b)
    }

    /// Fingerprints a value through its `Hash` impl, fed straight into a
    /// streaming MurmurHash3 ([`murmur3::Hasher128`]) — no intermediate
    /// rendering, no allocation. For values too large to render: a
    /// `Program` is megabytes of `Debug` text. The hasher writes every
    /// integer fixed-width little-endian, so equal values agree across
    /// processes and hosts.
    pub fn of_hash<T: Hash + ?Sized>(tag: &str, value: &T) -> CacheKey {
        CacheKey::of_hash_sized(tag, value).0
    }

    /// [`CacheKey::of_hash`] plus the number of bytes the value fed the
    /// hasher (tag included) — the engine's `fingerprint.bytes` counter.
    pub(crate) fn of_hash_sized<T: Hash + ?Sized>(tag: &str, value: &T) -> (CacheKey, u64) {
        let mut h = murmur3::Hasher128::with_seed(FINGERPRINT_SEED);
        h.write(tag.as_bytes());
        h.write_u8(0x1f);
        value.hash(&mut h);
        let (a, b) = h.finish128();
        (CacheKey(a, b), h.len())
    }

    /// Combines a stage tag with the fingerprints of every input that
    /// determines the stage's output.
    pub fn for_stage(stage: &str, parts: &[CacheKey]) -> CacheKey {
        let mut buf = Vec::with_capacity(16 + parts.len() * 16 + stage.len());
        buf.extend_from_slice(stage.as_bytes());
        for p in parts {
            buf.extend_from_slice(&p.0.to_le_bytes());
            buf.extend_from_slice(&p.1.to_le_bytes());
        }
        let (a, b) = murmur3::hash128(&buf, 0x73_7461_6765 /* "stage" */);
        CacheKey(a, b)
    }
}

/// Hit/miss counters of one memo table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Stage name of the memo (e.g. `"compile"`).
    pub name: &'static str,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
}

/// Locks a mutex, shrugging off poisoning: memo slots only ever hold
/// completed artifacts, so a panicking compute leaves the slot empty (the
/// next caller recomputes) rather than corrupt.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One lazily-filled cache slot: `None` while the first compute is in
/// flight (its mutex held), the finished artifact afterwards.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// One memoized pipeline stage: a content-keyed map of shared artifacts.
pub struct Memo<V> {
    name: &'static str,
    slots: Mutex<HashMap<CacheKey, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Memo<V> {
    /// Creates an empty memo for the named stage.
    pub fn new(name: &'static str) -> Memo<V> {
        Memo {
            name,
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the artifact for `key`, computing it with `f` on the first
    /// request. Concurrent requests for the same key block until the
    /// in-flight compute finishes; errors are returned to the caller that
    /// computed and leave the slot empty.
    ///
    /// # Errors
    /// Propagates the error of `f`.
    pub fn get_or_try<E>(
        &self,
        key: CacheKey,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = lock_unpoisoned(&self.slots).entry(key).or_default().clone();
        let mut guard = lock_unpoisoned(&slot);
        if let Some(v) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(v.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(f()?);
        *guard = Some(v.clone());
        Ok(v)
    }

    /// Infallible variant of [`Memo::get_or_try`].
    pub fn get_or(&self, key: CacheKey, f: impl FnOnce() -> V) -> Arc<V> {
        match self.get_or_try::<std::convert::Infallible>(key, || Ok(f())) {
            Ok(v) => v,
        }
    }

    /// Snapshot of every completed artifact in the table (in-flight
    /// computes are skipped, not waited for). Used to aggregate interior
    /// state across artifacts — e.g. the lazy/eager shard counters of the
    /// cached [`LoweredProgram`] containers.
    pub fn values(&self) -> Vec<Arc<V>> {
        let slots: Vec<Slot<V>> = lock_unpoisoned(&self.slots).values().cloned().collect();
        slots
            .iter()
            .filter_map(|s| match s.try_lock() {
                Ok(g) => g.clone(),
                Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner().clone(),
                Err(std::sync::TryLockError::WouldBlock) => None,
            })
            .collect()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            name: self.name,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<V> fmt::Debug for Memo<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "Memo({}: {} hits, {} misses)",
            self.name, s.hits, s.misses
        )
    }
}

/// The shared artifact store of one [`crate::Engine`]: one memo table per
/// pipeline stage whose output can be reused across strategies (and, for
/// identical programs/options, across workloads).
#[derive(Debug)]
pub struct ArtifactCache {
    /// Reachability analysis results, keyed by program + analysis config.
    pub reach: Memo<Reachability>,
    /// Compiled programs, keyed by program + options + instrumentation +
    /// PGO profile.
    pub compiled: Memo<CompiledProgram>,
    /// Heap snapshots, keyed by compile key + heap-build config.
    pub snapshots: Memo<HeapSnapshot>,
    /// Strategy identity maps (`assign_ids` output), keyed by snapshot key
    /// + heap strategy.
    pub heap_ids: Memo<HashMap<ObjId, u64>>,
    /// Laid-out images shared across cells: the instrumented and the
    /// baseline layouts (strategy layouts are unique per evaluation cell
    /// and computed inline there).
    pub images: Memo<BinaryImage>,
    /// The one execution of each optimized build: the baseline
    /// measurement plus its access log, from which every strategy cell
    /// pages its own layout ([`nimage_vm::relayout`]).
    pub runs: Memo<(RunReport, AccessLog)>,
    /// Materialized snapshot heaps shared by every run of one snapshot.
    pub heap_templates: Memo<HeapTemplate>,
    /// Full profiling-run artifacts (instrumented build + run + replay),
    /// keyed by program + options.
    pub profiles: Memo<ProfiledArtifacts>,
    /// Sharded execution programs, keyed by compile key: one lazy
    /// container per compiled build, lent (`Arc`) to the VM run of that
    /// build. Method bodies fault in per CU on first call. Memory only: a
    /// build whose run is a disk hit is never lowered.
    pub lowered: Memo<LoweredProgram>,
    /// Layout-optimizer plans of the clustered strategies, keyed by
    /// workload + strategy: the candidate search runs once per cell and
    /// its chosen orders (plus predicted fault counts) are reused by
    /// reports and repeat runs.
    pub plans: Memo<LayoutOrders>,
}

impl ArtifactCache {
    /// Creates an empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            reach: Memo::new("analyze"),
            compiled: Memo::new("compile"),
            snapshots: Memo::new("snapshot"),
            heap_ids: Memo::new("assign-ids"),
            images: Memo::new("layout"),
            runs: Memo::new("baseline-run"),
            heap_templates: Memo::new("heap-template"),
            profiles: Memo::new("profile"),
            lowered: Memo::new("lower"),
            plans: Memo::new("optimize"),
        }
    }

    /// Per-stage hit/miss counters, in a stable report order.
    pub fn stats(&self) -> Vec<MemoStats> {
        vec![
            self.reach.stats(),
            self.compiled.stats(),
            self.snapshots.stats(),
            self.heap_ids.stats(),
            self.images.stats(),
            self.runs.stats(),
            self.heap_templates.stats(),
            self.profiles.stats(),
            self.lowered.stats(),
            self.plans.stats(),
        ]
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn keys_are_content_sensitive() {
        let a = CacheKey::of_debug("tag", &(1u32, "x"));
        let b = CacheKey::of_debug("tag", &(1u32, "x"));
        let c = CacheKey::of_debug("tag", &(2u32, "x"));
        let d = CacheKey::of_debug("other", &(1u32, "x"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(
            CacheKey::for_stage("s1", &[a, c]),
            CacheKey::for_stage("s1", &[c, a]),
            "part order is significant"
        );
    }

    #[test]
    fn memo_computes_each_key_once() {
        let memo: Memo<u64> = Memo::new("test");
        let calls = AtomicUsize::new(0);
        let key = CacheKey(1, 2);
        for _ in 0..3 {
            let v = memo.get_or(key, || {
                calls.fetch_add(1, Ordering::Relaxed);
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn memo_does_not_cache_errors() {
        let memo: Memo<u64> = Memo::new("test");
        let key = CacheKey(3, 4);
        let r: Result<_, &str> = memo.get_or_try(key, || Err("boom"));
        assert!(r.is_err());
        let v = memo.get_or_try::<&str>(key, || Ok(7)).unwrap();
        assert_eq!(*v, 7);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn concurrent_same_key_requests_compute_once() {
        let memo: Memo<u64> = Memo::new("test");
        let calls = AtomicUsize::new(0);
        let key = CacheKey(5, 6);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let v = memo.get_or(key, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        9
                    });
                    assert_eq!(*v, 9);
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
