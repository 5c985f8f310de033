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
use nimage_vm::{AccessLog, RunReport};

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

    /// Fingerprints a value through its `Hash` impl, fed straight into the
    /// fingerprint's own word hasher — no intermediate rendering, no
    /// allocation. For values too large to render: a `Program` is
    /// megabytes of `Debug` text. Every integer write is one word widened
    /// by value, so equal values agree across processes and hosts.
    pub fn of_hash<T: Hash + ?Sized>(tag: &str, value: &T) -> CacheKey {
        CacheKey::of_hash_sized(tag, value).0
    }

    /// [`CacheKey::of_hash`] plus the number of bytes the value fed the
    /// hasher (tag included) — the engine's `fingerprint.bytes` counter.
    pub(crate) fn of_hash_sized<T: Hash + ?Sized>(tag: &str, value: &T) -> (CacheKey, u64) {
        let mut h = WordHasher::with_seed(FINGERPRINT_SEED);
        h.write(tag.as_bytes());
        h.write_u8(0x1f);
        value.hash(&mut h);
        let (a, b) = h.finish128();
        (CacheKey(a, b), h.bytes)
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

/// Odd multiplier of a lane step (the 64-bit golden ratio, forced odd).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation of a lane step: carries the multiply's high bits back down.
const WORD_ROT: u32 = 29;

/// MurmurHash3's 64-bit finaliser: full avalanche, and a bijection.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// The program fingerprint's hasher. Each write is absorbed as whole
/// 64-bit words, with no byte staging: an integer write of any width is
/// one word, widened by value (`usize`/`isize` as 64 bits, so the key is
/// host-independent); a byte slice is its 8-byte chunks plus one tail
/// word tagged with the slice length.
///
/// A word steps one of four lanes, `lane' = rotl((lane ^ w) * ODD, r)`,
/// and the lanes rotate after every word, so consecutive writes do not
/// wait on each other's multiply. The step is a bijection of the lane for
/// a fixed word and injective in the word for a fixed lane: changing any
/// one word changes the lane it entered and, through the later steps'
/// bijections, the final lanes. [`WordHasher::finish128`] folds all four
/// lanes and both counts through [`fmix64`].
///
/// This is a cache key, not one of the paper's identities: those stay on
/// MurmurHash3 ([`murmur3`], Alg. 2), as do [`CacheKey::of_debug`] and
/// [`CacheKey::for_stage`].
#[derive(Debug, Clone)]
struct WordHasher {
    /// `lanes[0]` takes the next word; the four then rotate by one.
    lanes: [u64; 4],
    /// Words absorbed.
    words: u64,
    /// Bytes written, counted as MurmurHash3's stream counts them: the
    /// width of each integer (`usize`/`isize` as 8), the length of each
    /// slice.
    bytes: u64,
}

impl WordHasher {
    fn with_seed(seed: u64) -> WordHasher {
        // The lanes start apart (hex digits of π).
        WordHasher {
            lanes: [
                seed,
                seed ^ 0x243f_6a88_85a3_08d3,
                seed ^ 0x1319_8a2e_0370_7344,
                seed ^ 0xa409_3822_299f_31d0,
            ],
            words: 0,
            bytes: 0,
        }
    }

    #[inline(always)]
    fn absorb(&mut self, w: u64) {
        let [a, b, c, d] = self.lanes;
        let a = (a ^ w).wrapping_mul(WORD_MUL).rotate_left(WORD_ROT);
        self.lanes = [b, c, d, a];
        self.words += 1;
    }

    #[inline(always)]
    fn int(&mut self, w: u64, width: u64) {
        self.bytes += width;
        self.absorb(w);
    }

    /// The 128-bit digest of everything written so far. Each half chains
    /// all four lanes and one count through [`fmix64`] (a bijection at
    /// every link, so any single lane moves both halves); the final
    /// cross-add is MurmurHash3's.
    fn finish128(&self) -> (u64, u64) {
        let [a, b, c, d] = self.lanes;
        let h1 = fmix64(a ^ fmix64(b ^ fmix64(c ^ fmix64(d ^ self.bytes))));
        let h2 = fmix64(d ^ fmix64(c ^ fmix64(b ^ fmix64(a ^ self.words))));
        let h1 = h1.wrapping_add(h2);
        (h1, h2.wrapping_add(h1))
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.finish128().0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.absorb(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.absorb(u64::from_le_bytes(tail) | (bytes.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.int(u64::from(i), 1);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.int(u64::from(i), 2);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.int(u64::from(i), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.int(i, 8);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.bytes += 16;
        self.absorb(i as u64);
        self.absorb((i >> 64) as u64);
    }

    /// Widened to 64 bits: also what the default `write_length_prefix`
    /// (slice and `Vec` lengths) goes through.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.int(i as u64, 8);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.int(i as i64 as u64, 8);
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
/// identical programs/options, across workloads). Lowered code has no
/// table: each build runs once, so its lowering is built for that run and
/// dropped when the run ends (`Engine::run_default`).
#[derive(Debug)]
pub struct ArtifactCache {
    /// Reachability analysis results, keyed by program + analysis config.
    pub reach: Memo<Reachability>,
    /// Compiled programs, keyed by program + options + instrumentation +
    /// PGO profile.
    pub compiled: Memo<CompiledProgram>,
    /// Heap snapshots, keyed by compile key + heap-build config.
    pub snapshots: Memo<HeapSnapshot>,
    /// The optimized snapshot's strategy identity maps (`assign_ids`
    /// output), keyed by snapshot key + heap strategy.
    pub heap_ids: Memo<HashMap<ObjId, u64>>,
    /// Laid-out images shared across cells: the instrumented and the
    /// baseline layouts (strategy layouts are unique per evaluation cell
    /// and computed inline there).
    pub images: Memo<BinaryImage>,
    /// The one execution of each optimized build: the baseline
    /// measurement plus its access log, from which every strategy cell
    /// pages its own layout ([`nimage_vm::relayout`]).
    pub runs: Memo<(RunReport, AccessLog)>,
    /// Full profiling-run artifacts (instrumented build + run + replay),
    /// keyed by program + options.
    pub profiles: Memo<ProfiledArtifacts>,
    /// Every strategy's ordering plan, keyed by workload + strategy: the
    /// orders (plus, for the clustered strategies, the layout optimizer's
    /// predicted fault counts) are computed once per cell and reused by
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
            profiles: Memo::new("profile"),
            plans: Memo::new("order"),
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
            self.profiles.stats(),
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
    use nimage_workloads::Microservice;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// One `Hasher` write.
    #[derive(Debug, Clone, PartialEq)]
    enum Write {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        Usize(u32),
        Bytes(Vec<u8>),
    }

    impl Write {
        fn feed(&self, h: &mut WordHasher) {
            match self {
                Write::U8(v) => h.write_u8(*v),
                Write::U16(v) => h.write_u16(*v),
                Write::U32(v) => h.write_u32(*v),
                Write::U64(v) => h.write_u64(*v),
                Write::Usize(v) => h.write_usize(*v as usize),
                Write::Bytes(v) => h.write(v),
            }
        }

        /// The same write with one bit of its value flipped (a byte
        /// slice: one bit of one byte; an empty slice gains a byte).
        fn flipped(&self, bit: u32) -> Write {
            match self {
                Write::U8(v) => Write::U8(v ^ 1 << (bit % 8)),
                Write::U16(v) => Write::U16(v ^ 1 << (bit % 16)),
                Write::U32(v) => Write::U32(v ^ 1 << (bit % 32)),
                Write::U64(v) => Write::U64(v ^ 1 << (bit % 64)),
                Write::Usize(v) => Write::Usize(v ^ 1 << (bit % 32)),
                Write::Bytes(v) if v.is_empty() => Write::Bytes(vec![bit as u8]),
                Write::Bytes(v) => {
                    let mut v = v.clone();
                    let at = (bit / 8) as usize % v.len();
                    v[at] ^= 1 << (bit % 8);
                    Write::Bytes(v)
                }
            }
        }
    }

    fn digest(writes: &[Write]) -> (u64, u64) {
        let mut h = WordHasher::with_seed(FINGERPRINT_SEED);
        for w in writes {
            w.feed(&mut h);
        }
        h.finish128()
    }

    fn write_strategy() -> impl Strategy<Value = Write> {
        prop_oneof![
            any::<u8>().prop_map(Write::U8),
            any::<u16>().prop_map(Write::U16),
            any::<u32>().prop_map(Write::U32),
            any::<u64>().prop_map(Write::U64),
            any::<u32>().prop_map(Write::Usize),
            proptest::collection::vec(any::<u8>(), 0..18).prop_map(Write::Bytes),
        ]
    }

    /// The word hasher's output for one write of every width and byte
    /// slices of every length 0–17 (two full words plus each tail). If
    /// this moves, every program fingerprint moved: bump
    /// `DISK_FORMAT_VERSION`.
    #[test]
    fn word_hasher_output_is_pinned() {
        let data: Vec<u8> = (1..=17).collect();
        let mut writes = vec![
            Write::U8(0xa5),
            Write::U16(0xbeef),
            Write::U32(0xdead_beef),
            Write::U64(0x0123_4567_89ab_cdef),
            Write::Usize(0x1234_5678),
        ];
        writes.extend((0..=17).map(|n| Write::Bytes(data[..n].to_vec())));
        let mut h = WordHasher::with_seed(FINGERPRINT_SEED);
        for w in &writes {
            w.feed(&mut h);
        }
        assert_eq!(h.bytes, 1 + 2 + 4 + 8 + 8 + (0..=17).sum::<u64>());
        assert_eq!(h.words, 5 + (0..=17u64).map(|n| n / 8 + 1).sum::<u64>());
        assert_eq!(
            h.finish128(),
            (0x6694_503b_8663_b49f, 0x5a48_b7ec_df22_f45e)
        );
    }

    /// Writes that absorb the same words still fingerprint apart: the
    /// byte count tells widths apart, the tail word's length tag tells
    /// slice boundaries apart.
    #[test]
    fn write_widths_and_slice_boundaries_are_significant() {
        let keys = [
            digest(&[Write::U8(1)]),
            digest(&[Write::U16(1)]),
            digest(&[Write::U32(1)]),
            digest(&[Write::U64(1)]),
            digest(&[Write::Bytes(vec![1])]),
            digest(&[Write::Bytes(vec![1, 0])]),
            digest(&[Write::Bytes(b"ab".to_vec())]),
            digest(&[Write::Bytes(b"a".to_vec()), Write::Bytes(b"b".to_vec())]),
            digest(&[Write::Bytes(vec![]), Write::Bytes(b"ab".to_vec())]),
            digest(&[]),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn changing_one_write_changes_the_key(
            writes in proptest::collection::vec(write_strategy(), 1..48),
            at in any::<usize>(),
            bit in any::<u32>(),
        ) {
            let mut changed = writes.clone();
            let at = at % writes.len();
            changed[at] = writes[at].flipped(bit);
            prop_assert_ne!(&changed[at], &writes[at]);
            prop_assert_ne!(digest(&changed), digest(&writes));
        }
    }

    /// `fingerprint.bytes` counts what the MurmurHash3 stream the
    /// fingerprint used through format v6 counted, byte for byte.
    #[test]
    fn fingerprint_bytes_match_the_murmur3_stream() {
        let pinned = [4_035_067u64, 3_337_233, 5_312_143];
        for (m, pinned) in Microservice::all().into_iter().zip(pinned) {
            let program = m.program();
            let mut stream = murmur3::Hasher128::with_seed(FINGERPRINT_SEED);
            stream.write(b"program");
            stream.write_u8(0x1f);
            program.hash(&mut stream);
            let (_, bytes) = CacheKey::of_hash_sized("program", &program);
            assert_eq!(bytes, stream.len(), "{m:?}");
            assert_eq!(bytes, pinned, "{m:?}");
        }
    }

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
