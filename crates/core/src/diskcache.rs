//! Disk-persistent tier of the artifact cache.
//!
//! The in-memory [`crate::ArtifactCache`] shares artifacts within one
//! process; this module persists the expensive, serializable stages across
//! processes so a second `nimage bench` (or CI run) starts warm. Layout:
//!
//! ```text
//! <root>/v<FORMAT>/<stage>/<key-hex>.bin
//! ```
//!
//! where `<root>` defaults to `$XDG_CACHE_HOME/nimage` (falling back to
//! `$HOME/.cache/nimage`) and `<FORMAT>` is [`DISK_FORMAT_VERSION`] —
//! bumping the version orphans every old entry without any migration
//! logic, because lookups only ever touch the current version directory.
//!
//! Every entry is self-validating: a fixed header (magic, format version,
//! payload length, MurmurHash3 checksum of the payload) followed by the
//! payload. Loads treat *any* malformed entry — truncated file, wrong
//! magic or version, checksum mismatch, payload that does not decode — as
//! a cache miss, never an error: a corrupt cache can cost recomputation
//! but can never take down a build or poison its output.
//!
//! Writes are atomic: the payload goes to a unique temporary file in the
//! destination directory first and is then `rename`d into place, so
//! concurrent writers race benignly (one complete entry wins; readers
//! never observe a partial file) and a crash mid-write leaves at most a
//! stray `.tmp` file, never a truncated entry.
//!
//! `nimage cache clear` ([`DiskStore::clear`]) removes the `v<N>`
//! directories of every format version and nothing else under the root.
//!
//! This module holds the store and the format's primitives: [`Reader`],
//! the [`DiskCodec`] trait and the `put_*` writers, among them the one
//! length-prefixed sequence pair ([`put_seq`], [`Reader::seq_with`]).
//! What each stage's payload holds — every `DiskCodec` implementation —
//! is stated in `persist.rs`.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use nimage_order::murmur3;

use crate::cache::CacheKey;

/// Version of the on-disk entry format. Bump whenever the header layout,
/// any codec, the semantics of a persisted stage or the derivation of the
/// keys change (v4: the structural program fingerprint; v5: the
/// `baseline-run` entry carries the run's access log, and the per-CU
/// `lower` stage is gone; v6: every strategy's plan lives under the
/// `order` stage, which replaces `optimize`; v7: the program fingerprint
/// is absorbed a word per write instead of streamed through MurmurHash3,
/// so every key moved); old entries are invisible to
/// the new version (they live under the old `v<N>` directory) and get
/// removed by `nimage cache clear`.
pub const DISK_FORMAT_VERSION: u32 = 7;

const MAGIC: &[u8; 4] = b"NIMC";
const HEADER_LEN: usize = 4 + 4 + 8 + 8;
const CHECKSUM_SEED: u64 = 0x6469_736b; // "disk"

/// Where (and whether) the disk tier lives, and how large it may grow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskCacheOptions {
    /// Cache root directory (version directories are created beneath it).
    pub dir: PathBuf,
    /// Evict least-recently-accessed entries until the version directory
    /// holds at most this many payload bytes. `None` means unbounded.
    pub max_bytes: Option<u64>,
    /// Evict least-recently-accessed entries until at most this many
    /// entries remain. `None` means unbounded.
    pub max_entries: Option<u64>,
}

impl DiskCacheOptions {
    /// An unbounded disk cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> DiskCacheOptions {
        DiskCacheOptions {
            dir: dir.into(),
            max_bytes: None,
            max_entries: None,
        }
    }

    /// Caps the cache at `max_entries` entries (LRU eviction).
    pub fn with_max_entries(mut self, max_entries: u64) -> DiskCacheOptions {
        self.max_entries = Some(max_entries);
        self
    }

    /// Whether either size cap is configured.
    pub fn capped(&self) -> bool {
        self.max_bytes.is_some() || self.max_entries.is_some()
    }

    /// The conventional per-user cache root: `$XDG_CACHE_HOME/nimage`,
    /// falling back to `$HOME/.cache/nimage`. A *relative*
    /// `$XDG_CACHE_HOME` is ignored per the XDG base-directory spec
    /// ("All paths … must be absolute … act as if [the variable] were
    /// unset"). `None` when no usable variable is set (no disk tier
    /// rather than guessing).
    pub fn default_dir() -> Option<PathBuf> {
        if let Some(xdg) = std::env::var_os("XDG_CACHE_HOME") {
            if !xdg.is_empty() && Path::new(&xdg).is_absolute() {
                return Some(PathBuf::from(xdg).join("nimage"));
            }
        }
        std::env::var_os("HOME")
            .filter(|h| !h.is_empty())
            .map(|h| PathBuf::from(h).join(".cache").join("nimage"))
    }
}

/// Counters of one [`DiskStore`], snapshot by [`DiskStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Loads answered from disk.
    pub hits: u64,
    /// Loads that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries found on disk but rejected (corrupt header, checksum
    /// mismatch, undecodable payload). Each rejection is also a miss.
    pub rejected: u64,
}

impl fmt::Display for DiskCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} stores, {} rejected",
            self.hits, self.misses, self.stores, self.rejected
        )
    }
}

/// What is on disk for one store's format version, with interrupted-write
/// leftovers accounted separately from real entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// Complete cache entries (`*.bin` files).
    pub entries: u64,
    /// Bytes held by complete entries.
    pub bytes: u64,
    /// Leftover `.tmp.*` files from interrupted atomic writes. These are
    /// not entries — they never validate — and are swept by [`DiskStore::gc`].
    pub tmp_files: u64,
    /// Bytes held by leftover temporary files.
    pub tmp_bytes: u64,
}

/// The outcome of one [`DiskStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries evicted (oldest-accessed first) to get under the caps.
    pub evicted_entries: u64,
    /// Bytes reclaimed from evicted entries.
    pub evicted_bytes: u64,
    /// Stale temporary files deleted.
    pub removed_tmp: u64,
    /// Entries surviving the sweep.
    pub surviving_entries: u64,
    /// Bytes surviving the sweep.
    pub surviving_bytes: u64,
}

/// A temporary file older than this is considered orphaned by a crashed
/// or interrupted writer and is deleted by [`DiskStore::gc`]; younger
/// temps may belong to an in-flight atomic write and are left alone.
const STALE_TMP_AGE: Duration = Duration::from_secs(15 * 60);

/// The disk-persistent store: version-scoped, checksummed, atomic.
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    rejected: AtomicU64,
    tmp_counter: AtomicU64,
    by_stage: Mutex<BTreeMap<String, DiskCacheStats>>,
}

/// How one lookup resolved, for counter classification.
enum Lookup {
    Hit,
    Miss,
    Rejected,
    Store,
}

impl fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DiskStore({}: {})", self.root.display(), self.stats())
    }
}

impl DiskStore {
    /// Opens (lazily — directories are created on first write) the store
    /// for the current [`DISK_FORMAT_VERSION`] under `opts.dir`.
    pub fn open(opts: &DiskCacheOptions) -> DiskStore {
        DiskStore {
            root: opts.dir.join(format!("v{DISK_FORMAT_VERSION}")),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            by_stage: Mutex::new(BTreeMap::new()),
        }
    }

    /// The version-scoped directory entries live under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, stage: &str, key: CacheKey) -> PathBuf {
        self.root
            .join(stage)
            .join(format!("{:016x}{:016x}.bin", key.0, key.1))
    }

    /// Records one lookup outcome in both the aggregate counters and the
    /// per-stage breakdown. A rejection is also a miss.
    fn record(&self, stage: &str, outcome: Lookup) {
        let mut stages = self.by_stage.lock().unwrap_or_else(|e| e.into_inner());
        // Every lookup passes through here under the lock: allocate the
        // stage name only for a stage's first row.
        let s = match stages.get_mut(stage) {
            Some(s) => s,
            None => stages.entry(stage.to_string()).or_default(),
        };
        match outcome {
            Lookup::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                s.hits += 1;
            }
            Lookup::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                s.misses += 1;
            }
            Lookup::Rejected => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                s.rejected += 1;
                s.misses += 1;
            }
            Lookup::Store => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                s.stores += 1;
            }
        }
    }

    /// Marks `path` as just-accessed by bumping its mtime — the access
    /// clock the LRU sweep of [`DiskStore::gc`] orders evictions by.
    /// Best-effort: a read-only cache still serves hits, it just cannot
    /// refresh recency.
    fn touch(&self, path: &Path) {
        if let Ok(f) = std::fs::File::options().append(true).open(path) {
            let _ = f.set_times(std::fs::FileTimes::new().set_modified(SystemTime::now()));
        }
    }

    /// Reads the entry file of `(stage, key)`, validates it and hands the
    /// payload — borrowed from the file buffer, never copied — to
    /// `decode`. No file is a miss; a file that does not validate, or a
    /// payload `decode` refuses, is rejected. A hit refreshes the entry's
    /// access time.
    fn lookup<T>(
        &self,
        stage: &str,
        key: CacheKey,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let path = self.entry_path(stage, key);
        let Ok(data) = std::fs::read(&path) else {
            self.record(stage, Lookup::Miss);
            return None;
        };
        let value = validate_entry(&data).and_then(decode);
        if value.is_some() {
            self.record(stage, Lookup::Hit);
            self.touch(&path);
        } else {
            self.record(stage, Lookup::Rejected);
        }
        value
    }

    /// Loads and validates the raw payload for `(stage, key)`. Anything
    /// short of a fully valid entry is a miss. A hit refreshes the
    /// entry's access time.
    pub fn load(&self, stage: &str, key: CacheKey) -> Option<Vec<u8>> {
        self.lookup(stage, key, |payload| Some(payload.to_vec()))
    }

    /// Persists `payload` for `(stage, key)` via a unique temporary file
    /// and an atomic rename. Best-effort: I/O failures (read-only cache
    /// dir, disk full) are swallowed — the build result is already in
    /// memory and must not depend on the cache being writable.
    pub fn store(&self, stage: &str, key: CacheKey, payload: &[u8]) {
        let path = self.entry_path(stage, key);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".tmp.{}.{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let mut data = Vec::with_capacity(HEADER_LEN + payload.len());
        data.extend_from_slice(MAGIC);
        put_u32(&mut data, DISK_FORMAT_VERSION);
        put_u64(&mut data, payload.len() as u64);
        put_u64(&mut data, murmur3::hash128(payload, CHECKSUM_SEED).0);
        data.extend_from_slice(payload);
        if std::fs::write(&tmp, &data).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        if std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.record(stage, Lookup::Store);
    }

    /// Typed load: a valid entry whose payload decodes as `T`. An entry
    /// that decodes partially (or with trailing garbage) is rejected. A
    /// hit refreshes the entry's access time.
    pub fn get<T: DiskCodec>(&self, stage: &str, key: CacheKey) -> Option<T> {
        self.get_checked(stage, key, |_| true)
    }

    /// [`DiskStore::get`] for values that must also pass `check` — a
    /// consistency test against state the payload cannot carry (e.g. the
    /// build a log indexes into). A value that fails it is rejected like
    /// an undecodable payload.
    pub fn get_checked<T: DiskCodec>(
        &self,
        stage: &str,
        key: CacheKey,
        check: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        self.lookup(stage, key, |payload| {
            let mut r = Reader::new(payload);
            T::decode(&mut r).filter(|v| r.is_empty() && check(v))
        })
    }

    /// Typed store.
    pub fn put<T: DiskCodec>(&self, stage: &str, key: CacheKey, value: &T) {
        let mut payload = Vec::with_capacity(256);
        value.encode(&mut payload);
        self.store(stage, key, &payload);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Per-stage counter snapshot, keyed by stage name.
    pub fn stage_stats(&self) -> BTreeMap<String, DiskCacheStats> {
        self.by_stage
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// What is on disk for this format version. Leftover temporary files
    /// from interrupted atomic writes are *not* entries — they are tallied
    /// separately so `cache stats` never inflates the entry count with
    /// files that can never validate.
    pub fn usage(&self) -> DiskUsage {
        fn walk(dir: &Path, u: &mut DiskUsage) {
            let Ok(rd) = std::fs::read_dir(dir) else {
                return;
            };
            for e in rd.flatten() {
                let path = e.path();
                if path.is_dir() {
                    walk(&path, u);
                } else if is_tmp_file(&path) {
                    u.tmp_files += 1;
                    u.tmp_bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
                } else if path.extension().is_some_and(|x| x == "bin") {
                    u.entries += 1;
                    u.bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        let mut u = DiskUsage::default();
        walk(&self.root, &mut u);
        u
    }

    /// `(entries, bytes)` currently on disk for this version, excluding
    /// temporary files.
    pub fn size_on_disk(&self) -> (u64, u64) {
        let u = self.usage();
        (u.entries, u.bytes)
    }

    /// Sweeps the store: deletes temporary files older than
    /// [`STALE_TMP_AGE`] (younger ones may belong to an in-flight write
    /// and are exempt), then — if a cap is given — evicts complete
    /// entries least-recently-accessed first until the store is under
    /// both `max_bytes` and `max_entries`.
    ///
    /// Recency is the entry's mtime, which [`DiskStore::load`]/[`DiskStore::get`]
    /// bump on every hit; ties break on path so the sweep is
    /// deterministic. Removal failures are skipped, not errors: gc is
    /// best-effort like every other disk-tier operation.
    pub fn gc(&self, max_bytes: Option<u64>, max_entries: Option<u64>) -> GcReport {
        fn collect(
            dir: &Path,
            now: SystemTime,
            entries: &mut Vec<(SystemTime, PathBuf, u64)>,
            removed_tmp: &mut u64,
        ) {
            let Ok(rd) = std::fs::read_dir(dir) else {
                return;
            };
            for e in rd.flatten() {
                let path = e.path();
                let Ok(meta) = e.metadata() else { continue };
                if path.is_dir() {
                    collect(&path, now, entries, removed_tmp);
                } else if is_tmp_file(&path) {
                    let age = meta
                        .modified()
                        .ok()
                        .and_then(|m| now.duration_since(m).ok())
                        .unwrap_or_default();
                    if age > STALE_TMP_AGE && std::fs::remove_file(&path).is_ok() {
                        *removed_tmp += 1;
                    }
                } else if path.extension().is_some_and(|x| x == "bin") {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    entries.push((mtime, path, meta.len()));
                }
            }
        }
        let mut report = GcReport::default();
        let mut entries = Vec::new();
        collect(
            &self.root,
            SystemTime::now(),
            &mut entries,
            &mut report.removed_tmp,
        );
        entries.sort_unstable_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let mut live_entries = entries.len() as u64;
        let mut live_bytes: u64 = entries.iter().map(|(_, _, len)| len).sum();
        for (_, path, len) in &entries {
            let over_bytes = max_bytes.is_some_and(|cap| live_bytes > cap);
            let over_entries = max_entries.is_some_and(|cap| live_entries > cap);
            if !over_bytes && !over_entries {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                report.evicted_entries += 1;
                report.evicted_bytes += len;
                live_entries -= 1;
                live_bytes -= len;
            }
        }
        report.surviving_entries = live_entries;
        report.surviving_bytes = live_bytes;
        report
    }

    /// Removes every format-version directory (`v<digits>`, the current
    /// one and orphaned ones) under the cache root `dir`, then `dir`
    /// itself if that left it empty. Anything else in `dir` was not
    /// written by the store and is left alone.
    ///
    /// # Errors
    /// Propagates filesystem errors; a missing `dir` is not one.
    pub fn clear(dir: &Path) -> io::Result<()> {
        let rd = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            rd => rd?,
        };
        for e in rd {
            let e = e?;
            let name = e.file_name();
            let is_version = name
                .to_str()
                .and_then(|n| n.strip_prefix('v'))
                .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
            if is_version && e.file_type()?.is_dir() {
                std::fs::remove_dir_all(e.path())?;
            }
        }
        match std::fs::remove_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::DirectoryNotEmpty => Ok(()),
            r => r,
        }
    }
}

/// Whether `path` is one of our atomic-write temporaries
/// (`.tmp.<pid>.<n>`).
fn is_tmp_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with(".tmp."))
}

/// Checks magic, version, length and checksum; returns the payload slice
/// of a valid entry.
fn validate_entry(data: &[u8]) -> Option<&[u8]> {
    let mut r = Reader::new(data);
    if r.take(4)? != MAGIC || r.u32()? != DISK_FORMAT_VERSION {
        return None;
    }
    let (len, checksum) = (r.u64()?, r.u64()?);
    let payload = r.take(r.remaining())?;
    let valid =
        payload.len() as u64 == len && murmur3::hash128(payload, CHECKSUM_SEED).0 == checksum;
    valid.then_some(payload)
}

/// A bounds-checked little-endian cursor: every read returns `None` past
/// the end instead of panicking, so arbitrary on-disk bytes can never
/// crash a decode. A clone reads ahead without moving the original.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a `bool` written as one byte, `0` or `1`.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32` length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Option<String> {
        let bytes = self.bytes()?;
        std::str::from_utf8(bytes).ok().map(str::to_owned)
    }

    /// Reads a `u32` length-prefixed byte slice.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads what [`put_option`] wrote: a `0` tag for `None`, or a `1` tag
    /// and the value `some` decodes.
    #[inline]
    pub fn option<T>(&mut self, some: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            1 => some(self).map(Some),
            _ => None,
        }
    }

    /// Reads what [`put_seq`] wrote: a `u32` count, then that many
    /// elements, each handed to `push` with the collection that `new`
    /// made. `new` gets the capacity to reserve: the count, clamped to
    /// the elements that fit in the bytes left when each takes at least
    /// `min_len`, so a damaged count cannot reserve more than the input
    /// could hold. Fails at the first element `push` refuses.
    #[inline]
    pub fn seq_with<C>(
        &mut self,
        min_len: usize,
        new: impl FnOnce(usize) -> C,
        mut push: impl FnMut(&mut C, &mut Self) -> Option<()>,
    ) -> Option<C> {
        let n = self.u32()? as usize;
        let mut items = new(cap_alloc(n, self, min_len));
        for _ in 0..n {
            push(&mut items, self)?;
        }
        Some(items)
    }

    /// [`Reader::seq_with`] into a `Vec`, one element per call of `elem`.
    #[inline]
    pub fn seq<T>(
        &mut self,
        min_len: usize,
        mut elem: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.seq_with(min_len, Vec::with_capacity, |items, r| {
            items.push(elem(r)?);
            Some(())
        })
    }
}

/// Clamps a decoded element count `n` to what could fit in the reader's
/// remaining bytes, given each element occupies at least `min_len`
/// bytes: a corrupt count may claim billions of elements, but a genuine
/// encoding never holds more elements than there are bytes left.
fn cap_alloc(n: usize, r: &Reader<'_>, min_len: usize) -> usize {
    n.min(r.remaining() / min_len.max(1))
}

/// Writes a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Writes a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u32` length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Writes a `u32` length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Writes an optional value: a `0` tag, or a `1` tag and what `some`
/// writes. [`Reader::option`] reads it back.
pub fn put_option<T>(out: &mut Vec<u8>, v: &Option<T>, some: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            some(out, v);
        }
        None => put_u8(out, 0),
    }
}

/// Writes a sequence: a `u32` count, then each item as `put` writes it.
/// [`Reader::seq`] and [`Reader::seq_with`] read it back.
pub fn put_seq<I>(out: &mut Vec<u8>, items: I, mut put: impl FnMut(&mut Vec<u8>, I::Item))
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// A value that can round-trip through a disk-cache entry payload. Decodes
/// are total functions over arbitrary bytes: they may return `None`, never
/// panic. Every implementation lives in `persist.rs`.
pub trait DiskCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value, or `None` if the bytes are not a valid encoding.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}
