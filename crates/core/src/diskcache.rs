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

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use nimage_compiler::CallCountProfile;
use nimage_heap::ObjId;
use nimage_ir::Value;
use nimage_order::{murmur3, CodeOrderProfile, HeapOrderProfile, HeapStrategy};
use nimage_profiler::{read_trace, write_trace, SessionStats, Trace};
use nimage_vm::{AccessLog, ExitKind, PageState, ResponsePoint, RunReport, SectionFaults, Touch};

use crate::cache::CacheKey;
use crate::ProfiledArtifacts;

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
        data.extend_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
        data.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        data.extend_from_slice(&murmur3::hash128(payload, CHECKSUM_SEED).0.to_le_bytes());
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

    /// Removes the whole cache root (every format version) at `dir`.
    ///
    /// # Errors
    /// Propagates filesystem errors other than "not found".
    pub fn clear(dir: &Path) -> io::Result<()> {
        match std::fs::remove_dir_all(dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
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
    if data.len() < HEADER_LEN || &data[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(data[4..8].try_into().ok()?);
    if version != DISK_FORMAT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(data[8..16].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(data[16..24].try_into().ok()?);
    let payload = &data[HEADER_LEN..];
    if payload.len() != len {
        return None;
    }
    if murmur3::hash128(payload, CHECKSUM_SEED).0 != checksum {
        return None;
    }
    Some(payload)
}

/// A bounds-checked little-endian cursor: every read returns `None` past
/// the end instead of panicking, so arbitrary on-disk bytes can never
/// crash a decode.
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

    /// Bytes left to read. Length-prefixed decoders must clamp their
    /// pre-allocations to this (see [`cap_alloc`]): a corrupt length
    /// prefix may claim billions of elements, but a genuine encoding can
    /// never hold more elements than there are bytes remaining.
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
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).ok().map(str::to_owned)
    }

    /// Reads a `u32` length-prefixed byte slice.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// Clamps a decoded element count `n` to what could possibly fit in the
/// reader's remaining bytes, given each element occupies at least
/// `elem_min` bytes. Used to size pre-allocations: decoding still reads
/// exactly `n` elements (and fails cleanly when the buffer runs out), but
/// a corrupt length prefix can no longer trigger a multi-GiB
/// `with_capacity` before the first element is even read.
pub(crate) fn cap_alloc(n: usize, r: &Reader<'_>, elem_min: usize) -> usize {
    n.min(r.remaining() / elem_min.max(1))
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// A value that can round-trip through a disk-cache entry payload. Decodes
/// are total functions over arbitrary bytes: they may return `None`, never
/// panic.
pub trait DiskCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value, or `None` if the bytes are not a valid encoding.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl DiskCodec for HashMap<ObjId, u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Sorted for a canonical (diffable) encoding; decode accepts any
        // order.
        let mut pairs: Vec<(&ObjId, &u64)> = self.iter().collect();
        pairs.sort_unstable_by_key(|(o, _)| o.0);
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (obj, id) in pairs {
            out.extend_from_slice(&obj.0.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        let mut map = HashMap::with_capacity(cap_alloc(n, r, 12));
        for _ in 0..n {
            let obj = ObjId(r.u32()?);
            let id = r.u64()?;
            map.insert(obj, id);
        }
        Some(map)
    }
}

impl DiskCodec for SectionFaults {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.text.to_le_bytes());
        out.extend_from_slice(&self.svm_heap.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(SectionFaults {
            text: r.u64()?,
            svm_heap: r.u64()?,
        })
    }
}

/// Writes a [`Value`]: a tag byte (null, bool, int, double, reference),
/// then its payload.
pub(crate) fn encode_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            out.push(3);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Ref(x) => {
            out.push(4);
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Reads a value [`encode_value`] wrote; a reference is not range-checked.
pub(crate) fn decode_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match r.u8()? {
        0 => Value::Null,
        1 => match r.u8()? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            _ => return None,
        },
        2 => Value::Int(r.i64()?),
        3 => Value::Double(r.f64()?),
        4 => Value::Ref(r.u32()?),
        _ => return None,
    })
}

pub(crate) fn encode_option<T>(out: &mut Vec<u8>, v: &Option<T>, f: impl FnOnce(&T, &mut Vec<u8>)) {
    match v {
        Some(v) => {
            out.push(1);
            f(v, out);
        }
        None => out.push(0),
    }
}

pub(crate) fn decode_option<T>(
    r: &mut Reader<'_>,
    f: impl FnOnce(&mut Reader<'_>) -> Option<T>,
) -> Option<Option<T>> {
    match r.u8()? {
        0 => Some(None),
        1 => f(r).map(Some),
        _ => None,
    }
}

fn encode_page_states(out: &mut Vec<u8>, states: &[PageState]) {
    out.extend_from_slice(&(states.len() as u32).to_le_bytes());
    for s in states {
        out.push(match s {
            PageState::Untouched => 0,
            PageState::Resident => 1,
            PageState::Faulted => 2,
        });
    }
}

fn decode_page_states(r: &mut Reader<'_>) -> Option<Vec<PageState>> {
    let n = r.u32()? as usize;
    let bytes = r.take(n)?;
    bytes
        .iter()
        .map(|b| match b {
            0 => Some(PageState::Untouched),
            1 => Some(PageState::Resident),
            2 => Some(PageState::Faulted),
            _ => None,
        })
        .collect()
}

fn encode_spans(out: &mut Vec<u8>, spans: &[(u64, u64)]) {
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    for (s, e) in spans {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&e.to_le_bytes());
    }
}

fn decode_spans(r: &mut Reader<'_>) -> Option<Vec<(u64, u64)>> {
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(cap_alloc(n, r, 16));
    for _ in 0..n {
        let s = r.u64()?;
        let e = r.u64()?;
        spans.push((s, e));
    }
    Some(spans)
}

impl DiskCodec for RunReport {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ops.to_le_bytes());
        out.extend_from_slice(&self.probe_ops.to_le_bytes());
        self.faults.encode(out);
        encode_option(out, &self.first_response, |rp, out| {
            out.extend_from_slice(&rp.ops.to_le_bytes());
            out.extend_from_slice(&rp.probe_ops.to_le_bytes());
            rp.faults.encode(out);
        });
        put_string(out, &self.call_counts.to_csv());
        encode_option(out, &self.trace, |t: &Trace, out| {
            put_bytes(out, &write_trace(t));
        });
        encode_option(out, &self.session_stats, |s, out| {
            for v in [
                s.cu_records,
                s.method_records,
                s.path_records,
                s.obj_ids,
                s.flushes,
                s.remaps,
                s.lost_records,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        });
        out.push(match self.exit {
            ExitKind::Exited => 0,
            ExitKind::FirstResponse => 1,
            ExitKind::OpsBudget => 2,
        });
        encode_option(out, &self.entry_return, |v, out| encode_value(out, *v));
        out.extend_from_slice(&(self.native_touch_pages.len() as u32).to_le_bytes());
        for p in &self.native_touch_pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        encode_page_states(out, &self.text_page_states);
        encode_page_states(out, &self.heap_page_states);
        out.extend_from_slice(&(self.heap_touch_spans.len() as u32).to_le_bytes());
        for (obj, spans) in &self.heap_touch_spans {
            out.extend_from_slice(&obj.to_le_bytes());
            encode_spans(out, spans);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let ops = r.u64()?;
        let probe_ops = r.u64()?;
        let faults = SectionFaults::decode(r)?;
        let first_response = decode_option(r, |r| {
            Some(ResponsePoint {
                ops: r.u64()?,
                probe_ops: r.u64()?,
                faults: SectionFaults::decode(r)?,
            })
        })?;
        let call_counts = CallCountProfile::from_csv(&r.string()?);
        let trace = decode_option(r, |r| read_trace(r.bytes()?).ok())?;
        let session_stats = decode_option(r, |r| {
            Some(SessionStats {
                cu_records: r.u64()?,
                method_records: r.u64()?,
                path_records: r.u64()?,
                obj_ids: r.u64()?,
                flushes: r.u64()?,
                remaps: r.u64()?,
                lost_records: r.u64()?,
            })
        })?;
        let exit = match r.u8()? {
            0 => ExitKind::Exited,
            1 => ExitKind::FirstResponse,
            2 => ExitKind::OpsBudget,
            _ => return None,
        };
        let entry_return = decode_option(r, decode_value)?;
        let n = r.u32()? as usize;
        let mut native_touch_pages = Vec::with_capacity(cap_alloc(n, r, 4));
        for _ in 0..n {
            native_touch_pages.push(r.u32()?);
        }
        let text_page_states = decode_page_states(r)?;
        let heap_page_states = decode_page_states(r)?;
        let n = r.u32()? as usize;
        let mut heap_touch_spans = Vec::with_capacity(cap_alloc(n, r, 8));
        for _ in 0..n {
            let obj = r.u32()?;
            heap_touch_spans.push((obj, decode_spans(r)?));
        }
        Some(RunReport {
            heap_touch_spans,
            ops,
            probe_ops,
            faults,
            first_response,
            call_counts,
            trace,
            session_stats,
            exit,
            entry_return,
            native_touch_pages,
            text_page_states,
            heap_page_states,
        })
    }
}

impl DiskCodec for AccessLog {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.touches().len() as u32).to_le_bytes());
        for t in self.touches() {
            match *t {
                Touch::Code { cu, node } => {
                    out.push(0);
                    out.extend_from_slice(&cu.to_le_bytes());
                    out.extend_from_slice(&node.to_le_bytes());
                }
                Touch::Object { obj, offset } => {
                    out.push(1);
                    out.extend_from_slice(&obj.to_le_bytes());
                    out.extend_from_slice(&offset.to_le_bytes());
                }
                Touch::Native { page } => {
                    out.push(2);
                    out.extend_from_slice(&page.to_le_bytes());
                }
            }
        }
        encode_option(out, &self.respond_at(), |at, out| {
            out.extend_from_slice(&(*at as u64).to_le_bytes());
        });
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        let mut touches = Vec::with_capacity(cap_alloc(n, r, 5));
        for _ in 0..n {
            touches.push(match r.u8()? {
                0 => Touch::Code {
                    cu: r.u32()?,
                    node: r.u32()?,
                },
                1 => Touch::Object {
                    obj: r.u32()?,
                    offset: r.u64()?,
                },
                2 => Touch::Native { page: r.u32()? },
                _ => return None,
            });
        }
        let respond_at = decode_option(r, |r| usize::try_from(r.u64()?).ok())?;
        AccessLog::from_parts(touches, respond_at)
    }
}

/// The `baseline-run` entry: one execution's report and its access log.
impl DiskCodec for (RunReport, AccessLog) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((RunReport::decode(r)?, AccessLog::decode(r)?))
    }
}

fn heap_strategy_tag(hs: HeapStrategy) -> (u8, u32) {
    match hs {
        HeapStrategy::IncrementalId => (0, 0),
        HeapStrategy::StructuralHash { max_depth } => (1, max_depth),
        HeapStrategy::HeapPath => (2, 0),
        HeapStrategy::HeapPathSalted => (3, 0),
    }
}

fn heap_strategy_from_tag(tag: u8, arg: u32) -> Option<HeapStrategy> {
    match tag {
        0 => Some(HeapStrategy::IncrementalId),
        1 => Some(HeapStrategy::StructuralHash { max_depth: arg }),
        2 => Some(HeapStrategy::HeapPath),
        3 => Some(HeapStrategy::HeapPathSalted),
        _ => None,
    }
}

fn encode_sigs(out: &mut Vec<u8>, profile: &CodeOrderProfile) {
    out.extend_from_slice(&(profile.sigs.len() as u32).to_le_bytes());
    for s in &profile.sigs {
        put_string(out, s);
    }
}

fn decode_sigs(r: &mut Reader<'_>) -> Option<CodeOrderProfile> {
    let n = r.u32()? as usize;
    let mut sigs = Vec::with_capacity(cap_alloc(n, r, 4));
    for _ in 0..n {
        sigs.push(r.string()?);
    }
    Some(CodeOrderProfile { sigs })
}

impl DiskCodec for ProfiledArtifacts {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.call_counts.to_csv());
        encode_sigs(out, &self.cu_profile);
        encode_sigs(out, &self.method_profile);
        let mut profiles: Vec<(&HeapStrategy, &HeapOrderProfile)> =
            self.heap_profiles.iter().collect();
        profiles.sort_unstable_by_key(|(hs, _)| heap_strategy_tag(**hs));
        out.extend_from_slice(&(profiles.len() as u32).to_le_bytes());
        for (hs, profile) in profiles {
            let (tag, arg) = heap_strategy_tag(*hs);
            out.push(tag);
            out.extend_from_slice(&arg.to_le_bytes());
            out.extend_from_slice(&(profile.ids.len() as u32).to_le_bytes());
            for id in &profile.ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
            out.extend_from_slice(&(profile.spans.len() as u32).to_le_bytes());
            for spans in &profile.spans {
                encode_spans(out, spans);
            }
        }
        out.extend_from_slice(&(self.native_pages.len() as u32).to_le_bytes());
        for p in &self.native_pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        self.instrumented_report.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let call_counts = CallCountProfile::from_csv(&r.string()?);
        let cu_profile = decode_sigs(r)?;
        let method_profile = decode_sigs(r)?;
        let n_profiles = r.u32()? as usize;
        let mut heap_profiles = HashMap::with_capacity(cap_alloc(n_profiles, r, 9));
        for _ in 0..n_profiles {
            let tag = r.u8()?;
            let arg = r.u32()?;
            let hs = heap_strategy_from_tag(tag, arg)?;
            let n_ids = r.u32()? as usize;
            let mut ids = Vec::with_capacity(cap_alloc(n_ids, r, 8));
            for _ in 0..n_ids {
                ids.push(r.u64()?);
            }
            let n_spans = r.u32()? as usize;
            let mut spans = Vec::with_capacity(cap_alloc(n_spans, r, 4));
            for _ in 0..n_spans {
                spans.push(decode_spans(r)?);
            }
            heap_profiles.insert(hs, HeapOrderProfile { ids, spans });
        }
        let n = r.u32()? as usize;
        let mut native_pages = Vec::with_capacity(cap_alloc(n, r, 4));
        for _ in 0..n {
            native_pages.push(r.u32()?);
        }
        let instrumented_report = RunReport::decode(r)?;
        Some(ProfiledArtifacts {
            call_counts,
            cu_profile,
            method_profile,
            heap_profiles,
            native_pages,
            instrumented_report,
        })
    }
}
