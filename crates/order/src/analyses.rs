//! The post-processing of Sec. 6.2: decode the trace, keep first
//! occurrences, emit CSV ordering profiles.
//!
//! The paper describes a visitor framework that feeds a decoded event
//! stream to one analysis per ordering. Every ordering analysis is the
//! same reduction — keep the first occurrence — so here it is one pass:
//! [`replay_first_access`] scans the records (Ball–Larus path records
//! included) into a strategy-independent [`ReplaySummary`], from which the
//! [`CodeOrderProfile`]s are read off and each strategy's
//! [`HeapOrderProfile`] is derived by mapping object identities. The CSV
//! interchange format between the profiling and the optimizing build is
//! owned by the two profile types (`to_csv` / `from_csv`).
//!
//! The scan is serial and costs one table lookup per record: a path
//! record's validation needs only the heap-access count of its
//! `(method, start, path id)` key, a pure function of the key, so each
//! distinct key is Ball–Larus-decoded once and memoised. Hot loops repeat
//! the same few paths (the 14 small-scale AWFY traces hold ≈ 166 records
//! per distinct key), so replay cost scales with distinct paths, not
//! records.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use nimage_compiler::{MiniBlockId, PathNumbering, ProfilingCfg, StaticEvent};
use nimage_heap::ObjId;
use nimage_ir::{MethodId, Program};
use nimage_profiler::{Trace, TraceRecord};

/// A code-ordering profile: method/CU-root signatures in first-execution
/// order (the CSV consumed by the optimizing build).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeOrderProfile {
    /// Signatures in first-execution order.
    pub sigs: Vec<String>,
}

impl CodeOrderProfile {
    /// Parses the one-signature-per-line CSV.
    ///
    /// ```
    /// use nimage_order::CodeOrderProfile;
    ///
    /// let p = CodeOrderProfile::from_csv("a.B.c(0)\nd.E.f(2)\n");
    /// assert_eq!(p.sigs, vec!["a.B.c(0)", "d.E.f(2)"]);
    /// ```
    pub fn from_csv(text: &str) -> Self {
        CodeOrderProfile {
            sigs: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect(),
        }
    }

    /// Serializes the profile as the CSV [`Self::from_csv`] parses: one
    /// signature per line.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for sig in &self.sigs {
            s.push_str(sig);
            s.push('\n');
        }
        s
    }
}

/// The measured touched-byte spans of one object: `[start, end)` byte
/// ranges relative to the object's start, sorted and non-overlapping.
/// Empty means unmeasured — consumers fall back to the full-extent touch
/// model.
pub type ObjectSpans = Vec<(u64, u64)>;

/// A heap-ordering profile: 64-bit object identities in first-access order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapOrderProfile {
    /// Identities in first-access order.
    pub ids: Vec<u64>,
    /// Measured [`ObjectSpans`] parallel to `ids` (`spans[i]` belongs to
    /// `ids[i]`). An empty inner list — or an empty outer list on
    /// profiles that predate span measurement — means the entry is
    /// unmeasured.
    pub spans: Vec<ObjectSpans>,
}

impl HeapOrderProfile {
    /// Parses the one-id-per-line CSV. Each line carries the 16-hex-digit
    /// identity, optionally followed by comma-separated `start:end`
    /// touched-byte spans measured on the profiling run.
    ///
    /// ```
    /// use nimage_order::HeapOrderProfile;
    ///
    /// let p = HeapOrderProfile::from_csv("00000000000000ff,16:24\n0000000000000010\n");
    /// assert_eq!(p.ids, vec![0xff, 0x10]);
    /// assert_eq!(p.spans, vec![vec![(16, 24)], vec![]]);
    /// ```
    pub fn from_csv(text: &str) -> Self {
        let mut ids = vec![];
        let mut spans = vec![];
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let mut fields = line.split(',');
            let Some(id) = fields.next().and_then(|f| u64::from_str_radix(f, 16).ok()) else {
                continue;
            };
            ids.push(id);
            spans.push(
                fields
                    .filter_map(|f| {
                        let (a, b) = f.split_once(':')?;
                        Some((a.parse().ok()?, b.parse().ok()?))
                    })
                    .collect(),
            );
        }
        HeapOrderProfile { ids, spans }
    }

    /// Serializes the profile as the CSV [`Self::from_csv`] parses. The
    /// measured touched-byte spans ride on the identity's line, so a saved
    /// profile keeps the measured touch model across processes.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for (i, id) in self.ids.iter().enumerate() {
            s.push_str(&format!("{id:016x}"));
            if let Some(spans) = self.spans.get(i) {
                for (a, b) in spans {
                    s.push_str(&format!(",{a}:{b}"));
                }
            }
            s.push('\n');
        }
        s
    }
}

/// Errors raised while replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A trace record named a signature not present in the program.
    UnknownSignature(String),
    /// A path record's object-id count disagreed with the number of
    /// heap-access sites on the decoded path.
    IdCountMismatch {
        /// Signature of the method.
        method: String,
        /// Ids stored in the record.
        stored: usize,
        /// Heap-access sites on the decoded path.
        expected: usize,
    },
    /// A record field named something that does not exist: a string index
    /// past the trace's string table, a start mini-block past the method's
    /// profiling CFG, or a path id past the start's path count.
    OutOfRange {
        /// The field: `"string index"`, `"start"` or `"path id"`.
        field: &'static str,
        /// Its value in the record.
        value: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::UnknownSignature(s) => write!(f, "unknown signature {s}"),
            ReplayError::IdCountMismatch {
                method,
                stored,
                expected,
            } => write!(
                f,
                "path record in {method} stores {stored} ids but path has {expected} sites"
            ),
            ReplayError::OutOfRange { field, value } => {
                write!(f, "trace record {field} {value} is out of range")
            }
        }
    }
}

impl Error for ReplayError {}

/// Checks a record's string-table index.
fn string_index(trace: &Trace, idx: u32) -> Result<usize, ReplayError> {
    let i = idx as usize;
    if i < trace.strings.len() {
        Ok(i)
    } else {
        Err(ReplayError::OutOfRange {
            field: "string index",
            value: idx.into(),
        })
    }
}

/// A fixed-size bitset over a dense index space (string indexes, object
/// indexes): first-occurrence tests without hashing.
struct BitSet(Vec<u64>);

impl BitSet {
    fn new(len: usize) -> BitSet {
        BitSet(vec![0; len.div_ceil(64)])
    }

    /// Sets bit `i` (which must be below the set's length) and returns
    /// whether it was clear.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1u64 << (i % 64));
        let was_clear = *word & bit == 0;
        *word |= bit;
        was_clear
    }

    /// Clears bit `i` and returns whether it was set; an index past the
    /// set's length was never set.
    fn remove(&mut self, i: usize) -> bool {
        match self.0.get_mut(i / 64) {
            Some(word) if *word & (1u64 << (i % 64)) != 0 => {
                *word &= !(1u64 << (i % 64));
                true
            }
            _ => false,
        }
    }
}

/// A multiply–xor hasher for the validation memo's integer keys. The memo
/// probe is all the validation a repeated path record pays, and SipHash's
/// per-key work would dominate it. Giving up SipHash's resistance to
/// crafted collisions is safe here: a key enters the memo only after it
/// validated against the program, so a trace read from a damaged cache
/// can fill it with no more than the program's own path keys.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; the table indexes by the low bits.
        self.0.rotate_left(26)
    }
}

/// Validates [`TraceRecord::Path`] records against the program. The
/// heap-access count of a `(string index, start, path id)` key is a pure
/// function of the key, so each distinct key is decoded once; every later
/// record with that key costs one memo probe.
struct PathValidator<'a> {
    program: &'a Program,
    max_paths: u64,
    /// The method each trace string names, by string index (`None` for a
    /// string that is no method signature).
    methods: Vec<Option<MethodId>>,
    /// Each decoded method's path-numbering tables, built on first use.
    tables: HashMap<MethodId, (ProfilingCfg, PathNumbering)>,
    /// `(string index, start, path id)` → heap-access sites on the path.
    expected: HashMap<(u32, u32, u64), usize, BuildHasherDefault<KeyHasher>>,
}

impl<'a> PathValidator<'a> {
    fn new(program: &'a Program, trace: &Trace, max_paths: u64) -> Self {
        let by_sig: HashMap<String, MethodId> = (0..program.methods().len())
            .map(|i| {
                let mid = MethodId::from(i);
                (program.method_signature(mid), mid)
            })
            .collect();
        PathValidator {
            program,
            max_paths,
            methods: trace
                .strings
                .iter()
                .map(|s| by_sig.get(s).copied())
                .collect(),
            tables: HashMap::new(),
            expected: HashMap::default(),
        }
    }

    /// The number of object ids a record with this key must store.
    fn expected_ids(
        &mut self,
        trace: &Trace,
        method: u32,
        start: u32,
        path_id: u64,
    ) -> Result<usize, ReplayError> {
        let key = (method, start, path_id);
        if let Some(&n) = self.expected.get(&key) {
            return Ok(n);
        }
        let n = self.decode(trace, method, start, path_id)?;
        self.expected.insert(key, n);
        Ok(n)
    }

    /// Resolves and range-checks a key, then counts the heap-access sites
    /// on its decoded path.
    fn decode(
        &mut self,
        trace: &Trace,
        method: u32,
        start: u32,
        path_id: u64,
    ) -> Result<usize, ReplayError> {
        let sig = string_index(trace, method)?;
        let mid = self.methods[sig]
            .ok_or_else(|| ReplayError::UnknownSignature(trace.strings[sig].clone()))?;
        let (cfg, num) = self.tables.entry(mid).or_insert_with(|| {
            let cfg = ProfilingCfg::build(self.program.method(mid));
            let num = PathNumbering::compute(&cfg, self.max_paths);
            (cfg, num)
        });
        if start as usize >= cfg.minis().len() {
            return Err(ReplayError::OutOfRange {
                field: "start",
                value: start.into(),
            });
        }
        let start = MiniBlockId(start);
        if path_id >= num.num_paths_from(start).max(1) {
            return Err(ReplayError::OutOfRange {
                field: "path id",
                value: path_id,
            });
        }
        Ok(num
            .decode(cfg, start, path_id)
            .iter()
            .map(|&m| {
                cfg.mini(m)
                    .events
                    .iter()
                    .filter(|e| matches!(e, StaticEvent::HeapAccess { .. }))
                    .count()
            })
            .sum())
    }
}

/// The strategy-independent first-occurrence summary of one trace:
/// CU-entry and method-entry signatures in first-execution order, and
/// snapshot objects (raw build-local identities) in first-access order.
///
/// Per-strategy heap profiles derive from `object_order` by mapping each
/// object through the strategy's identity map and deduplicating: the
/// first access of a strategy identity is the first access of some raw
/// object mapping to it, and that access is the raw object's own first
/// occurrence, so mapping the raw first-occurrence list preserves every
/// identity's first-access position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// CU-root signatures in first-execution order.
    pub cu_order: Vec<String>,
    /// Method signatures in first-execution order.
    pub method_order: Vec<String>,
    /// Snapshot objects in first-access order.
    pub object_order: Vec<ObjId>,
}

impl ReplaySummary {
    /// Maps `object_order` through a strategy identity map into the
    /// strategy's first-access heap profile.
    pub fn heap_profile(&self, id_map: &HashMap<ObjId, u64>) -> HeapOrderProfile {
        self.heap_profile_with_spans(id_map, &HashMap::new())
    }

    /// Like [`Self::heap_profile`], but attaches measured touched-byte
    /// spans to each identity's first-access entry. `touch_spans` is keyed
    /// by raw snapshot object index (the `RunReport::heap_touch_spans`
    /// convention); an identity kept from object `o` carries `o`'s spans.
    /// Identities without a measurement get an empty span list, so the
    /// profile's `spans` stays parallel to its `ids`.
    pub fn heap_profile_with_spans(
        &self,
        id_map: &HashMap<ObjId, u64>,
        touch_spans: &HashMap<u32, Vec<(u64, u64)>>,
    ) -> HeapOrderProfile {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut ids: Vec<u64> = vec![];
        let mut spans: Vec<Vec<(u64, u64)>> = vec![];
        for obj in &self.object_order {
            if let Some(&id) = id_map.get(obj) {
                if seen.insert(id) {
                    ids.push(id);
                    spans.push(touch_spans.get(&obj.0).cloned().unwrap_or_default());
                }
            }
        }
        HeapOrderProfile { ids, spans }
    }
}

/// Replays a trace into a [`ReplaySummary`]: one serial scan of every
/// thread's records, in thread-creation order, keeping first occurrences.
///
/// The scan costs one table lookup per record. Entry records test a
/// bitset over the string table. A path record's key is validated once —
/// the signature resolves, `start` and `path_id` are in range, and the
/// decoded path has as many heap-access sites as the record stores ids —
/// and every later record with the same key compares its id count with
/// the memoised one. Its object ids then test one bitset over the
/// snapshot's objects, which is cleared at each object's first access.
/// The scan is serial: at a few ns per record the largest small-scale
/// trace (≈ 107 k records) replays in under a millisecond, less than
/// spawning workers and merging their chunks would cost.
///
/// `in_snapshot` gates object accesses (an access to an object outside
/// the heap snapshot is skipped): only its keys matter, and every
/// strategy's identity map shares the same key set (the snapshot's
/// objects). `max_paths` must match the VM's path-numbering limit.
///
/// Method order comes from the explicit method-entry records (emitted by
/// the method-ordering instrumentation); `MethodEntry` static events on
/// decoded paths are ignored to avoid double counting. First occurrence is
/// per string index, which is per signature: the profiler interns each
/// signature once.
///
/// # Errors
/// Returns [`ReplayError`] at the first record that is inconsistent with
/// the program or out of range for the trace; a damaged trace never
/// panics.
pub fn replay_first_access(
    program: &Program,
    trace: &Trace,
    in_snapshot: &HashMap<ObjId, u64>,
    max_paths: u64,
) -> Result<ReplaySummary, ReplayError> {
    let mut paths = PathValidator::new(program, trace, max_paths);
    let mut cu_seen = BitSet::new(trace.strings.len());
    let mut method_seen = BitSet::new(trace.strings.len());
    let n_objects = in_snapshot.keys().map(|o| o.index() + 1).max().unwrap_or(0);
    let mut unseen_objects = BitSet::new(n_objects);
    for obj in in_snapshot.keys() {
        unseen_objects.insert(obj.index());
    }

    let mut summary = ReplaySummary::default();
    for record in trace.threads.iter().flatten() {
        match record {
            TraceRecord::CuEntry { sig } => {
                let i = string_index(trace, *sig)?;
                if cu_seen.insert(i) {
                    summary.cu_order.push(trace.strings[i].clone());
                }
            }
            TraceRecord::MethodEntry { sig } => {
                let i = string_index(trace, *sig)?;
                if method_seen.insert(i) {
                    summary.method_order.push(trace.strings[i].clone());
                }
            }
            TraceRecord::Path {
                method,
                start,
                path_id,
                obj_ids,
            } => {
                let expected = paths.expected_ids(trace, *method, *start, *path_id)?;
                if expected != obj_ids.len() {
                    return Err(ReplayError::IdCountMismatch {
                        method: trace.strings[*method as usize].clone(),
                        stored: obj_ids.len(),
                        expected,
                    });
                }
                // Raw id 0 is an access outside the heap snapshot.
                for &raw in obj_ids.iter().filter(|&&raw| raw != 0) {
                    let obj = ObjId((raw - 1) as u32);
                    if unseen_objects.remove(obj.index()) {
                        summary.object_order.push(obj);
                    }
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_profile_keeps_each_identity_at_its_first_access() {
        let summary = ReplaySummary {
            object_order: vec![ObjId(4), ObjId(1), ObjId(9), ObjId(2)],
            ..ReplaySummary::default()
        };
        // Objects 4 and 9 share identity 7; object 2 is outside the map.
        let ids: HashMap<ObjId, u64> = [(ObjId(4), 7), (ObjId(1), 3), (ObjId(9), 7)].into();
        let touched: HashMap<u32, Vec<(u64, u64)>> =
            [(4, vec![(0, 8)]), (9, vec![(16, 24)])].into();
        let p = summary.heap_profile_with_spans(&ids, &touched);
        assert_eq!(p.ids, vec![7, 3]);
        assert_eq!(p.spans, vec![vec![(0, 8)], vec![]]);
        assert_eq!(summary.heap_profile(&ids).ids, p.ids);
    }

    #[test]
    fn heap_profile_parse_ignores_garbage_lines() {
        let p = HeapOrderProfile::from_csv("00000000000000ff\nnot-hex\n\n10\n");
        assert_eq!(p.ids, vec![0xff, 0x10]);
    }
}
