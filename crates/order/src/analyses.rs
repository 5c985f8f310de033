//! The post-processing of Sec. 6.2: decode the trace, keep first
//! occurrences, emit CSV ordering profiles.
//!
//! The paper describes a visitor framework that feeds a decoded event
//! stream to one analysis per ordering. Every ordering analysis is the
//! same reduction — keep the first occurrence — so here it is one pass:
//! [`replay_first_access`] decodes the records (Ball–Larus path records
//! included) into a strategy-independent [`ReplaySummary`], from which the
//! [`CodeOrderProfile`]s are read off and each strategy's
//! [`HeapOrderProfile`] is derived by mapping object identities. The CSV
//! interchange format between the profiling and the optimizing build is
//! owned by the two profile types (`to_csv` / `from_csv`).

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use nimage_compiler::{PathNumbering, ProfilingCfg, StaticEvent};
use nimage_heap::ObjId;
use nimage_ir::{MethodId, Program};
use nimage_par::parallel_map;
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
        }
    }
}

impl Error for ReplayError {}

/// Signature → method table for path decoding.
fn methods_by_signature(program: &Program) -> HashMap<String, MethodId> {
    (0..program.methods().len())
        .map(|i| {
            let mid = MethodId::from(i);
            (program.method_signature(mid), mid)
        })
        .collect()
}

/// Decodes [`TraceRecord::Path`] records against the program, building
/// each method's path-numbering tables on first use.
struct PathDecoder<'a> {
    program: &'a Program,
    by_sig: &'a HashMap<String, MethodId>,
    max_paths: u64,
    tables: HashMap<MethodId, (ProfilingCfg, PathNumbering)>,
}

impl<'a> PathDecoder<'a> {
    fn new(program: &'a Program, by_sig: &'a HashMap<String, MethodId>, max_paths: u64) -> Self {
        PathDecoder {
            program,
            by_sig,
            max_paths,
            tables: HashMap::new(),
        }
    }

    /// Validates one path record — the method signature resolves, and the
    /// decoded path has exactly as many heap-access sites as the record
    /// stores ids — and yields the objects it accessed in execution order
    /// (raw id 0, an access outside the heap snapshot, is skipped).
    fn accessed<'r>(
        &mut self,
        sig: &str,
        start: u32,
        path_id: u64,
        obj_ids: &'r [u64],
    ) -> Result<impl Iterator<Item = ObjId> + 'r, ReplayError> {
        let mid = *self
            .by_sig
            .get(sig)
            .ok_or_else(|| ReplayError::UnknownSignature(sig.to_string()))?;
        let (cfg, num) = self.tables.entry(mid).or_insert_with(|| {
            let cfg = ProfilingCfg::build(self.program.method(mid));
            let num = PathNumbering::compute(&cfg, self.max_paths);
            (cfg, num)
        });
        let seq = num.decode(cfg, nimage_compiler::MiniBlockId(start), path_id);
        let expected: usize = seq
            .iter()
            .map(|&m| {
                cfg.mini(m)
                    .events
                    .iter()
                    .filter(|e| matches!(e, StaticEvent::HeapAccess { .. }))
                    .count()
            })
            .sum();
        if expected != obj_ids.len() {
            return Err(ReplayError::IdCountMismatch {
                method: sig.to_string(),
                stored: obj_ids.len(),
                expected,
            });
        }
        Ok(obj_ids
            .iter()
            .filter(|&&raw| raw != 0)
            .map(|&raw| ObjId((raw - 1) as u32)))
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

/// First-occurrence collectors of one trace chunk, merged in chunk order.
#[derive(Debug, Default)]
struct ChunkSummary {
    cu: Vec<String>,
    methods: Vec<String>,
    objects: Vec<ObjId>,
}

/// Decodes one contiguous run of records from a single trace thread,
/// collecting chunk-local first occurrences.
fn decode_chunk(
    program: &Program,
    trace: &Trace,
    by_sig: &HashMap<String, MethodId>,
    in_snapshot: &HashMap<ObjId, u64>,
    max_paths: u64,
    records: &[TraceRecord],
) -> Result<ChunkSummary, ReplayError> {
    let mut out = ChunkSummary::default();
    let mut cu_seen: HashSet<u32> = HashSet::new();
    let mut method_seen: HashSet<u32> = HashSet::new();
    let mut obj_seen: HashSet<ObjId> = HashSet::new();
    let mut paths = PathDecoder::new(program, by_sig, max_paths);
    for record in records {
        match record {
            TraceRecord::CuEntry { sig } => {
                if cu_seen.insert(*sig) {
                    out.cu.push(trace.string(*sig).to_string());
                }
            }
            TraceRecord::MethodEntry { sig } => {
                if method_seen.insert(*sig) {
                    out.methods.push(trace.string(*sig).to_string());
                }
            }
            TraceRecord::Path {
                method,
                start,
                path_id,
                obj_ids,
            } => {
                let sig = trace.string(*method);
                for obj in paths.accessed(sig, *start, *path_id, obj_ids)? {
                    if in_snapshot.contains_key(&obj) && obj_seen.insert(obj) {
                        out.objects.push(obj);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Replays a trace into a [`ReplaySummary`], decoding disjoint contiguous
/// chunks of the record stream in parallel and merging the chunk-local
/// first-occurrence lists in chunk order.
///
/// The merge `A ++ (B \ A)` is associative and reproduces the serial
/// first-occurrence order exactly: an element's global first occurrence
/// lies in the earliest chunk containing it, at that chunk's local first
/// occurrence. Chunk boundaries therefore do not affect the result, so
/// any thread count (including 1) produces bit-identical output. Errors
/// keep serial semantics too: the earliest erroring chunk's first error
/// *is* the stream's first error, because chunks partition the stream in
/// order.
///
/// `in_snapshot` gates object accesses (an access to an object outside
/// the heap snapshot is skipped): only its keys matter, and every
/// strategy's identity map shares the same key set (the snapshot's
/// objects). `max_paths` must match the VM's path-numbering limit.
///
/// Method order comes from the explicit method-entry records (emitted by
/// the method-ordering instrumentation); `MethodEntry` static events on
/// decoded paths are ignored to avoid double counting.
///
/// # Errors
/// Returns [`ReplayError`] if the trace is inconsistent with the program.
pub fn replay_first_access(
    program: &Program,
    trace: &Trace,
    in_snapshot: &HashMap<ObjId, u64>,
    max_paths: u64,
    n_threads: usize,
) -> Result<ReplaySummary, ReplayError> {
    let by_sig = methods_by_signature(program);

    // Chunk descriptors: contiguous runs within one thread's records, in
    // stream order (thread creation order, then record order). A floor on
    // the chunk size keeps the per-chunk decode-table overhead small.
    let total: usize = trace.threads.iter().map(Vec::len).sum();
    // Record decode is a few ns each; small traces don't amortize worker
    // spawn, so gate the fan-out on the measured record-count cutoff.
    let n_threads =
        nimage_par::workers_for(n_threads, total, nimage_par::cutoff::REPLAY_MIN_RECORDS);
    let workers = n_threads.max(1);
    let chunk_len = total.div_ceil(workers * 4).max(256);
    let mut chunks: Vec<(usize, usize, usize)> = vec![];
    for (ti, t) in trace.threads.iter().enumerate() {
        let mut start = 0;
        while start < t.len() {
            let end = (start + chunk_len).min(t.len());
            chunks.push((ti, start, end));
            start = end;
        }
    }

    let outs = parallel_map(n_threads, chunks.len(), |ci| {
        let (ti, start, end) = chunks[ci];
        decode_chunk(
            program,
            trace,
            &by_sig,
            in_snapshot,
            max_paths,
            &trace.threads[ti][start..end],
        )
    });

    let mut summary = ReplaySummary::default();
    let mut cu_seen: HashSet<String> = HashSet::new();
    let mut method_seen: HashSet<String> = HashSet::new();
    let mut obj_seen: HashSet<ObjId> = HashSet::new();
    for out in outs {
        let chunk = out?;
        for sig in chunk.cu {
            if cu_seen.insert(sig.clone()) {
                summary.cu_order.push(sig);
            }
        }
        for sig in chunk.methods {
            if method_seen.insert(sig.clone()) {
                summary.method_order.push(sig);
            }
        }
        for obj in chunk.objects {
            if obj_seen.insert(obj) {
                summary.object_order.push(obj);
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
