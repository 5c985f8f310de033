//! Binary record encoding and the on-disk trace format.
//!
//! A thread's records stay encoded from the recorder to the reader:
//! [`ThreadTrace`] holds exactly the bytes the trace file stores for one
//! thread, plus its record count. Each constructor either writes those
//! bytes itself or checks them once, so iterating them cannot fail and
//! [`write_trace`] copies them verbatim.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// One owned trace record, for building a [`ThreadTrace`] record by record
/// with [`ThreadTrace::from_records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// A compilation-unit entry; `sig` indexes the session string table and
    /// names the CU's root-method signature.
    CuEntry {
        /// String-table index of the root-method signature.
        sig: u32,
    },
    /// A method-entry event (emitted by the method-ordering
    /// instrumentation; includes entries of inlined method copies).
    MethodEntry {
        /// String-table index of the method signature.
        sig: u32,
    },
    /// An executed Ball–Larus path with the object identifiers observed at
    /// its heap-access sites.
    Path {
        /// String-table index of the method signature.
        method: u32,
        /// Start mini-block of the path.
        start: u32,
        /// Ball–Larus path id.
        path_id: u64,
        /// Object identifiers, one per executed heap-access site (0 for
        /// accesses to objects outside the heap snapshot).
        obj_ids: Vec<u64>,
    },
}

pub(crate) const TAG_CU: u8 = 1;
const TAG_PATH: u8 = 2;
pub(crate) const TAG_METHOD: u8 = 3;

/// Encoded size of a CU- or method-entry record: tag, signature.
const ENTRY_LEN: usize = 1 + 4;
/// Encoded size of a path record's header: tag, method, start, path id,
/// id count. The object ids follow, 8 bytes each.
const PATH_HEADER_LEN: usize = 1 + 4 + 4 + 8 + 4;

/// The encoding of a CU- or method-entry record.
pub(crate) fn entry_record(tag: u8, sig: u32) -> [u8; ENTRY_LEN] {
    let mut r = [tag; ENTRY_LEN];
    r[1..].copy_from_slice(&sig.to_be_bytes());
    r
}

/// The encoding of a path record's header for `n_ids` object ids.
pub(crate) fn path_header(
    method: u32,
    start: u32,
    path_id: u64,
    n_ids: usize,
) -> [u8; PATH_HEADER_LEN] {
    let mut h = [TAG_PATH; PATH_HEADER_LEN];
    h[1..5].copy_from_slice(&method.to_be_bytes());
    h[5..9].copy_from_slice(&start.to_be_bytes());
    h[9..17].copy_from_slice(&path_id.to_be_bytes());
    h[17..].copy_from_slice(&(n_ids as u32).to_be_bytes());
    h
}

impl TraceRecord {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            TraceRecord::CuEntry { .. } | TraceRecord::MethodEntry { .. } => ENTRY_LEN,
            TraceRecord::Path { obj_ids, .. } => PATH_HEADER_LEN + 8 * obj_ids.len(),
        }
    }

    fn encode(&self, out: &mut BytesMut) {
        match self {
            TraceRecord::CuEntry { sig } => out.put_slice(&entry_record(TAG_CU, *sig)),
            TraceRecord::MethodEntry { sig } => out.put_slice(&entry_record(TAG_METHOD, *sig)),
            TraceRecord::Path {
                method,
                start,
                path_id,
                obj_ids,
            } => {
                out.put_slice(&path_header(*method, *start, *path_id, obj_ids.len()));
                for &o in obj_ids {
                    out.put_u64(o);
                }
            }
        }
    }
}

impl From<Record<'_>> for TraceRecord {
    fn from(r: Record<'_>) -> Self {
        match r {
            Record::CuEntry { sig } => TraceRecord::CuEntry { sig },
            Record::MethodEntry { sig } => TraceRecord::MethodEntry { sig },
            Record::Path {
                method,
                start,
                path_id,
                obj_ids,
            } => TraceRecord::Path {
                method,
                start,
                path_id,
                obj_ids: obj_ids.collect(),
            },
        }
    }
}

/// One trace record, borrowed from a [`ThreadTrace`]'s encoded bytes. The
/// fields mean what they mean in [`TraceRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record<'a> {
    /// A compilation-unit entry.
    CuEntry {
        /// String-table index of the root-method signature.
        sig: u32,
    },
    /// A method-entry event.
    MethodEntry {
        /// String-table index of the method signature.
        sig: u32,
    },
    /// An executed Ball–Larus path.
    Path {
        /// String-table index of the method signature.
        method: u32,
        /// Start mini-block of the path.
        start: u32,
        /// Ball–Larus path id.
        path_id: u64,
        /// Object identifiers, read from the encoded bytes.
        obj_ids: ObjIds<'a>,
    },
}

/// The object identifiers of a path record: an exact-size iterator over
/// their encoding, 8 big-endian bytes each.
#[derive(Clone, PartialEq, Eq)]
pub struct ObjIds<'a>(&'a [u8]);

impl Iterator for ObjIds<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let (id, rest) = self.0.split_first_chunk::<8>()?;
        self.0 = rest;
        Some(u64::from_be_bytes(*id))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.len() / 8;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ObjIds<'_> {}

impl fmt::Debug for ObjIds<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// One thread's records, held as the trace file stores them. Well-formed
/// by construction: the recorder writes the bytes, [`read_trace`] checks
/// them in one scan, and [`ThreadTrace::from_records`] encodes owned
/// records. So [`ThreadTrace::records`] never fails.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    bytes: Bytes,
    len: usize,
}

impl ThreadTrace {
    /// Encodes owned records (forged traces in tests, for instance).
    pub fn from_records(records: impl IntoIterator<Item = TraceRecord>) -> Self {
        let mut bytes = BytesMut::new();
        let mut len = 0;
        for r in records {
            r.encode(&mut bytes);
            len += 1;
        }
        ThreadTrace {
            bytes: bytes.freeze(),
            len,
        }
    }

    /// Takes `len` records the recorder encoded into `bytes`.
    pub(crate) fn from_recorded(bytes: Bytes, len: usize) -> Self {
        debug_assert_eq!(scan(&bytes), Ok(len), "recorder wrote malformed records");
        ThreadTrace { bytes, len }
    }

    /// Checks one thread body in a single scan and keeps a copy of it.
    fn decode(body: &[u8]) -> Result<Self, TraceDecodeError> {
        let len = scan(body)?;
        Ok(ThreadTrace {
            bytes: Bytes::from(body.to_vec()),
            len,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the thread recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in order, borrowed from the encoded bytes.
    #[inline]
    pub fn records(&self) -> Records<'_> {
        Records {
            body: &self.bytes,
            left: self.len,
        }
    }
}

/// Counts the records of a thread body, checking every tag and length.
fn scan(mut body: &[u8]) -> Result<usize, TraceDecodeError> {
    let mut n = 0;
    while let Some(&tag) = body.first() {
        let len = match tag {
            TAG_CU | TAG_METHOD => ENTRY_LEN,
            TAG_PATH => {
                if body.len() < PATH_HEADER_LEN {
                    return Err(TraceDecodeError::Truncated);
                }
                let n_ids = u32::from_be_bytes([body[17], body[18], body[19], body[20]]) as usize;
                n_ids
                    .checked_mul(8)
                    .and_then(|ids| ids.checked_add(PATH_HEADER_LEN))
                    .ok_or(TraceDecodeError::Truncated)?
            }
            t => return Err(TraceDecodeError::BadTag(t)),
        };
        body = body.get(len..).ok_or(TraceDecodeError::Truncated)?;
        n += 1;
    }
    Ok(n)
}

/// Iterator over a [`ThreadTrace`]'s records.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    body: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    #[inline]
    fn next(&mut self) -> Option<Record<'a>> {
        // The bytes are well-formed, so no `?` below but the first ends
        // the iteration.
        let (&tag, rest) = self.body.split_first()?;
        self.left -= 1;
        if tag != TAG_PATH {
            let (sig, rest) = rest.split_first_chunk::<4>()?;
            self.body = rest;
            let sig = u32::from_be_bytes(*sig);
            return Some(if tag == TAG_CU {
                Record::CuEntry { sig }
            } else {
                Record::MethodEntry { sig }
            });
        }
        let (h, rest) = rest.split_first_chunk::<{ PATH_HEADER_LEN - 1 }>()?;
        let n_ids = u32::from_be_bytes([h[16], h[17], h[18], h[19]]) as usize;
        let (ids, rest) = rest.split_at_checked(8 * n_ids)?;
        self.body = rest;
        Some(Record::Path {
            method: u32::from_be_bytes([h[0], h[1], h[2], h[3]]),
            start: u32::from_be_bytes([h[4], h[5], h[6], h[7]]),
            path_id: u64::from_be_bytes([h[8], h[9], h[10], h[11], h[12], h[13], h[14], h[15]]),
            obj_ids: ObjIds(ids),
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// Error decoding a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// Unknown record tag byte.
    BadTag(u8),
    /// The stream ended in the middle of a record.
    Truncated,
    /// The file header was malformed.
    BadHeader,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadTag(t) => write!(f, "unknown trace record tag {t}"),
            TraceDecodeError::Truncated => write!(f, "truncated trace stream"),
            TraceDecodeError::BadHeader => write!(f, "malformed trace header"),
        }
    }
}

impl Error for TraceDecodeError {}

/// A trace: the session string table plus each thread's records, in
/// thread-creation order (Sec. 7.1 concatenates per-thread orderings in
/// creation order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Interned strings (method signatures).
    pub strings: Vec<String>,
    /// Per-thread record streams in thread creation order.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Resolves a string-table index.
    pub fn string(&self, idx: u32) -> &str {
        &self.strings[idx as usize]
    }
}

const FILE_MAGIC: &[u8; 4] = b"NTRC";

/// Serializes a trace (string table + per-thread streams) to bytes. Thread
/// bodies are copied verbatim.
pub fn write_trace(trace: &Trace) -> Bytes {
    let strings: usize = trace.strings.iter().map(|s| 4 + s.len()).sum();
    let bodies: usize = trace.threads.iter().map(|t| 8 + t.bytes.len()).sum();
    let mut b = BytesMut::with_capacity(FILE_MAGIC.len() + 4 + strings + 4 + bodies);
    b.put_slice(FILE_MAGIC);
    b.put_u32(trace.strings.len() as u32);
    for s in &trace.strings {
        b.put_u32(s.len() as u32);
        b.put_slice(s.as_bytes());
    }
    b.put_u32(trace.threads.len() as u32);
    for t in &trace.threads {
        b.put_u64(t.bytes.len() as u64);
        b.put_slice(&t.bytes);
    }
    b.freeze()
}

/// Parses the format produced by [`write_trace`], checking each thread
/// body in one scan.
///
/// # Errors
/// Returns [`TraceDecodeError`] on malformed input.
pub fn read_trace(mut data: &[u8]) -> Result<Trace, TraceDecodeError> {
    if data.len() < 8 || &data[..4] != FILE_MAGIC {
        return Err(TraceDecodeError::BadHeader);
    }
    data.advance(4);
    // Counts come from the input: reserve no more slots than the remaining
    // bytes could fill, so a forged count can make no allocation larger
    // than the input before it is rejected as truncated.
    let n_strings = data.get_u32() as usize;
    let mut strings = Vec::with_capacity(n_strings.min(data.remaining() / size_of::<String>()));
    for _ in 0..n_strings {
        if data.remaining() < 4 {
            return Err(TraceDecodeError::Truncated);
        }
        let len = data.get_u32() as usize;
        if data.remaining() < len {
            return Err(TraceDecodeError::Truncated);
        }
        let s = std::str::from_utf8(&data[..len])
            .map_err(|_| TraceDecodeError::BadHeader)?
            .to_string();
        data.advance(len);
        strings.push(s);
    }
    if data.remaining() < 4 {
        return Err(TraceDecodeError::Truncated);
    }
    let n_threads = data.get_u32() as usize;
    let mut threads =
        Vec::with_capacity(n_threads.min(data.remaining() / size_of::<ThreadTrace>()));
    for _ in 0..n_threads {
        if data.remaining() < 8 {
            return Err(TraceDecodeError::Truncated);
        }
        let len = data.get_u64();
        if (data.remaining() as u64) < len {
            return Err(TraceDecodeError::Truncated);
        }
        let (body, rest) = data.split_at(len as usize);
        threads.push(ThreadTrace::decode(body)?);
        data = rest;
    }
    Ok(Trace { strings, threads })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::CuEntry { sig: 3 },
            TraceRecord::MethodEntry { sig: 4 },
            TraceRecord::Path {
                method: 1,
                start: 0,
                path_id: 42,
                obj_ids: vec![7, 0, 9],
            },
            TraceRecord::Path {
                method: 2,
                start: 5,
                path_id: 0,
                obj_ids: vec![],
            },
        ]
    }

    fn owned(t: &ThreadTrace) -> Vec<TraceRecord> {
        t.records().map(TraceRecord::from).collect()
    }

    #[test]
    fn record_roundtrip() {
        let records = sample_records();
        let thread = ThreadTrace::from_records(records.clone());
        assert_eq!(thread.len(), records.len());
        assert_eq!(thread.records().len(), records.len());
        assert_eq!(owned(&thread), records);
        assert_eq!(ThreadTrace::decode(&thread.bytes), Ok(thread));
    }

    #[test]
    fn obj_ids_are_exact_size() {
        let thread = ThreadTrace::from_records(sample_records());
        let Some(Record::Path { obj_ids, .. }) = thread.records().nth(2) else {
            panic!("third record is a path");
        };
        assert_eq!(obj_ids.len(), 3);
        assert_eq!(obj_ids.clone().skip(1).len(), 2);
        assert_eq!(obj_ids.collect::<Vec<_>>(), [7, 0, 9]);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for r in sample_records() {
            let mut buf = BytesMut::new();
            r.encode(&mut buf);
            assert_eq!(buf.len(), r.encoded_len());
        }
    }

    #[test]
    fn truncated_record_is_detected() {
        for r in sample_records() {
            let mut buf = BytesMut::new();
            r.encode(&mut buf);
            for cut in 1..buf.len() {
                assert_eq!(
                    ThreadTrace::decode(&buf[..cut]),
                    Err(TraceDecodeError::Truncated),
                    "{r:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_tag_is_detected() {
        assert_eq!(
            ThreadTrace::decode(&[99]),
            Err(TraceDecodeError::BadTag(99))
        );
    }

    #[test]
    fn forged_id_count_is_truncated_not_allocated() {
        let mut body = path_header(0, 0, 0, u32::MAX as usize).to_vec();
        body.extend_from_slice(&[0; 16]);
        assert_eq!(ThreadTrace::decode(&body), Err(TraceDecodeError::Truncated));
    }

    #[test]
    fn trace_file_roundtrip() {
        let trace = Trace {
            strings: vec!["a.B.c(0)".into(), "d.E.f(2)".into()],
            threads: vec![
                ThreadTrace::from_records(sample_records()),
                ThreadTrace::default(),
            ],
        };
        let bytes = write_trace(&trace);
        assert_eq!(read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn trace_file_bad_magic() {
        assert_eq!(read_trace(b"XXXX0000"), Err(TraceDecodeError::BadHeader));
    }

    #[test]
    fn forged_counts_are_truncated_not_allocated() {
        // u32::MAX strings in an 8-byte file.
        let mut b = BytesMut::new();
        b.put_slice(FILE_MAGIC);
        b.put_u32(u32::MAX);
        assert_eq!(read_trace(&b), Err(TraceDecodeError::Truncated));
        // No strings, then u32::MAX threads and one empty thread body.
        let mut b = BytesMut::new();
        b.put_slice(FILE_MAGIC);
        b.put_u32(0);
        b.put_u32(u32::MAX);
        b.put_u64(0);
        assert_eq!(read_trace(&b), Err(TraceDecodeError::Truncated));
    }
}
