//! Binary record encoding and the on-disk trace format.

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// One decoded trace record.
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

const TAG_CU: u8 = 1;
const TAG_PATH: u8 = 2;
const TAG_METHOD: u8 = 3;

impl TraceRecord {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            TraceRecord::CuEntry { .. } | TraceRecord::MethodEntry { .. } => 1 + 4,
            TraceRecord::Path { obj_ids, .. } => path_encoded_len(obj_ids.len()),
        }
    }

    /// Appends the binary encoding to `out`.
    pub fn encode(&self, out: &mut BytesMut) {
        match self {
            TraceRecord::CuEntry { sig } => {
                out.put_u8(TAG_CU);
                out.put_u32(*sig);
            }
            TraceRecord::MethodEntry { sig } => {
                out.put_u8(TAG_METHOD);
                out.put_u32(*sig);
            }
            TraceRecord::Path {
                method,
                start,
                path_id,
                obj_ids,
            } => encode_path(out, *method, *start, *path_id, obj_ids),
        }
    }
}

/// Encoded size of a path record carrying `n_ids` object identifiers.
pub(crate) fn path_encoded_len(n_ids: usize) -> usize {
    1 + 4 + 4 + 8 + 4 + 8 * n_ids
}

/// Appends the encoding of a [`TraceRecord::Path`] from borrowed parts, so
/// a recorder need not own its identifiers.
pub(crate) fn encode_path(
    out: &mut BytesMut,
    method: u32,
    start: u32,
    path_id: u64,
    obj_ids: &[u64],
) {
    out.put_u8(TAG_PATH);
    out.put_u32(method);
    out.put_u32(start);
    out.put_u64(path_id);
    out.put_u32(obj_ids.len() as u32);
    for &o in obj_ids {
        out.put_u64(o);
    }
}

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

/// Decodes a stream of records from raw bytes.
///
/// # Errors
/// Returns [`TraceDecodeError`] on malformed input.
pub fn decode_records(mut data: &[u8]) -> Result<Vec<TraceRecord>, TraceDecodeError> {
    let mut out = vec![];
    while data.has_remaining() {
        let tag = data.get_u8();
        match tag {
            TAG_CU => {
                if data.remaining() < 4 {
                    return Err(TraceDecodeError::Truncated);
                }
                out.push(TraceRecord::CuEntry {
                    sig: data.get_u32(),
                });
            }
            TAG_METHOD => {
                if data.remaining() < 4 {
                    return Err(TraceDecodeError::Truncated);
                }
                out.push(TraceRecord::MethodEntry {
                    sig: data.get_u32(),
                });
            }
            TAG_PATH => {
                if data.remaining() < 20 {
                    return Err(TraceDecodeError::Truncated);
                }
                let method = data.get_u32();
                let start = data.get_u32();
                let path_id = data.get_u64();
                let n = data.get_u32() as usize;
                if data.remaining() < 8 * n {
                    return Err(TraceDecodeError::Truncated);
                }
                let mut obj_ids = Vec::with_capacity(n);
                for _ in 0..n {
                    obj_ids.push(data.get_u64());
                }
                out.push(TraceRecord::Path {
                    method,
                    start,
                    path_id,
                    obj_ids,
                });
            }
            t => return Err(TraceDecodeError::BadTag(t)),
        }
    }
    Ok(out)
}

/// A fully decoded trace: the session string table plus each thread's record
/// sequence, in thread-creation order (Sec. 7.1 concatenates per-thread
/// orderings in creation order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Interned strings (method signatures).
    pub strings: Vec<String>,
    /// Per-thread record streams in thread creation order.
    pub threads: Vec<Vec<TraceRecord>>,
}

impl Trace {
    /// Resolves a string-table index.
    pub fn string(&self, idx: u32) -> &str {
        &self.strings[idx as usize]
    }
}

const FILE_MAGIC: &[u8; 4] = b"NTRC";

/// Serializes a trace (string table + per-thread streams) to bytes.
pub fn write_trace(trace: &Trace) -> Bytes {
    let mut b = BytesMut::new();
    b.put_slice(FILE_MAGIC);
    b.put_u32(trace.strings.len() as u32);
    for s in &trace.strings {
        b.put_u32(s.len() as u32);
        b.put_slice(s.as_bytes());
    }
    b.put_u32(trace.threads.len() as u32);
    for t in &trace.threads {
        let mut body = BytesMut::new();
        for r in t {
            r.encode(&mut body);
        }
        b.put_u64(body.len() as u64);
        b.put_slice(&body);
    }
    b.freeze()
}

/// Parses the format produced by [`write_trace`].
///
/// # Errors
/// Returns [`TraceDecodeError`] on malformed input.
pub fn read_trace(mut data: &[u8]) -> Result<Trace, TraceDecodeError> {
    if data.len() < 8 || &data[..4] != FILE_MAGIC {
        return Err(TraceDecodeError::BadHeader);
    }
    data.advance(4);
    // Counts come from the input: reserve only what the remaining bytes
    // can hold (≥ 4 per string, ≥ 8 per thread), so a forged count is
    // rejected as truncated before it can over-allocate.
    let n_strings = data.get_u32() as usize;
    let mut strings = Vec::with_capacity(n_strings.min(data.remaining() / 4));
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
    let mut threads = Vec::with_capacity(n_threads.min(data.remaining() / 8));
    for _ in 0..n_threads {
        if data.remaining() < 8 {
            return Err(TraceDecodeError::Truncated);
        }
        let len = data.get_u64() as usize;
        if data.remaining() < len {
            return Err(TraceDecodeError::Truncated);
        }
        threads.push(decode_records(&data[..len])?);
        data.advance(len);
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

    #[test]
    fn record_roundtrip() {
        let records = sample_records();
        let mut buf = BytesMut::new();
        for r in &records {
            r.encode(&mut buf);
        }
        assert_eq!(decode_records(&buf).unwrap(), records);
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
        let mut buf = BytesMut::new();
        sample_records()[1].encode(&mut buf);
        for cut in 1..buf.len() {
            assert_eq!(
                decode_records(&buf[..cut]),
                Err(TraceDecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_tag_is_detected() {
        assert_eq!(decode_records(&[99]), Err(TraceDecodeError::BadTag(99)));
    }

    #[test]
    fn trace_file_roundtrip() {
        let trace = Trace {
            strings: vec!["a.B.c(0)".into(), "d.E.f(2)".into()],
            threads: vec![sample_records(), vec![]],
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
