//! Per-thread buffered trace collection with the two dump modes of
//! Sec. 6.1.

use std::collections::HashMap;

use bytes::{BufMut, BytesMut};

use crate::wire::{entry_record, path_header, ThreadTrace, Trace, TAG_CU, TAG_METHOD};

/// How thread-local buffers reach the durable trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpMode {
    /// Flush the buffer when a record would not fit, and at thread
    /// termination. Records still buffered at an *abnormal* termination
    /// (`SIGKILL`) are lost. Used for normally terminating workloads (AWFY).
    OnFull,
    /// The buffer is memory-mapped onto the trace file: every record is
    /// durable immediately; when a mapping segment fills, the buffer is
    /// remapped at a higher file offset. Survives `SIGKILL`. Used for
    /// microservice workloads killed after the first response.
    MemoryMapped,
}

/// Handle to one traced thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadHandle(usize);

/// Counters describing profiling activity, used by the overhead accounting
/// of `nimage-vm` (Sec. 7.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// CU-entry records written.
    pub cu_records: u64,
    /// Method-entry records written.
    pub method_records: u64,
    /// Path records written.
    pub path_records: u64,
    /// Object identifiers written (inside path records).
    pub obj_ids: u64,
    /// Buffer flushes (mode 1).
    pub flushes: u64,
    /// Buffer remaps (mode 2).
    pub remaps: u64,
    /// Records lost to an abnormal termination.
    pub lost_records: u64,
}

#[derive(Debug)]
struct ThreadState {
    /// Staging buffer (mode 1) — encoded records not yet durable.
    staging: BytesMut,
    staged_records: usize,
    /// Durable trace-file bytes.
    file: BytesMut,
    /// Records in `file`.
    file_records: usize,
    /// Bytes used in the current mmap segment (mode 2).
    segment_used: usize,
    terminated: bool,
}

/// A live trace-collection session (one per instrumented process run).
///
/// ```
/// use nimage_profiler::{TraceSession, DumpMode, Record};
///
/// let mut session = TraceSession::new(DumpMode::OnFull, 4096);
/// let sig = session.intern("app.Main.main(0)");
/// let thread = session.start_thread();
/// session.record_cu_entry(thread, sig);
/// session.record_path(thread, sig, 0, 3, &[7, 0]);
/// session.end_thread(thread);
/// let trace = session.into_trace();
/// assert_eq!(trace.threads[0].len(), 2);
/// let mut records = trace.threads[0].records();
/// assert_eq!(records.next(), Some(Record::CuEntry { sig }));
/// let Some(Record::Path { path_id, obj_ids, .. }) = records.next() else {
///     panic!("second record is a path");
/// };
/// assert_eq!((path_id, obj_ids.collect::<Vec<_>>()), (3, vec![7, 0]));
/// ```
#[derive(Debug)]
pub struct TraceSession {
    mode: DumpMode,
    buffer_capacity: usize,
    strings: Vec<String>,
    string_map: HashMap<String, u32>,
    threads: Vec<ThreadState>,
    stats: SessionStats,
}

impl TraceSession {
    /// Creates a session.
    ///
    /// # Panics
    /// Panics if `buffer_capacity` cannot hold a maximal record (< 64
    /// bytes).
    pub fn new(mode: DumpMode, buffer_capacity: usize) -> Self {
        assert!(buffer_capacity >= 64, "buffer capacity too small");
        TraceSession {
            mode,
            buffer_capacity,
            strings: vec![],
            string_map: HashMap::new(),
            threads: vec![],
            stats: SessionStats::default(),
        }
    }

    /// Interns a method signature into the session string table.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.string_map.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_map.insert(s.to_string(), i);
        i
    }

    /// Registers a new thread (threads are kept in creation order).
    pub fn start_thread(&mut self) -> ThreadHandle {
        self.threads.push(ThreadState {
            staging: BytesMut::new(),
            staged_records: 0,
            file: BytesMut::new(),
            file_records: 0,
            segment_used: 0,
            terminated: false,
        });
        ThreadHandle(self.threads.len() - 1)
    }

    /// Current statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Stores one record: its encoded `header`, then `obj_ids`.
    fn write(&mut self, th: ThreadHandle, header: &[u8], obj_ids: &[u64]) {
        let len = header.len() + 8 * obj_ids.len();
        let cap = self.buffer_capacity;
        let mode = self.mode;
        let t = &mut self.threads[th.0];
        assert!(!t.terminated, "record on terminated thread");
        let out = match mode {
            DumpMode::OnFull => {
                if t.staging.len() + len > cap {
                    // Flush before storing a record that would not fit.
                    t.file.extend_from_slice(&t.staging);
                    t.file_records += t.staged_records;
                    t.staging.clear();
                    t.staged_records = 0;
                    self.stats.flushes += 1;
                }
                t.staged_records += 1;
                &mut t.staging
            }
            DumpMode::MemoryMapped => {
                if t.segment_used + len > cap {
                    // Remap the buffer at a higher offset of the file.
                    t.segment_used = 0;
                    self.stats.remaps += 1;
                }
                t.segment_used += len;
                t.file_records += 1;
                &mut t.file
            }
        };
        out.extend_from_slice(header);
        for &o in obj_ids {
            out.put_u64(o);
        }
    }

    /// Records a CU-entry event.
    pub fn record_cu_entry(&mut self, th: ThreadHandle, sig: u32) {
        self.write(th, &entry_record(TAG_CU, sig), &[]);
        self.stats.cu_records += 1;
    }

    /// Records a method-entry event.
    pub fn record_method_entry(&mut self, th: ThreadHandle, sig: u32) {
        self.write(th, &entry_record(TAG_METHOD, sig), &[]);
        self.stats.method_records += 1;
    }

    /// Records an executed path with its observed object identifiers,
    /// encoded straight from the caller's buffer (which it may reuse).
    pub fn record_path(
        &mut self,
        th: ThreadHandle,
        method: u32,
        start: u32,
        path_id: u64,
        obj_ids: &[u64],
    ) {
        self.stats.obj_ids += obj_ids.len() as u64;
        self.stats.path_records += 1;
        let header = path_header(method, start, path_id, obj_ids.len());
        self.write(th, &header, obj_ids);
    }

    /// Normal thread termination: flushes the staging buffer.
    pub fn end_thread(&mut self, th: ThreadHandle) {
        let t = &mut self.threads[th.0];
        if !t.staging.is_empty() {
            t.file.extend_from_slice(&t.staging);
            t.file_records += t.staged_records;
            t.staging.clear();
            t.staged_records = 0;
            self.stats.flushes += 1;
        }
        t.terminated = true;
    }

    /// Abnormal process termination (`SIGKILL`): thread-termination handlers
    /// do not run, so staged mode-1 records are lost; memory-mapped records
    /// survive because "the kernel ensures that traces are not lost".
    pub fn kill(&mut self) {
        for t in &mut self.threads {
            if !t.terminated {
                self.stats.lost_records += t.staged_records as u64;
                t.staging.clear();
                t.staged_records = 0;
                t.terminated = true;
            }
        }
    }

    /// Finishes the session and hands over each thread's durable bytes
    /// as they are, without decoding them.
    ///
    /// # Panics
    /// Panics if any thread is still live (call [`Self::end_thread`] or
    /// [`Self::kill`] first) — mirroring that trace files are only read
    /// after the instrumented process exits.
    pub fn into_trace(self) -> Trace {
        assert!(
            self.threads.iter().all(|t| t.terminated),
            "threads still live at trace read time"
        );
        let threads = self
            .threads
            .into_iter()
            .map(|t| ThreadTrace::from_recorded(t.file.freeze(), t.file_records))
            .collect();
        Trace {
            strings: self.strings,
            threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;

    fn path(i: u64) -> (u32, u32, u64, Vec<u64>) {
        (0, 0, i, vec![i, i + 1])
    }

    #[test]
    fn on_full_flushes_and_preserves_order() {
        let mut s = TraceSession::new(DumpMode::OnFull, 64);
        let m = s.intern("a.B.c(0)");
        let th = s.start_thread();
        for i in 0..10 {
            let (_, start, id, objs) = path(i);
            s.record_path(th, m, start, id, &objs);
        }
        assert!(s.stats().flushes > 0, "small buffer must flush");
        s.end_thread(th);
        let trace = s.into_trace();
        let ids: Vec<u64> = trace.threads[0]
            .records()
            .map(|r| match r {
                Record::Path { path_id, .. } => path_id,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn kill_loses_staged_records_in_mode_1() {
        let mut s = TraceSession::new(DumpMode::OnFull, 1 << 20);
        let m = s.intern("a.B.c(0)");
        let th = s.start_thread();
        for i in 0..5 {
            let (_, start, id, objs) = path(i);
            s.record_path(th, m, start, id, &objs);
        }
        s.kill();
        assert_eq!(s.stats().lost_records, 5);
        let trace = s.into_trace();
        assert!(trace.threads[0].is_empty());
    }

    #[test]
    fn kill_preserves_records_in_mode_2() {
        let mut s = TraceSession::new(DumpMode::MemoryMapped, 64);
        let m = s.intern("a.B.c(0)");
        let th = s.start_thread();
        for i in 0..50 {
            let (_, start, id, objs) = path(i);
            s.record_path(th, m, start, id, &objs);
        }
        s.kill();
        assert_eq!(s.stats().lost_records, 0);
        assert!(s.stats().remaps > 0, "small segments must remap");
        let trace = s.into_trace();
        assert_eq!(trace.threads[0].len(), 50);
    }

    #[test]
    fn threads_appear_in_creation_order() {
        let mut s = TraceSession::new(DumpMode::OnFull, 1024);
        let sig = s.intern("x.Y.z(0)");
        let t1 = s.start_thread();
        let t2 = s.start_thread();
        s.record_cu_entry(t2, sig);
        s.record_cu_entry(t1, sig);
        s.end_thread(t1);
        s.end_thread(t2);
        let trace = s.into_trace();
        assert_eq!(trace.threads.len(), 2);
        // Both have one record; order of threads is creation order
        // regardless of record timing.
        assert_eq!(trace.threads[0].len(), 1);
        assert_eq!(trace.threads[1].len(), 1);
    }

    #[test]
    fn interning_is_stable() {
        let mut s = TraceSession::new(DumpMode::OnFull, 1024);
        let a = s.intern("one");
        let b = s.intern("two");
        let a2 = s.intern("one");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn stats_count_record_kinds() {
        let mut s = TraceSession::new(DumpMode::OnFull, 1024);
        let m = s.intern("m");
        let th = s.start_thread();
        s.record_cu_entry(th, m);
        s.record_path(th, m, 0, 1, &[5, 6, 7]);
        let st = s.stats();
        assert_eq!(st.cu_records, 1);
        assert_eq!(st.path_records, 1);
        assert_eq!(st.obj_ids, 3);
        s.end_thread(th);
    }
}
