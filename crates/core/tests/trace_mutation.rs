//! Trace decoding is total: damaged copies of two real trace files
//! (small-scale Bounce, one thread, and micronaut to its first response,
//! several threads) either make [`read_trace`] return an error, or decode
//! to a [`Trace`] on which [`replay_first_access`] and [`check_trace`]
//! return without panicking. The damage is single-bit flips, truncations
//! around record boundaries, a thread body spliced in from the other
//! trace, and path records forging `u32::MAX` object ids.
//!
//! No case may make [`read_trace`] allocate more than its input: a
//! counting allocator records the largest single allocation while it
//! runs.
//!
//! Debug builds try fewer sampled positions than release builds.

use std::collections::HashMap;
use std::sync::OnceLock;

use nimage_compiler::InstrumentConfig;
use nimage_core::{BuildOptions, Pipeline};
use nimage_heap::ObjId;
use nimage_ir::Program;
use nimage_order::{assign_ids, replay_first_access, HeapStrategy};
use nimage_profiler::{read_trace, write_trace, DumpMode, Trace, TraceDecodeError, TraceRecord};
use nimage_verify::pipeline::check_trace;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

#[path = "support/peak_alloc.rs"]
mod peak_alloc;
use peak_alloc::largest_allocation;

/// Positions sampled evenly across a file or a thread's records.
const SAMPLES: usize = if cfg!(debug_assertions) { 8 } else { 48 };

/// One instrumented run's trace file and what replaying it needs.
struct Fixture {
    name: &'static str,
    program: Program,
    ids: HashMap<ObjId, u64>,
    max_paths: u64,
    file: Vec<u8>,
    /// Each thread body as `(offset of its length prefix, record end
    /// offsets within the body)`.
    threads: Vec<(usize, Vec<usize>)>,
}

impl Fixture {
    fn new(name: &'static str, program: Program, dump_mode: DumpMode, stop: StopWhen) -> Self {
        let opts = BuildOptions {
            vm: VmConfig {
                dump_mode,
                ..VmConfig::default()
            },
            ..BuildOptions::default()
        };
        let max_paths = opts.vm.max_paths;
        let p = Pipeline::new(&program, opts);
        let built = p.build_instrumented(InstrumentConfig::FULL).unwrap();
        let trace = p.run_image(&built, stop).unwrap().trace.expect("a trace");
        let ids = assign_ids(&program, &built.snapshot, HeapStrategy::HeapPath);
        let file = write_trace(&trace).to_vec();
        // The file layout: magic, string count, strings, thread count, then
        // each thread body behind its u64 length.
        let mut at = 8 + trace.strings.iter().map(|s| 4 + s.len()).sum::<usize>() + 4;
        let mut threads = vec![];
        for t in &trace.threads {
            let mut end = 0;
            let ends: Vec<usize> = t
                .records()
                .map(|r| {
                    end += TraceRecord::from(r).encoded_len();
                    end
                })
                .collect();
            threads.push((at, ends));
            at += 8 + end;
        }
        assert_eq!(at, file.len(), "{name}: file layout");
        Fixture {
            name,
            program,
            ids,
            max_paths,
            file,
            threads,
        }
    }

    fn body(&self, thread: usize) -> &[u8] {
        let (at, ends) = &self.threads[thread];
        &self.file[at + 8..at + 8 + ends.last().copied().unwrap_or(0)]
    }

    /// The file with thread `thread`'s body replaced by `body`, its length
    /// prefix rewritten to match.
    fn with_body(&self, thread: usize, body: &[u8]) -> Vec<u8> {
        let (at, _) = self.threads[thread];
        let old_end = at + 8 + self.body(thread).len();
        let mut f = self.file[..at].to_vec();
        f.extend_from_slice(&(body.len() as u64).to_be_bytes());
        f.extend_from_slice(body);
        f.extend_from_slice(&self.file[old_end..]);
        f
    }

    /// Decodes `input`; on success replays and lints the result. Panics
    /// propagate; `read_trace` may allocate no more than the input.
    fn check(&self, what: &str, input: &[u8]) -> Result<Trace, TraceDecodeError> {
        let (decoded, peak) = largest_allocation(|| read_trace(input));
        assert!(
            peak <= input.len(),
            "{}: {what}: read_trace allocated {peak} bytes from a {}-byte input",
            self.name,
            input.len()
        );
        if let Ok(trace) = &decoded {
            let _ = replay_first_access(&self.program, trace, &self.ids, self.max_paths);
            let _ = check_trace(trace);
        }
        decoded
    }
}

fn bounce() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        Fixture::new(
            "Bounce-small",
            Awfy::Bounce.program_at(&RuntimeScale::small()),
            DumpMode::OnFull,
            StopWhen::Exit,
        )
    })
}

fn micronaut() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        Fixture::new(
            "micronaut",
            Microservice::Micronaut.program(),
            DumpMode::MemoryMapped,
            StopWhen::FirstResponse,
        )
    })
}

fn fixtures() -> [&'static Fixture; 2] {
    [bounce(), micronaut()]
}

/// `n` indices spread evenly over `0..len`.
fn spread(len: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n.min(len)).map(move |i| i * len / n.min(len))
}

/// Record boundaries to cut at: the first and last few of each thread,
/// and a sample between.
fn boundaries(ends: &[usize]) -> Vec<usize> {
    let mut at: Vec<usize> = std::iter::once(0)
        .chain(ends.iter().take(SAMPLES).copied())
        .chain(ends.iter().rev().take(SAMPLES).copied())
        .chain(spread(ends.len(), SAMPLES).map(|i| ends[i]))
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

#[test]
fn the_undamaged_files_decode_and_replay() {
    for f in fixtures() {
        let trace = f.check("undamaged", &f.file).expect("decodes");
        replay_first_access(&f.program, &trace, &f.ids, f.max_paths).expect("replays");
        assert_eq!(write_trace(&trace).to_vec(), f.file, "{}", f.name);
    }
    assert!(
        micronaut().threads.len() > 1,
        "micronaut traces several threads"
    );
}

#[test]
fn single_bit_flips() {
    for f in fixtures() {
        // Every bit of the file header and of each thread's length prefix;
        // one bit of each byte at the start of each thread body and at
        // positions sampled across the file.
        let mut flips: Vec<(usize, u8)> = (0..24 * 8).map(|b| (b / 8, (b % 8) as u8)).collect();
        for &(at, _) in &f.threads {
            flips.extend((0..64).map(|b| (at + b / 8, (b % 8) as u8)));
            flips.extend((at + 8..at + 8 + 32).map(|p| (p, (p % 8) as u8)));
        }
        flips.extend(spread(f.file.len(), 8 * SAMPLES).map(|p| (p, (p % 8) as u8)));
        flips.retain(|&(p, _)| p < f.file.len());
        flips.sort_unstable();
        flips.dedup();
        for (p, bit) in flips {
            let mut damaged = f.file.clone();
            damaged[p] ^= 1 << bit;
            let _ = f.check(&format!("bit {bit} of byte {p} flipped"), &damaged);
        }
    }
}

#[test]
fn truncations_around_record_boundaries() {
    for f in fixtures() {
        for (t, (at, ends)) in f.threads.iter().enumerate() {
            let body = f.body(t);
            for b in boundaries(ends) {
                for cut in b.saturating_sub(3)..=(b + 3).min(body.len()) {
                    // The file cut short: always an error.
                    let end = at + 8 + cut;
                    if end < f.file.len() {
                        let what = format!("file cut at byte {end}");
                        assert!(
                            f.check(&what, &f.file[..end]).is_err(),
                            "{}: {what}",
                            f.name
                        );
                    }
                    // The thread body cut, its length rewritten: a cut on a
                    // record boundary keeps exactly the records before it.
                    let what = format!("thread {t} body cut at byte {cut}");
                    match f.check(&what, &f.with_body(t, &body[..cut])) {
                        Ok(trace) => {
                            let kept = ends.partition_point(|&e| e <= cut);
                            assert_eq!(ends[..kept].last().copied().unwrap_or(0), cut);
                            assert_eq!(trace.threads[t].len(), kept, "{}: {what}", f.name);
                        }
                        Err(e) => {
                            assert!(!ends.contains(&cut) && cut != 0, "{}: {what}: {e}", f.name);
                            assert_eq!(e, TraceDecodeError::Truncated, "{}: {what}", f.name);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn thread_bodies_spliced_from_the_other_trace() {
    let [a, b] = fixtures();
    for (into, from) in [(a, b), (b, a)] {
        for t in 0..into.threads.len() {
            for s in 0..from.threads.len() {
                let what = format!("thread {t} replaced by {} thread {s}", from.name);
                let spliced = into.with_body(t, from.body(s));
                into.check(&what, &spliced)
                    .expect("a spliced body is well-formed");
            }
        }
    }
}

#[test]
fn forged_id_counts_are_rejected_without_allocating() {
    let forged = |n_ids: u32| {
        let mut r = vec![2u8];
        r.extend_from_slice(&[0; 16]);
        r.extend_from_slice(&n_ids.to_be_bytes());
        r.extend_from_slice(&[0; 24]);
        r
    };
    for f in fixtures() {
        for (t, (_, ends)) in f.threads.iter().enumerate() {
            let body = f.body(t);
            for b in boundaries(ends) {
                // A forged path record inserted at a record boundary.
                let mut damaged = body[..b].to_vec();
                damaged.extend_from_slice(&forged(u32::MAX));
                damaged.extend_from_slice(&body[b..]);
                let what = format!("thread {t}: forged record at byte {b}");
                assert_eq!(
                    f.check(&what, &f.with_body(t, &damaged)).err(),
                    Some(TraceDecodeError::Truncated),
                    "{}: {what}",
                    f.name
                );
            }
            // Path records' own counts forged.
            let paths = std::iter::once(0)
                .chain(ends.iter().copied())
                .filter(|&start| body.get(start) == Some(&2));
            for start in paths.take(SAMPLES) {
                let mut damaged = body.to_vec();
                damaged[start + 17..start + 21].copy_from_slice(&u32::MAX.to_be_bytes());
                let what =
                    format!("thread {t}: the path record at byte {start} forges u32::MAX ids");
                assert_eq!(
                    f.check(&what, &f.with_body(t, &damaged)).err(),
                    Some(TraceDecodeError::Truncated),
                    "{}: {what}",
                    f.name
                );
            }
        }
    }
}
