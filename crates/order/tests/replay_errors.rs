//! `replay_first_access` on damaged traces: each damage to one record of
//! a real instrumented run (small-scale Bounce) returns its
//! [`ReplayError`] instead of a summary — and never panics.

use std::collections::HashMap;
use std::sync::OnceLock;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS};
use nimage_heap::{snapshot, HeapBuildConfig, ObjId};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_ir::Program;
use nimage_order::{assign_ids, replay_first_access, HeapStrategy, ReplayError, ReplaySummary};
use nimage_profiler::{ThreadTrace, Trace, TraceRecord};
use nimage_vm::{StopWhen, Vm, VmConfig};
use nimage_workloads::{Awfy, RuntimeScale};

struct Fixture {
    program: Program,
    trace: Trace,
    ids: HashMap<ObjId, u64>,
    max_paths: u64,
}

/// Small-scale Bounce's instrumented build, run to exit once per process.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let program = Awfy::Bounce.program_at(&RuntimeScale::small());
        let reach = analyze(&program, &AnalysisConfig::default());
        let compiled = compile(
            &ProgramIndex::new(&program, DEFAULT_MAX_PATHS),
            reach,
            &InlineConfig::default(),
            InstrumentConfig::FULL,
            None,
        );
        let snap = snapshot(
            &ProgramIndex::new(&program, DEFAULT_MAX_PATHS),
            &compiled,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        let image = BinaryImage::build(&compiled, &snap, None, None, ImageOptions::default());
        let cfg = VmConfig::default();
        let report = Vm::new(&program, &compiled, &snap, &image, cfg.clone())
            .run(StopWhen::Exit)
            .unwrap();
        let trace = report.trace.expect("instrumented run records a trace");
        let ids = assign_ids(&program, &snap, HeapStrategy::HeapPath);
        Fixture {
            program,
            trace,
            ids,
            max_paths: cfg.max_paths,
        }
    })
}

fn replay(trace: &Trace) -> Result<ReplaySummary, ReplayError> {
    let f = fixture();
    replay_first_access(&f.program, trace, &f.ids, f.max_paths)
}

/// A copy of the trace with `damage` applied to its first path record
/// that stores at least one object id.
fn damaged(damage: impl FnOnce(&mut Vec<String>, &mut TraceRecord)) -> Trace {
    let mut trace = fixture().trace.clone();
    let mut threads: Vec<Vec<TraceRecord>> = trace
        .threads
        .iter()
        .map(|t| t.records().map(TraceRecord::from).collect())
        .collect();
    let record = threads
        .iter_mut()
        .flatten()
        .find(|r| matches!(r, TraceRecord::Path { obj_ids, .. } if !obj_ids.is_empty()))
        .expect("the trace has a path record with object ids");
    damage(&mut trace.strings, record);
    trace.threads = threads.into_iter().map(ThreadTrace::from_records).collect();
    trace
}

#[test]
fn the_undamaged_trace_replays() {
    let summary = replay(&fixture().trace).unwrap();
    assert!(!summary.cu_order.is_empty());
    assert!(!summary.object_order.is_empty());
}

#[test]
fn a_dropped_object_id_is_an_id_count_mismatch() {
    let mut dropped = None;
    let trace = damaged(|strings, r| {
        let TraceRecord::Path {
            method, obj_ids, ..
        } = r
        else {
            unreachable!()
        };
        obj_ids.pop();
        dropped = Some((strings[*method as usize].clone(), obj_ids.len()));
    });
    let (method, stored) = dropped.unwrap();
    assert_eq!(
        replay(&trace),
        Err(ReplayError::IdCountMismatch {
            method,
            stored,
            expected: stored + 1,
        })
    );
}

#[test]
fn a_non_method_string_is_an_unknown_signature() {
    let trace = damaged(|strings, r| {
        let TraceRecord::Path { method, .. } = r else {
            unreachable!()
        };
        strings.push("no.Such.method(0)".to_string());
        *method = strings.len() as u32 - 1;
    });
    assert_eq!(
        replay(&trace),
        Err(ReplayError::UnknownSignature(
            "no.Such.method(0)".to_string()
        ))
    );
}

#[test]
fn out_of_range_fields_are_errors_not_panics() {
    /// Damages a path record, given the string-table length.
    type Damage = fn(&mut TraceRecord, u32);
    let n_strings = fixture().trace.strings.len() as u32;
    let cases: [(&str, u64, Damage); 3] = [
        ("string index", u64::from(n_strings), |r, n| {
            if let TraceRecord::Path { method, .. } = r {
                *method = n;
            }
        }),
        ("start", u64::from(u32::MAX), |r, _| {
            if let TraceRecord::Path { start, .. } = r {
                *start = u32::MAX;
            }
        }),
        ("path id", u64::MAX, |r, _| {
            if let TraceRecord::Path { path_id, .. } = r {
                *path_id = u64::MAX;
            }
        }),
    ];
    for (field, value, damage) in cases {
        let trace = damaged(|_, r| damage(r, n_strings));
        assert_eq!(
            replay(&trace),
            Err(ReplayError::OutOfRange { field, value }),
            "{field}"
        );
    }

    // Entry records index the string table too.
    let mut trace = fixture().trace.clone();
    let entry = TraceRecord::CuEntry { sig: n_strings };
    trace.threads[0] = ThreadTrace::from_records(
        std::iter::once(entry).chain(trace.threads[0].records().map(TraceRecord::from)),
    );
    assert_eq!(
        replay(&trace),
        Err(ReplayError::OutOfRange {
            field: "string index",
            value: u64::from(n_strings),
        })
    );
}
