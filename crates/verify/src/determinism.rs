//! Determinism audit: run ordering and layout twice under perturbed
//! allocation and diff the results.
//!
//! `HashMap`'s iteration order varies between instances (`RandomState` is
//! seeded per map), so any pipeline stage that iterates a `HashMap` to
//! produce an order leaks nondeterminism into the image. The audit
//! executes the analyze → compile → snapshot → order → layout chain twice
//! — with deliberately different intervening heap activity, so allocator
//! state and hasher seeds differ between runs — and requires byte-identical
//! image files plus identical ordering CSVs.
//!
//! [`audit_profiling_determinism`] extends the same discipline to the
//! *profiling* build (steps 1–3 of the paper's Fig. 1): instrumented
//! compile, VM run, and trace replay each execute twice around allocator
//! perturbation, requiring byte-identical trace files and identical
//! ordering profiles.

use std::collections::HashMap;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig, ProgramIndex};
use nimage_heap::{snapshot, HeapBuildConfig};
use nimage_image::{write_image_file, BinaryImage, ImageOptions};
use nimage_ir::Program;
use nimage_order::{
    assign_ids, order_cus, order_objects, replay_indexed, CodeGranularity, CodeOrderProfile,
    HeapOrderProfile, HeapStrategy,
};
use nimage_profiler::write_trace;
use nimage_vm::{StopWhen, Vm, VmConfig};

use crate::Diagnostic;

/// Profiles to replay during the audit, if any. With `None` profiles the
/// audit still exercises the default (alphabetical / snapshot) orders.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeterminismInputs<'a> {
    /// Code-ordering profile applied via `order_cus`.
    pub cu_profile: Option<&'a CodeOrderProfile>,
    /// Heap-ordering profile applied via `order_objects`.
    pub heap_profile: Option<&'a HeapOrderProfile>,
    /// Identity strategy for heap matching.
    pub heap_strategy: Option<HeapStrategy>,
}

/// Outcome of [`audit_determinism`].
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Serialized image files of both runs are byte-identical.
    pub image_identical: bool,
    /// CU-order CSVs (index, cu, offset, signature) are identical.
    pub cu_order_identical: bool,
    /// Object-order CSVs (index, object, offset, identity) are identical.
    pub object_order_identical: bool,
    /// One error per differing artifact; empty when deterministic. A run
    /// failure (build-time execution error) is also reported here.
    pub diagnostics: Vec<Diagnostic>,
}

impl DeterminismReport {
    /// Whether both runs agreed on everything.
    pub fn is_deterministic(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Artifacts of one pipeline run the audit compares.
struct RunArtifacts {
    image_bytes: Vec<u8>,
    cu_csv: String,
    object_csv: String,
}

/// Runs the back half of the pipeline twice and diffs the results.
pub fn audit_determinism(program: &Program, inputs: &DeterminismInputs<'_>) -> DeterminismReport {
    let first = run_once(program, inputs);
    perturb_allocator(0x35);
    let second = run_once(program, inputs);

    let (a, b) = match (first, second) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return DeterminismReport {
                image_identical: false,
                cu_order_identical: false,
                object_order_identical: false,
                diagnostics: vec![Diagnostic::error(
                    "determinism::run-failed",
                    "pipeline",
                    format!("audit run failed: {e}"),
                )],
            }
        }
    };

    let mut diagnostics = vec![];
    let image_identical = a.image_bytes == b.image_bytes;
    if !image_identical {
        diagnostics.push(Diagnostic::error(
            "determinism::image",
            "image file",
            format!(
                "serialized images differ between identical runs ({} vs {} bytes, first \
                 difference at byte {})",
                a.image_bytes.len(),
                b.image_bytes.len(),
                first_difference(&a.image_bytes, &b.image_bytes),
            ),
        ));
    }
    let cu_order_identical = a.cu_csv == b.cu_csv;
    if !cu_order_identical {
        diagnostics.push(Diagnostic::error(
            "determinism::cu-order",
            ".text order",
            format!(
                "CU orders differ between identical runs; first differing line: {}",
                first_differing_line(&a.cu_csv, &b.cu_csv),
            ),
        ));
    }
    let object_order_identical = a.object_csv == b.object_csv;
    if !object_order_identical {
        diagnostics.push(Diagnostic::error(
            "determinism::object-order",
            ".svm_heap order",
            format!(
                "object orders differ between identical runs; first differing line: {}",
                first_differing_line(&a.object_csv, &b.object_csv),
            ),
        ));
    }
    DeterminismReport {
        image_identical,
        cu_order_identical,
        object_order_identical,
        diagnostics,
    }
}

fn run_once(program: &Program, inputs: &DeterminismInputs<'_>) -> Result<RunArtifacts, String> {
    let index = ProgramIndex::new(program, VmConfig::default().max_paths);
    let reach = analyze(program, &AnalysisConfig::default());
    let compiled = compile(
        &index,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    let snap = snapshot(&index, &compiled, &HeapBuildConfig::default())
        .map_err(|e| format!("heap snapshot failed: {e:?}"))?;

    let cu_order = inputs
        .cu_profile
        .map(|p| order_cus(&index, &compiled, p, CodeGranularity::Cu));
    let strategy = inputs.heap_strategy.unwrap_or(HeapStrategy::HeapPath);
    let ids = assign_ids(program, &snap, strategy);
    let object_order = inputs.heap_profile.map(|p| order_objects(&snap, &ids, p));

    let image = BinaryImage::build(
        &compiled,
        &snap,
        cu_order,
        object_order,
        ImageOptions::default(),
    );
    let image_bytes = write_image_file(&image).to_vec();

    let mut cu_csv = String::from("index,cu,offset,signature\n");
    for (i, &cu) in image.cu_order.iter().enumerate() {
        cu_csv.push_str(&format!(
            "{i},{cu},{},{}\n",
            image.cu_offset(cu),
            program.method_signature(compiled.cu(cu).root),
        ));
    }
    let mut object_csv = String::from("index,object,offset,identity\n");
    for (i, &obj) in image.object_order.iter().enumerate() {
        object_csv.push_str(&format!(
            "{i},{obj},{},{}\n",
            image.object_offset(obj).unwrap_or(u64::MAX),
            ids.get(&obj).copied().unwrap_or(0),
        ));
    }
    Ok(RunArtifacts {
        image_bytes,
        cu_csv,
        object_csv,
    })
}

/// Outcome of [`audit_profiling_determinism`].
#[derive(Debug, Clone)]
pub struct ProfilingDeterminismReport {
    /// Serialized trace files of both instrumented runs are byte-identical.
    pub trace_identical: bool,
    /// Replayed ordering profiles (CU, method, heap) are identical.
    pub profiles_identical: bool,
    /// One error per differing artifact; empty when deterministic.
    pub diagnostics: Vec<Diagnostic>,
}

impl ProfilingDeterminismReport {
    /// Whether both instrumented runs agreed on everything.
    pub fn is_deterministic(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Profiling-run artifacts the audit compares.
struct ProfilingArtifacts {
    trace_bytes: Vec<u8>,
    /// `cu_order.csv` ++ `method_order.csv` ++ heap ids, one artifact per
    /// line, exactly what the post-processing framework would persist.
    profile_csv: String,
}

/// Runs the profiling build (instrumented compile → VM run → trace
/// replay) twice under allocator perturbation and diffs trace bytes and
/// ordering profiles.
///
/// `stop` must match the workload class: server-style programs park in
/// an accept loop and never exit, so auditing them under
/// [`StopWhen::Exit`] would spin forever — pass the same stop condition
/// the measured profiling run uses (e.g. `StopWhen::FirstResponse`).
pub fn audit_profiling_determinism(
    program: &Program,
    stop: StopWhen,
) -> ProfilingDeterminismReport {
    let first = profiling_run_once(program, stop);
    perturb_allocator(0x2b);
    let second = profiling_run_once(program, stop);

    let (a, b) = match (first, second) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            return ProfilingDeterminismReport {
                trace_identical: false,
                profiles_identical: false,
                diagnostics: vec![Diagnostic::error(
                    "determinism::run-failed",
                    "profiling build",
                    format!("audit run failed: {e}"),
                )],
            }
        }
    };

    let mut diagnostics = vec![];
    let trace_identical = a.trace_bytes == b.trace_bytes;
    if !trace_identical {
        diagnostics.push(Diagnostic::error(
            "determinism::trace",
            "trace file",
            format!(
                "serialized traces differ between identical profiling runs ({} vs {} bytes, \
                 first difference at byte {})",
                a.trace_bytes.len(),
                b.trace_bytes.len(),
                first_difference(&a.trace_bytes, &b.trace_bytes),
            ),
        ));
    }
    let profiles_identical = a.profile_csv == b.profile_csv;
    if !profiles_identical {
        diagnostics.push(Diagnostic::error(
            "determinism::profiles",
            "ordering profiles",
            format!(
                "replayed profiles differ between identical profiling runs; first differing \
                 line: {}",
                first_differing_line(&a.profile_csv, &b.profile_csv),
            ),
        ));
    }
    ProfilingDeterminismReport {
        trace_identical,
        profiles_identical,
        diagnostics,
    }
}

fn profiling_run_once(program: &Program, stop: StopWhen) -> Result<ProfilingArtifacts, String> {
    let index = ProgramIndex::new(program, VmConfig::default().max_paths);
    let reach = analyze(program, &AnalysisConfig::default());
    let compiled = compile(
        &index,
        reach,
        &InlineConfig::default(),
        InstrumentConfig::FULL,
        None,
    );
    let snap = snapshot(&index, &compiled, &HeapBuildConfig::default())
        .map_err(|e| format!("heap snapshot failed: {e:?}"))?;
    let image = BinaryImage::build(&compiled, &snap, None, None, ImageOptions::default());

    let cfg = VmConfig::default();
    let vm = Vm::new(program, &compiled, &snap, &image, cfg.clone());
    let report = vm
        .run(stop)
        .map_err(|e| format!("instrumented run failed: {e:?}"))?;
    let trace = report.trace.ok_or("instrumented run produced no trace")?;
    let trace_bytes = write_trace(&trace).to_vec();

    let ids = assign_ids(program, &snap, HeapStrategy::HeapPath);
    let members = snap.entries().iter().map(|e| e.obj);
    let summary =
        replay_indexed(&index, &trace, members).map_err(|e| format!("replay failed: {e:?}"))?;

    let mut profile_csv = String::from("artifact,value\n");
    for sig in &summary.cu_order {
        profile_csv.push_str(&format!("cu,{sig}\n"));
    }
    for sig in &summary.method_order {
        profile_csv.push_str(&format!("method,{sig}\n"));
    }
    for id in &summary.heap_profile(&ids).ids {
        profile_csv.push_str(&format!("heap,{id:016x}\n"));
    }
    Ok(ProfilingArtifacts {
        trace_bytes,
        profile_csv,
    })
}

/// Shifts allocator and hasher state between runs: performs `n` heap
/// allocations of varying sizes and builds a few `HashMap`s so subsequent
/// `RandomState` seeds and allocation addresses differ from the first
/// run's. `std::hint::black_box` keeps the allocations live.
fn perturb_allocator(n: usize) {
    let mut keep: Vec<Vec<u8>> = Vec::with_capacity(n);
    for i in 0..n {
        keep.push(vec![0u8; 17 + 31 * i]);
    }
    let mut maps: Vec<HashMap<usize, usize>> = vec![];
    for _ in 0..4 {
        let mut m = HashMap::new();
        for i in 0..n {
            m.insert(i, i.wrapping_mul(0x9e37_79b9));
        }
        maps.push(m);
    }
    std::hint::black_box(&keep);
    std::hint::black_box(&maps);
}

fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn first_differing_line(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("{la:?} vs {lb:?}");
        }
    }
    "(lengths differ)".to_string()
}
