//! Workspace-level integration tests: the full pipeline over the real
//! workloads at reduced scale, exercising every crate together.

use nimage::compiler::InstrumentConfig;
use nimage::profiler::{read_trace, write_trace, DumpMode};
use nimage::vm::{CostModel, StopWhen, VmConfig};
use nimage::workloads::{Awfy, Microservice, RuntimeScale};
use nimage::{BuildOptions, Pipeline, Strategy};

fn options(dump: DumpMode) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode: dump,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

/// Every AWFY benchmark goes through the complete pipeline and no strategy
/// changes its result or increases its reported fault metric.
#[test]
fn awfy_pipeline_small_scale() {
    let scale = RuntimeScale::small();
    for bench in [Awfy::Sieve, Awfy::Towers, Awfy::Json, Awfy::Richards] {
        let program = bench.program_at(&scale);
        let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
        let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
        let evals = pipeline
            .evaluate(&artifacts, &Strategy::all(), StopWhen::Exit)
            .unwrap();
        for eval in evals {
            assert_eq!(
                eval.baseline.entry_return,
                eval.optimized.entry_return,
                "{}/{}",
                bench.name(),
                eval.strategy.name()
            );
            assert!(
                eval.reported_fault_reduction() >= 0.99,
                "{}/{}: regression {:.3}",
                bench.name(),
                eval.strategy.name(),
                eval.reported_fault_reduction()
            );
        }
    }
}

/// The microservice pipeline end-to-end: dump mode 2 preserves the trace
/// through the kill, and the combined strategy speeds up the first
/// response.
#[test]
fn microservice_pipeline_small_scale() {
    let scale = RuntimeScale::small();
    for service in Microservice::all() {
        let program = service.program_at(&scale);
        let pipeline = Pipeline::new(&program, options(DumpMode::MemoryMapped));
        let artifacts = pipeline.profiling_run(StopWhen::FirstResponse).unwrap();
        let stats = artifacts.instrumented_report.session_stats.expect("stats");
        assert_eq!(
            stats.lost_records,
            0,
            "{}: mmap mode loses nothing",
            service.name()
        );
        let eval = pipeline
            .evaluate(
                &artifacts,
                &[Strategy::CuPlusHeapPath],
                StopWhen::FirstResponse,
            )
            .unwrap()
            .remove(0);
        let cm = CostModel::ssd();
        assert!(
            eval.speedup(&cm) >= 1.0,
            "{}: speedup {:.3}",
            service.name(),
            eval.speedup(&cm)
        );
    }
}

/// Dump mode 1 demonstrably loses records under SIGKILL — the failure the
/// paper's second buffer-dumping mode exists to prevent.
#[test]
fn on_full_mode_loses_records_on_kill() {
    let program = Microservice::Micronaut.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let built = pipeline.build_instrumented(InstrumentConfig::FULL).unwrap();
    let report = pipeline.run_image(&built, StopWhen::FirstResponse).unwrap();
    assert!(
        report.session_stats.unwrap().lost_records > 0,
        "the kill must catch staged records"
    );
}

/// The serialized trace file round-trips through the wire format.
#[test]
fn trace_file_roundtrip_through_disk_format() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let built = pipeline.build_instrumented(InstrumentConfig::FULL).unwrap();
    let report = pipeline.run_image(&built, StopWhen::Exit).unwrap();
    let trace = report.trace.unwrap();
    let bytes = write_trace(&trace);
    let back = read_trace(&bytes).unwrap();
    assert_eq!(back, trace);
    assert!(!bytes.is_empty());
}

/// The serialized image container round-trips, and reordering is visible in
/// the file's CU table.
#[test]
fn image_file_reflects_reordering() {
    let program = Awfy::Queens.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    let baseline = pipeline.build_optimized(&artifacts, None).unwrap();
    let optimized = pipeline
        .build_optimized(&artifacts, Some(Strategy::Cu))
        .unwrap();

    let base_file =
        nimage::image::read_image_file(&nimage::image::write_image_file(&baseline.image)).unwrap();
    let opt_file =
        nimage::image::read_image_file(&nimage::image::write_image_file(&optimized.image)).unwrap();
    assert_eq!(base_file.cus.len(), opt_file.cus.len());
    let base_ids: Vec<u32> = base_file.cus.iter().map(|&(id, _)| id).collect();
    let opt_ids: Vec<u32> = opt_file.cus.iter().map(|&(id, _)| id).collect();
    assert_ne!(base_ids, opt_ids, "cu ordering must change the layout");
    // Same CU set either way.
    let mut a = base_ids.clone();
    let mut b = opt_ids.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

/// Ordering profiles survive the CSV round trip that connects the
/// post-processing pass to the optimizing build (Sec. 6.2) — measured
/// touched-byte spans included.
#[test]
fn profiles_roundtrip_through_csv() {
    use nimage::order::{CodeOrderProfile, HeapOrderProfile, HeapStrategy};
    let program = Awfy::List.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();

    for code in [&artifacts.cu_profile, &artifacts.method_profile] {
        assert!(!code.sigs.is_empty());
        assert_eq!(&CodeOrderProfile::from_csv(&code.to_csv()), code);
    }

    let heap = &artifacts.heap_profiles[&HeapStrategy::HeapPath];
    assert!(heap.spans.iter().any(|s| !s.is_empty()));
    assert_eq!(&HeapOrderProfile::from_csv(&heap.to_csv()), heap);
}

/// The paper's expected orderings hold on at least one full-scale workload
/// (kept to a single benchmark so the test suite stays fast).
#[test]
fn full_scale_shape_bounce() {
    let program = Awfy::Bounce.program();
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    // The paper's six strategies, in Fig. 2's order.
    let evals = pipeline
        .evaluate(&artifacts, &Strategy::all()[..6], StopWhen::Exit)
        .unwrap();
    let [cu, method, incr, hash, path, both] =
        std::array::from_fn(|i| evals[i].reported_fault_reduction());
    // Fig. 2's qualitative claims (artifact appendix B.3.1):
    // code strategies beat heap strategies; cu ≥ method; heap path and
    // structural beat incremental; the combined strategy reduces faults in
    // both sections.
    assert!(cu > 1.3, "cu = {cu:.2}");
    assert!(cu >= method, "cu {cu:.2} vs method {method:.2}");
    assert!(path >= incr, "heap path {path:.2} vs incremental {incr:.2}");
    assert!(
        hash >= incr,
        "structural {hash:.2} vs incremental {incr:.2}"
    );
    assert!(both > 1.3, "combined = {both:.2}");
}

/// The native-tail reordering extension (the paper's Appendix A future
/// work) preserves semantics and never increases faults.
#[test]
fn native_tail_extension_is_safe_and_effective() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let base_opts = options(DumpMode::OnFull);
    let ext_opts = BuildOptions {
        reorder_native: true,
        ..options(DumpMode::OnFull)
    };
    let base_pipeline = Pipeline::new(&program, base_opts);
    let ext_pipeline = Pipeline::new(&program, ext_opts);
    let base_artifacts = base_pipeline.profiling_run(StopWhen::Exit).unwrap();
    let ext_artifacts = ext_pipeline.profiling_run(StopWhen::Exit).unwrap();
    let base = base_pipeline
        .evaluate(&base_artifacts, &[Strategy::CuPlusHeapPath], StopWhen::Exit)
        .unwrap()
        .remove(0);
    let ext = ext_pipeline
        .evaluate(&ext_artifacts, &[Strategy::CuPlusHeapPath], StopWhen::Exit)
        .unwrap()
        .remove(0);
    assert_eq!(base.optimized.entry_return, ext.optimized.entry_return);
    assert!(
        ext.optimized.faults.total() <= base.optimized.faults.total(),
        "native reordering must not regress ({} vs {})",
        ext.optimized.faults.total(),
        base.optimized.faults.total()
    );
}

/// The instrumented run reports the native first-touch profile the
/// extension consumes.
#[test]
fn native_touch_profile_is_recorded() {
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let pipeline = Pipeline::new(&program, options(DumpMode::OnFull));
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    assert!(
        !artifacts.native_pages.is_empty(),
        "startup must touch native pages"
    );
    // First-touch order has no duplicates.
    let set: std::collections::HashSet<_> = artifacts.native_pages.iter().collect();
    assert_eq!(set.len(), artifacts.native_pages.len());
}
