//! The workload handle: one fingerprint and one program index per
//! workload, whatever is asked of it, and the same answers as the by-spec
//! `Engine` methods.

use nimage_core::{
    BuildOptions, BuildParts, BuildRequest, DiskCacheOptions, Engine, EngineOptions, EvalRequest,
    ProfiledArtifacts, Strategy, Workload, WorkloadSpec,
};
use nimage_ir::Program;
use nimage_order::HeapStrategy;
use nimage_vm::StopWhen;
use nimage_workloads::{Awfy, RuntimeScale};

fn programs() -> Vec<(&'static str, Program)> {
    let scale = RuntimeScale::small();
    vec![
        ("Sieve", Awfy::Sieve.program_at(&scale)),
        ("Bounce", Awfy::Bounce.program_at(&scale)),
    ]
}

fn specs<'a>(programs: &'a [(&'static str, Program)]) -> Vec<WorkloadSpec<'a>> {
    programs
        .iter()
        .map(|(name, p)| WorkloadSpec::new(*name, p, BuildOptions::default(), StopWhen::Exit))
        .collect()
}

fn engine(disk: Option<&std::path::Path>) -> Engine {
    Engine::new(EngineOptions {
        n_threads: 2,
        disk: disk.map(DiskCacheOptions::at),
        trace: Default::default(),
    })
}

fn span_count(engine: &Engine, name: &str) -> u64 {
    nimage_trace::aggregate(&engine.tracer().events())
        .get(name)
        .map_or(0, |a| a.count)
}

fn counter(engine: &Engine, name: &str) -> u64 {
    engine
        .tracer()
        .metrics()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// `Debug` of the profiles, with the heap profiles (a `HashMap`) in the
/// paper's scheme order.
fn render_profile(a: &ProfiledArtifacts) -> String {
    let heap = HeapStrategy::all().map(|hs| format!("{hs:?}: {:?}", a.heap_profiles[&hs]));
    format!(
        "{:?} {:?} {:?} {heap:?} {:?} {:?}",
        a.call_counts, a.cu_profile, a.method_profile, a.native_pages, a.instrumented_report
    )
}

/// `Debug` of the parts whose rendering is deterministic: the CUs, the
/// snapshot entries and the image.
fn render_parts(p: &BuildParts) -> String {
    format!(
        "{:?} {:?} {:?}",
        p.compiled.cus,
        p.snapshot.entries(),
        p.image
    )
}

/// Every query the handle offers, rendered through `Debug`.
fn everything(w: &Workload<'_, '_, '_>) -> Vec<String> {
    let artifacts = w.profile().unwrap();
    let mut out = vec![render_profile(&artifacts)];
    out.push(render_parts(&w.instrumented_parts().unwrap()));
    out.push(render_parts(&w.optimized_image(&artifacts, None).unwrap()));
    for s in Strategy::all() {
        out.push(render_parts(
            &w.optimized_image(&artifacts, Some(s)).unwrap(),
        ));
        out.push(format!("{:?}", w.layout_plan(&artifacts, s).unwrap()));
    }
    out.push(format!("{:?}", w.evaluate(&Strategy::all()).unwrap()));
    out
}

#[test]
fn one_handle_fingerprints_and_indexes_its_workload_once() {
    let programs = programs();
    let specs = specs(&programs);
    let engine = engine(None);
    for spec in &specs {
        everything(&engine.workload(spec));
    }
    let n = specs.len() as u64;
    assert_eq!(
        span_count(&engine, "fingerprint"),
        n,
        "one fingerprint per workload"
    );
    assert_eq!(
        counter(&engine, "index.builds"),
        n,
        "one index per workload"
    );
}

#[test]
fn handle_results_equal_the_by_spec_methods() {
    let programs = programs();
    let specs = specs(&programs);
    let by_handle = engine(None);
    let by_spec = engine(None);
    for spec in &specs {
        let expected = {
            let artifacts = by_spec.profile_workload(spec).unwrap();
            let req = |strategy| BuildRequest {
                spec,
                artifacts: &artifacts,
                strategy,
            };
            let mut out = vec![render_profile(&artifacts)];
            out.push(render_parts(&by_spec.instrumented_parts(spec).unwrap()));
            out.push(render_parts(&by_spec.optimized_image(&req(None)).unwrap()));
            for s in Strategy::all() {
                out.push(render_parts(
                    &by_spec.optimized_image(&req(Some(s))).unwrap(),
                ));
                out.push(format!(
                    "{:?}",
                    by_spec.workload(spec).layout_plan(&artifacts, s).unwrap()
                ));
            }
            let cells = by_spec
                .evaluate_matrix(std::slice::from_ref(spec), &Strategy::all())
                .unwrap();
            out.push(format!("{cells:?}"));
            out
        };
        assert_eq!(
            everything(&by_handle.workload(spec)),
            expected,
            "{}",
            spec.name
        );
    }
}

/// A cold pass builds one index per workload; a warm pass over the cache
/// directory it filled is all disk hits and builds none.
#[test]
fn a_warm_pass_builds_no_index() {
    let dir = std::env::temp_dir().join(format!("nimage-handle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let programs = programs();
    let pass = || {
        let engine = engine(Some(&dir));
        let req = EvalRequest::new()
            .workloads(specs(&programs))
            .strategies(Strategy::all());
        engine.evaluate(&req).unwrap();
        counter(&engine, "index.builds")
    };
    assert_eq!(pass(), programs.len() as u64, "cold");
    assert_eq!(pass(), 0, "warm");
    let _ = std::fs::remove_dir_all(&dir);
}
