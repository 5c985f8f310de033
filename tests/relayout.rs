//! Smoke test of the relayout invariant the engine's strategy cells rest
//! on: paging the baseline run's access log against a strategy's image
//! gives exactly the report of executing the build on that image. The
//! exhaustive version (all 17 workloads, random layouts, every
//! fault-around window) is `crates/core/tests/relayout.rs`.

use nimage::vm::StopWhen;
use nimage::workloads::{Awfy, Microservice, RuntimeScale};
use nimage::{BuildOptions, BuildRequest, Engine, Pipeline, RunParts, Strategy, Tracer};
use nimage::{EngineOptions, WorkloadSpec};

#[test]
fn relayout_equals_reexecution_for_every_strategy() {
    let engine = Engine::new(EngineOptions::default());
    let programs = [
        (
            "Sieve",
            Awfy::Sieve.program_at(&RuntimeScale::small()),
            StopWhen::Exit,
        ),
        (
            "micronaut",
            Microservice::Micronaut.program(),
            StopWhen::FirstResponse,
        ),
    ];
    for (name, program, stop) in &programs {
        let spec = WorkloadSpec::new(*name, program, BuildOptions::default(), *stop);
        let p = Pipeline::new(program, spec.opts.clone());
        let artifacts = engine.profile_workload(&spec).unwrap();
        let image_for = |strategy| {
            engine
                .optimized_image(&BuildRequest {
                    spec: &spec,
                    artifacts: &artifacts,
                    strategy,
                })
                .unwrap()
        };
        let base = image_for(None);
        let (compiled, snapshot) = (&base.compiled, &base.snapshot);
        let logged = p
            .run_logged(RunParts::new(compiled, snapshot, &base.image), *stop)
            .unwrap();
        for s in Strategy::all() {
            let image = image_for(Some(s)).image;
            let relaid = p
                .relayout(&logged, compiled, &image, &Tracer::disabled())
                .unwrap();
            let rerun = p
                .run(RunParts::new(compiled, snapshot, &image), *stop)
                .unwrap();
            assert_eq!(
                format!("{relaid:?}"),
                format!("{rerun:?}"),
                "{name} × {}: relaid report differs from re-execution",
                s.name()
            );
        }
    }
}
