//! Relayout is re-execution: paging one run's access log against another
//! image of the same build must produce, field for field, the report of a
//! fresh run on that image. The engine's strategy cells rest on this — they
//! page the baseline run's log instead of interpreting the build again —
//! so it is checked on every bundled workload's real strategy images, on
//! random layouts under every fault-around window, and at its root: the
//! log itself does not depend on the image.

use std::sync::OnceLock;

use proptest::prelude::*;

use nimage_compiler::{CuId, InstrumentConfig};
use nimage_core::{
    BuildOptions, BuildParts, BuildRequest, Engine, EngineOptions, Pipeline, RunParts, Strategy,
    WorkloadSpec,
};
use nimage_image::BinaryImage;
use nimage_ir::Program;
use nimage_trace::Tracer;
use nimage_vm::{AccessLog, PagingConfig, RunReport, StopWhen};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// The 17 bundled workloads with the stop condition each runs under.
fn bundled() -> Vec<(String, Program, StopWhen)> {
    let mut out: Vec<(String, Program, StopWhen)> = Awfy::all()
        .iter()
        .map(|w| (w.name().to_string(), w.program(), StopWhen::Exit))
        .collect();
    out.extend(
        Microservice::all()
            .iter()
            .map(|w| (w.name().to_string(), w.program(), StopWhen::FirstResponse)),
    );
    out
}

/// The baseline image and every strategy image of one workload, as the
/// engine builds them.
fn engine_images(engine: &Engine, spec: &WorkloadSpec<'_>) -> (BuildParts, Vec<BinaryImage>) {
    let artifacts = engine.profile_workload(spec).unwrap();
    let build = |strategy| {
        engine
            .optimized_image(&BuildRequest {
                spec,
                artifacts: &artifacts,
                strategy,
            })
            .unwrap()
    };
    let baseline = build(None);
    let images = Strategy::all()
        .into_iter()
        .map(|s| (*build(Some(s)).image).clone())
        .collect();
    (baseline, images)
}

#[test]
fn relaid_reports_equal_reexecution_on_every_bundled_workload() {
    let engine = Engine::new(EngineOptions {
        n_threads: 2,
        ..EngineOptions::default()
    });
    for (name, program, stop) in bundled() {
        let spec = WorkloadSpec::new(&name, &program, BuildOptions::default(), stop);
        let p = Pipeline::new(&program, spec.opts.clone());
        let (base, images) = engine_images(&engine, &spec);
        let run = |image: &BinaryImage| {
            p.run(RunParts::new(&base.compiled, &base.snapshot, image), stop)
                .unwrap()
        };
        let logged = p
            .run_logged(
                RunParts::new(&base.compiled, &base.snapshot, &base.image),
                stop,
            )
            .unwrap();
        for (i, image) in std::iter::once(&*base.image).chain(&images).enumerate() {
            let relaid = p
                .relayout(&logged, &base.compiled, image, &Tracer::disabled())
                .unwrap();
            assert_eq!(
                format!("{relaid:?}"),
                format!("{:?}", run(image)),
                "{name}: image {i} (0 = baseline) relaid differs from re-executed"
            );
        }
    }
}

/// One build and its logged run on the default layout.
struct Fixture {
    program: Program,
    built: BuildParts,
    stop: StopWhen,
    logged: (RunReport, AccessLog),
}

/// Micronaut (stops at its first response) and Bounce (runs to exit),
/// each plain and fully instrumented.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let programs = [
            (Microservice::Micronaut.program(), StopWhen::FirstResponse),
            (
                Awfy::Bounce.program_at(&RuntimeScale::small()),
                StopWhen::Exit,
            ),
        ];
        let mut out = vec![];
        for (program, stop) in programs {
            for instrument in [InstrumentConfig::NONE, InstrumentConfig::FULL] {
                let p = Pipeline::new(&program, BuildOptions::default());
                let built = p.build_instrumented(instrument).unwrap();
                let logged = p
                    .run_logged(
                        RunParts::new(&built.compiled, &built.snapshot, &built.image),
                        stop,
                    )
                    .unwrap();
                out.push(Fixture {
                    program: program.clone(),
                    built,
                    stop,
                    logged,
                });
            }
        }
        out
    })
}

/// `v` shuffled by a seeded Fisher–Yates.
fn shuffled<T>(mut v: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        v.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn relayout_equals_reexecution_on_random_layouts(
        which in 0usize..4,
        seed in 1u64..u64::MAX,
        window in prop_oneof![Just(1u64), Just(2u64), Just(16u64), Just(64u64)],
    ) {
        let f = &fixtures()[which];
        let (compiled, snapshot) = (&f.built.compiled, &f.built.snapshot);
        let mut opts = BuildOptions::default();
        opts.vm.paging = PagingConfig::new(window).unwrap();
        let p = Pipeline::new(&f.program, opts.clone());

        let cus = shuffled((0..compiled.cus.len() as u32).map(CuId).collect(), seed);
        let objects = shuffled(snapshot.entries().iter().map(|e| e.obj).collect(), seed ^ 1);
        let mut image = BinaryImage::build(compiled, snapshot, Some(cus), Some(objects), opts.image);
        let native = shuffled((0..image.native_pages() as u32).collect(), seed ^ 2);
        image.set_native_page_order(native);

        let (rerun, log) = p
            .run_logged(RunParts::new(compiled, snapshot, &image), f.stop)
            .unwrap();
        let relaid = p
            .relayout(&f.logged, compiled, &image, &Tracer::disabled())
            .unwrap();
        prop_assert_eq!(format!("{relaid:?}"), format!("{rerun:?}"));
        prop_assert!(log == f.logged.1, "the log moved with the layout");
    }
}

/// Two runs of one build on different images log the same first touches
/// in the same order: the log is a property of the build, not the layout.
/// And on the small-scale Sieve and micronaut, the baseline run's log
/// paged against every strategy image gives that image's re-executed
/// report.
#[test]
fn one_build_logs_the_same_on_every_image() {
    let engine = Engine::default();
    let programs = [
        (
            Awfy::Sieve.program_at(&RuntimeScale::small()),
            StopWhen::Exit,
        ),
        (Microservice::Micronaut.program(), StopWhen::FirstResponse),
    ];
    for (program, stop) in &programs {
        let spec = WorkloadSpec::new("wl", program, BuildOptions::default(), *stop);
        let p = Pipeline::new(program, spec.opts.clone());
        let (base, images) = engine_images(&engine, &spec);
        let run_on = |image: &BinaryImage| {
            p.run_logged(RunParts::new(&base.compiled, &base.snapshot, image), *stop)
                .unwrap()
        };
        let reference = run_on(&base.image);
        assert!(!reference.1.touches().is_empty());
        assert_eq!(
            reference.1.respond_at().is_some(),
            *stop == StopWhen::FirstResponse
        );
        for (image, s) in images.iter().zip(Strategy::all()) {
            let (report, log) = run_on(image);
            assert!(log == reference.1, "{}: log differs", s.name());
            let relaid = p
                .relayout(&reference, &base.compiled, image, &Tracer::disabled())
                .unwrap();
            assert_eq!(
                format!("{relaid:?}"),
                format!("{report:?}"),
                "{}: relaid report differs from re-execution",
                s.name()
            );
        }
    }
}
