//! Correctness tests for every workload: each benchmark builds, validates,
//! runs deterministically, and — where a closed-form result exists —
//! computes the right answer.

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS};
use nimage_heap::{snapshot, HeapBuildConfig};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_ir::{Program, Value};
use nimage_vm::{ExitKind, StopWhen, Vm, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

fn run(program: &Program, stop: StopWhen) -> nimage_vm::RunReport {
    let reach = analyze(program, &AnalysisConfig::default());
    let cp = compile(
        &ProgramIndex::new(program, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        InstrumentConfig::NONE,
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(program, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap();
    let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    Vm::new(program, &cp, &snap, &img, VmConfig::default())
        .run(stop)
        .unwrap()
}

#[test]
fn every_awfy_benchmark_builds_and_runs() {
    let scale = RuntimeScale::small();
    for b in Awfy::all() {
        let p = b.program_at(&scale);
        let r = run(&p, StopWhen::Exit);
        assert_eq!(r.exit, ExitKind::Exited, "{}", b.name());
        let v = match r.entry_return {
            Some(Value::Int(v)) => v,
            other => panic!("{}: expected int result, got {other:?}", b.name()),
        };
        assert_ne!(v, 0, "{}: checksum must be nonzero", b.name());
    }
}

#[test]
fn closed_form_results_are_correct() {
    let scale = RuntimeScale::small();
    for b in Awfy::all() {
        let Some(expected) = b.expected_iteration_result() else {
            continue;
        };
        let p = b.program_at(&scale);
        let r = run(&p, StopWhen::Exit);
        // main sums `iterations` runs of benchmark().
        let iters = 2;
        assert_eq!(
            r.entry_return,
            Some(Value::Int(expected * iters)),
            "{}",
            b.name()
        );
    }
}

#[test]
fn awfy_runs_are_deterministic() {
    let scale = RuntimeScale::small();
    for b in [Awfy::Bounce, Awfy::Richards, Awfy::Json, Awfy::Storage] {
        let p = b.program_at(&scale);
        let a = run(&p, StopWhen::Exit);
        let bb = run(&p, StopWhen::Exit);
        assert_eq!(a.entry_return, bb.entry_return, "{}", b.name());
        assert_eq!(a.ops, bb.ops, "{}", b.name());
        assert_eq!(a.faults, bb.faults, "{}", b.name());
    }
}

#[test]
fn awfy_touches_only_a_small_fraction_of_snapshot_objects() {
    // Sec. 7.2: "the evaluated benchmarks access a small percentage of the
    // objects stored in the .svm_heap section (on average 4% on AWFY)".
    let p = Awfy::Sieve.program(); // default (large) runtime scale
    let reach = analyze(&p, &AnalysisConfig::default());
    let cp = compile(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        InstrumentConfig {
            trace_heap: true,
            ..InstrumentConfig::NONE
        },
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap();
    let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    let r = Vm::new(&p, &cp, &snap, &img, VmConfig::default())
        .run(StopWhen::Exit)
        .unwrap();
    let trace = r.trace.unwrap();
    let mut touched = std::collections::HashSet::new();
    for rec in trace
        .threads
        .iter()
        .flat_map(nimage_profiler::ThreadTrace::records)
    {
        if let nimage_profiler::Record::Path { obj_ids, .. } = rec {
            touched.extend(obj_ids.filter(|&id| id != 0));
        }
    }
    let frac = touched.len() as f64 / snap.entries().len() as f64;
    assert!(
        frac < 0.25,
        "benchmarks should touch a small fraction of the snapshot, got {frac:.3}"
    );
    assert!(frac > 0.0);
}

#[test]
fn every_microservice_responds() {
    let scale = RuntimeScale::small();
    for m in Microservice::all() {
        let p = m.program_at(&scale);
        let r = run(&p, StopWhen::FirstResponse);
        assert_eq!(r.exit, ExitKind::FirstResponse, "{}", m.name());
        let rp = r.first_response.expect("response point");
        assert!(rp.ops > 0, "{}", m.name());
        assert!(rp.faults.total() > 0, "{}", m.name());
    }
}

#[test]
fn microservices_are_multi_threaded() {
    let scale = RuntimeScale::small();
    let p = Microservice::Spring.program_at(&scale);
    let reach = analyze(&p, &AnalysisConfig::default());
    let cp = compile(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        reach,
        &InlineConfig::default(),
        InstrumentConfig::FULL,
        None,
    );
    let snap = snapshot(
        &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
        &cp,
        &HeapBuildConfig::default(),
    )
    .unwrap();
    let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
    let r = Vm::new(&p, &cp, &snap, &img, VmConfig::default())
        .run(StopWhen::FirstResponse)
        .unwrap();
    let trace = r.trace.unwrap();
    assert!(
        trace.threads.len() >= 3,
        "main + handler threads, got {}",
        trace.threads.len()
    );
}

#[test]
fn frameworks_differ_in_size() {
    let scale = RuntimeScale::small();
    let spring = Microservice::Spring.program_at(&scale);
    let quarkus = Microservice::Quarkus.program_at(&scale);
    assert!(spring.methods().len() > quarkus.methods().len());
    assert!(spring.classes().len() > quarkus.classes().len());
}

#[test]
fn default_scale_programs_are_substantial() {
    let p = Awfy::Bounce.program();
    assert!(
        p.methods().len() > 900,
        "default-scale program has {} methods",
        p.methods().len()
    );
    assert!(p.total_code_size() > 500_000);
}

/// Rust mirror of the Bounce benchmark: same AWFY `Random`, same physics —
/// locks the IR implementation's exact semantics.
#[test]
fn bounce_matches_rust_mirror() {
    struct Rng(i64);
    impl Rng {
        fn next(&mut self) -> i64 {
            self.0 = (self.0 * 1309 + 13849) & 65535;
            self.0
        }
    }
    let mut rng = Rng(74755);
    let mut balls: Vec<[i64; 4]> = (0..100)
        .map(|_| {
            let x = rng.next() % 500;
            let y = rng.next() % 500;
            let xv = rng.next() % 30 - 15;
            let yv = rng.next() % 30 - 15;
            [x, y, xv, yv]
        })
        .collect();
    let mut bounces = 0i64;
    for _ in 0..50 {
        for b in balls.iter_mut() {
            let mut hit = 0;
            b[0] += b[2];
            b[1] += b[3];
            if b[0] > 500 {
                b[0] = 500;
                b[2] = -b[2];
                hit = 1;
            }
            if b[0] < 0 {
                b[0] = 0;
                b[2] = -b[2];
                hit = 1;
            }
            if b[1] > 500 {
                b[1] = 500;
                b[3] = -b[3];
                hit = 1;
            }
            if b[1] < 0 {
                b[1] = 0;
                b[3] = -b[3];
                hit = 1;
            }
            bounces += hit;
        }
    }
    let expected = bounces * 2; // two inner iterations

    let p = Awfy::Bounce.program_at(&RuntimeScale::small());
    let r = run(&p, StopWhen::Exit);
    assert_eq!(r.entry_return, Some(Value::Int(expected)));
}

/// Rust mirror of the Mandelbrot checksum.
#[test]
fn mandelbrot_matches_rust_mirror() {
    fn mandelbrot(size: i64) -> i64 {
        let (mut sum, mut byte_acc, mut bit_num) = (0i64, 0i64, 0i64);
        for y in 0..size {
            let ci = 2.0 * y as f64 / size as f64 - 1.0;
            for x in 0..size {
                let cr = 2.0 * x as f64 / size as f64 - 1.5;
                let (mut zr, mut zi) = (0.0f64, 0.0f64);
                let mut escaped = false;
                let mut i = 0;
                while i < 50 && !escaped {
                    let zr2 = zr * zr;
                    let zi2 = zi * zi;
                    if zr2 + zi2 > 4.0 {
                        escaped = true;
                    } else {
                        let nzi = 2.0 * zr * zi + ci;
                        zr = zr2 - zi2 + cr;
                        zi = nzi;
                        i += 1;
                    }
                }
                byte_acc = (byte_acc << 1) | i64::from(!escaped);
                bit_num += 1;
                if bit_num == 8 {
                    sum ^= byte_acc & 255;
                    byte_acc = 0;
                    bit_num = 0;
                }
            }
        }
        sum
    }
    let expected = mandelbrot(64); // one inner iteration
    let p = Awfy::Mandelbrot.program_at(&RuntimeScale::small());
    let r = run(&p, StopWhen::Exit);
    assert_eq!(r.entry_return, Some(Value::Int(expected)));
}

/// Havlak must recognize exactly the constructed loops: 30 inner diamond
/// loops plus 6 outer nesting loops.
#[test]
fn havlak_recognizes_constructed_loops() {
    let p = Awfy::Havlak.program_at(&RuntimeScale::small());
    let r = run(&p, StopWhen::Exit);
    let v = match r.entry_return {
        Some(Value::Int(v)) => v,
        other => panic!("unexpected {other:?}"),
    };
    // checksum = loops * 1000 + collapsed body size (1 inner iteration).
    // One loop per header (Havlak semantics — multiple back edges into the
    // same header merge): 30 diamond headers + the entry header that the
    // outer nesting edges all reach through collapsed inner loops.
    let loops = v / 1000;
    assert_eq!(loops, 31, "30 inner headers + entry header, got {loops}");
    assert!(v % 1000 > 0, "loop bodies must be non-empty");
}

/// The List benchmark is the Takeuchi-style `tail` recursion; its result is
/// the length of the returned list, mirrored here.
#[test]
fn list_matches_rust_mirror() {
    #[derive(Clone)]
    struct L(Vec<i64>); // list as vec of values, head first
    fn make(n: i64) -> L {
        L((1..=n).rev().collect())
    }
    fn shorter(x: &L, y: &L) -> bool {
        x.0.len() < y.0.len()
    }
    fn tail(x: L, y: L, z: L) -> L {
        if shorter(&y, &x) {
            let a = tail(L(x.0[1..].to_vec()), y.clone(), z.clone());
            let b = tail(L(y.0[1..].to_vec()), z.clone(), x.clone());
            let c = tail(L(z.0[1..].to_vec()), x, y);
            tail(a, b, c)
        } else {
            z
        }
    }
    let result = tail(make(15), make(10), make(6));
    let expected = result.0.len() as i64 * 2; // two inner iterations
    let p = Awfy::List.program_at(&RuntimeScale::small());
    let r = run(&p, StopWhen::Exit);
    assert_eq!(r.entry_return, Some(Value::Int(expected)));
}
