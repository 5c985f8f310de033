//! Identities on demand: `ids_of` names any subset of a snapshot's objects
//! exactly as `assign_ids` names the whole snapshot, and the engine's
//! profiles — which name only the objects the trace touched — equal, byte
//! for byte, the profiles built from full identity maps.
//!
//! Every bundled workload is evaluated once, on one engine, and both tests
//! read the shared builds. The engine's profile holds no trace, so the
//! trace both tests replay is the one of a run of the engine's
//! instrumented build made here.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use nimage_core::{
    BuildOptions, DiskCodec, Engine, EngineOptions, Pipeline, ProfiledArtifacts, WorkloadSpec,
};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_ir::Program;
use nimage_order::{assign_ids, ids_of, replay_first_access, HeapStrategy};
use nimage_profiler::DumpMode;
use nimage_vm::{RunReport, StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice};

/// Both builds of one workload, as the engine made them, and a run of the
/// instrumented build, with its trace.
struct Built {
    name: String,
    opts: BuildOptions,
    profile: Arc<ProfiledArtifacts>,
    instrumented: Arc<HeapSnapshot>,
    run: RunReport,
    optimized: Arc<HeapSnapshot>,
}

/// The 17 bundled programs (AWFY run to exit, dump mode 1; the
/// microservices to their first response, dump mode 2) and their builds.
fn builds() -> &'static (Vec<Program>, Vec<Built>) {
    static BUILDS: OnceLock<(Vec<Program>, Vec<Built>)> = OnceLock::new();
    BUILDS.get_or_init(|| {
        let programs: Vec<Program> = (Awfy::all().map(|a| a.program()).into_iter())
            .chain(Microservice::all().map(|m| m.program()))
            .collect();
        let names = (Awfy::all().map(|a| a.name()).into_iter())
            .chain(Microservice::all().map(|m| m.name()));
        let specs: Vec<WorkloadSpec<'_>> = programs
            .iter()
            .zip(names)
            .enumerate()
            .map(|(i, (program, name))| {
                let (dump_mode, stop) = if i < Awfy::all().len() {
                    (DumpMode::OnFull, StopWhen::Exit)
                } else {
                    (DumpMode::MemoryMapped, StopWhen::FirstResponse)
                };
                let opts = BuildOptions {
                    vm: VmConfig {
                        dump_mode,
                        ..VmConfig::default()
                    },
                    ..BuildOptions::default()
                };
                WorkloadSpec::new(name, program, opts, stop)
            })
            .collect();
        let engine = Engine::new(EngineOptions {
            n_threads: 2,
            ..EngineOptions::default()
        });
        let rows: Vec<usize> = (0..specs.len()).collect();
        let built = nimage_par::parallel_map_ordered(2, &rows, |i| {
            let spec = &specs[i];
            let w = engine.workload(spec);
            let profile = w.profile().expect("profiling run");
            let instrumented = w.instrumented_parts().expect("instrumented build");
            let run = (Pipeline::new(spec.program, spec.opts.clone()))
                .run_image(&instrumented, spec.stop)
                .expect("instrumented run");
            let optimized = w.optimized_image(&profile, None).expect("optimized build");
            Built {
                name: spec.name.clone(),
                opts: spec.opts.clone(),
                profile,
                instrumented: instrumented.snapshot,
                run,
                optimized: optimized.snapshot,
            }
        });
        drop(specs);
        (programs, built)
    })
}

/// Every identity scheme: Algorithm 1, Algorithm 2 at depths 0–4 and
/// Algorithm 3.
fn schemes() -> Vec<HeapStrategy> {
    let structural = (0..=4).map(|max_depth| HeapStrategy::StructuralHash { max_depth });
    [HeapStrategy::IncrementalId]
        .into_iter()
        .chain(structural)
        .chain([HeapStrategy::HeapPath])
        .collect()
}

/// `n` entries of `snapshot` drawn with repeats, in no particular order,
/// by a xorshift generator seeded with `seed`.
fn sample(snapshot: &HeapSnapshot, n: usize, mut seed: u64) -> Vec<ObjId> {
    let entries = snapshot.entries();
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            entries[(seed % entries.len() as u64) as usize].obj
        })
        .collect()
}

/// The objects the instrumented run touched, in first-access order.
fn touched(program: &Program, built: &Built) -> Vec<ObjId> {
    let snap = &built.instrumented;
    let trace = built.run.trace.as_ref().expect("a profiling trace");
    let members = assign_ids(program, snap, HeapStrategy::HeapPath);
    replay_first_access(program, trace, &members, built.opts.vm.max_paths)
        .expect("replays")
        .object_order
}

/// On both snapshots of every workload, under every scheme, `ids_of` over
/// the replayed order (instrumented snapshot), a random sample with
/// repeats, and all entries equals `assign_ids` restricted to that subset.
#[test]
fn ids_of_is_assign_ids_restricted_to_any_subset() {
    let (programs, builds) = builds();
    for (k, (program, built)) in programs.iter().zip(builds).enumerate() {
        let touched = touched(program, built);
        assert!(
            !touched.is_empty(),
            "{}: the trace touched no object",
            built.name
        );
        for (b, snap) in [&built.instrumented, &built.optimized]
            .into_iter()
            .enumerate()
        {
            let all: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
            let random = sample(snap, 97, 0x9e37_79b9_7f4a_7c15 ^ (k * 2 + b) as u64);
            let mut subsets = vec![("all entries", all), ("random sample", random)];
            if b == 0 {
                subsets.push(("replayed order", touched.clone()));
            }
            for scheme in schemes() {
                let full = assign_ids(program, snap, scheme);
                for (what, objs) in &subsets {
                    let want: Vec<u64> = objs.iter().map(|o| full[o]).collect();
                    assert_eq!(
                        ids_of(program, snap, scheme, objs),
                        want,
                        "{} {} snapshot, {scheme:?}, {what}",
                        built.name,
                        ["instrumented", "optimized"][b],
                    );
                }
            }
        }
    }
}

/// The engine names only the touched objects; `Pipeline::post_process`
/// names them through full maps of the whole instrumented snapshot. Their
/// artifacts encode to the same bytes on every workload.
#[test]
fn engine_profiles_equal_the_full_map_profiles() {
    let (programs, builds) = builds();
    for (program, built) in programs.iter().zip(builds) {
        let p = Pipeline::new(program, built.opts.clone());
        let mut maps: HashMap<HeapStrategy, Arc<HashMap<ObjId, u64>>> = HashMap::new();
        let full = p
            .post_process(built.run.clone(), &mut |hs| {
                let map = maps.entry(hs);
                map.or_insert_with(|| Arc::new(assign_ids(program, &built.instrumented, hs)))
                    .clone()
            })
            .expect("post-processes");
        let bytes = |a: &ProfiledArtifacts| {
            let mut out = vec![];
            a.encode(&mut out);
            out
        };
        assert!(
            bytes(&built.profile) == bytes(&full),
            "{}: the engine's profile differs from the full-map profile",
            built.name
        );
    }
}
