//! Disk-cache tier tests: entry validation (corruption, truncation,
//! version mismatch), atomic concurrent writes, codec round-trips,
//! warm-cache reuse across engine instances, and the LRU lifecycle
//! (usage accounting, stale-temp sweeps, capped eviction).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use nimage_compiler::CuId;
use nimage_compiler::InstrumentConfig;
use nimage_core::{
    BuildOptions, CacheKey, DiskCacheOptions, DiskCodec, DiskStore, Engine, EngineOptions,
    EvalRequest, LayoutOrders, LayoutPrediction, Pipeline, PredictedFaults, RunParts, Strategy,
    WorkloadSpec, DISK_FORMAT_VERSION,
};
use nimage_heap::{BuildHeap, HObjectKind, HeapSnapshot, ObjId};
use nimage_ir::{FieldId, Program, ProgramBuilder, TypeRef};
use nimage_vm::{AccessLog, RunReport, StopWhen, Touch};
use nimage_workloads::{Awfy, RuntimeScale};

/// A fresh per-test cache root under the system temp dir.
fn cache_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nimage-dctest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_map() -> HashMap<ObjId, u64> {
    (0..64u32).map(|i| (ObjId(i), u64::from(i) * 977)).collect()
}

/// The single `.bin` entry under `root` (fails the test if there isn't
/// exactly one).
fn only_entry(root: &Path) -> PathBuf {
    fn walk(dir: &Path, found: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, found);
            } else if p.extension().is_some_and(|x| x == "bin") {
                found.push(p);
            }
        }
    }
    let mut found = vec![];
    walk(root, &mut found);
    assert_eq!(found.len(), 1, "expected exactly one entry: {found:?}");
    found.pop().unwrap()
}

/// The cache key an entry file is named after.
fn key_of(path: &Path) -> CacheKey {
    let hex = path.file_stem().unwrap().to_str().unwrap();
    CacheKey(
        u64::from_str_radix(&hex[..16], 16).unwrap(),
        u64::from_str_radix(&hex[16..], 16).unwrap(),
    )
}

/// Every `.bin` entry under `root`, sorted by path.
fn bin_entries(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, found: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, found);
            } else if p.extension().is_some_and(|x| x == "bin") {
                found.push(p);
            }
        }
    }
    let mut found = vec![];
    walk(root, &mut found);
    found.sort();
    found
}

/// Rewrites a file's mtime — the recency signal the gc sweep orders by.
fn set_mtime(path: &Path, t: SystemTime) {
    let f = std::fs::File::options().append(true).open(path).unwrap();
    f.set_times(std::fs::FileTimes::new().set_modified(t))
        .unwrap();
}

#[test]
fn typed_roundtrip_hits_on_second_load() {
    let dir = cache_root("roundtrip");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &"roundtrip");
    let map = sample_map();

    assert_eq!(store.get::<HashMap<ObjId, u64>>("assign-ids", key), None);
    store.put("assign-ids", key, &map);
    assert_eq!(
        store.get::<HashMap<ObjId, u64>>("assign-ids", key),
        Some(map)
    );
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.stores, s.rejected), (1, 1, 1, 0));
    let (entries, bytes) = store.size_on_disk();
    assert_eq!(entries, 1);
    assert!(bytes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damages the entry of `value` under `(stage, key)` every way a disk can
/// (truncation, a flipped payload byte, wrong magic, an undecodable
/// payload, trailing garbage) and checks each load is a rejected miss —
/// and that the pristine bytes still load afterwards.
fn damaged_entries_are_misses<T: DiskCodec>(tag: &str, stage: &str, value: &T) {
    let dir = cache_root(tag);
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &tag);
    store.put(stage, key, value);
    let path = only_entry(store.root());
    let pristine = std::fs::read(&path).unwrap();
    // Loads compare by canonical encoding (the codecs sort map entries).
    let encoded = |v: &T| {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    };
    let load = || store.get::<T>(stage, key).map(|v| encoded(&v));

    // Truncated file (header survives, payload cut short).
    std::fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
    assert_eq!(load(), None);

    // Flipped payload byte: checksum mismatch.
    let mut flipped = pristine.clone();
    *flipped.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    assert_eq!(load(), None);

    // Wrong magic.
    let mut bad_magic = pristine.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).unwrap();
    assert_eq!(load(), None);

    // A valid header over an undecodable payload (three stray bytes).
    store.store(stage, key, &[0xff, 0xff, 0xff]);
    assert_eq!(load(), None);

    // A valid encoding followed by trailing garbage must not half-decode.
    let mut payload = encoded(value);
    payload.push(0);
    store.store(stage, key, &payload);
    assert_eq!(load(), None);

    let s = store.stats();
    assert_eq!(s.hits, 0);
    assert_eq!(s.rejected, 5);
    assert_eq!(s.misses, 5);

    // The pristine bytes still load: nothing above poisoned the store.
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(load(), Some(encoded(value)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_corrupt_entries_are_misses_never_errors() {
    damaged_entries_are_misses("corrupt", "assign-ids", &sample_map());
    let program = program();
    let pipeline = Pipeline::new(&program, BuildOptions::default());
    let built = pipeline.build_instrumented(InstrumentConfig::NONE).unwrap();
    let run: (RunReport, AccessLog) = pipeline
        .run_logged(
            RunParts::new(&built.compiled, &built.snapshot, &built.image),
            StopWhen::Exit,
        )
        .unwrap();
    damaged_entries_are_misses("corrupt-run", "baseline-run", &run);

    let plain = LayoutOrders {
        cu_order: Some(vec![CuId(2), CuId(0), CuId(1)]),
        ..LayoutOrders::default()
    };
    damaged_entries_are_misses("corrupt-plain-plan", "order", &plain);
    let heap_only = LayoutOrders {
        object_order: Some(vec![ObjId(9), ObjId(1), ObjId(4)]),
        ..LayoutOrders::default()
    };
    damaged_entries_are_misses("corrupt-heap-plan", "order", &heap_only);
    let faults = |text, heap| PredictedFaults { text, heap };
    let clustered = LayoutOrders {
        cu_order: plain.cu_order.clone(),
        object_order: heap_only.object_order.clone(),
        native_order: Some(vec![1, 0, 3, 2]),
        predicted: Some(LayoutPrediction {
            first_touch: faults(12, 9),
            optimized: faults(10, 7),
        }),
    };
    damaged_entries_are_misses("corrupt-clustered-plan", "order", &clustered);
}

#[test]
fn version_mismatch_invalidates() {
    let dir = cache_root("version");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &"version");
    store.put("assign-ids", key, &sample_map());
    let path = only_entry(store.root());

    // Entries live under a version-scoped directory, so a format bump
    // switches directories and orphans everything old wholesale …
    assert!(store
        .root()
        .file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with('v')));

    // … and the header version is checked too (defense in depth against a
    // copied-over entry): patch it and the entry becomes a miss.
    let mut data = std::fs::read(&path).unwrap();
    data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, &data).unwrap();
    assert_eq!(store.get::<HashMap<ObjId, u64>>("assign-ids", key), None);
    assert_eq!(store.stats().rejected, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache directory the previous format version wrote — entries under
/// `v<N-1>/` with version `N-1` headers — reads as misses: a new engine
/// neither hits nor rejects them, and recomputes the same rows.
#[test]
fn a_previous_format_version_directory_reads_as_misses() {
    let dir = cache_root("prevformat");
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let evaluate = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 1,
            disk: Some(DiskCacheOptions::at(&dir)),
            trace: Default::default(),
        });
        let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
        let cells = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .unwrap();
        let rows: Vec<String> = cells.iter().map(|c| format!("{:?}", c.eval)).collect();
        (rows, engine.report(&EvalRequest::new(), &[]).disk.unwrap())
    };
    let (cold_rows, _) = evaluate();

    let current = DiskStore::open(&DiskCacheOptions::at(&dir))
        .root()
        .to_path_buf();
    let previous = dir.join(format!("v{}", DISK_FORMAT_VERSION - 1));
    std::fs::rename(&current, &previous).unwrap();
    let entries = bin_entries(&previous);
    assert!(!entries.is_empty());
    for path in &entries {
        let mut data = std::fs::read(path).unwrap();
        data[4..8].copy_from_slice(&(DISK_FORMAT_VERSION - 1).to_le_bytes());
        std::fs::write(path, &data).unwrap();
    }

    let (warm_rows, stats) = evaluate();
    assert_eq!((stats.hits, stats.rejected), (0, 0), "{stats:?}");
    assert!(stats.misses > 0 && stats.stores > 0, "{stats:?}");
    assert_eq!(cold_rows, warm_rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_race_benignly() {
    let dir = cache_root("race");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &"race");
    let maps: Vec<HashMap<ObjId, u64>> = (0..8u64)
        .map(|t| (0..256u32).map(|i| (ObjId(i), u64::from(i) + t)).collect())
        .collect();

    std::thread::scope(|scope| {
        for map in &maps {
            scope.spawn(|| store.put("assign-ids", key, map));
        }
    });

    // One complete entry won; readers never see a partial file, and no
    // temporary files leak.
    let winner = store
        .get::<HashMap<ObjId, u64>>("assign-ids", key)
        .expect("a complete entry must win the race");
    assert!(maps.contains(&winner));
    let entry_dir = only_entry(store.root()).parent().unwrap().to_path_buf();
    let stray_tmp = std::fs::read_dir(entry_dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .count();
    assert_eq!(stray_tmp, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_length_prefix_is_rejected_without_huge_allocation() {
    let dir = cache_root("hugelen");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &"hugelen");
    // A valid header + checksum around a payload whose leading count
    // claims u32::MAX entries with only four bytes behind it. The decoder
    // must clamp its pre-allocation to the bytes actually remaining and
    // reject cleanly instead of attempting a multi-GiB Vec.
    let mut payload = u32::MAX.to_le_bytes().to_vec();
    payload.extend_from_slice(&[1, 2, 3, 4]);
    store.store("assign-ids", key, &payload);
    assert_eq!(store.get::<HashMap<ObjId, u64>>("assign-ids", key), None);
    let s = store.stats();
    assert_eq!((s.hits, s.rejected), (0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn relative_xdg_cache_home_is_ignored() {
    // Serialize against nothing: no other test in this binary reads these
    // variables, and edition-2021 `set_var` is safe.
    let old_xdg = std::env::var_os("XDG_CACHE_HOME");
    let old_home = std::env::var_os("HOME");

    // The XDG base-directory spec: a relative $XDG_CACHE_HOME must be
    // treated as unset, so the $HOME fallback wins.
    std::env::set_var("XDG_CACHE_HOME", "relative/cache");
    std::env::set_var("HOME", "/tmp/nimage-dctest-home");
    assert_eq!(
        DiskCacheOptions::default_dir().as_deref(),
        Some(Path::new("/tmp/nimage-dctest-home/.cache/nimage"))
    );

    // An absolute one is honored.
    std::env::set_var("XDG_CACHE_HOME", "/tmp/nimage-dctest-xdg");
    assert_eq!(
        DiskCacheOptions::default_dir().as_deref(),
        Some(Path::new("/tmp/nimage-dctest-xdg/nimage"))
    );

    // Relative XDG and no HOME: no default rather than a guess.
    std::env::set_var("XDG_CACHE_HOME", "relative/cache");
    std::env::remove_var("HOME");
    assert_eq!(DiskCacheOptions::default_dir(), None);

    match old_xdg {
        Some(v) => std::env::set_var("XDG_CACHE_HOME", v),
        None => std::env::remove_var("XDG_CACHE_HOME"),
    }
    match old_home {
        Some(v) => std::env::set_var("HOME", v),
        None => std::env::remove_var("HOME"),
    }
}

#[test]
fn temp_files_are_excluded_from_stats_and_swept_when_stale() {
    let dir = cache_root("tmpsweep");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = CacheKey::of_debug("test", &"tmpsweep");
    store.put("assign-ids", key, &sample_map());
    let entry = only_entry(store.root());
    let stage_dir = entry.parent().unwrap();
    let fresh = stage_dir.join(".tmp.999.0");
    let stale = stage_dir.join(".tmp.999.1");
    std::fs::write(&fresh, b"half-written").unwrap();
    std::fs::write(&stale, b"orphaned-by-a-crash").unwrap();
    set_mtime(&stale, SystemTime::now() - Duration::from_secs(3600));

    // Leftover temps are reported separately, never as entries.
    let u = store.usage();
    assert_eq!((u.entries, u.tmp_files), (1, 2));
    assert!(u.tmp_bytes > 0);
    assert_eq!(store.size_on_disk().0, 1);

    // gc deletes only the stale temp — the fresh one may belong to an
    // in-flight write — and leaves complete entries alone (no caps given).
    let r = store.gc(None, None);
    assert_eq!(r.removed_tmp, 1);
    assert_eq!(r.evicted_entries, 0);
    assert!(!stale.exists());
    assert!(fresh.exists());
    assert!(entry.exists());
    assert_eq!(store.usage().tmp_files, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_evicts_oldest_accessed_first_until_under_caps() {
    let dir = cache_root("evict");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let mut paths: Vec<PathBuf> = Vec::new();
    for i in 0..4u32 {
        store.put("assign-ids", CacheKey::of_debug("test", &i), &sample_map());
        let new: Vec<PathBuf> = bin_entries(store.root())
            .into_iter()
            .filter(|p| !paths.contains(p))
            .collect();
        assert_eq!(new.len(), 1);
        paths.extend(new);
    }
    // paths[0] accessed longest ago … paths[3] most recently.
    let now = SystemTime::now();
    for (i, p) in paths.iter().enumerate() {
        set_mtime(p, now - Duration::from_secs(3600 * (4 - i as u64)));
    }

    let r = store.gc(None, Some(2));
    assert_eq!(r.evicted_entries, 2);
    assert_eq!(r.surviving_entries, 2);
    assert!(
        !paths[0].exists() && !paths[1].exists(),
        "oldest two evicted"
    );
    assert!(paths[2].exists() && paths[3].exists(), "newest two survive");

    // A byte cap below a single entry clears the remainder.
    let r = store.gc(Some(1), None);
    assert_eq!(r.evicted_entries, 2);
    assert_eq!((r.surviving_entries, r.surviving_bytes), (0, 0));
    assert_eq!(store.size_on_disk(), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hits_refresh_recency_and_protect_entries_from_eviction() {
    let dir = cache_root("lru");
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key_a = CacheKey::of_debug("test", &"a");
    let key_b = CacheKey::of_debug("test", &"b");
    store.put("assign-ids", key_a, &sample_map());
    let path_a = only_entry(store.root());
    store.put("assign-ids", key_b, &sample_map());
    let path_b = bin_entries(store.root())
        .into_iter()
        .find(|p| *p != path_a)
        .unwrap();

    // `a` is older than `b` on disk, but a hit on `a` bumps its mtime, so
    // the LRU sweep now sees `b` as the oldest.
    let now = SystemTime::now();
    set_mtime(&path_a, now - Duration::from_secs(7200));
    set_mtime(&path_b, now - Duration::from_secs(3600));
    assert!(store
        .get::<HashMap<ObjId, u64>>("assign-ids", key_a)
        .is_some());

    let r = store.gc(None, Some(1));
    assert_eq!(r.evicted_entries, 1);
    assert!(path_a.exists(), "the hit refreshed a's recency");
    assert!(!path_b.exists(), "b became the least recently accessed");
    std::fs::remove_dir_all(&dir).ok();
}

/// The synthetic workload used by the engine-level tests: a clinit-built
/// array plus a couple of methods, enough for a full profile/evaluate
/// cycle.
fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("t.Main", None);
    let fld = pb.add_static_field(c, "S", TypeRef::array_of(TypeRef::Int));
    let cl = pb.declare_clinit(c);
    let mut f = pb.body(cl);
    let n = f.iconst(256);
    let arr = f.new_array(TypeRef::Int, n);
    let from = f.iconst(0);
    f.for_range(from, n, |f, i| {
        f.array_set(arr, i, i);
    });
    f.put_static(fld, arr);
    f.ret(None);
    pb.finish_body(cl, f);
    let helper = pb.declare_static(c, "helper", &[TypeRef::Int], Some(TypeRef::Int));
    let mut f = pb.body(helper);
    let arr = f.get_static(fld);
    let v = f.array_get(arr, f.param(0));
    f.ret(Some(v));
    pb.finish_body(helper, f);
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let k = f.iconst(7);
    let v = f.call_static(helper, &[k], true).unwrap();
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

#[test]
fn profiled_artifacts_codec_roundtrips_through_bytes() {
    let program = program();
    let pipeline = Pipeline::new(&program, BuildOptions::default());
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();

    let mut payload = Vec::new();
    artifacts.encode(&mut payload);
    let mut r = nimage_core::diskcache::Reader::new(&payload);
    let decoded = nimage_core::ProfiledArtifacts::decode(&mut r).expect("decodes");
    assert!(r.is_empty(), "decode must consume the whole payload");

    assert_eq!(decoded.cu_profile, artifacts.cu_profile);
    assert_eq!(decoded.method_profile, artifacts.method_profile);
    assert_eq!(decoded.heap_profiles, artifacts.heap_profiles);
    assert_eq!(decoded.call_counts, artifacts.call_counts);
    assert_eq!(decoded.native_pages, artifacts.native_pages);
    let (a, b) = (&decoded.instrumented_report, &artifacts.instrumented_report);
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.entry_return, b.entry_return);
    assert_eq!(
        a.trace.as_ref().map(nimage_profiler::write_trace),
        b.trace.as_ref().map(nimage_profiler::write_trace),
    );
}

#[test]
fn engine_without_disk_options_never_touches_disk() {
    let program = program();
    let engine = Engine::new(EngineOptions {
        n_threads: 1,
        disk: None,
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &[Strategy::Cu])
        .expect("evaluation succeeds");
    assert!(engine.report(&EvalRequest::new(), &[]).disk.is_none());
}

#[test]
fn second_engine_starts_warm_with_identical_results() {
    let dir = cache_root("warm");
    let program = program();
    let strategies = [Strategy::Cu, Strategy::HeapPath];

    let cold = Engine::new(EngineOptions {
        n_threads: 2,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    let rows_cold = cold
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();
    let cold_stats = cold.report(&EvalRequest::new(), &[]).disk.unwrap();
    assert_eq!(cold_stats.hits, 0, "first run finds an empty cache");
    assert!(cold_stats.stores > 0, "first run persists artifacts");

    // A fresh engine (fresh memory cache) in the same process stands in
    // for the second process of a warm CI run.
    let warm = Engine::new(EngineOptions {
        n_threads: 2,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    let rows_warm = warm
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();
    let warm_stats = warm.report(&EvalRequest::new(), &[]).disk.unwrap();
    assert!(warm_stats.hits > 0, "second run reads persisted artifacts");
    assert_eq!(warm_stats.stores, 0, "nothing new to persist");

    assert_eq!(rows_cold.len(), rows_warm.len());
    for (c1, c2) in rows_cold.iter().zip(&rows_warm) {
        assert_eq!(c1.strategy, c2.strategy);
        let (e1, e2) = (&c1.eval, &c2.eval);
        assert_eq!(e1.baseline.faults, e2.baseline.faults);
        assert_eq!(e1.optimized.faults, e2.optimized.faults);
        assert_eq!(e1.baseline.ops, e2.baseline.ops);
        assert_eq!(e1.optimized.ops, e2.optimized.ops);
        assert_eq!(e1.optimized.entry_return, e2.optimized.entry_return);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_run_hits_compile_and_snapshot_stages_on_disk() {
    let dir = cache_root("stagehits");
    let program = program();

    let cold = Engine::new(EngineOptions {
        n_threads: 1,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    cold.evaluate_matrix(std::slice::from_ref(&spec), &[Strategy::Cu])
        .unwrap();

    let warm = Engine::new(EngineOptions {
        n_threads: 1,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    warm.evaluate_matrix(std::slice::from_ref(&spec), &[Strategy::Cu])
        .unwrap();

    // The finer-grained stages persist individually: the warm run loads
    // the compiled program and the heap snapshot back, not just the
    // profile composite.
    let stages = warm
        .report(&EvalRequest::new(), &[])
        .disk_stages
        .expect("disk tier is active");
    let compile = stages.get("compile").copied().unwrap_or_default();
    let snapshot = stages.get("snapshot").copied().unwrap_or_default();
    assert!(compile.hits > 0, "compile stage hit on disk: {compile:?}");
    assert!(
        snapshot.hits > 0,
        "snapshot stage hit on disk: {snapshot:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_sweeps_capped_cache_after_storing() {
    let dir = cache_root("enginegc");
    let program = program();
    let engine = Engine::new(EngineOptions {
        n_threads: 1,
        disk: Some(DiskCacheOptions::at(&dir).with_max_entries(2)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &[Strategy::Cu])
        .unwrap();

    // The run stored more than two artifacts; the opportunistic sweep
    // after evaluation must have brought the store back under its cap.
    assert!(engine.report(&EvalRequest::new(), &[]).disk.unwrap().stores > 2);
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let (entries, _) = store.size_on_disk();
    assert!(
        entries <= 2,
        "post-run sweep enforces the cap, found {entries}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gcd_then_warm_run_reproduces_cold_results() {
    let dir = cache_root("gcwarm");
    let program = program();
    let strategies = [Strategy::Cu, Strategy::HeapPath];

    let cold = Engine::new(EngineOptions {
        n_threads: 2,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    let rows_cold = cold
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();

    // Evict all but the two most recently written entries.
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let before = store.size_on_disk().0;
    let r = store.gc(None, Some(2));
    assert!(before > 2 && r.evicted_entries == before - 2);

    // The partially evicted cache is still sound: survivors hit, evicted
    // artifacts are rebuilt and re-stored, and the results are identical
    // to the cold run bit for bit.
    let warm = Engine::new(EngineOptions {
        n_threads: 2,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
    let rows_warm = warm
        .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
        .unwrap();
    let warm_stats = warm.report(&EvalRequest::new(), &[]).disk.unwrap();
    assert!(warm_stats.hits > 0, "surviving entries still hit");
    assert!(warm_stats.stores > 0, "evicted artifacts are re-stored");

    assert_eq!(rows_cold.len(), rows_warm.len());
    for (c1, c2) in rows_cold.iter().zip(&rows_warm) {
        assert_eq!(c1.strategy, c2.strategy);
        let (e1, e2) = (&c1.eval, &c2.eval);
        assert_eq!(e1.baseline.faults, e2.baseline.faults);
        assert_eq!(e1.optimized.faults, e2.optimized.faults);
        assert_eq!(e1.baseline.ops, e2.baseline.ops);
        assert_eq!(e1.optimized.ops, e2.optimized.ops);
        assert_eq!(e1.optimized.entry_return, e2.optimized.entry_return);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `baseline-run` entry that is intact on disk but whose access log does
/// not fit the build (here: a CU index past the end) is rejected when
/// loaded and the run is recomputed — never handed to the relayout, which
/// indexes the build without checks.
#[test]
fn a_logged_run_that_does_not_fit_the_build_is_recomputed() {
    let dir = cache_root("badlog");
    let program = program();
    let strategies = [Strategy::Cu, Strategy::HeapPath];
    let evaluate = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 1,
            disk: Some(DiskCacheOptions::at(&dir)),
            trace: Default::default(),
        });
        let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
        let cells = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &strategies)
            .unwrap();
        let rows: Vec<String> = cells.iter().map(|c| format!("{:?}", c.eval)).collect();
        let run = engine.report(&EvalRequest::new(), &[]).disk_stages.unwrap()["baseline-run"];
        (rows, run)
    };
    let (cold_rows, _) = evaluate();

    // Rewrite the persisted run with a log touching a CU the build does
    // not have, under a valid header and checksum.
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let key = key_of(&only_entry(&store.root().join("baseline-run")));
    let (report, log) = store
        .get::<(RunReport, AccessLog)>("baseline-run", key)
        .expect("the cold run persisted its run");
    let mut touches = log.touches().to_vec();
    touches.push(Touch::Code {
        cu: u32::MAX,
        node: 0,
    });
    let bad = AccessLog::from_parts(touches, log.respond_at()).unwrap();
    store.put("baseline-run", key, &(report, bad));

    let (warm_rows, run) = evaluate();
    assert_eq!((run.rejected, run.stores), (1, 1), "{run:?}");
    assert_eq!(cold_rows, warm_rows);
    std::fs::remove_dir_all(&dir).ok();
}

/// Evaluates small Sieve cold, rewrites every persisted `order` plan —
/// under a valid header and checksum — with `bad_plan(optimized
/// snapshot)`, and evaluates again: each plan must be rejected when
/// loaded and recomputed (never handed to the layout, which panics on an
/// order that does not cover its section), with rows equal to the cold
/// run's.
fn plans_that_do_not_fit_are_recomputed(
    tag: &str,
    bad_plan: impl Fn(&HeapSnapshot) -> LayoutOrders,
) {
    let dir = cache_root(tag);
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let evaluate = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 1,
            disk: Some(DiskCacheOptions::at(&dir)),
            trace: Default::default(),
        });
        let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
        let cells = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .unwrap();
        let rows: Vec<String> = cells.iter().map(|c| format!("{:?}", c.eval)).collect();
        let order = engine.report(&EvalRequest::new(), &[]).disk_stages.unwrap()["order"];
        (rows, order)
    };
    let (cold_rows, _) = evaluate();

    // The optimized build's snapshot is the persisted one with PEA-folded
    // objects (the instrumented build folds none).
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let snapshots: Vec<HeapSnapshot> = bin_entries(&store.root().join("snapshot"))
        .iter()
        .map(|path| {
            store
                .get("snapshot", key_of(path))
                .expect("persisted snapshot")
        })
        .collect();
    let optimized = snapshots
        .iter()
        .find(|s| !s.folded().is_empty())
        .expect("the optimized snapshot folds objects");
    let mut payload = Vec::new();
    bad_plan(optimized).encode(&mut payload);
    let plans = bin_entries(&store.root().join("order"));
    assert_eq!(plans.len(), Strategy::all().len());
    for path in &plans {
        store.store("order", key_of(path), &payload);
    }

    let (warm_rows, order) = evaluate();
    assert_eq!(order.rejected, plans.len() as u64, "{order:?}");
    assert_eq!(order.stores, plans.len() as u64, "{order:?}");
    assert_eq!(cold_rows, warm_rows);
    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshot's objects in default order: an object order that fits.
fn default_object_order(snapshot: &HeapSnapshot) -> Vec<ObjId> {
    snapshot.entries().iter().map(|e| e.obj).collect()
}

/// A one-CU code order, for a build of many CUs.
#[test]
fn a_plan_that_does_not_fit_the_build_is_recomputed() {
    plans_that_do_not_fit_are_recomputed("badplan", |_| LayoutOrders {
        cu_order: Some(vec![CuId(0)]),
        ..LayoutOrders::default()
    });
}

/// An object order of the right length that names one object twice (and
/// so misses another).
#[test]
fn a_plan_that_repeats_an_object_is_recomputed() {
    plans_that_do_not_fit_are_recomputed("dupplan", |snapshot| {
        let mut order = default_object_order(snapshot);
        let last = order.len() - 1;
        order[last] = order[0];
        LayoutOrders {
            object_order: Some(order),
            ..LayoutOrders::default()
        }
    });
}

/// An object order of the right length that names an object the snapshot
/// does not hold: one PEA folded away.
#[test]
fn a_plan_that_names_a_folded_object_is_recomputed() {
    plans_that_do_not_fit_are_recomputed("foldplan", |snapshot| {
        let mut order = default_object_order(snapshot);
        let folded = *snapshot.folded().iter().min().expect("a folded object");
        assert!(snapshot.entry(folded).is_none());
        order[0] = folded;
        LayoutOrders {
            object_order: Some(order),
            ..LayoutOrders::default()
        }
    });
}

/// Evaluates small Sieve cold, rewrites the optimized build's persisted
/// snapshot — under its real key, with a valid header and checksum — with
/// `corrupt` applied to its heap, drops the persisted baseline run so the
/// VM executes over whichever snapshot the engine accepts, and evaluates
/// again: the snapshot must be rejected when loaded and recomputed (never
/// handed to the VM, which indexes statics and fields without checks),
/// with rows equal to the cold run's.
fn snapshots_that_do_not_fit_are_recomputed(tag: &str, corrupt: impl Fn(&Program, &mut BuildHeap)) {
    let dir = cache_root(tag);
    let program = Awfy::Sieve.program_at(&RuntimeScale::small());
    let evaluate = || {
        let engine = Engine::new(EngineOptions {
            n_threads: 1,
            disk: Some(DiskCacheOptions::at(&dir)),
            trace: Default::default(),
        });
        let spec = WorkloadSpec::new("t", &program, BuildOptions::default(), StopWhen::Exit);
        let cells = engine
            .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
            .unwrap();
        let rows: Vec<String> = cells.iter().map(|c| format!("{:?}", c.eval)).collect();
        let snapshot = engine.report(&EvalRequest::new(), &[]).disk_stages.unwrap()["snapshot"];
        (rows, snapshot)
    };
    let (cold_rows, _) = evaluate();

    // The optimized build's snapshot is the persisted one with PEA-folded
    // objects; a warm pass reads only it (the profile is a disk hit).
    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let (key, optimized) = bin_entries(&store.root().join("snapshot"))
        .iter()
        .map(|path| {
            let key = key_of(path);
            let snap: HeapSnapshot = store.get("snapshot", key).expect("persisted snapshot");
            (key, snap)
        })
        .find(|(_, s)| !s.folded().is_empty())
        .expect("the optimized snapshot folds objects");
    let mut heap = optimized.heap().clone();
    corrupt(&program, &mut heap);
    let bad = HeapSnapshot::from_parts(
        heap,
        optimized.entries().to_vec(),
        optimized.folded().clone(),
    );
    store.put("snapshot", key, &bad);
    for path in bin_entries(&store.root().join("baseline-run")) {
        std::fs::remove_file(path).unwrap();
    }

    let (warm_rows, snapshot) = evaluate();
    assert_eq!((snapshot.rejected, snapshot.stores), (1, 1), "{snapshot:?}");
    assert_eq!(cold_rows, warm_rows);
    std::fs::remove_dir_all(&dir).ok();
}

/// A static field one past the program's last field.
#[test]
fn a_snapshot_with_a_static_past_the_program_is_recomputed() {
    snapshots_that_do_not_fit_are_recomputed("badstatic", |program, heap| {
        let (_, v) = heap.statics().next().expect("a set static");
        heap.set_static(FieldId(program.fields().len() as u32), v);
    });
}

/// Every instance one field short of its class's layout.
#[test]
fn a_snapshot_with_instances_short_of_their_layout_is_recomputed() {
    snapshots_that_do_not_fit_are_recomputed("shortinstance", |_, heap| {
        let mut dropped = 0;
        for i in 0..heap.len() {
            if let HObjectKind::Instance { fields, .. } = &mut heap.get_mut(ObjId(i as u32)).kind {
                dropped += usize::from(fields.pop().is_some());
            }
        }
        assert!(dropped > 0, "no instance field to drop");
    });
}
