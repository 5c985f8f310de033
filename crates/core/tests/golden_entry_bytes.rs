//! Golden disk entries: the quickstart program's cold evaluation over
//! every strategy, persisted, then one [`Hasher128`] digest per persisted
//! stage over the payloads of that stage's entries (in key order). The
//! table pins the disk format byte for byte — a change to how an artifact
//! is held in memory must leave the bytes it persists unchanged, or bump
//! `DISK_FORMAT_VERSION` and regenerate this table. On a mismatch the test
//! prints the full actual table in source form.
//!
//! `assign-ids` holds the optimized snapshot's three identity maps only:
//! the profile names the instrumented snapshot's touched objects without
//! persisting a map of that snapshot.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use nimage_core::{
    BuildOptions, CacheKey, DiskCacheOptions, DiskStore, Engine, EngineOptions, Strategy,
    WorkloadSpec, DISK_FORMAT_VERSION,
};
use nimage_order::murmur3::Hasher128;
use nimage_vm::StopWhen;

#[path = "../../cli/src/quickstart.rs"]
#[allow(dead_code)]
mod quickstart;

/// `(stage, entries, payload bytes, digest)` of one cold evaluation.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, usize, u64); 6] = [
    ("compile", 2, 5612, 0x101f27a27bb5b204),
    ("snapshot", 2, 725488, 0x2af1b977bbfccf74),
    ("assign-ids", 3, 240060, 0x60ec8d720eba5f88),
    ("profile", 1, 6951, 0xe4faf68db5fb3c47),
    ("order", 8, 136260, 0x58887d9753eab958),
    ("baseline-run", 1, 1295, 0xb9d6e5d547248a42),
];

/// Every `.bin` entry under `dir`, sorted by path (that is, by key).
fn bin_entries(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

/// The cache key an entry file is named after.
fn key_of(path: &Path) -> CacheKey {
    let hex = path.file_stem().unwrap().to_str().unwrap();
    CacheKey(
        u64::from_str_radix(&hex[..16], 16).unwrap(),
        u64::from_str_radix(&hex[16..], 16).unwrap(),
    )
}

#[test]
fn persisted_payloads_match_the_golden_table() {
    assert_eq!(
        DISK_FORMAT_VERSION, 7,
        "regenerate GOLDEN with the new format"
    );
    let dir = std::env::temp_dir().join(format!("nimage-golden-entries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let program = quickstart::program().unwrap();
    let engine = Engine::new(EngineOptions {
        n_threads: 1,
        disk: Some(DiskCacheOptions::at(&dir)),
        trace: Default::default(),
    });
    let spec = WorkloadSpec::new(
        "quickstart",
        &program,
        BuildOptions::default(),
        StopWhen::Exit,
    );
    engine
        .evaluate_matrix(std::slice::from_ref(&spec), &Strategy::all())
        .unwrap();

    let store = DiskStore::open(&DiskCacheOptions::at(&dir));
    let actual: Vec<(&str, usize, usize, u64)> = GOLDEN
        .iter()
        .map(|&(stage, ..)| {
            let entries = bin_entries(&store.root().join(stage));
            let mut h = Hasher128::with_seed(0);
            let mut bytes = 0;
            for path in &entries {
                let payload = store.load(stage, key_of(path)).expect("valid entry");
                bytes += payload.len();
                h.write(&(payload.len() as u64).to_le_bytes());
                h.write(&payload);
            }
            (stage, entries.len(), bytes, h.finish())
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    if actual[..] != GOLDEN[..] {
        let mut table = String::new();
        for (stage, n, bytes, digest) in &actual {
            table.push_str(&format!(
                "    (\"{stage}\", {n}, {bytes}, {digest:#018x}),\n"
            ));
        }
        panic!("persisted payloads differ from the golden table; actual:\n{table}");
    }
}
