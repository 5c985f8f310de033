//! One level of parallelism. The evaluation engine fans the cells of a
//! matrix out over its workers, and every stage inside a cell runs
//! serially: a fan-out nested under the cell scheduler only puts more
//! threads than cores to work. So outside the primitives crate and the
//! engine, no production source may spawn threads or call the fan-out
//! helpers. Test modules (everything from a file's first `#[cfg(test)]`
//! on) may.

use std::fs;
use std::path::{Path, PathBuf};

/// The only files allowed to name a fan-out primitive.
const ALLOWED: [&str; 2] = ["crates/par/src/lib.rs", "crates/core/src/engine.rs"];

const FORBIDDEN: [&str; 4] = [
    "parallel_map",
    "workers_for",
    "thread::scope",
    "thread::spawn",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_engine_is_the_only_fan_out() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![];
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());

    let mut offenders = vec![];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        if ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let text = fs::read_to_string(file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            for word in FORBIDDEN {
                if line.contains(word) {
                    offenders.push(format!("{rel}:{}: `{word}`", n + 1));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "fan-out outside the engine's cell scheduler:\n{}",
        offenders.join("\n")
    );
}
