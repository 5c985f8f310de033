//! One home for the disk format. Every `DiskCodec` implementation lives in
//! `crates/core/src/persist.rs`, so the format is stated in one file, and
//! every length-prefixed decode sizes its pre-allocation through the one
//! sequence helper, `Reader::seq_with` in `crates/core/src/diskcache.rs`:
//! that helper alone calls `cap_alloc`, so a damaged count cannot reserve
//! more than its input could hold anywhere else. Test modules (everything
//! from a file's first `#[cfg(test)]` on) are exempt.

use std::fs;
use std::path::{Path, PathBuf};

/// The only file allowed to implement `DiskCodec`.
const CODECS: &str = "crates/core/src/persist.rs";

/// The file holding the sequence helper.
const READER: &str = "crates/core/src/diskcache.rs";

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

/// The production lines of every source file under `crates/*/src` and
/// `src`, as `(path relative to the root, 1-based line number, line)`.
fn production_lines() -> Vec<(String, usize, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![];
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut lines = vec![];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            lines.push((rel.clone(), n + 1, line.to_string()));
        }
    }
    lines
}

#[test]
fn every_disk_codec_lives_in_persist() {
    let offenders: Vec<String> = production_lines()
        .into_iter()
        .filter(|(rel, _, line)| rel != CODECS && line.contains("impl DiskCodec for"))
        .map(|(rel, n, _)| format!("{rel}:{n}"))
        .collect();
    assert!(
        offenders.is_empty(),
        "DiskCodec implemented outside {CODECS}:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn only_the_sequence_helper_caps_allocations() {
    let mut in_helper = false;
    let mut helper_calls = 0;
    let mut offenders = vec![];
    for (rel, n, line) in production_lines() {
        if rel == READER && line.contains("fn seq_with") {
            in_helper = true;
        } else if in_helper && line == "    }" {
            in_helper = false;
        }
        if !line.contains("cap_alloc(") || (rel == READER && line.starts_with("fn cap_alloc(")) {
            continue;
        }
        if rel == READER && in_helper {
            helper_calls += 1;
        } else {
            offenders.push(format!("{rel}:{n}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "cap_alloc called outside Reader::seq_with:\n{}",
        offenders.join("\n")
    );
    assert_eq!(
        helper_calls, 1,
        "Reader::seq_with must size through cap_alloc"
    );
}
