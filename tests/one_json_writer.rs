//! One JSON writer. Every JSON document the workspace emits — the
//! evaluation report, the metrics snapshot, the Chrome trace, the CLI's
//! bench and lint documents — is rendered through `nimage_trace::json`,
//! which alone owns punctuation, string escaping and the number rule. So
//! outside that file no production source may spell a JSON key by hand:
//! an escaped quote followed by a colon (`\":`) is the mark of one. Test
//! modules (everything from a file's first `#[cfg(test)]` on) may.

use std::fs;
use std::path::{Path, PathBuf};

/// The only file allowed to write JSON punctuation.
const WRITER: &str = "crates/trace/src/json.rs";

/// An escaped quote then a colon, as it appears in Rust source.
const HAND_WRITTEN_KEY: &str = "\\\":";

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
fn every_json_document_goes_through_the_one_writer() {
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
        if rel == WRITER {
            continue;
        }
        let text = fs::read_to_string(file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            if line.contains(HAND_WRITTEN_KEY) {
                offenders.push(format!("{rel}:{}", n + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "hand-written JSON outside {WRITER}:\n{}",
        offenders.join("\n")
    );
}
