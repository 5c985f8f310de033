//! One value type and one object type. Class initializers at build time
//! and the VM at run time read the same heap, so they hold its contents in
//! the same types: `nimage_ir::Value` for locals, fields and array slots,
//! and `nimage_heap::HObject` for objects (the VM overlays the snapshot
//! heap instead of converting it). So no production source (each file up
//! to its first `#[cfg(test)]`) may declare another enum with `Value`'s
//! variants, nor bring back the VM's former object enum `RtObject`.
//!
//! Both interpreters also run the same instructions through one function
//! and fail alike, so exactly one production enum declares the execution
//! failures they share, only its file words them, and the build-time
//! interpreter's former `ClinitError` does not come back.

use std::fs;
use std::path::{Path, PathBuf};

/// The file that declares the one value enum.
const VALUE_HOME: &str = "crates/ir/src/eval.rs";

/// `Value`'s variants, sorted.
const VALUE_VARIANTS: [&str; 5] = ["Bool", "Double", "Int", "Null", "Ref"];

/// The file that declares the one execution-failure enum.
const EXEC_HOME: &str = "crates/heap/src/exec.rs";

/// The failures both interpreters raise, sorted.
const SHARED_FAILURES: [&str; 5] = [
    "DivisionByZero",
    "IndexOutOfBounds",
    "NoSuchMethod",
    "NullDeref",
    "TypeMismatch",
];

/// How [`EXEC_HOME`] words the shared failures; no other production code
/// may.
const FAILURE_WORDING: [&str; 5] = [
    "null dereference in",
    "out of bounds (len",
    "division by zero in",
    "type mismatch in",
    "no method ",
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

/// The name of the enum a source line declares, if it declares one.
fn enum_name(line: &str) -> Option<&str> {
    let code = line.split("//").next().unwrap_or("");
    let mut words = code.split_whitespace();
    words.find(|&w| w == "enum")?;
    let name = words.next()?;
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    Some(&name[..end]).filter(|n| !n.is_empty())
}

/// `(line, name, sorted variant names)` of every enum declared in `lines`.
fn enums(lines: &[&str]) -> Vec<(usize, String, Vec<String>)> {
    let mut found = vec![];
    for (at, line) in lines.iter().enumerate() {
        let Some(name) = enum_name(line) else {
            continue;
        };
        let mut variants = vec![];
        let mut depth = 0i32;
        for body in &lines[at..] {
            let code = body.split("//").next().unwrap_or("");
            let trimmed = code.trim_start();
            if depth == 1 && trimmed.starts_with(|c: char| c.is_ascii_uppercase()) {
                let end = trimmed
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(trimmed.len());
                variants.push(trimmed[..end].to_string());
            }
            depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
            if depth <= 0 && code.contains('}') {
                break;
            }
        }
        variants.sort();
        found.push((at + 1, name.to_string(), variants));
    }
    found
}

#[test]
fn heap_contents_have_one_value_type_and_one_object_type() {
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
    let mut value_found = false;
    let mut failure_enums = vec![];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).expect("readable source file");
        let production: Vec<&str> = text
            .lines()
            .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
            .collect();
        if rel != EXEC_HOME {
            for (at, line) in production.iter().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if let Some(w) = FAILURE_WORDING.iter().find(|w| code.contains(*w)) {
                    offenders.push(format!("{rel}:{}: words a shared failure ({w:?})", at + 1));
                }
            }
        }
        for (line, name, variants) in enums(&production) {
            if SHARED_FAILURES
                .iter()
                .all(|v| variants.iter().any(|x| x == v))
            {
                failure_enums.push(format!("{rel}:{line}: enum {name}"));
            }
            if name == "RtObject" || name == "ClinitError" {
                offenders.push(format!("{rel}:{line}: enum {name}"));
            } else if variants == VALUE_VARIANTS {
                if rel == VALUE_HOME && name == "Value" {
                    value_found = true;
                } else {
                    offenders.push(format!("{rel}:{line}: enum {name} repeats Value"));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a second value or object type:\n{}",
        offenders.join("\n")
    );
    assert!(value_found, "no `enum Value` in {VALUE_HOME}");
    assert!(
        failure_enums.len() == 1 && failure_enums[0].starts_with(&format!("{EXEC_HOME}:")),
        "the shared execution failures must be declared once, in {EXEC_HOME}: {failure_enums:?}"
    );
}
