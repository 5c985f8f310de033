//! CI workflow hygiene. The root package has no binary targets, so a
//! workflow step spelled `cargo run --bin nimage` fails with "no bin target
//! named `nimage` in default-run packages" — which is how the nightly
//! 17-workload gate silently stopped running. Every `cargo run … --bin`
//! line must say which package (or manifest) the binary lives in.

use std::fs;
use std::path::Path;

#[test]
fn workflow_cargo_run_lines_name_their_package() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).expect("workflow directory exists") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_none_or(|e| e != "yml") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable workflow");
        for (n, line) in text.lines().enumerate() {
            if !(line.contains("cargo run") && line.contains("--bin")) {
                continue;
            }
            checked += 1;
            let names_package = line
                .split_whitespace()
                .any(|w| w == "-p" || w == "--package" || w.starts_with("--manifest-path"));
            assert!(
                names_package,
                "{}:{}: `cargo run --bin` without -p/--manifest-path: {}",
                path.display(),
                n + 1,
                line.trim()
            );
        }
    }
    assert!(checked > 0, "found no `cargo run --bin` line to check");
}
