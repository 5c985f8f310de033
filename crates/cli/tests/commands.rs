//! End-to-end pins of the `nimage` subcommands that build and run images
//! through the serial pipeline: `run`, `heapstats`, `pagemap`, and the
//! `profile` → `optimize` round trip through files on disk. Each pin is
//! the command's full stdout on the `quickstart` workload, so any change
//! to what these commands build, run or print shows up here. The last
//! tests pin the command line itself: unknown flags, every flag, `--help`.

#[path = "../src/quickstart.rs"]
mod quickstart;

use std::path::Path;
use std::process::Command;

use nimage_core::{BuildOptions, Pipeline, Strategy};
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};

/// Runs `nimage <args>` and returns its stdout; fails on a non-zero exit.
fn nimage(args: &[&str]) -> String {
    let (code, stdout, stderr) = nimage_status(args);
    assert_eq!(code, Some(0), "nimage {args:?} failed: {stderr}");
    stdout
}

/// Runs `nimage <args>` and returns its exit code, stdout and stderr.
fn nimage_status(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nimage"))
        .args(args)
        .output()
        .expect("nimage runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn run_prints_the_regular_layouts_report() {
    assert_eq!(
        nimage(&["run", "quickstart"]),
        "\
quickstart (regular layout):
  exit          : Exited
  entry return  : Some(Int(395203930))
  ops           : 7464
  faults        : 8 .text + 5 .svm_heap = 13
  startup (ssd) : 1.445 ms
"
    );
}

#[test]
fn run_with_a_strategy_prints_the_reordered_report() {
    assert_eq!(
        nimage(&["run", "quickstart", "--strategy", "cu+heap-path"]),
        "\
quickstart (cu+heap path layout):
  exit          : Exited
  entry return  : Some(Int(395203930))
  ops           : 7464
  faults        : 7 .text + 2 .svm_heap = 9
  startup (ssd) : 1.005 ms
"
    );
}

#[test]
fn heapstats_prints_composition_and_layout_quality() {
    assert_eq!(
        nimage(&["heapstats", "quickstart"]),
        "\
.svm_heap composition (8001 objects, 250 KiB):
  instances       8000 objects      187 KiB (75.0% of bytes)
  arrays             1 objects       62 KiB (25.0% of bytes)
  strings            0 objects        0 KiB ( 0.0% of bytes)
  boxed consts       0 objects        0 KiB ( 0.0% of bytes)
  resources          0 objects        0 KiB ( 0.0% of bytes)
roots: 1 static-field, 0 method-constant, 0 interned-string, 0 data-section, 0 resource

accessed at startup: 21 of 8001 objects (0.3%)
  default      layout: span    240 KiB, density  26.2%, 20 runs
  heap path    layout: span     62 KiB, density 100.0%, 1 runs
"
    );
}

#[test]
fn pagemap_prints_both_sections() {
    assert_eq!(
        nimage(&["pagemap", "quickstart", "--strategy", "cu"]),
        "
.text — cu layout (7 faulted, 114 resident, 112 untouched):
#+++++++++++++++................+++++++++#++++++................
++++#+++++++++++................+++++#+++++++++++++++++++#++++++
................++++++++++#+++++................................
+++++++++++++++#................+++++++++


.svm_heap — cu layout (4 faulted, 51 resident, 0 untouched):
#++++++++++++++#+++++++++#++++++++++++++#++++++++++++++

"
    );
}

/// A zero row width is a usage error, reported before any profiling
/// work, not a panic inside the page-map renderer.
#[test]
fn pagemap_rejects_a_zero_width() {
    let (code, stdout, stderr) = nimage_status(&["pagemap", "quickstart", "--width", "0"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stdout.is_empty());
    assert!(stderr.contains("--width"), "stderr: {stderr}");
    assert!(!stderr.contains("profiling"), "no work before the check");
}

/// `profile` then `optimize` through CSV profiles on disk writes the same
/// image bytes as building the strategy's image in process from the
/// profiling run's artifacts.
#[test]
fn optimize_from_saved_profiles_matches_the_in_process_build() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("commands-profile-optimize");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (profiles, image) = (dir.join("profiles"), dir.join("image.nimg"));
    let (profiles, image) = (profiles.to_str().unwrap(), image.to_str().unwrap());
    nimage(&["profile", "quickstart", "--out", profiles]);
    nimage(&[
        "optimize",
        "quickstart",
        "--profiles",
        profiles,
        "--strategy",
        "cu-clustered+heap-path",
        "--out",
        image,
    ]);

    let program = quickstart::program().unwrap();
    let opts = BuildOptions {
        vm: VmConfig {
            dump_mode: DumpMode::OnFull,
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    };
    let pipeline = Pipeline::new(&program, opts);
    let artifacts = pipeline.profiling_run(StopWhen::Exit).unwrap();
    let built = pipeline
        .build_optimized(&artifacts, Some(Strategy::CuClusteredPlusHeapPath))
        .unwrap();
    assert!(
        std::fs::read(image).unwrap()[..] == nimage_image::write_image_file(&built.image)[..],
        "the image written from saved profiles differs from the in-process build"
    );
}

/// `cache clear` removes the store's format-version directories and
/// nothing it did not write: a foreign file and a foreign directory in
/// the cache root survive, and so does the root itself.
#[test]
fn cache_clear_removes_only_format_directories() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("commands-cache-clear");
    let _ = std::fs::remove_dir_all(&dir);
    for sub in ["src", "v6/order", "v7/order"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    for file in [
        "notes.txt",
        "src/main.rs",
        "v6/order/x.bin",
        "v7/order/x.bin",
    ] {
        std::fs::write(dir.join(file), "x").unwrap();
    }
    let out = nimage(&["cache", "clear", "--cache-dir", dir.to_str().unwrap()]);
    assert!(out.starts_with("cleared "), "stdout: {out}");
    assert!(dir.join("notes.txt").is_file());
    assert!(dir.join("src/main.rs").is_file());
    assert!(!dir.join("v6").exists());
    assert!(!dir.join("v7").exists());

    // With nothing foreign left, the root goes too; clearing again is a
    // no-op.
    std::fs::remove_file(dir.join("notes.txt")).unwrap();
    std::fs::remove_dir_all(dir.join("src")).unwrap();
    std::fs::create_dir_all(dir.join("v7/order")).unwrap();
    nimage(&["cache", "clear", "--cache-dir", dir.to_str().unwrap()]);
    assert!(!dir.exists());
    nimage(&["cache", "clear", "--cache-dir", dir.to_str().unwrap()]);
}

/// A `--name` that is no option or flag is a usage error before any
/// work: a misspelt `--no-disk-cache` would otherwise keep the disk tier,
/// and the retired `--salted-heap-ids` would run plain heap path.
#[test]
fn unknown_flags_are_rejected() {
    for flag in ["--no-disk-cahce", "--salted-heap-ids"] {
        let (code, stdout, stderr) = nimage_status(&["eval", "quickstart", flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stdout.is_empty(), "{flag}: {stdout}");
        assert_eq!(stderr, format!("error: unknown flag {flag}\n"));
    }
}

/// Every flag a command reads still parses.
#[test]
fn every_flag_parses() {
    let listed = nimage(&["list"]);
    let flags = [
        "--all",
        "--json",
        "--no-disk-cache",
        "--no-verify",
        "--verify",
        "--report",
        "--trace-events",
    ];
    for flag in flags {
        assert_eq!(nimage(&["list", flag]), listed, "{flag}");
    }
}

/// `--help` and `-h` print the same text as `help`.
#[test]
fn help_flags_print_the_help_text() {
    let help = nimage(&["help"]);
    assert!(help.contains("COMMANDS:"), "{help}");
    for arg in ["--help", "-h"] {
        assert_eq!(nimage(&[arg]), help, "{arg}");
    }
}
