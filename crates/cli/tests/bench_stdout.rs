//! `nimage bench --json` stdout purity: when the report goes to stdout
//! (bare `--json` or `--json -`), stdout must carry exactly one JSON
//! value and nothing else — every human-facing line goes to stderr, so
//! `nimage bench --json - | jq` style consumers never have to strip
//! progress text.

use std::process::Command;

/// A minimal JSON reader: consumes one value, returns the rest of the
/// input. Enough to prove stdout is well-formed JSON without pulling a
/// parser crate into the workspace.
fn skip_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => skip_container(&s[1..], '}'),
        Some('[') => skip_container(&s[1..], ']'),
        Some('"') => skip_string(&s[1..]),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        _ => ["true", "false", "null"]
            .iter()
            .find_map(|kw| s.strip_prefix(kw))
            .ok_or_else(|| format!("unexpected JSON at {:?}", &s[..s.len().min(40)])),
    }
}

fn skip_string(mut s: &str) -> Result<&str, String> {
    loop {
        let i = s.find(['"', '\\']).ok_or("unterminated string")?;
        match &s[i..i + 1] {
            "\"" => return Ok(&s[i + 1..]),
            _ => s = s.get(i + 2..).ok_or("dangling escape")?,
        }
    }
}

fn skip_container(mut s: &str, close: char) -> Result<&str, String> {
    loop {
        s = s.trim_start();
        if let Some(rest) = s.strip_prefix(close) {
            return Ok(rest);
        }
        if close == '}' {
            let rest = s.trim_start();
            s = skip_string(rest.strip_prefix('"').ok_or_else(|| {
                format!("expected object key at {:?}", &rest[..rest.len().min(40)])
            })?)?;
            s = s
                .trim_start()
                .strip_prefix(':')
                .ok_or("expected ':' after key")?;
        }
        s = skip_value(s)?;
        s = s.trim_start();
        s = s.strip_prefix(',').unwrap_or(s);
    }
}

/// Parses `s` as exactly one JSON value with nothing around it.
fn assert_single_json_value(s: &str) {
    let rest = skip_value(s).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n---\n{s}"));
    assert!(
        rest.trim().is_empty(),
        "trailing non-JSON bytes on stdout: {:?}",
        &rest[..rest.len().min(120)]
    );
}

/// The keys of the top-level object in `s`, in document order.
fn top_level_keys(s: &str) -> Vec<String> {
    let mut keys = vec![];
    let mut rest = s.trim_start().strip_prefix('{').expect("an object");
    loop {
        rest = rest.trim_start();
        if rest.starts_with('}') {
            return keys;
        }
        let key = rest.strip_prefix('"').expect("an object key");
        let after = skip_string(key).expect("a terminated key");
        keys.push(key[..key.len() - after.len() - 1].to_string());
        rest = after.trim_start().strip_prefix(':').expect("':' after key");
        rest = skip_value(rest).expect("a value").trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
}

fn run_bench(json_arg: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nimage"))
        .arg("bench")
        .arg("quickstart")
        .args(json_arg)
        .args(["--threads", "2", "--no-disk-cache"])
        .output()
        .expect("nimage bench runs");
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn bare_json_flag_keeps_stdout_pure() {
    let (stdout, stderr) = run_bench(&["--json"]);
    assert_single_json_value(&stdout);
    assert!(
        stdout.contains("\"report\":{\"report_version\":1"),
        "versioned report missing: {stdout}"
    );
    // No per-stage serial-vs-parallel rows: below the fan-out cutoffs
    // both arms ran the same serial code, so they measured nothing.
    assert!(!stdout.contains("\"stage_speedups\""));
    // Engine counters live in the embedded report only: none of the keys
    // that used to duplicate it at the top level (`report_version`,
    // `threads`, `disk_cache`, `stages_ns`, `cache_hits`, `cache_misses`)
    // may come back.
    assert_eq!(
        top_level_keys(&stdout),
        [
            "workload",
            "strategies",
            "serial_uncached_ns",
            "engine_ns",
            "speedup",
            "results_match",
            "faults",
            "matched_object_ratio",
            "report"
        ],
        "{stdout}"
    );
    // The human narration still happened — on the other stream.
    assert!(
        stderr.contains("benchmarking"),
        "progress text must go to stderr: {stderr}"
    );
    assert!(stderr.contains("strategies:"), "table goes to stderr");
}

#[test]
fn json_dash_keeps_stdout_pure() {
    let (stdout, _) = run_bench(&["--json", "-"]);
    assert_single_json_value(&stdout);
    assert!(stdout.contains("\"report\":{\"report_version\":1"));
}
