//! What the benchmark reads from the host: process CPU time and peak RSS
//! from procfs, the filesystem under a path, and the checked-out commit.

use std::path::{Path, PathBuf};

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux the kernel has shipped for
/// two decades; the tree has no libc binding to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time of this process (all threads, including ended
/// ones) in milliseconds, from `/proc/self/stat`.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are the 12th and 13th there.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 1000.0 / CLK_TCK
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type mounted under `path` (longest mount-point prefix
/// in `/proc/mounts`), or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The benchmark package's directory: `cargo run`/`cargo test` export it
/// at run time; a directly started binary falls back to where it was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The commit checked out in the repository that holds the package, read
/// from `.git` directly (no `git` process); `"unknown"` outside a
/// repository, as in the driver's checkouts.
pub fn git_commit() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => {
            std::fs::read_to_string(git.join(r)).map_or(String::new(), |s| s.trim().to_string())
        }
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}
