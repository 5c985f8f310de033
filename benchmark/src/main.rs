//! The repo benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! One process measures one workload: after set-up and warm-up, a single
//! client issues evaluation passes back to back for a fixed window and the
//! process prints every metric by name. `--trace 0` measures the end-to-end
//! metrics with nothing of the benchmark's own running beside the passes;
//! `--trace 1` is the separate run behind the per-layer metrics.

// The benchmark must outlive the planned removal of the deprecated API
// generation, so it may not lean on any of it.
#![deny(deprecated)]

mod json;
mod pass;
mod staged;
mod stats;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nimage_core::{DiskCacheOptions, DiskStore, EvalOutcome, StageTimes};

use json::Value;
use pass::{check, digest, reference, run_pass, Expected, PaperMetrics, Pass, PassCfg};
use stats::{median, tail};
use workload::{ProgramSet, Tier, Workload, BUNDLED_SEED, THREADS, WORKLOADS};

/// Discarded passes before the window opens: the first engine pass of a
/// process runs about twice as long as the tenth.
const WARMUP_PASSES: usize = 3;
/// Set-up is repeated and `setup_s` is the median, so one slow start does
/// not decide it.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: nimage-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke]";

fn parse_args(spec: &Value) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = BUNDLED_SEED;
    let mut seconds = spec
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(20.0);
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// A cache directory of this run, inside the package's `out/` (the
/// benchmark writes nowhere else), removed when the run ends.
struct CacheDir(PathBuf);

impl CacheDir {
    fn create(workload: &str) -> Result<CacheDir, String> {
        let dir = sys::package_dir()
            .join("out")
            .join(format!("cache-{workload}-{}", std::process::id()));
        let cache = CacheDir(dir);
        cache.wipe()?;
        Ok(cache)
    }

    /// Empties the directory (outside every timed region).
    fn wipe(&self) -> Result<(), String> {
        if self.0.exists() {
            std::fs::remove_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))?;
        }
        std::fs::create_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a run holds once set-up is done.
struct Ready {
    set: ProgramSet,
    paper: PaperMetrics,
    cache: Option<CacheDir>,
    build_programs_ms: f64,
}

impl Ready {
    fn disk(&self) -> Option<&Path> {
        self.cache.as_ref().map(|c| c.0.as_path())
    }
}

struct Bench {
    args: Args,
    expected: Expected,
    attempted: u64,
    failed: u64,
    /// Digest of the first checked pass; every later pass must match it.
    digest: Option<String>,
    problems: Vec<String>,
}

impl Bench {
    /// Whether a measuring loop that began at `window` and has made
    /// `rounds` rounds is over: `--seconds` elapsed, or two rounds in a
    /// smoke run.
    fn done(&self, window: Instant, rounds: u64) -> bool {
        if self.args.smoke {
            rounds >= 2
        } else {
            window.elapsed().as_secs_f64() >= self.args.seconds
        }
    }

    /// Runs one pass and checks it. `None` (and one more failed pass) when
    /// it errs, its outputs are wrong, or its digest differs from the
    /// first pass's.
    fn checked_pass(&mut self, ready: &Ready, threads: usize, vm_events: bool) -> Option<Pass> {
        let tier = self.args.workload.tier;
        if let (Tier::Populate, Some(cache)) = (tier, &ready.cache) {
            if let Err(e) = cache.wipe() {
                self.problems.push(e);
            }
        }
        self.attempted += 1;
        let cfg = PassCfg {
            threads,
            disk: ready.disk(),
            vm_events,
        };
        let mut bad = match run_pass(&ready.set, cfg) {
            Ok(pass) => {
                let mut bad = check(&ready.set, tier, &pass.outcome, &self.expected);
                let d = digest(&pass.outcome);
                let first = self.digest.get_or_insert_with(|| d.clone());
                if *first != d {
                    bad.push(format!("digest {d} differs from the first pass's {first}"));
                }
                if bad.is_empty() {
                    return Some(pass);
                }
                bad
            }
            Err(e) => vec![e.to_string()],
        };
        self.failed += 1;
        bad.truncate(4);
        for line in bad {
            eprintln!("pass {} failed: {line}", self.attempted);
            self.problems
                .push(format!("pass {}: {line}", self.attempted));
        }
        None
    }

    /// Set-up: generate the programs, evaluate and check the bundled
    /// reference, populate the cache (`micro_warm`), warm up.
    fn set_up(&mut self) -> Result<Ready, String> {
        let w = self.args.workload;
        let start = Instant::now();
        let set = ProgramSet::generate(w.programs, self.args.seed);
        // Generated even when it equals `set`, so that set-up does the same
        // work for every seed.
        let bundled = ProgramSet::generate(w.programs, BUNDLED_SEED);
        let build_programs_ms = start.elapsed().as_secs_f64() * 1e3;

        let (outcome, paper) = reference(&bundled).map_err(|e| format!("reference: {e}"))?;
        let bad = check(&bundled, Tier::None, &outcome, &self.expected);
        if !bad.is_empty() {
            return Err(format!("reference check failed: {}", bad.join("; ")));
        }

        let cache = match w.tier {
            Tier::None => None,
            Tier::Warm | Tier::Populate => Some(CacheDir::create(w.name)?),
        };
        if let (Tier::Warm, Some(cache)) = (w.tier, &cache) {
            let cfg = PassCfg {
                threads: THREADS,
                disk: Some(&cache.0),
                vm_events: false,
            };
            let pass = run_pass(&set, cfg).map_err(|e| format!("populate: {e}"))?;
            let bad = check(&set, Tier::Populate, &pass.outcome, &self.expected);
            if !bad.is_empty() {
                return Err(format!("populate check failed: {}", bad.join("; ")));
            }
            self.digest.get_or_insert(digest(&pass.outcome));
        }
        let ready = Ready {
            set,
            paper,
            cache,
            build_programs_ms,
        };
        let warmups = if self.args.smoke { 1 } else { WARMUP_PASSES };
        for _ in 0..warmups {
            self.checked_pass(&ready, THREADS, false);
        }
        Ok(ready)
    }
}

/// One reported metric: its value and how many samples are behind it.
struct Reported {
    value: f64,
    samples: usize,
}

type Metrics = BTreeMap<String, Reported>;

/// Collects `(name, value, samples)` rows.
fn metrics<const N: usize>(rows: [(&str, f64, usize); N]) -> Metrics {
    rows.into_iter()
        .map(|(name, value, samples)| (name.to_string(), Reported { value, samples }))
        .collect()
}

/// `--trace 0`: the closed loop behind the end-to-end metrics.
fn end_to_end(
    bench: &mut Bench,
    extra: &mut Vec<(&'static str, Value)>,
) -> Result<Metrics, String> {
    let reps = if bench.args.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..reps {
        // The previous repetition's cache directory goes first.
        drop(ready.take());
        let start = Instant::now();
        ready = Some(bench.set_up()?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let ready = ready.expect("set-up ran at least once");
    // Read before the window opens: the allocator's high-water mark creeps
    // with every further pass, so at process end it would grow with the
    // number of passes the host's speed happened to allow. Here it is the
    // peak over a fixed amount of work (the set-up repetitions).
    let peak_rss_mib = sys::peak_rss_mib();

    let (attempted0, failed0) = (bench.attempted, bench.failed);
    let mut wall_ms = Vec::new();
    let mut cpu_ms = 0.0;
    let window = Instant::now();
    loop {
        if let Some(pass) = bench.checked_pass(&ready, THREADS, false) {
            wall_ms.push(pass.wall_ms);
            cpu_ms += pass.cpu_ms;
        }
        if bench.done(window, bench.attempted - attempted0) {
            break;
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    let n = wall_ms.len();
    let attempted = (bench.attempted - attempted0) as f64;
    let ok = attempted - (bench.failed - failed0) as f64;
    // Passes completed, prorated from the time the last one ended to the
    // nominal window, so that the count is not quantised by the overrun.
    let passes = if bench.args.smoke {
        n as f64
    } else {
        n as f64 * bench.args.seconds / elapsed
    };

    let p = ready.paper;
    let m = metrics([
        ("pass_ms", median(&wall_ms), n),
        ("cpu_ms_per_pass", cpu_ms / n.max(1) as f64, n),
        ("peak_rss_mb", peak_rss_mib, 1),
        ("fault_reduction_geomean", p.fault_reduction_geomean, 1),
        ("startup_speedup_geomean", p.startup_speedup_geomean, 1),
        ("best_total_faults", p.best_total_faults as f64, 1),
        ("matched_object_ratio", p.matched_object_ratio, 1),
        ("ok_pass_ratio", ok / attempted, attempted as usize),
        ("setup_s", median(&setup_s), setup_s.len()),
        ("passes", passes, n),
    ]);

    let (tail_ms, tail_pct) = tail(&wall_ms);
    println!("pass_ms tail: {tail_ms:.3} ms at p{tail_pct:.1} ({n} samples)");
    let floats = |v: &[f64]| Value::Arr(v.iter().map(|x| json::num(*x)).collect());
    extra.push(("pass_ms_runs", floats(&wall_ms)));
    extra.push(("setup_s_runs", floats(&setup_s)));
    extra.push(("pass_tail_ms", json::num(tail_ms)));
    extra.push(("pass_tail_pct", json::num(tail_pct)));
    extra.push(("window_s", json::num(elapsed)));
    extra.push(cache_provenance(&ready));
    Ok(m)
}

fn cache_provenance(ready: &Ready) -> (&'static str, Value) {
    let value = ready.disk().map_or(Value::Null, |dir| {
        let filesystem = sys::filesystem_of(dir);
        println!("cache dir: {} ({filesystem})", dir.display());
        json::obj([
            ("dir", json::string(dir.display().to_string())),
            ("filesystem", json::string(filesystem)),
        ])
    });
    ("cache", value)
}

/// Σ exclusive time of the engine's nine stage spans in ms.
fn attributed_ms(outcome: &EvalOutcome) -> f64 {
    outcome
        .report
        .stages
        .iter()
        .map(|s| s.exclusive_ns as f64 / 1e6)
        .sum()
}

/// `--trace 1`: the staged walk, then plain, 1-thread and event-traced
/// passes in turn (interleaved, so drift hits the three arms alike) for
/// what is left of the window.
fn per_layer(bench: &mut Bench, extra: &mut Vec<(&'static str, Value)>) -> Result<Metrics, String> {
    let ready = bench.set_up()?;
    let window = Instant::now();
    let w = bench.args.workload;

    let staged_dir = ready.disk().map(|d| d.join("staged"));
    let staged =
        staged::run(&ready.set, staged_dir.as_deref()).map_err(|e| format!("staged: {e}"))?;
    if !staged.problems.is_empty() {
        bench.failed += 1;
        bench.problems.extend(staged.problems.iter().cloned());
    }
    bench.attempted += 1;
    let trace_file = sys::package_dir()
        .join("out")
        .join(format!("{}.trace.json", w.name));
    write_file(&trace_file, &staged.trace.render())?;
    println!("spans: {}", trace_file.display());

    let mut plain = Vec::new();
    let mut serial = Vec::new();
    let mut traced = Vec::new();
    let mut unattributed = Vec::new();
    let mut to_json_ms = Vec::new();
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); StageTimes::NAMES.len()];
    let mut last_plain = None;
    let mut last_traced = None;
    let mut rounds = 0;
    loop {
        if let Some(pass) = bench.checked_pass(&ready, THREADS, false) {
            plain.push(pass.wall_ms);
            for (samples, stage) in stage_ms.iter_mut().zip(&pass.outcome.report.stages) {
                samples.push(stage.exclusive_ns as f64 / 1e6);
            }
            let start = Instant::now();
            let rendered = std::hint::black_box(pass.outcome.report.to_json());
            to_json_ms.push(start.elapsed().as_secs_f64() * 1e3);
            last_plain = Some((pass.outcome, rendered.len()));
        }
        if let Some(pass) = bench.checked_pass(&ready, 1, false) {
            serial.push(pass.wall_ms);
            unattributed.push(pass.wall_ms - attributed_ms(&pass.outcome));
        }
        if let Some(pass) = bench.checked_pass(&ready, THREADS, true) {
            traced.push(pass.wall_ms);
            last_traced = Some(pass.outcome);
        }
        rounds += 1;
        if bench.done(window, rounds) {
            break;
        }
    }
    let (Some((outcome, json_bytes)), Some(traced_outcome)) = (last_plain, last_traced) else {
        return Err("no pass of the traced run succeeded".to_string());
    };

    let report = &outcome.report;
    let hits: u64 = report.cache.iter().map(|c| c.hits).sum();
    let misses: u64 = report.cache.iter().map(|c| c.misses).sum();
    let disk = report.disk.unwrap_or_default();
    let usage = ready
        .disk()
        .map(|dir| DiskStore::open(&DiskCacheOptions::at(dir)).usage())
        .unwrap_or_default();
    let (tail_ms, tail_pct) = tail(&plain);
    let traced_report = &traced_outcome.report;

    let mut m = metrics([
        ("workloads.build_programs_ms", ready.build_programs_ms, 1),
        ("cache.hits", hits as f64, 1),
        ("cache.misses", misses as f64, 1),
        (
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            1,
        ),
        ("diskcache.hits", disk.hits as f64, 1),
        ("diskcache.misses", disk.misses as f64, 1),
        ("diskcache.stores", disk.stores as f64, 1),
        ("diskcache.rejected", disk.rejected as f64, 1),
        ("diskcache.entries", usage.entries as f64, 1),
        ("diskcache.bytes_on_disk", usage.bytes as f64, 1),
        (
            "engine.unattributed_ms_1t",
            median(&unattributed),
            unattributed.len(),
        ),
        ("engine.shards_lazy", report.lowered_shards.lazy as f64, 1),
        ("engine.shards_eager", report.lowered_shards.eager as f64, 1),
        ("engine.pass_tail_ms", tail_ms, plain.len()),
        ("engine.pass_tail_pct", tail_pct, plain.len()),
        ("engine.pass_samples", plain.len() as f64, plain.len()),
        ("par.pass_ms_2t", median(&plain), plain.len()),
        ("par.pass_ms_1t", median(&serial), serial.len()),
        (
            "par.speedup_2t",
            median(&serial) / median(&plain),
            serial.len(),
        ),
        ("trace.events", traced_report.trace.events as f64, 1),
        ("trace.dropped", traced_report.trace.dropped as f64, 1),
        (
            "trace.overhead_ratio",
            median(&traced) / median(&plain),
            traced.len(),
        ),
        ("report.to_json_ms", median(&to_json_ms), to_json_ms.len()),
        ("report.json_bytes", json_bytes as f64, 1),
    ]);
    for (name, value) in staged.metrics {
        m.insert(
            name,
            Reported {
                value,
                samples: ready.set.programs.len(),
            },
        );
    }
    for (name, samples) in StageTimes::NAMES.iter().zip(&stage_ms) {
        let value = median(samples);
        m.insert(
            format!("engine.span.{name}_ms"),
            Reported {
                value,
                samples: samples.len(),
            },
        );
    }

    extra.push(cache_provenance(&ready));
    Ok(m)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("result files live in out/");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let spec = json::parse(include_str!("../../BENCHMARK.json"))?;
    let args = parse_args(&spec)?;
    let Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    } = args;
    let commit = sys::git_commit();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut bench = Bench {
        args,
        expected: Expected::load()?,
        attempted: 0,
        failed: 0,
        digest: None,
        problems: Vec::new(),
    };
    println!(
        "workload {} seed {seed} trace {} — {THREADS} threads on {nproc} cores, commit {commit}",
        workload.name,
        u8::from(trace),
    );

    let started = Instant::now();
    let mut extra = Vec::new();
    let measured = if trace {
        per_layer(&mut bench, &mut extra)?
    } else {
        end_to_end(&mut bench, &mut extra)?
    };

    // Report exactly the metrics BENCHMARK.json names for this mode, with
    // its units, directions and bounds.
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    let mut detailed = Vec::new();
    println!(
        "{:<42} {:>16} {:<7} {:<7} {:>8} {:>8}",
        "metric", "value", "unit", "better", "bound", "samples"
    );
    for decl in spec.get(section).map_or(&[][..], Value::as_arr) {
        let field = |k| decl.get(k).and_then(Value::as_str).unwrap_or("");
        let (name, unit, better) = (field("name"), field("unit"), field("better"));
        let reported = measured
            .get(name)
            .ok_or(format!("metric {name} of BENCHMARK.json was not measured"))?;
        let bound = decl.get("bound").and_then(Value::as_f64);
        println!(
            "{name:<42} {:>16.6} {unit:<7} {better:<7} {:>8} {:>8}",
            reported.value,
            bound.map_or("-".to_string(), |b| b.to_string()),
            reported.samples
        );
        let entry = [
            ("value", json::num(reported.value)),
            ("unit", json::string(unit)),
        ];
        metrics.push((name.to_string(), json::obj(entry.clone())));
        detailed.push((
            name.to_string(),
            json::obj(entry.into_iter().chain([
                ("better", json::string(better)),
                ("bound", bound.map_or(Value::Null, json::num)),
                ("samples", json::num(reported.samples as f64)),
            ])),
        ));
    }
    if let Some(stray) = measured
        .keys()
        .find(|k| !metrics.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("measured metric {stray} is not in BENCHMARK.json"));
    }

    let correct = bench.failed == 0 && bench.problems.is_empty();
    let digest = bench.digest.clone().unwrap_or_default();
    println!(
        "digest {digest}  attempted {}  failed {}  total {:.1} s",
        bench.attempted,
        bench.failed,
        started.elapsed().as_secs_f64()
    );

    let mut record = vec![
        ("workload", json::string(workload.name)),
        ("seed", json::num(seed as f64)),
        ("trace", Value::Bool(trace)),
        ("smoke", Value::Bool(smoke)),
        ("seconds", json::num(seconds)),
        ("threads", json::num(THREADS as f64)),
        ("nproc", json::num(nproc as f64)),
        ("git_commit", json::string(commit)),
        ("digest", json::string(digest)),
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(bench.attempted as f64)),
        ("failed", json::num(bench.failed as f64)),
        (
            "problems",
            Value::Arr(bench.problems.iter().map(json::string).collect()),
        ),
        ("metrics", Value::Obj(detailed)),
    ];
    record.extend(extra);
    let suffix = if trace { "layers" } else { "run" };
    let out = sys::package_dir()
        .join("out")
        .join(format!("{}.{suffix}.json", workload.name));
    write_file(&out, &json::obj(record).render())?;
    println!("record: {}", out.display());

    let result = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(bench.attempted as f64)),
        ("failed", json::num(bench.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
