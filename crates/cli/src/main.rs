//! `nimage` — command-line driver for the binary-reordering toolchain.
//!
//! ```text
//! nimage list                                   all workloads
//! nimage eval <workload> [--strategy S|--all]   fault/speedup factors
//! nimage run <workload> [--strategy S]          build one image and run it
//! nimage bench [workload] [--json [FILE|-]] [--trace-out FILE]
//!                                               engine vs serial wall-clock
//! nimage profile <workload> --out DIR           write CSV profiles + trace
//! nimage optimize <workload> --profiles DIR --strategy S --out FILE
//! nimage inspect <image-file>                   dump a serialized image
//! nimage pagemap <workload> [--strategy S] [--width N]
//! nimage overhead <workload>                    Sec. 7.4 overhead factors
//! nimage lint <workload>|--all [--strategy S] [--report] [--format text|json]
//! nimage cache stats|gc|clear [--cache-dir DIR] disk artifact cache
//! nimage help
//! ```

mod args;
mod quickstart;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use nimage_core::{
    load_profiles, save_profiles, BuildOptions, DiskCacheOptions, DiskStore, Engine, EngineOptions,
    EvalOutcome, EvalRequest, Evaluation, Pipeline, ProfilingOverhead, Report, Strategy,
    TraceOptions, WorkloadSpec, DISK_FORMAT_VERSION,
};
use nimage_profiler::{write_trace, DumpMode};
use nimage_trace::JsonWriter;
use nimage_vm::{render_ascii, summarize, CostModel, VmConfig};

use args::{parse, ArgError, ParsedArgs};
use workload::Workload;

const HELP: &str = "\
nimage — profile-guided binary reordering (CGO'25 reproduction)

USAGE:
    nimage <command> [args]

COMMANDS:
    list                                     list available workloads
    eval <workload> [--strategy S | --all] [--threads N]
                                             profile + evaluate strategies on the evaluation
                                             engine (shared artifact cache, worker threads)
    run <workload> [--strategy S]            build one image (reordered when --strategy is
                                             given) and run it, printing the measured report
    bench [workload] [--json [FILE|-]] [--trace-out FILE] [--threads N]
                                             time the engine (cached, parallel) against the
                                             serial uncached loop over every strategy and
                                             report per-stage wall-clock + cache hit counts;
                                             --json writes the versioned JSON report (bare
                                             --json or `-`: to stdout, human text on stderr);
                                             --trace-out writes a Chrome-trace JSON of the
                                             engine's spans (load at ui.perfetto.dev), and
                                             turns on VM-level fault events (--trace-events
                                             records them without the export)
    profile <workload> --out DIR             write ordering profiles (CSV) and the raw trace
    optimize <workload> --profiles DIR --strategy S --out FILE
                                             build a reordered image and serialize it
    inspect <image-file>                     print the layout of a serialized image
    pagemap <workload> [--strategy S] [--width N]
                                             Fig. 6-style page map of both sections
    heapstats <workload>                     snapshot composition + layout quality
    overhead <workload>                      profiling overhead factors (Sec. 7.4)
    lint <workload>|--all [--strategy S] [--report] [--format text|json]
                                             run the nimage-verify checkers over the whole
                                             pipeline (--all: every workload); non-zero exit
                                             on any error finding; --report also prints
                                             layout-quality metrics; --format json writes a
                                             machine-readable report to stdout (for CI)
    cache stats [--cache-dir DIR]            inspect the disk artifact cache
    cache gc [--cache-dir DIR] [--max-bytes N] [--max-entries N]
                                             sweep stale temp files and evict the
                                             oldest-accessed entries until under the caps
    cache clear [--cache-dir DIR]            remove the cache's v<N> format directories
    help                                     this text

STRATEGIES: cu, method, incremental-id, structural-hash, heap-path, cu+heap-path,
            cu-clustered, cu-clustered+heap-path (cu / cu+heap-path plus the native-tail split)
WORKLOADS:  the 14 AWFY benchmarks, micronaut/quarkus/spring, and `quickstart`

`run` and `eval` accept --verify / --no-verify to toggle the nimage-verify
checkers inside the pipeline (default: on in debug builds, off in release).
`eval`, `bench` and `lint` persist expensive artifacts under
$XDG_CACHE_HOME/nimage (else ~/.cache/nimage); --cache-dir DIR relocates
it, --no-disk-cache disables it. --max-bytes N / --max-entries N cap the
cache: the engine sweeps it opportunistically after storing new entries,
and `cache gc` sweeps on demand. --threads N sets the engine's worker
count (0 = auto); every stage inside a cell runs serially.
";

fn strategy_of(name: &str) -> Result<Strategy, ArgError> {
    let normalized = name.to_ascii_lowercase().replace(['_', ' '], "-");
    Strategy::all()
        .into_iter()
        .find(|s| s.name().replace(' ', "-") == normalized)
        .ok_or_else(|| {
            ArgError(format!(
                "unknown strategy {name}; expected one of: {}",
                Strategy::all()
                    .map(|s| s.name().replace(' ', "-"))
                    .join(", ")
            ))
        })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let parsed = match parse(argv) {
        Ok(p) => p,
        Err(_) if argv.is_empty() => {
            print!("{HELP}");
            return Ok(());
        }
        Err(e) => return Err(e.into()),
    };
    match parsed.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "list" => {
            println!("AWFY (FaaS model, end-to-end time):");
            for w in Workload::awfy() {
                println!("  {}", w.name());
            }
            println!("microservices (time to first response):");
            for w in Workload::micro() {
                println!("  {}", w.name());
            }
            Ok(())
        }
        "eval" => cmd_eval(&parsed),
        "run" => cmd_run(&parsed),
        "bench" => cmd_bench(&parsed),
        "profile" => cmd_profile(&parsed),
        "optimize" => cmd_optimize(&parsed),
        "inspect" => cmd_inspect(&parsed),
        "pagemap" => cmd_pagemap(&parsed),
        "heapstats" => cmd_heapstats(&parsed),
        "overhead" => cmd_overhead(&parsed),
        "lint" => cmd_lint(&parsed),
        "cache" => cmd_cache(&parsed),
        other => Err(ArgError(format!("unknown command {other}; try `nimage help`")).into()),
    }
}

fn pipeline_for(workload: &Workload) -> BuildOptions {
    BuildOptions {
        vm: VmConfig {
            dump_mode: workload.dump_mode(),
            ..VmConfig::default()
        },
        ..BuildOptions::default()
    }
}

/// Resolves `--verify` / `--no-verify`: an explicit flag wins; otherwise
/// the nimage-verify checkers default on in debug builds and off in
/// release builds (they roughly double pipeline cost).
fn verify_flag(parsed: &ParsedArgs) -> bool {
    !parsed.has_flag("no-verify") && (parsed.has_flag("verify") || cfg!(debug_assertions))
}

/// Parses `--threads N` (0 = auto).
fn threads_of(parsed: &ParsedArgs) -> Result<usize, ArgError> {
    parsed
        .option("threads")
        .map(str::parse)
        .transpose()
        .map_err(|_| ArgError("--threads must be a number".into()))
        .map(|t| t.unwrap_or(0))
}

/// Parses an optional non-negative integer option such as `--max-bytes`.
fn parse_u64(parsed: &ParsedArgs, name: &str) -> Result<Option<u64>, ArgError> {
    parsed
        .option(name)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| ArgError(format!("--{name} must be a non-negative integer")))
        })
        .transpose()
}

/// Resolves the disk-cache tier: `--no-disk-cache` disables it,
/// `--cache-dir DIR` relocates it, otherwise the per-user default
/// (`$XDG_CACHE_HOME/nimage`, else `~/.cache/nimage`) is used.
/// `--max-bytes` / `--max-entries` cap it (the engine sweeps the cache
/// after runs that stored new entries).
fn disk_of(parsed: &ParsedArgs) -> Result<Option<DiskCacheOptions>, ArgError> {
    if parsed.has_flag("no-disk-cache") {
        return Ok(None);
    }
    let opts = match parsed.option("cache-dir") {
        Some(dir) => Some(DiskCacheOptions::at(dir)),
        None => DiskCacheOptions::default_dir().map(DiskCacheOptions::at),
    };
    let Some(mut opts) = opts else {
        return Ok(None);
    };
    opts.max_bytes = parse_u64(parsed, "max-bytes")?;
    opts.max_entries = parse_u64(parsed, "max-entries")?;
    Ok(Some(opts))
}

fn cmd_eval(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let strategies: Vec<Strategy> = match parsed.option("strategy") {
        Some(s) if !parsed.has_flag("all") => vec![strategy_of(s)?],
        _ => Strategy::all().to_vec(),
    };
    let program = workload.program()?;
    let mut opts = pipeline_for(&workload);
    opts.verify = verify_flag(parsed);
    let engine = Engine::new(EngineOptions {
        n_threads: threads_of(parsed)?,
        disk: disk_of(parsed)?,
        trace: Default::default(),
    });
    eprintln!("profiling {} …", workload.name());
    let req = EvalRequest::new()
        .workload(WorkloadSpec::new(
            workload.name(),
            &program,
            opts,
            workload.stop(),
        ))
        .strategies(strategies);
    let outcome = engine.evaluate(&req)?;
    let cm = CostModel::ssd();
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>9}",
        "strategy", "base faults", "opt faults", "reduction", "speedup"
    );
    for cell in &outcome.cells {
        let eval = &cell.eval;
        println!(
            "{:<16} {:>12} {:>12} {:>9.2}x {:>8.2}x",
            cell.strategy.name(),
            eval.baseline.faults.total(),
            eval.optimized.faults.total(),
            eval.reported_fault_reduction(),
            eval.speedup(&cm),
        );
    }
    let report = &outcome.report;
    eprintln!(
        "cache: {} hits, {} misses",
        report.cache_hits(),
        report.cache_misses()
    );
    print_disk(report);
    Ok(())
}

/// Prints the disk-cache totals and their per-stage breakdown (stderr),
/// when a disk tier is configured.
fn print_disk(report: &Report) {
    let (Some(disk), Some(stages)) = (&report.disk, &report.disk_stages) else {
        return;
    };
    eprintln!("disk cache: {disk}");
    for (name, s) in stages {
        eprintln!("  disk {name:<10}: {s}");
    }
}

fn cmd_run(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let strategy = parsed.option("strategy").map(strategy_of).transpose()?;
    let program = workload.program()?;
    let mut opts = pipeline_for(&workload);
    opts.verify = verify_flag(parsed);
    let pipeline = Pipeline::new(&program, opts);
    let built = match strategy {
        Some(_) => {
            eprintln!("profiling {} …", workload.name());
            let artifacts = pipeline.profiling_run(workload.stop())?;
            pipeline.build_optimized(&artifacts, strategy)?
        }
        None => pipeline.build_instrumented(nimage_compiler::InstrumentConfig::NONE)?,
    };
    let report = pipeline.run_image(&built, workload.stop())?;
    let cm = CostModel::ssd();
    println!(
        "{} ({} layout):",
        workload.name(),
        strategy.map_or("regular", |s| s.name())
    );
    println!("  exit          : {:?}", report.exit);
    println!("  entry return  : {:?}", report.entry_return);
    println!("  ops           : {}", report.ops);
    println!(
        "  faults        : {} .text + {} .svm_heap = {}",
        report.faults.text,
        report.faults.svm_heap,
        report.faults.total()
    );
    println!(
        "  startup (ssd) : {:.3} ms",
        report.time_ns(&cm) / 1_000_000.0
    );
    if let Some(t) = report.time_to_first_response_ns(&cm) {
        println!("  first response: {:.3} ms", t / 1_000_000.0);
    }
    Ok(())
}

fn cmd_bench(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = match parsed.positional.as_slice() {
        [] => Workload::resolve("Bounce")?,
        [one] => Workload::resolve(one)?,
        _ => return Err(ArgError("expected at most one workload".into()).into()),
    };
    let strategies = Strategy::all();
    let program = workload.program()?;
    // Verification stays off unless asked for — this command measures the
    // evaluation path itself.
    let mut opts = pipeline_for(&workload);
    opts.verify = parsed.has_flag("verify");
    let stop = workload.stop();

    // Reference: the serial uncached path — profile once, build and run
    // the baseline once, then build and run every strategy's image on one
    // thread, with no artifact cache and one VM execution per image.
    eprintln!("benchmarking {} (serial uncached) …", workload.name());
    let t0 = Instant::now();
    let pipeline = Pipeline::new(&program, opts.clone());
    let artifacts = pipeline.profiling_run(stop)?;
    let serial = pipeline.evaluate(&artifacts, &strategies, stop)?;
    let serial_ns = t0.elapsed().as_nanos() as u64;

    // The engine: shared artifact cache + worker threads + disk tier.
    // VM-level trace events (page faults, shard faults) are recorded only
    // when the Chrome trace is actually exported (or --trace-events asks
    // for them) — they are the one recording that scales with executed
    // work.
    eprintln!("benchmarking {} (engine) …", workload.name());
    let trace_out = parsed.option("trace-out");
    let engine = Engine::new(EngineOptions {
        n_threads: threads_of(parsed)?,
        disk: disk_of(parsed)?,
        trace: TraceOptions {
            vm_events: trace_out.is_some() || parsed.has_flag("trace-events"),
            ..Default::default()
        },
    });
    let t1 = Instant::now();
    let spec = WorkloadSpec::new(workload.name(), &program, opts, stop);
    let req = EvalRequest::new()
        .workload(spec.clone())
        .strategies(strategies);
    // One handle for the matrix and every later query: the program is
    // fingerprinted and indexed once.
    let handle = engine.workload(&spec);
    let cells = handle.evaluate(&strategies)?;
    let outcome = EvalOutcome {
        report: engine.report(&req, &cells),
        cells,
    };
    let engine_ns = t1.elapsed().as_nanos() as u64;
    let rows: Vec<&Evaluation> = outcome.cells.iter().map(|c| &c.eval).collect();

    let results_match = serial.len() == rows.len()
        && serial.iter().zip(&rows).all(|(e1, e2)| {
            e1.strategy == e2.strategy
                && e1.baseline.faults == e2.baseline.faults
                && e1.optimized.faults == e2.optimized.faults
                && e1.baseline.ops == e2.baseline.ops
                && e1.optimized.ops == e2.optimized.ops
                && e1.optimized.entry_return == e2.optimized.entry_return
        });
    let report = &outcome.report;
    let speedup = serial_ns as f64 / engine_ns.max(1) as f64;

    // The fraction of objects whose heap-path id is unambiguous in both
    // the serial pipeline's instrumented and optimized (baseline-layout)
    // snapshots.
    let matched_ratio = {
        use nimage_order::{assign_ids, matched_object_ratio, HeapStrategy};
        let instrumented = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::FULL)?;
        let optimized = pipeline.build_optimized(&artifacts, None)?;
        let ids = |parts: &nimage_core::BuildParts| -> Vec<u64> {
            assign_ids(&program, &parts.snapshot, HeapStrategy::HeapPath)
                .into_values()
                .collect()
        };
        matched_object_ratio(&ids(&instrumented), &ids(&optimized))
    };

    // Per-strategy measured major faults against the no-reorder baseline,
    // with the layout optimizer's predictions for the clustered
    // strategies (every plan below is a cache hit after the engine run).
    let engine_artifacts = handle.profile()?;
    let fault_rows: Vec<FaultRow> = rows
        .iter()
        .map(|e| {
            let plan = handle.layout_plan(&engine_artifacts, e.strategy)?;
            Ok(FaultRow {
                strategy: e.strategy,
                text: e.optimized.faults.text,
                heap: e.optimized.faults.svm_heap,
                predicted: plan.predicted,
            })
        })
        .collect::<Result<_, nimage_core::PipelineError>>()?;
    let baseline_faults = rows
        .first()
        .map(|e| (e.baseline.faults.text, e.baseline.faults.svm_heap))
        .unwrap_or((0, 0));

    eprintln!("{} × {} strategies:", workload.name(), strategies.len());
    eprintln!("  serial uncached : {:>10.1} ms", serial_ns as f64 / 1e6);
    eprintln!(
        "  engine          : {:>10.1} ms  ({speedup:.2}x)",
        engine_ns as f64 / 1e6
    );
    eprintln!(
        "  cache           : {} hits, {} misses",
        report.cache_hits(),
        report.cache_misses()
    );
    if let Some(disk) = &report.disk {
        eprintln!("  disk cache      : {disk}");
        if let Some(stages) = &report.disk_stages {
            for (name, s) in stages {
                eprintln!("    disk {name:<9}: {s}");
            }
        }
    }
    for stage in &report.stages {
        eprintln!(
            "    {:<9} {:>10.1} ms",
            stage.name,
            stage.exclusive_ns as f64 / 1e6
        );
    }
    eprintln!("  matched-object ratio (instrumented → optimized):");
    eprintln!("    heap-path         {matched_ratio:.4}");
    eprintln!("  measured major faults (text/heap/total):");
    eprintln!(
        "    {:<22} {:>5} {:>5} {:>6}",
        "baseline (no reorder)",
        baseline_faults.0,
        baseline_faults.1,
        baseline_faults.0 + baseline_faults.1
    );
    for row in &fault_rows {
        let predicted = row.predicted.map_or(String::new(), |p| {
            format!(
                "  (predicted {}, first-touch {})",
                p.optimized.total(),
                p.first_touch.total()
            )
        });
        eprintln!(
            "    {:<22} {:>5} {:>5} {:>6}{predicted}",
            row.strategy.name(),
            row.text,
            row.heap,
            row.text + row.heap
        );
    }
    eprintln!(
        "  results         : {}",
        if results_match { "identical" } else { "DIFFER" }
    );

    // Snapshot the versioned report last, so the span tree and counters
    // cover everything the bench measured (including the per-strategy
    // layout plans above).
    if parsed.option("json").is_some() || parsed.has_flag("json") {
        let report = engine.report(&req, &outcome.cells);
        let mut json = bench_json(
            workload.name(),
            strategies.len(),
            serial_ns,
            engine_ns,
            results_match,
            matched_ratio,
            baseline_faults,
            &fault_rows,
            &report,
        );
        json.push('\n');
        match parsed.option("json") {
            // `--json FILE` writes the file; bare `--json` or `--json -`
            // prints the report to stdout, which carries nothing else.
            Some(path) if path != "-" => {
                std::fs::write(path, json)?;
                eprintln!("wrote {path}");
            }
            _ => print!("{json}"),
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(path, engine.chrome_trace())?;
        eprintln!("wrote {path}");
    }
    if !results_match {
        return Err("engine results differ from the serial loop".into());
    }
    Ok(())
}

/// One strategy's measured major-fault counts (plus, for the clustered
/// strategies, the layout optimizer's predicted counts).
struct FaultRow {
    strategy: Strategy,
    text: u64,
    heap: u64,
    predicted: Option<nimage_core::LayoutPrediction>,
}

/// Renders the `nimage bench` report as JSON.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    workload: &str,
    n_strategies: usize,
    serial_ns: u64,
    engine_ns: u64,
    results_match: bool,
    matched_ratio: f64,
    baseline_faults: (u64, u64),
    fault_rows: &[FaultRow],
    report: &Report,
) -> String {
    let faults = |w: &mut JsonWriter, key: &str, text: u64, heap: u64| {
        w.key(key).object(|w| {
            w.field("text", text)
                .field("heap", heap)
                .field("total", text + heap);
        });
    };
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.field("workload", workload)
            .field("strategies", n_strategies)
            .field("serial_uncached_ns", serial_ns)
            .field("engine_ns", engine_ns)
            .field("speedup", serial_ns as f64 / engine_ns.max(1) as f64)
            .field("results_match", results_match);
        w.key("faults").object(|w| {
            faults(w, "baseline", baseline_faults.0, baseline_faults.1);
            w.key("strategies").object(|w| {
                for row in fault_rows {
                    w.key(row.strategy.name()).object(|w| {
                        w.field("text", row.text)
                            .field("heap", row.heap)
                            .field("total", row.text + row.heap);
                        if let Some(p) = row.predicted {
                            let (o, f) = (p.optimized, p.first_touch);
                            faults(w, "predicted", o.text, o.heap);
                            faults(w, "first_touch_predicted", f.text, f.heap);
                        }
                    });
                }
            });
        });
        w.key("matched_object_ratio").object(|w| {
            w.field("heap-path", matched_ratio);
        });
        // The versioned engine report, verbatim — every engine counter
        // (stage spans, cache and disk tiers, shards, metrics, trace
        // totals, cells) lives here and nowhere else in the document.
        w.key("report");
        report.write_json(w);
    });
    w.finish()
}

fn cmd_profile(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let out = Path::new(parsed.require("out")?);
    let program = workload.program()?;
    let pipeline = Pipeline::new(&program, pipeline_for(&workload));
    eprintln!("profiling {} …", workload.name());
    let built = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::FULL)?;
    let report = pipeline.run_image(&built, workload.stop())?;
    let trace = report.trace.as_ref().map(write_trace);
    let artifacts = pipeline.replay_stage(report, &built.snapshot)?;
    save_profiles(&artifacts, out)?;
    if let Some(bytes) = trace {
        std::fs::write(out.join("trace.ntrc"), bytes)?;
    }
    println!(
        "wrote profiles to {} ({} CU entries, {} methods, {} heap ids)",
        out.display(),
        artifacts.cu_profile.sigs.len(),
        artifacts.method_profile.sigs.len(),
        artifacts.heap_profiles[&nimage_order::HeapStrategy::HeapPath]
            .ids
            .len(),
    );
    Ok(())
}

fn cmd_optimize(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let profiles_dir = Path::new(parsed.require("profiles")?);
    let strategy = strategy_of(parsed.require("strategy")?)?;
    let out = Path::new(parsed.require("out")?);

    let program = workload.program()?;
    let pipeline = Pipeline::new(&program, pipeline_for(&workload));
    let saved = load_profiles(profiles_dir)?;
    // The optimizing build does not need the instrumented report; rerun a
    // cheap uninstrumented run to fill the slot.
    let regular = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::NONE)?;
    let report = pipeline.run_image(&regular, workload.stop())?;
    let artifacts = saved.into_artifacts(report);
    let built = pipeline.build_optimized(&artifacts, Some(strategy))?;
    std::fs::write(out, nimage_image::write_image_file(&built.image))?;
    println!(
        "wrote {} ({} CUs, {} objects, {} KiB image)",
        out.display(),
        built.image.cu_order.len(),
        built.image.object_order.len(),
        built.image.total_size / 1024,
    );
    Ok(())
}

fn cmd_inspect(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let path = parsed.one_positional("image file")?;
    let bytes = std::fs::read(path)?;
    let file = nimage_image::read_image_file(&bytes)?;
    println!("nimage binary image v{}", file.version);
    println!("  page size : {} B", file.page_size);
    println!(
        "  .text     : offset {:#x}, {} KiB",
        file.text.0,
        file.text.1 / 1024
    );
    println!(
        "  .svm_heap : offset {:#x}, {} KiB",
        file.svm_heap.0,
        file.svm_heap.1 / 1024
    );
    println!("  CUs       : {}", file.cus.len());
    for &(id, off) in file.cus.iter().take(10) {
        println!("    cu{id:<6} @ {off:#x}");
    }
    if file.cus.len() > 10 {
        println!("    … {} more", file.cus.len() - 10);
    }
    println!("  objects   : {}", file.objects.len());
    Ok(())
}

fn cmd_pagemap(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let width = match parsed.option("width").map(str::parse::<usize>) {
        None => 64,
        Some(Ok(w)) if w > 0 => w,
        Some(_) => return Err(ArgError("--width must be a positive number".into()).into()),
    };
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let strategy = parsed.option("strategy").map(strategy_of).transpose()?;
    let program = workload.program()?;
    let pipeline = Pipeline::new(&program, pipeline_for(&workload));
    eprintln!("profiling {} …", workload.name());
    let artifacts = pipeline.profiling_run(workload.stop())?;
    let built = pipeline.build_optimized(&artifacts, strategy)?;
    let report = pipeline.run_image(&built, workload.stop())?;
    for (name, states) in [
        (".text", &report.text_page_states),
        (".svm_heap", &report.heap_page_states),
    ] {
        let s = summarize(states);
        println!(
            "\n{name} — {} layout ({} faulted, {} resident, {} untouched):",
            strategy.map_or("regular", |s| s.name()),
            s.faulted,
            s.resident,
            s.untouched
        );
        println!("{}", render_ascii(states, width));
    }
    Ok(())
}

fn cmd_heapstats(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let program = workload.program()?;
    let pipeline = Pipeline::new(&program, pipeline_for(&workload));
    eprintln!("profiling {} …", workload.name());
    // One instrumented build serves the profiling run, the accessed-object
    // table (from the run's trace) and the snapshot statistics below.
    let built = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::FULL)?;
    let report = pipeline.run_image(&built, workload.stop())?;
    let accessed = (report.trace.as_ref().map(accessed_objects))
        .ok_or("instrumented run produced no trace")?;
    let artifacts = pipeline.replay_stage(report, &built.snapshot)?;
    let snap = &*built.snapshot;

    let stats = snap.stats();
    println!(
        ".svm_heap composition ({} objects, {} KiB):",
        stats.objects(),
        stats.bytes() / 1024
    );
    for (name, (count, bytes)) in [
        ("instances", stats.instances),
        ("arrays", stats.arrays),
        ("strings", stats.strings),
        ("boxed consts", stats.boxed),
        ("resources", stats.blobs),
    ] {
        println!(
            "  {name:<13} {count:>6} objects {:>8} KiB ({:>4.1}% of bytes)",
            bytes / 1024,
            100.0 * bytes as f64 / stats.bytes().max(1) as f64
        );
    }
    println!(
        "roots: {} static-field, {} method-constant, {} interned-string, {} data-section, {} resource",
        stats.roots[0], stats.roots[1], stats.roots[2], stats.roots[3], stats.roots[4]
    );

    println!(
        "
accessed at startup: {} of {} objects ({:.1}%)",
        accessed.len(),
        snap.entries().len(),
        100.0 * accessed.len() as f64 / snap.entries().len().max(1) as f64
    );

    let default_order: Vec<nimage_heap::ObjId> = snap.entries().iter().map(|e| e.obj).collect();
    let ids = nimage_order::assign_ids(&program, snap, nimage_order::HeapStrategy::HeapPath);
    let profile = &artifacts.heap_profiles[&nimage_order::HeapStrategy::HeapPath];
    let reordered = nimage_order::order_objects(snap, &ids, profile);
    print!(
        "{}",
        quality_report(
            snap,
            &[("default", &default_order), ("heap path", &reordered)],
            &accessed,
        )
    );
    Ok(())
}

/// Accessed-object set from an instrumented trace (raw ids are ObjId + 1;
/// 0 marks accesses to objects outside the snapshot).
fn accessed_objects(
    trace: &nimage_profiler::Trace,
) -> std::collections::HashSet<nimage_heap::ObjId> {
    let mut accessed = std::collections::HashSet::new();
    for rec in trace
        .threads
        .iter()
        .flat_map(nimage_profiler::ThreadTrace::records)
    {
        if let nimage_profiler::Record::Path { obj_ids, .. } = rec {
            for id in obj_ids.filter(|&id| id != 0) {
                accessed.insert(nimage_heap::ObjId((id - 1) as u32));
            }
        }
    }
    accessed
}

/// Renders one `layout_quality` line per named object order.
fn quality_report(
    snap: &nimage_heap::HeapSnapshot,
    orders: &[(&str, &[nimage_heap::ObjId])],
    accessed: &std::collections::HashSet<nimage_heap::ObjId>,
) -> String {
    let mut out = String::new();
    for (name, order) in orders {
        let q = nimage_order::layout_quality(snap, order, accessed);
        out.push_str(&format!(
            "  {name:<12} layout: span {:>6} KiB, density {:>5.1}%, {} runs\n",
            q.span_bytes / 1024,
            q.density * 100.0,
            q.runs
        ));
    }
    out
}

fn cmd_lint(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let strategy = match parsed.option("strategy") {
        Some(s) => strategy_of(s)?,
        None => Strategy::CuPlusHeapPath,
    };
    let text = match parsed.option("format").unwrap_or("text") {
        "text" => true,
        "json" => false,
        other => {
            return Err(ArgError(format!("unknown --format {other}; expected text|json")).into())
        }
    };
    let report = parsed.has_flag("report");
    let workloads: Vec<Workload> = if parsed.has_flag("all") {
        Workload::awfy()
            .chain(Workload::micro())
            .chain(std::iter::once(Workload::Quickstart))
            .collect()
    } else {
        vec![Workload::resolve(parsed.one_positional("workload")?)?]
    };
    // Lint shares the eval engine so expensive stages (compile, snapshot,
    // profile) persist to the disk tier: a second `nimage lint` run loads
    // them back instead of rebuilding.
    let engine = Engine::new(EngineOptions {
        n_threads: threads_of(parsed)?,
        disk: disk_of(parsed)?,
        trace: Default::default(),
    });
    // Unlike run/eval, the in-pipeline checkers default off here — lint
    // already runs the same checkers itself; `--verify` opts in.
    let verify = parsed.has_flag("verify") && !parsed.has_flag("no-verify");
    let mut total_errors = 0;
    let mut outcomes: Vec<(&'static str, LintOutcome)> = Vec::new();
    for workload in &workloads {
        let out = lint_workload(workload, strategy, report, verify, text, &engine)?;
        total_errors += out.errors;
        outcomes.push((workload.name(), out));
    }
    print_disk(&engine.report(&EvalRequest::new(), &[]));
    if !text {
        println!("{}", lint_json(strategy, &outcomes));
    } else if workloads.len() > 1 {
        println!(
            "\nlint --all: {} workload(s), {} error(s)",
            workloads.len(),
            total_errors
        );
    }
    if total_errors > 0 {
        return Err(format!("{total_errors} verification error(s)").into());
    }
    Ok(())
}

/// The result of linting one workload: normalized (sorted, deduplicated)
/// diagnostics plus per-lint-family wall-clock timings.
struct LintOutcome {
    errors: usize,
    warnings: usize,
    /// `(family, microseconds)` in execution order.
    timings: Vec<(&'static str, u64)>,
    diags: Vec<nimage_verify::Diagnostic>,
}

/// Renders the `nimage lint --format json` report.
fn lint_json(strategy: Strategy, outcomes: &[(&'static str, LintOutcome)]) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("workloads").array(|w| {
            for (name, o) in outcomes {
                w.object(|w| {
                    w.field("workload", name)
                        .field("strategy", strategy.name())
                        .field("errors", o.errors)
                        .field("warnings", o.warnings);
                    w.key("timings_us").object(|w| {
                        for (family, us) in &o.timings {
                            w.field(family, us);
                        }
                    });
                    w.key("diagnostics").array(|w| {
                        for d in &o.diags {
                            w.object(|w| {
                                w.field("severity", d.severity.to_string())
                                    .field("code", d.code)
                                    .field("entity", &d.entity)
                                    .field("message", &d.message);
                            });
                        }
                    });
                });
            }
        });
        let errors: usize = outcomes.iter().map(|(_, o)| o.errors).sum();
        let warnings: usize = outcomes.iter().map(|(_, o)| o.warnings).sum();
        w.field("total_errors", errors)
            .field("total_warnings", warnings);
    });
    w.finish()
}

/// Lints one workload end to end; returns the normalized diagnostics and
/// per-lint-family timings. The optimized build goes through `engine`, so
/// its stages hit the shared (and disk) caches; the profiling build and run
/// are the lint's own, since it reads their trace. When
/// `text` is false (JSON mode), the informational stdout lines are
/// suppressed so stdout carries only the report.
fn lint_workload(
    workload: &Workload,
    strategy: Strategy,
    report: bool,
    verify: bool,
    text: bool,
    engine: &Engine,
) -> Result<LintOutcome, Box<dyn std::error::Error>> {
    use nimage_verify::{determinism::DeterminismInputs, irlint, pipeline as checks, Severity};

    let program = workload.program()?;
    let mut opts = pipeline_for(workload);
    opts.verify = verify;
    let spec = WorkloadSpec::new(workload.name(), &program, opts.clone(), workload.stop());
    let mut diags = vec![];
    let mut timings: Vec<(&'static str, u64)> = vec![];
    macro_rules! timed {
        ($name:literal, $body:block) => {{
            let t = Instant::now();
            let r = $body;
            timings.push(($name, t.elapsed().as_micros() as u64));
            r
        }};
    }

    // Family 1: IR dataflow lints (use-before-def, dead stores — both on
    // the worklist solver), then vtable soundness against the instrumented
    // build's devirtualization.
    let handle = engine.workload(&spec);
    let pipeline = Pipeline::new(&program, opts.clone());
    let built = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::FULL)?;
    timed!("ir", {
        diags.extend(irlint::lint_program(&program));
        diags.extend(irlint::lint_virtual_targets(
            &program,
            &built.compiled.reachability,
        ));
    });
    timed!("layout-instrumented", {
        diags.extend(checks::check_layout(&checks::LayoutView::from_image(
            &program,
            &built.compiled,
            &built.snapshot,
            &built.image,
        )));
    });

    // Family 2: profiling-run invariants — trace well-formedness, identity
    // collision audits, profile coverage, layout + matching contract of the
    // optimized build. The trace is this run's of the build above.
    eprintln!("profiling {} …", workload.name());
    let run = pipeline.run_image(&built, workload.stop())?;
    let trace = &run
        .trace
        .clone()
        .ok_or("instrumented run produced no trace")?;
    let artifacts = pipeline.replay_stage(run, &built.snapshot)?;
    timed!("trace", {
        diags.extend(checks::check_trace(trace));
    });

    timed!("coverage", {
        let coverage = checks::profile_coverage(&program, &built.compiled, &artifacts.cu_profile);
        if text {
            println!(
                "profile coverage   : {}/{} profile signatures resolve, {}/{} CUs covered",
                coverage.matched, coverage.profile_entries, coverage.covered, coverage.cus
            );
        }
        diags.extend(checks::coverage_diagnostics(&coverage));
    });

    timed!("ids", {
        let mut heap_profiles: Vec<_> = artifacts.heap_profiles.iter().collect();
        heap_profiles.sort_by_key(|(hs, _)| hs.name());
        for (hs, profile) in heap_profiles {
            let audit = checks::audit_ids(profile.ids.iter().copied());
            if text {
                println!(
                    "id audit ({:<15}): {} ids, {} distinct, worst multiplicity {}",
                    hs.name(),
                    audit.total,
                    audit.distinct,
                    audit.max_multiplicity
                );
            }
            diags.extend(checks::id_collision_diagnostics(
                &audit,
                &format!("heap profile ({})", hs.name()),
            ));
        }
    });

    let opt = handle.optimized_image(&artifacts, Some(strategy))?;
    timed!("layout-optimized", {
        diags.extend(checks::check_layout(&checks::LayoutView::from_image(
            &program,
            &opt.compiled,
            &opt.snapshot,
            &opt.image,
        )));
    });
    timed!("matching", {
        if let Some(hs) = strategy.heap_strategy() {
            let ids = nimage_order::assign_ids(&program, &opt.snapshot, hs);
            diags.extend(checks::id_collision_diagnostics(
                &checks::audit_ids(ids.values().copied()),
                &format!("optimized-build ids ({})", hs.name()),
            ));
            diags.extend(checks::check_matching(
                &opt.snapshot,
                &ids,
                &artifacts.heap_profiles[&hs],
                &opt.image.object_order,
            ));
        }
    });

    // Family 3: determinism audits — the back half of the pipeline, then
    // the profiling build (instrumented compile + trace replay).
    let verdict = |ok: bool| if ok { "identical" } else { "DIFFERS" };
    timed!("determinism", {
        let det = nimage_verify::audit_determinism(
            &program,
            &DeterminismInputs {
                cu_profile: Some(&artifacts.cu_profile),
                heap_profile: strategy
                    .heap_strategy()
                    .map(|hs| &artifacts.heap_profiles[&hs]),
                heap_strategy: strategy.heap_strategy(),
            },
        );
        if text {
            println!(
                "determinism audit  : image {}, cu order {}, object order {}",
                verdict(det.image_identical),
                verdict(det.cu_order_identical),
                verdict(det.object_order_identical)
            );
        }
        diags.extend(det.diagnostics);
    });

    timed!("profiling-determinism", {
        let audit_program = workload.audit_program()?;
        let prof_det = nimage_verify::audit_profiling_determinism(&audit_program, workload.stop());
        if text {
            println!(
                "profiling audit    : trace {}, profiles {}",
                verdict(prof_det.trace_identical),
                verdict(prof_det.profiles_identical)
            );
        }
        diags.extend(prof_det.diagnostics);
    });

    // Family 4: PEA fold soundness — audits the optimized snapshot (the
    // instrumented heap config never folds) by reconstructing the pre-fold
    // object graph and checking every folded object was single-use.
    timed!("pea", {
        diags.extend(nimage_verify::pea::check_pea_soundness(
            &program,
            &opt.snapshot,
        ));
    });

    // Family 5: clinit purity — interprocedural effect summaries classify
    // each build-time initializer, then a logged re-execution cross-checks
    // that the static summaries over-approximate the observed effects.
    timed!("purity", {
        let cg = nimage_analysis::CallGraph::build(&program);
        let summaries = nimage_verify::purity::effect_summaries(&program, &cg);
        let inits =
            nimage_heap::init_order(&program, &built.compiled.reachability, &opts.heap_optimized);
        diags.extend(nimage_verify::purity::check_clinit_purity(
            &program, &inits, &summaries,
        ));
        let (_heap, log) = nimage_heap::run_initializers_logged(
            &nimage_compiler::ProgramIndex::new(&program, opts.vm.max_paths),
            &inits,
            opts.heap_optimized.budget,
        )?;
        diags.extend(nimage_verify::purity::check_effect_log(
            &program, &summaries, &log,
        ));
    });

    // Family 6: reachability cross-check — every method the trace entered
    // must be in the type-based reachable set; never-entered CUs are
    // reported as layout waste.
    timed!("reach", {
        diags.extend(nimage_verify::reachcheck::check_reachability(
            &program,
            &built.compiled,
            trace,
        ));
    });

    if text && report {
        let accessed = accessed_objects(trace);
        let default_order: Vec<nimage_heap::ObjId> =
            opt.snapshot.entries().iter().map(|e| e.obj).collect();
        print!(
            "{}",
            quality_report(
                &opt.snapshot,
                &[
                    ("default", &default_order),
                    (strategy.name(), &opt.image.object_order),
                ],
                &accessed,
            )
        );
    }

    // Stable output: sort by (severity, code, entity, message) and drop
    // exact duplicates, so the report is identical across thread counts
    // and cache states.
    nimage_verify::normalize(&mut diags);
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if text {
        for d in &diags {
            println!("{d}");
        }
        let total_us: u64 = timings.iter().map(|(_, us)| us).sum();
        let parts: Vec<String> = timings
            .iter()
            .map(|(name, us)| format!("{name} {us}µs"))
            .collect();
        println!(
            "lint timings       : {} (total {total_us}µs)",
            parts.join(", ")
        );
        println!(
            "lint {}: {} error(s), {} warning(s)",
            workload.name(),
            errors,
            diags.len() - errors
        );
    }
    Ok(LintOutcome {
        errors,
        warnings: diags.len() - errors,
        timings,
        diags,
    })
}

fn cmd_overhead(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::resolve(parsed.one_positional("workload")?)?;
    let program = workload.program()?;
    let spec = WorkloadSpec::new(
        workload.name(),
        &program,
        pipeline_for(&workload),
        workload.stop(),
    );
    println!(
        "{} (dump mode {}):",
        workload.name(),
        match workload.dump_mode() {
            DumpMode::OnFull => "1: flush on full/exit",
            DumpMode::MemoryMapped => "2: memory-mapped",
        }
    );
    let overhead = Engine::default().workload(&spec).profiling_overhead()?;
    for (name, f) in ProfilingOverhead::MODES.into_iter().zip(overhead.factors()) {
        println!("  {name:<8} {f:.2}x");
    }
    Ok(())
}

fn cmd_cache(parsed: &ParsedArgs) -> Result<(), Box<dyn std::error::Error>> {
    let action = parsed.one_positional("cache action (stats, gc or clear)")?;
    let opts = match parsed.option("cache-dir") {
        Some(dir) => DiskCacheOptions::at(dir),
        None => DiskCacheOptions::default_dir()
            .map(DiskCacheOptions::at)
            .ok_or("no default cache directory (set --cache-dir, $XDG_CACHE_HOME or $HOME)")?,
    };
    match action {
        "stats" => {
            let store = DiskStore::open(&opts);
            let u = store.usage();
            println!("cache dir : {}", opts.dir.display());
            println!(
                "format    : v{DISK_FORMAT_VERSION} (under {})",
                store.root().display()
            );
            println!("entries   : {}", u.entries);
            println!("size      : {:.1} KiB", u.bytes as f64 / 1024.0);
            if u.tmp_files > 0 {
                println!(
                    "tmp files : {} leftover ({:.1} KiB; `nimage cache gc` removes stale ones)",
                    u.tmp_files,
                    u.tmp_bytes as f64 / 1024.0
                );
            }
        }
        "gc" => {
            let store = DiskStore::open(&opts);
            let max_bytes = parse_u64(parsed, "max-bytes")?;
            let max_entries = parse_u64(parsed, "max-entries")?;
            let r = store.gc(max_bytes, max_entries);
            println!("cache dir : {}", opts.dir.display());
            println!(
                "evicted   : {} entries ({:.1} KiB)",
                r.evicted_entries,
                r.evicted_bytes as f64 / 1024.0
            );
            println!("stale tmp : {} removed", r.removed_tmp);
            println!(
                "surviving : {} entries ({:.1} KiB)",
                r.surviving_entries,
                r.surviving_bytes as f64 / 1024.0
            );
        }
        "clear" => {
            DiskStore::clear(&opts.dir)?;
            println!("cleared {}", opts.dir.display());
        }
        other => {
            return Err(ArgError(format!(
                "unknown cache action {other}; expected stats, gc or clear"
            ))
            .into())
        }
    }
    Ok(())
}

trait JoinNames {
    fn join(self, sep: &str) -> String;
}

impl<const N: usize> JoinNames for [String; N] {
    fn join(self, sep: &str) -> String {
        self.as_slice().join(sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_report_smoke() -> Result<(), Box<dyn std::error::Error>> {
        let program = quickstart::program()?;
        let pipeline = Pipeline::new(&program, BuildOptions::default());
        let built = pipeline.build_instrumented(nimage_compiler::InstrumentConfig::FULL)?;
        let report = pipeline.run_image(&built, nimage_vm::StopWhen::Exit)?;
        let trace = report
            .trace
            .as_ref()
            .ok_or("instrumented run produced no trace")?;
        let accessed = accessed_objects(trace);
        assert!(!accessed.is_empty(), "startup touches snapshot objects");

        let default_order: Vec<nimage_heap::ObjId> =
            built.snapshot.entries().iter().map(|e| e.obj).collect();
        let report = quality_report(&built.snapshot, &[("default", &default_order)], &accessed);
        assert!(report.contains("default"));
        assert!(report.contains("density"));
        assert!(report.contains("runs"));
        Ok(())
    }
}
