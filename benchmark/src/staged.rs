//! The staged driver behind the per-layer metrics.
//!
//! One thread walks every program of the workload through the public
//! stage calls of each crate, in the order the engine would run them for
//! the eight strategies, and records one span around each call. Nothing
//! inside the crates is edited: a layer's time is the self time of the
//! spans around the calls into it, and its counts are read off the
//! artifacts the calls return.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nimage_compiler::{CompiledProgram, CuId, InstrumentConfig};
use nimage_core::{
    CacheKey, DiskCacheOptions, DiskCodec, DiskStore, LayoutOrders, Pipeline, PipelineError,
    RunParts, Strategy,
};
use nimage_heap::{HeapSnapshot, ObjId};
use nimage_order::{assign_ids, matched_object_ratio, HeapStrategy};
use nimage_profiler::{read_trace, write_trace};
use nimage_vm::{HeapTemplate, LoweredProgram, RunReport};

use crate::json::{self, Value};
use crate::workload::ProgramSet;

/// One recorded call (or, for `program`, the walk of one program that
/// caused the calls beneath it).
struct Span {
    name: &'static str,
    /// Index into the workload's program list: the identifier the spans
    /// of one program share.
    program: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    program: usize,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            program: self.program,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Σ self time per span name in ms: a span's duration minus the part
    /// its child spans cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        by_name
    }

    fn to_json(&self, set: &ProgramSet) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    json::obj([
                        ("id", json::num(id as f64)),
                        ("name", json::string(s.name)),
                        ("program", json::string(set.programs[s.program].0)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| json::num(p as f64)),
                        ),
                        ("start_ns", json::num(s.start_ns as f64)),
                        ("end_ns", json::num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the staged walk produced: per-layer metric values by name (times
/// in ms, counts as they are), the trace, and any output mismatch.
pub struct Staged {
    pub metrics: BTreeMap<String, f64>,
    pub trace: Value,
    pub problems: Vec<String>,
}

/// Counts read off the artifacts, summed over programs.
#[derive(Default)]
struct Counts {
    reachable_methods: u64,
    cus: u64,
    text_bytes: u64,
    heap_objects: u64,
    heap_bytes: u64,
    trace_records: u64,
    trace_bytes: u64,
    total_pages: u64,
    text_pages: u64,
    ops: u64,
    major_faults: u64,
    predicted_minus_measured: i64,
    matched: [f64; 3],
}

/// A disk store for the typed put/get round trip, with every value
/// stored under a fresh key.
struct RoundTrip {
    store: DiskStore,
    next: u64,
    failed_gets: u64,
}

impl RoundTrip {
    fn key(&mut self) -> CacheKey {
        self.next += 1;
        CacheKey::of_debug("staged", &self.next)
    }

    /// Stores `value`, reads it back, and counts a read that found nothing.
    fn round_trip<T: DiskCodec>(&mut self, rec: &mut Recorder, stage: &str, value: &T) {
        let key = self.key();
        rec.span("diskcache.put", || self.store.put(stage, key, value));
        if rec
            .span("diskcache.get", || self.store.get::<T>(stage, key))
            .is_none()
        {
            self.failed_gets += 1;
        }
    }
}

fn id_values(ids: &HashMap<ObjId, u64>) -> Vec<u64> {
    ids.values().copied().collect()
}

/// Walks every program of `set`. With `disk = Some(dir)` every persisted
/// artifact kind also makes one typed `DiskStore` round trip under `dir`.
pub fn run(set: &ProgramSet, disk: Option<&Path>) -> Result<Staged, PipelineError> {
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        program: 0,
    };
    let mut counts = Counts::default();
    let mut problems = Vec::new();
    let mut trip = disk.map(|dir| RoundTrip {
        store: DiskStore::open(&DiskCacheOptions::at(dir)),
        next: 0,
        failed_gets: 0,
    });

    for (index, (name, program)) in set.programs.iter().enumerate() {
        rec.program = index;
        rec.enter("program");
        let opts = set.options(1);
        let max_paths = opts.vm.max_paths;
        let heap_strategies = opts.heap_strategies();
        let p = Pipeline::new(program, opts.clone());

        // Profiling build, run and post-processing (Fig. 1, steps 1–3).
        let reach = rec.span("analysis.analyze", || p.analyze_stage());
        counts.reachable_methods += reach.methods.len() as u64;
        let instr = rec.span("compiler.compile_instr", || {
            p.compile_stage(reach.clone(), InstrumentConfig::FULL, None)
        });
        let instr_snap = rec.span("heap.snapshot", || {
            p.snapshot_stage(&instr, &opts.heap_instrumented)
        })?;
        let instr_heap = rec.span("heap.snapshot", || {
            Arc::new(HeapTemplate::from_build_heap(instr_snap.heap()))
        });
        let instr_image = rec.span("image.build", || {
            p.layout_stage(&instr, &instr_snap, LayoutOrders::default(), None)
        })?;
        let instr_lowered = rec.span("vm.lower", || {
            Arc::new(LoweredProgram::build(program, &instr, max_paths))
        });
        let profiled = rec.span("vm.run_instr", || {
            p.run(
                RunParts::new(&instr, &instr_snap, &instr_image)
                    .heap(Some(instr_heap))
                    .lowered(Some(instr_lowered)),
                set.stop,
            )
        })?;
        counts.ops += profiled.ops + profiled.probe_ops;
        counts.major_faults += profiled.faults.total();
        if let Some(trace) = &profiled.trace {
            counts.trace_records += trace.threads.iter().map(|t| t.len() as u64).sum::<u64>();
            let decoded = rec.span("profiler.wire_roundtrip", || {
                let bytes = write_trace(trace);
                counts.trace_bytes += bytes.len() as u64;
                read_trace(&bytes)
            });
            if decoded.as_ref().ok() != Some(trace) {
                problems.push(format!("{name}: trace does not survive the wire format"));
            }
        }
        let ids_of = |rec: &mut Recorder, snap: &HeapSnapshot| {
            heap_strategies.map(|hs| {
                rec.span("order.assign_ids", || {
                    Arc::new(assign_ids(program, snap, hs))
                })
            })
        };
        let pick = |ids: &[Arc<HashMap<ObjId, u64>>; 3], hs: HeapStrategy| {
            let at = heap_strategies
                .iter()
                .position(|s| *s == hs)
                .expect("a strategy's identity scheme is one of the options' three");
            ids[at].clone()
        };
        let instr_ids = ids_of(&mut rec, &instr_snap);
        let artifacts = rec.span("order.replay", || {
            p.post_process(profiled, &mut |hs| pick(&instr_ids, hs))
        })?;

        // Optimizing build and the baseline measurement (step 4).
        let compiled = rec.span("compiler.compile_opt", || {
            p.compile_stage(reach, InstrumentConfig::NONE, Some(&artifacts.call_counts))
        });
        counts.cus += compiled.cus.len() as u64;
        counts.text_bytes += compiled
            .cus
            .iter()
            .map(|cu| u64::from(cu.size))
            .sum::<u64>();
        let snap = rec.span("heap.snapshot", || {
            p.snapshot_stage(&compiled, &opts.heap_optimized)
        })?;
        counts.heap_objects += snap.entries().len() as u64;
        counts.heap_bytes += snap.total_bytes();
        let heap = rec.span("heap.snapshot", || {
            Arc::new(HeapTemplate::from_build_heap(snap.heap()))
        });
        let ids = ids_of(&mut rec, &snap);
        for (slot, (a, b)) in counts.matched.iter_mut().zip(instr_ids.iter().zip(&ids)) {
            *slot += matched_object_ratio(&id_values(a), &id_values(b));
        }
        let lowered = rec.span("vm.lower", || {
            Arc::new(LoweredProgram::build(program, &compiled, max_paths))
        });
        let measure = |rec: &mut Recorder,
                       counts: &mut Counts,
                       orders: LayoutOrders,
                       native: Option<&[u32]>|
         -> Result<RunReport, PipelineError> {
            let image = rec.span("image.build", || {
                p.layout_stage(&compiled, &snap, orders, native)
            })?;
            counts.total_pages += image.total_pages();
            counts.text_pages += image.text_pages();
            let report = rec.span("vm.run_opt", || {
                p.run(
                    RunParts::new(&compiled, &snap, &image)
                        .heap(Some(heap.clone()))
                        .lowered(Some(lowered.clone())),
                    set.stop,
                )
            })?;
            counts.ops += report.ops;
            counts.major_faults += report.faults.total();
            Ok(report)
        };
        let baseline = measure(&mut rec, &mut counts, LayoutOrders::default(), None)?;

        // The eight strategy cells: order, lay out, measure.
        let mut plans = Vec::new();
        for strategy in Strategy::all() {
            let heap_ids = opts.heap_strategy_for(strategy).map(|hs| pick(&ids, hs));
            let stage = if strategy.clustered() {
                "order.optimize"
            } else {
                "order.first_touch"
            };
            let orders = rec.span(stage, || {
                p.order_stage(
                    &artifacts,
                    &compiled,
                    &snap,
                    Some(strategy),
                    heap_ids.as_deref(),
                )
            });
            let predicted = orders.predicted;
            if strategy.clustered() {
                plans.push(orders.clone());
            }
            let report = measure(&mut rec, &mut counts, orders, Some(&artifacts.native_pages))?;
            if let Some(predicted) = predicted {
                counts.predicted_minus_measured +=
                    predicted.optimized.total() as i64 - report.faults.total() as i64;
            }
            if report.entry_return != baseline.entry_return || report.exit != baseline.exit {
                problems.push(format!(
                    "{name} × {}: output differs from baseline",
                    strategy.name()
                ));
            }
        }

        if let Some(trip) = &mut trip {
            for c in [&instr, &compiled] {
                trip.round_trip(&mut rec, "compile", c);
            }
            for s in [&instr_snap, &snap] {
                trip.round_trip(&mut rec, "snapshot", s);
            }
            for map in instr_ids.iter().chain(&ids) {
                trip.round_trip(&mut rec, "assign-ids", &**map);
            }
            trip.round_trip(&mut rec, "profile", &artifacts);
            trip.round_trip(&mut rec, "baseline-run", &baseline);
            for plan in &plans {
                trip.round_trip(&mut rec, "optimize", plan);
            }
            for cu in hot_cus(program, &compiled, &artifacts.cu_profile.sigs) {
                let shard = lowered.extract_shard(program, &compiled, cu);
                trip.round_trip(&mut rec, "lower", &shard);
            }
        }
        rec.exit();
    }

    if let Some(trip) = &trip {
        if trip.failed_gets > 0 {
            problems.push(format!(
                "{} typed disk reads found nothing",
                trip.failed_gets
            ));
        }
    }

    let n = set.programs.len() as f64;
    let times = rec.self_ms();
    let mut metrics: BTreeMap<String, f64> = [
        "analysis.analyze",
        "compiler.compile_instr",
        "compiler.compile_opt",
        "heap.snapshot",
        "profiler.wire_roundtrip",
        "order.assign_ids",
        "order.replay",
        "order.first_touch",
        "order.optimize",
        "image.build",
        "vm.lower",
        "vm.run_instr",
        "vm.run_opt",
        "diskcache.put",
        "diskcache.get",
    ]
    .iter()
    .map(|span| {
        (
            format!("{span}_ms"),
            times.get(span).copied().unwrap_or(0.0),
        )
    })
    .collect();
    let run_ms = metrics["vm.run_instr_ms"] + metrics["vm.run_opt_ms"];
    let staged_ms: f64 = times.values().sum();
    for (name, value) in [
        ("staged.total_ms", staged_ms),
        (
            "analysis.reachable_methods",
            counts.reachable_methods as f64,
        ),
        ("compiler.cus", counts.cus as f64),
        ("compiler.text_bytes", counts.text_bytes as f64),
        ("heap.objects", counts.heap_objects as f64),
        ("heap.bytes", counts.heap_bytes as f64),
        ("profiler.trace_records", counts.trace_records as f64),
        ("profiler.trace_bytes", counts.trace_bytes as f64),
        ("order.matched_ratio.incremental", counts.matched[0] / n),
        ("order.matched_ratio.structural", counts.matched[1] / n),
        ("order.matched_ratio.heap_path", counts.matched[2] / n),
        (
            "order.predicted_minus_measured_faults",
            counts.predicted_minus_measured as f64,
        ),
        ("image.total_pages", counts.total_pages as f64),
        ("image.text_pages", counts.text_pages as f64),
        ("vm.ops", counts.ops as f64),
        ("vm.mops_per_s", counts.ops as f64 / 1e3 / run_ms),
        ("vm.major_faults", counts.major_faults as f64),
    ] {
        metrics.insert(name.to_string(), value);
    }
    Ok(Staged {
        metrics,
        trace: rec.to_json(set),
        problems,
    })
}

/// The CUs the profile lists (first-entry order): the shards the engine
/// pre-lowers and persists.
fn hot_cus(program: &nimage_ir::Program, compiled: &CompiledProgram, sigs: &[String]) -> Vec<CuId> {
    let by_sig: HashMap<String, CuId> = compiled
        .cus
        .iter()
        .map(|cu| (program.method_signature(cu.root), cu.id))
        .collect();
    sigs.iter().filter_map(|s| by_sig.get(s).copied()).collect()
}
