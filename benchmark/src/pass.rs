//! One evaluation pass — every program of the workload × all eight
//! strategies on a fresh engine — and what the benchmark checks and
//! derives from its result.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use nimage_core::{
    BuildRequest, DiskCacheOptions, Engine, EngineOptions, EvalOutcome, EvalRequest, MatrixCell,
    PipelineError, Strategy, TraceOptions,
};
use nimage_order::{assign_ids, matched_object_ratio, murmur3, HeapStrategy};
use nimage_vm::{CostModel, RtValue, RunReport, StopWhen};

use crate::json;
use crate::stats::geomean;
use crate::sys;
use crate::workload::{ProgramSet, Tier, THREADS};

/// How one pass is run.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg<'a> {
    /// Engine workers and intra-stage workers.
    pub threads: usize,
    /// Disk-cache directory, when the workload has a disk tier.
    pub disk: Option<&'a Path>,
    /// Record one trace event per simulated page fault and lazily lowered
    /// CU (off for every end-to-end measurement).
    pub vm_events: bool,
}

/// A completed pass.
pub struct Pass {
    pub wall_ms: f64,
    /// CPU time the process spent during the pass (10 ms ticks).
    pub cpu_ms: f64,
    pub outcome: EvalOutcome,
}

/// Runs one pass on a fresh engine: cold memo, as a new process would be.
pub fn run_pass(set: &ProgramSet, cfg: PassCfg<'_>) -> Result<Pass, PipelineError> {
    let cpu0 = sys::cpu_ms();
    let start = Instant::now();
    let outcome = EvalRequest::new()
        .workloads(set.specs(cfg.threads))
        .strategies(Strategy::all())
        .threads(cfg.threads)
        .disk(cfg.disk.map(DiskCacheOptions::at))
        .trace(TraceOptions {
            vm_events: cfg.vm_events,
            ..TraceOptions::default()
        })
        .run()?;
    Ok(Pass {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        cpu_ms: sys::cpu_ms() - cpu0,
        outcome,
    })
}

/// The committed reference outputs (`expected.json`).
pub struct Expected {
    awfy_entry_return: HashMap<String, i64>,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let doc = json::parse(include_str!("../expected.json"))?;
        let awfy_entry_return = doc
            .get("awfy_entry_return")
            .ok_or("expected.json: no awfy_entry_return")?
            .as_obj()
            .iter()
            .map(|(name, v)| {
                let n = v
                    .as_f64()
                    .ok_or("expected.json: checksum is not a number")?;
                Ok((name.clone(), n as i64))
            })
            .collect::<Result<_, String>>()?;
        Ok(Expected { awfy_entry_return })
    }
}

/// Checks one pass's outputs; every returned line is a mismatch, and any
/// mismatch fails the pass.
///
/// Layout must never change semantics, so per cell the optimized run must
/// return, execute and stop exactly as the baseline did (for services: up
/// to the first response). Programs that run to exit must also return the
/// checksum `expected.json` records, and the disk tier must have behaved
/// as the workload claims.
pub fn check(
    set: &ProgramSet,
    tier: Tier,
    outcome: &EvalOutcome,
    expected: &Expected,
) -> Vec<String> {
    let mut bad = Vec::new();
    let want_cells = set.programs.len() * Strategy::all().len();
    if outcome.cells.len() != want_cells {
        bad.push(format!(
            "{} cells, expected {want_cells}",
            outcome.cells.len()
        ));
    }
    for cell in &outcome.cells {
        let at = format!("{} × {}", cell.workload, cell.strategy.name());
        let (base, opt) = (&cell.eval.baseline, &cell.eval.optimized);
        if opt.entry_return != base.entry_return {
            bad.push(format!(
                "{at}: entry_return {:?} != baseline {:?}",
                opt.entry_return, base.entry_return
            ));
        }
        if opt.exit != base.exit {
            bad.push(format!(
                "{at}: exit {:?} != baseline {:?}",
                opt.exit, base.exit
            ));
        }
        match set.stop {
            StopWhen::Exit => {
                if opt.ops != base.ops {
                    bad.push(format!("{at}: ops {} != baseline {}", opt.ops, base.ops));
                }
                let want = expected.awfy_entry_return.get(&cell.workload).copied();
                if want.map(RtValue::Int) != opt.entry_return {
                    bad.push(format!(
                        "{at}: entry_return {:?}, expected.json has {want:?}",
                        opt.entry_return
                    ));
                }
            }
            StopWhen::FirstResponse => {
                let ops = |r: &RunReport| r.first_response.map(|p| p.ops);
                if ops(opt).is_none() || ops(opt) != ops(base) {
                    bad.push(format!(
                        "{at}: first_response.ops {:?} != baseline {:?}",
                        ops(opt),
                        ops(base)
                    ));
                }
            }
        }
    }
    let disk = outcome.report.disk.unwrap_or_default();
    if disk.rejected > 0 {
        bad.push(format!("{} disk-cache entries rejected", disk.rejected));
    }
    let tier_ok = match tier {
        Tier::None => outcome.report.disk.is_none(),
        Tier::Warm => disk.hits > 0 && disk.stores == 0,
        Tier::Populate => disk.hits == 0 && disk.stores > 0,
    };
    if !tier_ok {
        bad.push(format!("disk tier {tier:?} saw {disk:?}"));
    }
    bad
}

/// One digest of everything a pass measured that must not depend on cache
/// temperature, thread count or tracing: per cell, both runs' fault
/// counts, operation counts, stop reason, first-response point, returned
/// value and per-page states.
pub fn digest(outcome: &EvalOutcome) -> String {
    fn run(buf: &mut Vec<u8>, r: &RunReport) {
        for n in [r.ops, r.probe_ops, r.faults.text, r.faults.svm_heap] {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        buf.extend_from_slice(format!("{:?}{:?}", r.exit, r.entry_return).as_bytes());
        if let Some(p) = r.first_response {
            for n in [p.ops, p.probe_ops, p.faults.text, p.faults.svm_heap] {
                buf.extend_from_slice(&n.to_le_bytes());
            }
        }
        for states in [&r.text_page_states, &r.heap_page_states] {
            buf.extend_from_slice(&(states.len() as u64).to_le_bytes());
            buf.extend(states.iter().map(|s| *s as u8));
        }
    }
    let mut buf = Vec::new();
    for cell in &outcome.cells {
        buf.extend_from_slice(cell.workload.as_bytes());
        buf.extend_from_slice(cell.strategy.name().as_bytes());
        run(&mut buf, &cell.eval.baseline);
        run(&mut buf, &cell.eval.optimized);
    }
    let (hi, lo) = murmur3::hash128(&buf, 0);
    format!("{hi:016x}{lo:016x}")
}

/// The paper's numbers for one evaluated matrix.
#[derive(Debug, Clone, Copy)]
pub struct PaperMetrics {
    /// Geomean over cells of the fault reduction the paper reports for the
    /// cell's strategy (Figs. 2/3).
    pub fault_reduction_geomean: f64,
    /// Geomean over cells of the cost-model startup speedup (Figs. 4/5).
    pub startup_speedup_geomean: f64,
    /// Σ over programs of the fewest text+heap major faults any strategy
    /// reached.
    pub best_total_faults: u64,
    /// Mean over programs of the heap-path matched-object ratio between
    /// the instrumented and the optimized snapshot.
    pub matched_object_ratio: f64,
}

fn best_total_faults(cells: &[MatrixCell]) -> u64 {
    let mut best: Vec<(&str, u64)> = Vec::new();
    for cell in cells {
        let faults = cell.eval.optimized.faults.total();
        match best.iter_mut().find(|(w, _)| *w == cell.workload) {
            Some((_, b)) => *b = (*b).min(faults),
            None => best.push((&cell.workload, faults)),
        }
    }
    best.iter().map(|(_, b)| b).sum()
}

/// Evaluates the bundled programs once, without a disk tier, and derives
/// the paper metrics. The engine is kept so that both snapshots of every
/// program come out of its cache for the matched-object ratio.
pub fn reference(bundled: &ProgramSet) -> Result<(EvalOutcome, PaperMetrics), PipelineError> {
    let engine = Engine::new(EngineOptions {
        n_threads: THREADS,
        ..EngineOptions::default()
    });
    let req = EvalRequest::new()
        .workloads(bundled.specs(THREADS))
        .strategies(Strategy::all());
    let outcome = engine.evaluate(&req)?;

    let mut matched = Vec::new();
    for spec in &req.specs {
        let artifacts = engine.profile_workload(spec)?;
        let instrumented = engine.instrumented_parts(spec)?;
        let optimized = engine.optimized_image(&BuildRequest {
            spec,
            artifacts: &artifacts,
            strategy: None,
        })?;
        let ids = |snapshot| -> Vec<u64> {
            assign_ids(spec.program, snapshot, HeapStrategy::HeapPath)
                .into_values()
                .collect()
        };
        matched.push(matched_object_ratio(
            &ids(&instrumented.snapshot),
            &ids(&optimized.snapshot),
        ));
    }

    let ssd = CostModel::ssd();
    let cells = &outcome.cells;
    let paper = PaperMetrics {
        fault_reduction_geomean: geomean(cells.iter().map(|c| c.eval.reported_fault_reduction())),
        startup_speedup_geomean: geomean(cells.iter().map(|c| c.eval.speedup(&ssd))),
        best_total_faults: best_total_faults(cells),
        matched_object_ratio: matched.iter().sum::<f64>() / matched.len() as f64,
    };
    Ok((outcome, paper))
}
