//! Thread-count invariance: the engine's cell scheduler is the pipeline's
//! only parallel code, and it must produce results bit-identical to its
//! serial run, at any worker count. Parallelism may change only how fast
//! things are computed, never what — the artifact cache (memory and disk)
//! shares entries across thread counts on that guarantee.

use nimage_core::{BuildOptions, EvalRequest, Strategy, WorkloadSpec};
use nimage_par::{cutoff, host_parallelism, workers_for};
use nimage_vm::StopWhen;
use nimage_workloads::{Awfy, RuntimeScale};

/// Guards the thread-invariance test of this suite against going vacuous:
/// it compares a serial run with a "parallel" run, which is only a
/// comparison of two code paths if the matrix actually crosses the
/// scheduler's fan-out cutoff. (On a single-core host `workers_for` caps
/// every fan-out at one worker and nothing can be asserted.)
#[test]
fn live_cutoffs() {
    let cells = Strategy::all().len();
    assert!(
        host_parallelism() < 2 || workers_for(2, cells, cutoff::RUN_MIN_CELLS) > 1,
        "{cells} cells are under the cutoff"
    );
}

/// A program's IR size, as the engine ranks rows: every block's
/// instructions plus its terminator.
fn ir_size(p: &nimage_ir::Program) -> usize {
    p.methods()
        .iter()
        .flat_map(|m| &m.blocks)
        .map(|b| b.instrs.len() + 1)
        .sum()
}

/// Every cell of a three-program × all-strategies matrix — baseline and
/// optimized run reports, bit for bit through `Debug` — is the same at 1
/// worker as at 2, 4 and 8. The rows are not in size order, so the
/// engine starts them in a different order than it returns them.
#[test]
fn engine_matrix_is_thread_count_invariant() {
    let rows = [Awfy::Bounce, Awfy::Richards, Awfy::Towers];
    let programs: Vec<_> = rows
        .iter()
        .map(|a| a.program_at(&RuntimeScale::small()))
        .collect();
    let sizes: Vec<usize> = programs.iter().map(ir_size).collect();
    assert!(
        sizes.windows(2).any(|w| w[0] < w[1]),
        "rows already in descending size order: {sizes:?}"
    );
    let cells = |threads: usize| -> Vec<String> {
        EvalRequest::new()
            .workloads(rows.iter().zip(&programs).map(|(a, p)| {
                WorkloadSpec::new(a.name(), p, BuildOptions::default(), StopWhen::Exit)
            }))
            .strategies(Strategy::all())
            .threads(threads)
            .run()
            .unwrap()
            .cells
            .iter()
            .map(|c| format!("{c:?}"))
            .collect()
    };
    let serial = cells(1);
    assert_eq!(serial.len(), rows.len() * Strategy::all().len());
    for threads in [2, 4, 8] {
        assert_eq!(
            serial,
            cells(threads),
            "matrix differs at {threads} threads"
        );
    }
}
