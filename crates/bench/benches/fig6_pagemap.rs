//! Fig. 6 — visual representation of the `.text` section of AWFY *Bounce*:
//! `#` = page caused a fault (green), `+` = resident without fault (red),
//! `.` = never mapped (black). Regular binary vs the `cu`-ordered binary.

use nimage_bench::{eval_options, profile_program};
use nimage_core::Strategy;
use nimage_profiler::DumpMode;
use nimage_vm::{render_ascii, summarize, touched_extent, StopWhen};
use nimage_workloads::Awfy;

fn main() {
    let program = Awfy::Bounce.program();
    let (pipeline, artifacts) = profile_program(&program, StopWhen::Exit, DumpMode::OnFull);
    let _ = eval_options(DumpMode::OnFull);

    let eval = pipeline
        .evaluate(&artifacts, &[Strategy::Cu], StopWhen::Exit)
        .expect("cu evaluation")
        .remove(0);
    let (baseline, optimized) = (eval.baseline, eval.optimized);

    println!("\n=== Fig. 6a: .text page map, regular binary (Bounce) ===");
    println!("{}", render_ascii(&baseline.text_page_states, 64));
    let s = summarize(&baseline.text_page_states);
    println!(
        "faulted {} resident {} untouched {} | touched extent: page {:?}",
        s.faulted,
        s.resident,
        s.untouched,
        touched_extent(&baseline.text_page_states)
    );

    println!("\n=== Fig. 6b: .text page map, cu-ordered binary (Bounce) ===");
    println!("{}", render_ascii(&optimized.text_page_states, 64));
    let s = summarize(&optimized.text_page_states);
    println!(
        "faulted {} resident {} untouched {} | touched extent: page {:?}",
        s.faulted,
        s.resident,
        s.untouched,
        touched_extent(&optimized.text_page_states)
    );
    println!(
        "\n.text faults: {} (regular) vs {} (cu) — executed code compacted toward the front;",
        baseline.faults.text, optimized.faults.text
    );
    println!("the faults near the end of .text are unprofiled native-library pages (Appendix A).");
}
