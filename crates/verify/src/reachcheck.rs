//! Reachability cross-check.
//!
//! The paper's pipeline trusts the type-based reachability analysis to be
//! conservative: "the points-to analysis is conservative and always
//! includes more code than what is actually reachable or executed at
//! runtime". Profiling, ordering and layout all build on that — a method
//! the analysis missed would be absent from the image and from every
//! ordering decision, yet present in runtime traces.
//!
//! This check closes the loop with the only ground truth available: the
//! recorded traces. Every method-entry and path event in any trace must
//! name a method the compiled image contains ([`check_reachability`]
//! errors otherwise), every CU-entry event must name an actual CU root,
//! and CUs that *no* trace ever enters are reported — in aggregate — as
//! layout waste, the code the paper's reordering pushes out of the
//! startup-hot prefix.

use std::collections::BTreeSet;

use nimage_compiler::CompiledProgram;
use nimage_ir::Program;
use nimage_profiler::{Record, Trace};

use crate::Diagnostic;

/// Cross-checks `trace` against the compiled image.
///
/// Emitted codes:
///
/// * `reach::trace-escape` (error) — a trace entered a method the
///   reachable set does not contain: the analysis under-approximated;
/// * `reach::unknown-cu` (error) — a CU-entry event names a signature
///   that is not a CU root of this build;
/// * `reach::cold-cu` (warning, at most one) — summary of CUs never
///   entered by any trace thread, with their total byte size.
pub fn check_reachability(
    program: &Program,
    compiled: &CompiledProgram,
    trace: &Trace,
) -> Vec<Diagnostic> {
    let mut out = vec![];
    let reachable = compiled.reachable_method_signatures(program);
    let cu_roots: BTreeSet<String> = compiled.root_signatures(program).into_iter().collect();

    let mut entered_methods: BTreeSet<&str> = BTreeSet::new();
    let mut entered_cus: BTreeSet<&str> = BTreeSet::new();
    for (ti, thread) in trace.threads.iter().enumerate() {
        for rec in thread.records() {
            match rec {
                Record::CuEntry { sig } => {
                    let s = trace.string(sig);
                    entered_cus.insert(s);
                    if !cu_roots.contains(s) {
                        out.push(Diagnostic::error(
                            "reach::unknown-cu",
                            s,
                            format!("thread {ti} entered a CU that is not a root of this build"),
                        ));
                    }
                }
                Record::MethodEntry { sig } => {
                    entered_methods.insert(trace.string(sig));
                }
                Record::Path { method, .. } => {
                    entered_methods.insert(trace.string(method));
                }
            }
        }
    }

    for m in &entered_methods {
        if !reachable.contains(*m) {
            out.push(Diagnostic::error(
                "reach::trace-escape",
                *m,
                "method was entered at run time but is not in the compiled reachable set; \
                 the reachability analysis under-approximated",
            ));
        }
    }

    // Never-entered CUs are not a soundness problem — conservatism is the
    // contract — but they are layout waste the orderer carries around.
    // Only meaningful if the trace records CU entries at all.
    if !entered_cus.is_empty() {
        let mut cold = 0usize;
        let mut cold_bytes = 0u64;
        for (sig, size) in compiled.cu_root_sizes(program) {
            if !entered_cus.contains(sig.as_str()) {
                cold += 1;
                cold_bytes += u64::from(size);
            }
        }
        if cold > 0 {
            out.push(Diagnostic::warning(
                "reach::cold-cu",
                "<image>",
                format!(
                    "{cold} of {} CUs ({cold_bytes} bytes of .text) were never entered by any \
                     trace thread; conservatively-reachable layout waste",
                    compiled.cus.len()
                ),
            ));
        }
    }
    out
}
