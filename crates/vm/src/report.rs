//! Execution reports and the time model.

use nimage_compiler::CallCountProfile;
use nimage_ir::Value;
use nimage_profiler::{SessionStats, Trace};

use crate::paging::{PageState, SectionFaults};

/// Why the VM stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// All threads terminated.
    Exited,
    /// The first response was observed and the run was stopped (the paper
    /// sends `SIGKILL` to microservice workloads at this point).
    FirstResponse,
    /// The operation budget ran out.
    OpsBudget,
}

/// Counters sampled at the moment of the first response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponsePoint {
    /// Interpreter operations executed so far (excluding probes).
    pub ops: u64,
    /// Instrumentation-probe operations so far.
    pub probe_ops: u64,
    /// Page faults so far.
    pub faults: SectionFaults,
}

/// The result of one VM execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Interpreter operations executed (the compute part of the run).
    pub ops: u64,
    /// Extra operations spent in instrumentation probes (Sec. 7.4's
    /// overhead source).
    pub probe_ops: u64,
    /// Major page faults per binary section.
    pub faults: SectionFaults,
    /// Counters at the first `respond` intrinsic, if one executed.
    pub first_response: Option<ResponsePoint>,
    /// Method call counts (the PGO profile of Sec. 2).
    pub call_counts: CallCountProfile,
    /// The collected trace, when the image was instrumented.
    pub trace: Option<Trace>,
    /// Profiler session statistics, when the image was instrumented.
    pub session_stats: Option<SessionStats>,
    /// Why the run stopped.
    pub exit: ExitKind,
    /// The value returned by the entry method, when it returned one.
    pub entry_return: Option<Value>,
    /// Logical pages of the native tail in first-touch order — the profile
    /// consumed by the native-reordering extension (the paper's Appendix A
    /// future work).
    pub native_touch_pages: Vec<u32>,
    /// Per-page states of `.text` (Fig. 6).
    pub text_page_states: Vec<PageState>,
    /// Per-page states of `.svm_heap`.
    pub heap_page_states: Vec<PageState>,
    /// Measured touched-byte spans of snapshot objects, keyed by raw
    /// snapshot object index and sorted by it; each span `[start, end)` is
    /// in bytes from the object's start, sorted and non-overlapping.
    /// Recorded on heap-traced runs only (empty otherwise); feeds the
    /// layout optimizer's fault predictor, which otherwise charges every
    /// hot object's full extent.
    pub heap_touch_spans: Vec<(u32, Vec<(u64, u64)>)>,
}

/// Converts operation and fault counts into simulated time.
///
/// `time = (ops + probe_ops) · ns_per_op + major_faults · fault_ns`. The
/// default fault latency approximates a cold 4 KiB read from a consumer SSD
/// including kernel fault handling; [`CostModel::nfs`] approximates the NFS
/// setting the paper also evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per interpreter operation.
    pub ns_per_op: f64,
    /// Nanoseconds per major page fault.
    pub fault_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_op: 2.0,
            fault_ns: 110_000.0,
        }
    }
}

impl CostModel {
    /// Cost model for an SSD-backed binary (the paper's main setting).
    pub fn ssd() -> Self {
        Self::default()
    }

    /// Cost model for an NFS-backed binary (higher per-fault latency; the
    /// paper reports similar reduction factors).
    pub fn nfs() -> Self {
        CostModel {
            ns_per_op: 2.0,
            fault_ns: 450_000.0,
        }
    }
}

impl RunReport {
    /// End-to-end execution time under a cost model (AWFY metric).
    pub fn time_ns(&self, cm: &CostModel) -> f64 {
        (self.ops + self.probe_ops) as f64 * cm.ns_per_op + self.faults.total() as f64 * cm.fault_ns
    }

    /// Elapsed time until the first response (microservice metric), if a
    /// response was observed.
    pub fn time_to_first_response_ns(&self, cm: &CostModel) -> Option<f64> {
        self.first_response.map(|r| {
            (r.ops + r.probe_ops) as f64 * cm.ns_per_op + r.faults.total() as f64 * cm.fault_ns
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: u64, text: u64, heap: u64) -> RunReport {
        RunReport {
            ops,
            probe_ops: 0,
            faults: SectionFaults {
                text,
                svm_heap: heap,
            },
            first_response: None,
            call_counts: CallCountProfile::new(),
            trace: None,
            session_stats: None,
            exit: ExitKind::Exited,
            entry_return: None,
            native_touch_pages: vec![],
            text_page_states: vec![],
            heap_page_states: vec![],
            heap_touch_spans: vec![],
        }
    }

    #[test]
    fn time_combines_ops_and_faults() {
        let r = report(1000, 2, 3);
        let cm = CostModel {
            ns_per_op: 1.0,
            fault_ns: 100.0,
        };
        assert_eq!(r.time_ns(&cm), 1000.0 + 500.0);
    }

    #[test]
    fn fewer_faults_is_faster() {
        let cm = CostModel::default();
        assert!(report(1000, 1, 1).time_ns(&cm) < report(1000, 10, 10).time_ns(&cm));
    }

    #[test]
    fn response_time_uses_sampled_counters() {
        let mut r = report(10_000, 50, 50);
        r.first_response = Some(ResponsePoint {
            ops: 100,
            probe_ops: 0,
            faults: SectionFaults {
                text: 1,
                svm_heap: 0,
            },
        });
        let cm = CostModel {
            ns_per_op: 1.0,
            fault_ns: 10.0,
        };
        assert_eq!(r.time_to_first_response_ns(&cm), Some(110.0));
        assert!(r.time_to_first_response_ns(&cm).unwrap() < r.time_ns(&cm));
    }

    #[test]
    fn nfs_faults_cost_more_than_ssd() {
        assert!(CostModel::nfs().fault_ns > CostModel::ssd().fault_ns);
    }
}
