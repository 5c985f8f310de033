//! Size model of the profiling instrumentation.
//!
//! The paper's profiling build inserts IR-level instrumentation (Sec. 6.1):
//! CU-entry probes, method-entry probes and object-access probes. Because
//! Graal's inlining decisions are code-size driven, "instrumentation code may
//! make the inliner behave differently between compilations of the
//! instrumented and the regular image" (Sec. 2). We reproduce exactly that
//! coupling: instrumentation contributes bytes to a method's *effective*
//! size, and the inliner (see [`crate::InlineConfig`]) works on effective
//! sizes, so an instrumented build groups methods into different CUs than
//! the optimized build that later consumes its profiles.

use nimage_ir::{Instr, Method, MethodId};

use crate::ProgramIndex;

/// Which traces the instrumented binary collects.
///
/// Corresponds to the three event kinds of Sec. 6.1: *cu entry* events,
/// *method entry* events, and object accesses (for heap ordering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentConfig {
    /// Trace CU entries (for *cu ordering*, Sec. 4.1).
    pub trace_cu: bool,
    /// Trace method entries (for *method ordering*, Sec. 4.2).
    pub trace_methods: bool,
    /// Trace object identifiers at every field/array access (Sec. 5).
    pub trace_heap: bool,
}

impl InstrumentConfig {
    /// No instrumentation: the regular or optimized build.
    pub const NONE: InstrumentConfig = InstrumentConfig {
        trace_cu: false,
        trace_methods: false,
        trace_heap: false,
    };

    /// Full instrumentation, as used by the paper's profiling build (both
    /// code- and heap-ordering profiles are gathered in one run).
    pub const FULL: InstrumentConfig = InstrumentConfig {
        trace_cu: true,
        trace_methods: true,
        trace_heap: true,
    };

    /// Whether any probe is enabled.
    pub fn any(&self) -> bool {
        self.trace_cu || self.trace_methods || self.trace_heap
    }
}

/// Bytes added to a method body per method-entry probe.
pub const METHOD_PROBE_BYTES: u32 = 18;
/// Bytes added to a CU root per CU-entry probe.
pub const CU_PROBE_BYTES: u32 = 18;
/// Bytes added per instrumented field/array access.
pub const HEAP_PROBE_BYTES: u32 = 26;

/// Number of field/array access sites in a method body.
pub(crate) fn heap_access_sites(m: &Method) -> u32 {
    let mut n = 0;
    for b in &m.blocks {
        for i in &b.instrs {
            if matches!(
                i,
                Instr::GetField(..)
                    | Instr::PutField(..)
                    | Instr::ArrayGet(..)
                    | Instr::ArraySet(..)
            ) {
                n += 1;
            }
        }
    }
    n
}

/// Effective machine-code size of a method under an instrumentation
/// configuration.
///
/// The CU-entry probe is *not* included here — it applies once per CU root
/// and is added by the inliner when it seeds a compilation unit.
pub fn instrumented_method_size(
    index: &ProgramIndex<'_>,
    method: MethodId,
    cfg: &InstrumentConfig,
) -> u32 {
    let mut size = index.code_size(method);
    if cfg.trace_methods {
        size += METHOD_PROBE_BYTES;
    }
    if cfg.trace_heap {
        size += HEAP_PROBE_BYTES * index.heap_access_sites(method);
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_ir::{Program, ProgramBuilder, TypeRef};

    fn program_with_accesses() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.A", None);
        let fx = pb.add_instance_field(c, "x", TypeRef::Int);
        let m = pb.declare_static(c, "m", &[TypeRef::Object(c)], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let obj = f.param(0);
        let a = f.get_field(obj, fx);
        let b = f.get_field(obj, fx);
        let s = f.add(a, b);
        f.put_field(obj, fx, s);
        f.ret(Some(s));
        pb.finish_body(m, f);
        pb.set_entry(m);
        (pb.build().unwrap(), m)
    }

    #[test]
    fn counts_heap_access_sites() {
        let (p, m) = program_with_accesses();
        assert_eq!(heap_access_sites(p.method(m)), 3);
    }

    #[test]
    fn none_config_is_plain_code_size() {
        let (p, m) = program_with_accesses();
        assert_eq!(
            instrumented_method_size(&ProgramIndex::new(&p, 1), m, &InstrumentConfig::NONE),
            p.method(m).code_size()
        );
    }

    #[test]
    fn probes_inflate_size() {
        let (p, m) = program_with_accesses();
        let base = p.method(m).code_size();
        let full = instrumented_method_size(&ProgramIndex::new(&p, 1), m, &InstrumentConfig::FULL);
        assert_eq!(full, base + METHOD_PROBE_BYTES + 3 * HEAP_PROBE_BYTES);
    }

    #[test]
    fn any_reports_enabled_probes() {
        assert!(!InstrumentConfig::NONE.any());
        assert!(InstrumentConfig::FULL.any());
        assert!(InstrumentConfig {
            trace_cu: true,
            ..InstrumentConfig::NONE
        }
        .any());
    }
}
