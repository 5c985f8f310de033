//! Cross-layer verification for the native-image pipeline.
//!
//! Three analysis families share one [`Diagnostic`] model:
//!
//! * [`irlint`] — IR dataflow lints beyond `ir::validate`: use-before-def,
//!   unreachable blocks, dead stores, call/field/return consistency, and a
//!   vtable-soundness check against `nimage-analysis` devirtualization.
//! * [`pipeline`] — invariant verifiers over pipeline artifacts: binary
//!   layout (no overlaps, page alignment, full coverage), profile traces
//!   (well-formedness, event order, 64-bit identity collisions, coverage),
//!   and the profile/snapshot matching contract of `order_objects`.
//! * [`determinism`] — an audit that runs ordering and layout twice under
//!   perturbed allocation and diffs the results, flagging dependence on
//!   `HashMap` iteration order.
//!
//! Every check returns `Vec<Diagnostic>` rather than failing fast, so the
//! `nimage lint` CLI can report all problems in one pass.

#![warn(missing_docs)]

use std::fmt;

pub mod dataflow;
pub mod determinism;
pub mod irlint;
pub mod pea;
pub mod pipeline;
pub mod purity;
pub mod reachcheck;

pub use determinism::{
    audit_determinism, audit_profiling_determinism, DeterminismInputs, DeterminismReport,
    ProfilingDeterminismReport,
};

/// How severe a diagnostic is.
///
/// Only [`Severity::Error`] diagnostics denote broken invariants; warnings
/// flag suspicious-but-legal artifacts (dead stores, unreachable join
/// blocks, identity collisions) that builder-produced programs may contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not invariant-breaking.
    Warning,
    /// A broken invariant; `nimage lint` exits non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One finding of a verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Warning or error.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `ir::use-before-def`.
    pub code: &'static str,
    /// The entity the finding is anchored to (method signature, CU, object,
    /// section, thread), human-readable.
    pub entity: String,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        entity: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            entity: entity.into(),
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        entity: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            entity: entity.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.entity, self.message
        )
    }
}

/// Whether any diagnostic in `diags` is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The error diagnostics of `diags`, cloned.
pub fn errors_of(diags: &[Diagnostic]) -> Vec<Diagnostic> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .cloned()
        .collect()
}

/// Canonicalizes a diagnostic batch for reporting: sorts errors first,
/// then by code, entity and message, and drops exact duplicates.
///
/// Lint families may scan overlapping artifacts (e.g. the same method via
/// two workload programs) and parallel runners may interleave findings;
/// normalizing makes `nimage lint` output deterministic across thread
/// counts and free of repeats.
pub fn normalize(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| a.entity.cmp(&b.entity))
            .then_with(|| a.message.cmp(&b.message))
    });
    diags.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn normalize_sorts_errors_first_and_dedupes() {
        let mut diags = vec![
            Diagnostic::warning("b::code", "y", "w1"),
            Diagnostic::error("a::code", "x", "e1"),
            Diagnostic::warning("b::code", "y", "w1"),
            Diagnostic::error("a::code", "w", "e0"),
        ];
        normalize(&mut diags);
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].entity, "w");
        assert_eq!(diags[1].entity, "x");
        assert_eq!(diags[2].severity, Severity::Warning);
    }

    #[test]
    fn diagnostic_display_is_greppable() {
        let d = Diagnostic::error("ir::use-before-def", "t.Main.main", "local l3 read unset");
        assert_eq!(
            d.to_string(),
            "error[ir::use-before-def] t.Main.main: local l3 read unset"
        );
        assert!(has_errors(std::slice::from_ref(&d)));
        assert!(!has_errors(&[Diagnostic::warning("x", "y", "z")]));
        assert_eq!(errors_of(&[Diagnostic::warning("x", "y", "z"), d]).len(), 1);
    }
}
