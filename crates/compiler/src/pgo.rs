//! Call-count profiles consumed by the profile-guided (optimized) build.
//!
//! Native-Image profiles "contain branch frequencies, virtual-call receiver
//! types, and method call counts" (Sec. 2); the part that perturbs inlining —
//! and therefore the CU and heap-snapshot contents — is the call counts. The
//! profile is keyed by *method signature*, which is stable across builds,
//! unlike [`nimage_ir::MethodId`]s.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use nimage_ir::MethodId;

use crate::ProgramIndex;

/// Method call counts gathered by an instrumented run.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CallCountProfile {
    counts: HashMap<String, u64>,
}

// Deterministic rendering: the backing map has randomized iteration order,
// but the profile is part of `RunReport`, whose `Debug` output is compared
// byte for byte by the determinism suite and the bench harness.
impl fmt::Debug for CallCountProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sorted: BTreeMap<&str, u64> =
            self.counts.iter().map(|(s, &c)| (s.as_str(), c)).collect();
        f.debug_struct("CallCountProfile")
            .field("counts", &sorted)
            .finish()
    }
}

impl CallCountProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` additional calls of the method with the given signature.
    pub fn record(&mut self, signature: &str, n: u64) {
        match self.counts.get_mut(signature) {
            Some(c) => *c += n,
            None => {
                self.counts.insert(signature.to_string(), n);
            }
        }
    }

    /// Call count for a method of the indexed program, resolved via its
    /// signature: methods sharing a signature share one count.
    pub fn count(&self, index: &ProgramIndex<'_>, method: MethodId) -> u64 {
        self.counts.get(index.sig(method)).copied().unwrap_or(0)
    }

    /// Number of distinct methods in the profile.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(signature, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(s, &c)| (s.as_str(), c))
    }

    /// Serializes to the simple `signature,count` CSV format used by the
    /// post-processing framework (Sec. 6.2).
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<_> = self.counts.iter().collect();
        rows.sort();
        let mut out = String::new();
        for (sig, count) in rows {
            out.push_str(sig);
            out.push(',');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the CSV format produced by [`Self::to_csv`].
    ///
    /// Lines that do not contain a `,count` suffix are ignored.
    pub fn from_csv(text: &str) -> Self {
        let mut p = Self::new();
        for line in text.lines() {
            if let Some((sig, count)) = line.rsplit_once(',') {
                if let Ok(n) = count.trim().parse::<u64>() {
                    p.record(sig, n);
                }
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_ir::{ProgramBuilder, TypeRef};

    #[test]
    fn record_and_lookup_by_signature() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.A", None);
        let m = pb.declare_static(c, "hot", &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let v = f.iconst(1);
        f.ret(Some(v));
        pb.finish_body(m, f);
        pb.set_entry(m);
        let p = pb.build().unwrap();

        let mut prof = CallCountProfile::new();
        prof.record("t.A.hot(0)", 10);
        prof.record("t.A.hot(0)", 5);
        assert_eq!(prof.count(&ProgramIndex::new(&p, 1), m), 15);
    }

    #[test]
    fn csv_roundtrip() {
        let mut prof = CallCountProfile::new();
        prof.record("a.B.c(2)", 7);
        prof.record("x.Y.z(0)", 1);
        let csv = prof.to_csv();
        assert_eq!(CallCountProfile::from_csv(&csv), prof);
    }

    #[test]
    fn malformed_csv_lines_are_ignored() {
        let prof = CallCountProfile::from_csv("garbage\nno comma here\nok.Sig(0),3\n");
        assert_eq!(prof.len(), 1);
    }
}
