//! Clinit purity analysis.
//!
//! Native Image executes class initializers at build time, possibly in
//! parallel — the paper identifies this as a source of build
//! non-determinism (Sec. 2) and the snapshot stage models it by permuting
//! initializers within a parallel-init group. Snapshotting is only
//! *order-independent* if initializers sharing a group do not communicate:
//! no initializer writes state another one reads, writes heap objects an
//! earlier one created, or performs I/O-like effects whose order is
//! observable.
//!
//! This module classifies initializer side effects statically — a
//! [`MayForeign`] forward dataflow per body (which locals may reference
//! objects the method did not allocate itself) composed over the
//! conservative call graph by the interprocedural summary driver — and
//! checks the classification two ways:
//!
//! * [`check_clinit_purity`] reports impure initializers and
//!   order-dependent parallel groups as warnings (the grouped workload
//!   clinits are *deliberately* order-dependent: they model the paper's
//!   divergence, so they flag but do not fail the build);
//! * [`check_effect_log`] compares the static summaries against a dynamic
//!   [`EffectLog`] recorded by the build-time interpreter; a dynamic
//!   effect the static summary missed is an **error** — the analysis
//!   under-approximated, and every conclusion drawn from it is suspect.

use std::collections::{BTreeMap, BTreeSet};

use nimage_analysis::CallGraph;
use nimage_heap::EffectLog;
use nimage_ir::{FieldId, Instr, Intrinsic, Method, MethodId, Program, Terminator};

use crate::dataflow::{self, Analysis, BitFact, Direction, SummaryLattice};
use crate::Diagnostic;

/// Static side-effect summary of one method, transitively including its
/// callees once closed by [`effect_summaries`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Static fields possibly read.
    pub statics_read: BTreeSet<FieldId>,
    /// Static fields possibly written.
    pub statics_written: BTreeSet<FieldId>,
    /// Whether a field/array write may target an object the method (or a
    /// callee) did not allocate itself.
    pub may_foreign_write: bool,
    /// Whether an I/O-like intrinsic (`respond`) may execute.
    pub io: bool,
    /// Whether a `spawn` may execute.
    pub spawns: bool,
}

impl SummaryLattice for EffectSummary {
    fn join(&mut self, other: &Self) -> bool {
        let reads = self.statics_read.len();
        let writes = self.statics_written.len();
        self.statics_read.extend(other.statics_read.iter().copied());
        self.statics_written
            .extend(other.statics_written.iter().copied());
        let flags = (self.may_foreign_write, self.io, self.spawns);
        self.may_foreign_write |= other.may_foreign_write;
        self.io |= other.io;
        self.spawns |= other.spawns;
        reads != self.statics_read.len()
            || writes != self.statics_written.len()
            || flags != (self.may_foreign_write, self.io, self.spawns)
    }
}

/// Forward may-hold-foreign-reference analysis: a local is in the fact if
/// it may reference an object the method did not allocate during its own
/// execution. Parameters, static loads, field/array loads and call results
/// are foreign; fresh allocations and scalars are not.
struct MayForeign;

impl Analysis for MayForeign {
    type Fact = BitFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, m: &Method) -> BitFact {
        let mut f = BitFact::empty(m.n_locals as usize);
        for p in 0..m.param_locals() as usize {
            f.insert(p);
        }
        f
    }

    fn bottom(&self, m: &Method) -> BitFact {
        BitFact::empty(m.n_locals as usize)
    }

    fn join(&self, into: &mut BitFact, from: &BitFact) -> bool {
        into.union(from)
    }

    fn transfer_instr(&self, instr: &Instr, fact: &mut BitFact) {
        match instr {
            // Fresh allocations and scalar producers yield non-foreign
            // destinations.
            Instr::New(d, _)
            | Instr::NewArray(d, _, _)
            | Instr::StrConcat(d, _, _)
            | Instr::ConstInt(d, _)
            | Instr::ConstDouble(d, _)
            | Instr::ConstBool(d, _)
            | Instr::ConstNull(d)
            | Instr::Bin(_, d, _, _)
            | Instr::Un(_, d, _)
            | Instr::ArrayLen(d, _)
            | Instr::StrLen(d, _)
            | Instr::StrCharAt(d, _, _) => fact.remove(d.index()),
            // Loads out of shared state, interned literals and call
            // results may all reference pre-existing objects.
            Instr::ConstStr(d, _)
            | Instr::GetStatic(d, _)
            | Instr::GetField(d, _, _)
            | Instr::ArrayGet(d, _, _) => fact.insert(d.index()),
            Instr::Move(d, s) => {
                if fact.contains(s.index()) {
                    fact.insert(d.index());
                } else {
                    fact.remove(d.index());
                }
            }
            Instr::Call(call) => {
                if let Some(d) = call.dst {
                    fact.insert(d.index());
                }
            }
            // Intrinsics return scalars (or nothing).
            Instr::Intrinsic(call) => {
                if let Some(d) = call.dst {
                    fact.remove(d.index());
                }
            }
            Instr::PutField(..)
            | Instr::PutStatic(..)
            | Instr::ArraySet(..)
            | Instr::Spawn { .. } => {}
        }
    }
}

/// Computes the intraprocedural effect summary of one method body.
fn local_summary(m: &Method) -> EffectSummary {
    let mut s = EffectSummary::default();
    if m.blocks.is_empty() {
        return s;
    }
    let cfg = nimage_ir::Cfg::new(m);
    let sol = dataflow::solve_with_cfg(&MayForeign, m, &cfg);
    for (b, block) in m.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut fact = sol.before[b].clone();
        for instr in &block.instrs {
            match instr {
                Instr::GetStatic(_, f) => {
                    s.statics_read.insert(*f);
                }
                Instr::PutStatic(f, _) => {
                    s.statics_written.insert(*f);
                }
                Instr::PutField(obj, _, _) if fact.contains(obj.index()) => {
                    s.may_foreign_write = true;
                }
                Instr::ArraySet(arr, _, _) if fact.contains(arr.index()) => {
                    s.may_foreign_write = true;
                }
                Instr::Intrinsic(call) if call.op == Intrinsic::Respond => {
                    s.io = true;
                }
                Instr::Spawn { .. } => {
                    s.spawns = true;
                }
                _ => {}
            }
            MayForeign.transfer_instr(instr, &mut fact);
        }
        let _: &Terminator = &block.terminator; // terminators have no effects
    }
    s
}

/// Closes the per-method effect summaries over the call graph: each
/// method's summary absorbs its callees' (spawned methods are *not*
/// absorbed — a build-time spawn is a recorded no-op whose target never
/// runs; the spawn itself is flagged via [`EffectSummary::spawns`]).
pub fn effect_summaries(program: &Program, cg: &CallGraph) -> Vec<EffectSummary> {
    let locals: Vec<EffectSummary> = program.methods().iter().map(local_summary).collect();
    dataflow::solve_interprocedural(&locals, &cg.callees)
}

/// Classifies the build-time initializers of `inits` (in snapshot
/// execution order) against their static summaries.
///
/// Emitted codes (all warnings — the grouped workload initializers are
/// deliberately order-dependent, modelling the paper's divergence):
///
/// * `clinit::foreign-static-write` — an initializer writes a static field
///   owned by another class;
/// * `clinit::escaped-heap-write` — an initializer may write fields of
///   objects it did not allocate (state created by earlier initializers);
/// * `clinit::build-time-io` — an I/O-like intrinsic may run at build time;
/// * `clinit::spawn` — an initializer reaches a `spawn` (a build-time
///   no-op, silently diverging from run-time semantics);
/// * `clinit::order-dependent` — within one parallel-init group, a static
///   field is written by one member and accessed by another, so the
///   snapshot depends on the permutation the build seed picks.
pub fn check_clinit_purity(
    program: &Program,
    inits: &[MethodId],
    summaries: &[EffectSummary],
) -> Vec<Diagnostic> {
    let mut out = vec![];
    for &m in inits {
        let s = &summaries[m.index()];
        let sig = program.method_signature(m);
        let owner = program.method(m).owner;
        let foreign_writes: Vec<FieldId> = s
            .statics_written
            .iter()
            .copied()
            .filter(|&f| program.field(f).owner != owner)
            .collect();
        if !foreign_writes.is_empty() {
            let names: Vec<String> = foreign_writes
                .iter()
                .map(|&f| program.field_signature(f))
                .collect();
            out.push(Diagnostic::warning(
                "clinit::foreign-static-write",
                &sig,
                format!(
                    "initializer writes static field(s) of other classes: {}",
                    names.join(", ")
                ),
            ));
        }
        if s.may_foreign_write {
            out.push(Diagnostic::warning(
                "clinit::escaped-heap-write",
                &sig,
                "initializer may write fields of objects it did not allocate \
                 (heap state from earlier initializers)",
            ));
        }
        if s.io {
            out.push(Diagnostic::warning(
                "clinit::build-time-io",
                &sig,
                "initializer may perform an I/O-like intrinsic at image build time",
            ));
        }
        if s.spawns {
            out.push(Diagnostic::warning(
                "clinit::spawn",
                &sig,
                "initializer reaches a spawn, which is a no-op at build time \
                 (silent behavioral divergence from run time)",
            ));
        }
    }

    // Order dependence inside parallel-init groups: a field written by one
    // member and accessed by another makes the group's snapshot contents
    // depend on the seed-chosen permutation.
    let mut groups: BTreeMap<u32, Vec<MethodId>> = BTreeMap::new();
    for &m in inits {
        let g = program.class(program.method(m).owner).init_group;
        groups.entry(g).or_default().push(m);
    }
    for (g, members) in groups {
        if members.len() < 2 {
            continue;
        }
        // field -> (writers, accessors) among the group's members.
        let mut by_field: BTreeMap<FieldId, (u32, u32)> = BTreeMap::new();
        for &m in &members {
            let s = &summaries[m.index()];
            for &f in &s.statics_written {
                let e = by_field.entry(f).or_insert((0, 0));
                e.0 += 1;
                e.1 += 1;
            }
            for &f in &s.statics_read {
                if !s.statics_written.contains(&f) {
                    by_field.entry(f).or_insert((0, 0)).1 += 1;
                }
            }
        }
        for (f, (writers, accessors)) in by_field {
            if writers >= 1 && accessors >= 2 {
                out.push(Diagnostic::warning(
                    "clinit::order-dependent",
                    program.field_signature(f),
                    format!(
                        "static field is written by {writers} and accessed by {accessors} \
                         initializer(s) of parallel-init group {g}; snapshot contents depend \
                         on their execution order"
                    ),
                ));
            }
        }
    }
    out
}

/// Checks that the static summaries over-approximate a dynamic
/// [`EffectLog`] recorded by the build-time interpreter.
///
/// Any effect observed at build time that the static analysis did not
/// predict is an **error** (`clinit::effects-unsound`): the purity
/// classification — and anything trusting it — under-approximates real
/// behavior.
pub fn check_effect_log(
    program: &Program,
    summaries: &[EffectSummary],
    log: &EffectLog,
) -> Vec<Diagnostic> {
    let mut out = vec![];
    for (m, fx) in &log.per_init {
        let s = &summaries[m.index()];
        let sig = program.method_signature(*m);
        let mut unsound = |what: String| {
            out.push(Diagnostic::error(
                "clinit::effects-unsound",
                &sig,
                format!("dynamic effect not predicted by the static summary: {what}"),
            ));
        };
        for &f in fx.statics_read.difference(&s.statics_read) {
            unsound(format!("read of {}", program.field_signature(f)));
        }
        for &f in fx.statics_written.difference(&s.statics_written) {
            unsound(format!("write of {}", program.field_signature(f)));
        }
        if fx.foreign_writes > 0 && !s.may_foreign_write {
            unsound(format!(
                "{} write(s) to objects allocated by earlier initializers",
                fx.foreign_writes
            ));
        }
        if fx.io_events > 0 && !s.io {
            unsound(format!("{} I/O intrinsic invocation(s)", fx.io_events));
        }
        if fx.spawn_events > 0 && !s.spawns {
            unsound(format!("{} spawn(s)", fx.spawn_events));
        }
    }
    out
}
