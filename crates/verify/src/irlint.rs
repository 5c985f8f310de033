//! IR dataflow lints.
//!
//! These go beyond the structural checks of `ir::validate`: they reason
//! about the control-flow graph of each method body. Severity policy:
//! use-before-def, call/field/return inconsistencies and vtable
//! unsoundness are errors; unreachable blocks and dead stores are
//! warnings, because the program builder legitimately emits both (e.g.
//! the join block after an `if` whose branches both return, or a
//! `get_static` whose result feeds only a discarded binding).
//!
//! Dead-store analysis is suppressed in class initializers: builder
//! generators materialize static state there through idiomatic
//! local-per-constant sequences (`iconst`/`new_object` results threaded
//! into `put_static`/`array_set` chains), leaving a tail local per
//! constant that nothing reads. Flagging those drowned real findings —
//! on Bounce they were 125 of 128 dead-store warnings — so the lint
//! scopes itself to hand-reachable code (`Static`/`Virtual` methods).

use std::collections::BTreeSet;

use nimage_analysis::Reachability;
use nimage_ir::{
    Call, Callee, Cfg, Instr, Local, Method, MethodId, MethodKind, Program, Terminator,
};

use crate::dataflow::{self, Analysis, BitFact, Direction};
use crate::Diagnostic;

/// Locals read by a terminator.
fn terminator_uses(t: &Terminator) -> Option<Local> {
    match t {
        Terminator::Ret(l) => *l,
        Terminator::Jump(_) => None,
        Terminator::Br { cond, .. } => Some(*cond),
    }
}

/// Forward may-be-unassigned analysis: a local is in the fact if some path
/// from entry reaches the program point without assigning it. This is the
/// complement of the classic "definitely assigned" intersection analysis,
/// phrased as a union lattice so the generic least-fixpoint solver applies
/// directly.
struct MayUnassigned;

impl Analysis for MayUnassigned {
    type Fact = BitFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, m: &Method) -> BitFact {
        let mut f = BitFact::full(m.n_locals as usize);
        for p in 0..m.param_locals() as usize {
            f.remove(p);
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
        if let Some(d) = instr.dst() {
            fact.remove(d.index());
        }
    }
}

/// Backward liveness: a local is in the fact if some path from the program
/// point reads it before any reassignment.
struct Liveness;

impl Analysis for Liveness {
    type Fact = BitFact;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, m: &Method) -> BitFact {
        BitFact::empty(m.n_locals as usize)
    }

    fn bottom(&self, m: &Method) -> BitFact {
        BitFact::empty(m.n_locals as usize)
    }

    fn join(&self, into: &mut BitFact, from: &BitFact) -> bool {
        into.union(from)
    }

    fn transfer_instr(&self, instr: &Instr, fact: &mut BitFact) {
        if let Some(d) = instr.dst() {
            fact.remove(d.index());
        }
        for src in instr.sources() {
            fact.insert(src.index());
        }
    }

    fn transfer_terminator(&self, term: &Terminator, fact: &mut BitFact) {
        if let Some(l) = terminator_uses(term) {
            fact.insert(l.index());
        }
    }
}

/// Lints every method body of `program`.
///
/// Emitted codes: `ir::use-before-def`, `ir::unreachable-block`,
/// `ir::dead-store` plus the per-instruction consistency codes of
/// [`lint_method`].
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let mut out = vec![];
    for (i, m) in program.methods().iter().enumerate() {
        lint_method(program, MethodId(i as u32), m, &mut out);
    }
    out
}

/// Lints one method body, appending findings to `out`.
pub fn lint_method(program: &Program, id: MethodId, m: &Method, out: &mut Vec<Diagnostic>) {
    if m.blocks.is_empty() {
        return; // bodyless declaration; ir::validate owns that check
    }
    let sig = program.method_signature(id);
    let cfg = Cfg::new(m);

    for (b, r) in cfg.reachable.iter().enumerate() {
        if !r {
            out.push(Diagnostic::warning(
                "ir::unreachable-block",
                &sig,
                format!("block b{b} is unreachable from entry"),
            ));
        }
    }

    lint_use_before_def(&sig, m, &cfg, out);
    if m.kind != MethodKind::ClassInit {
        lint_dead_stores(&sig, m, &cfg, out);
    }

    for (b, block) in m.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        for (i, instr) in block.instrs.iter().enumerate() {
            lint_instr_consistency(program, &sig, b, i, instr, out);
        }
        if let Terminator::Ret(val) = &block.terminator {
            if val.is_some() != m.ret.is_some() {
                out.push(Diagnostic::error(
                    "ir::ret-mismatch",
                    &sig,
                    format!(
                        "block b{b} returns {} but the method signature declares {}",
                        if val.is_some() { "a value" } else { "nothing" },
                        if m.ret.is_some() { "a value" } else { "void" },
                    ),
                ));
            }
        }
    }
}

/// Use-before-def as a forward [`MayUnassigned`] dataflow on the generic
/// solver; a read of a local inside the may-unassigned fact is an error,
/// reported once per local.
fn lint_use_before_def(sig: &str, m: &Method, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let sol = dataflow::solve_with_cfg(&MayUnassigned, m, cfg);
    let mut reported: BTreeSet<u16> = BTreeSet::new();
    for (b, block) in m.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        let mut fact = sol.before[b].clone();
        let mut check = |fact: &BitFact, l: Local, at: String, out: &mut Vec<Diagnostic>| {
            if fact.contains(l.index()) && reported.insert(l.0) {
                out.push(Diagnostic::error(
                    "ir::use-before-def",
                    sig,
                    format!("local {l} read at {at} before any assignment on some path"),
                ));
            }
        };
        for (i, instr) in block.instrs.iter().enumerate() {
            for src in instr.sources() {
                check(&fact, src, format!("b{b}[{i}]"), out);
            }
            MayUnassigned.transfer_instr(instr, &mut fact);
        }
        if let Some(l) = terminator_uses(&block.terminator) {
            check(&fact, l, format!("b{b}[term]"), out);
        }
    }
}

/// Dead stores via backward [`Liveness`] on the generic solver: a store to
/// a non-parameter local that no path reads before reassignment or exit.
/// Reported once per local at its first dead site in program order; the
/// message distinguishes fully dead locals (never read anywhere) from
/// stores shadowed by a later reassignment.
fn lint_dead_stores(sig: &str, m: &Method, cfg: &Cfg, out: &mut Vec<Diagnostic>) {
    let sol = dataflow::solve_with_cfg(&Liveness, m, cfg);

    // Locals with any reachable read at all, to pick the right message.
    let n = m.n_locals as usize;
    let mut read_somewhere = BitFact::empty(n);
    for (b, block) in m.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        for instr in &block.instrs {
            for src in instr.sources() {
                read_somewhere.insert(src.index());
            }
        }
        if let Some(l) = terminator_uses(&block.terminator) {
            read_somewhere.insert(l.index());
        }
    }

    let mut reported: BTreeSet<u16> = BTreeSet::new();
    for (b, block) in m.blocks.iter().enumerate() {
        if !cfg.reachable[b] {
            continue;
        }
        // Walk the block backwards so the fact at each instruction is the
        // liveness state *after* it.
        let mut fact = sol.after[b].clone();
        let mut dead: Vec<(usize, Local)> = vec![];
        Liveness.transfer_terminator(&block.terminator, &mut fact);
        for (i, instr) in block.instrs.iter().enumerate().rev() {
            if let Some(d) = instr.dst() {
                if d.index() >= m.param_locals() as usize && !fact.contains(d.index()) {
                    dead.push((i, d));
                }
            }
            Liveness.transfer_instr(instr, &mut fact);
        }
        for (i, d) in dead.into_iter().rev() {
            if reported.insert(d.0) {
                let why = if read_somewhere.contains(d.index()) {
                    "overwritten before any read"
                } else {
                    "never read"
                };
                out.push(Diagnostic::warning(
                    "ir::dead-store",
                    sig,
                    format!("local {d} is assigned at b{b}[{i}] but {why}"),
                ));
            }
        }
    }
}

/// Per-instruction consistency: call arity and result use, field
/// static/instance polarity.
fn lint_instr_consistency(
    program: &Program,
    sig: &str,
    b: usize,
    i: usize,
    instr: &Instr,
    out: &mut Vec<Diagnostic>,
) {
    let at = format!("b{b}[{i}]");
    match instr {
        Instr::Call(call) => {
            let Call { dst, callee, args } = &**call;
            let target = match callee {
                Callee::Static(m) => Some(*m),
                Callee::Virtual { declared, selector } => {
                    let resolved = program.resolve_virtual(*declared, *selector);
                    if resolved.is_none() {
                        out.push(Diagnostic::error(
                            "ir::call-unresolved",
                            sig,
                            format!(
                                "virtual call at {at} on {} has no target for selector {}",
                                program.class(*declared).name,
                                program.selector_name(*selector),
                            ),
                        ));
                    }
                    resolved
                }
            };
            if let Some(t) = target {
                let callee_m = program.method(t);
                let expected = callee_m.param_locals() as usize;
                if args.len() != expected {
                    out.push(Diagnostic::error(
                        "ir::call-arity",
                        sig,
                        format!(
                            "call at {at} to {} passes {} argument(s), callee takes {expected}",
                            program.method_signature(t),
                            args.len(),
                        ),
                    ));
                }
                if dst.is_some() && callee_m.ret.is_none() {
                    out.push(Diagnostic::error(
                        "ir::call-ret",
                        sig,
                        format!(
                            "call at {at} stores the result of void method {}",
                            program.method_signature(t),
                        ),
                    ));
                }
            }
        }
        Instr::GetField(_, _, f) | Instr::PutField(_, f, _) if program.field(*f).is_static => {
            out.push(Diagnostic::error(
                "ir::field-kind",
                sig,
                format!(
                    "instance access at {at} targets static field {}",
                    program.field_signature(*f),
                ),
            ));
        }
        Instr::GetStatic(_, f) | Instr::PutStatic(f, _) if !program.field(*f).is_static => {
            out.push(Diagnostic::error(
                "ir::field-kind",
                sig,
                format!(
                    "static access at {at} targets instance field {}",
                    program.field_signature(*f),
                ),
            ));
        }
        _ => {}
    }
}

/// Checks the devirtualization targets computed by `nimage-analysis`
/// against the class hierarchy: every recorded target of a virtual call
/// site must be a virtual method with the site's selector, declared on a
/// class related to the static receiver type, and arity-compatible.
pub fn lint_virtual_targets(program: &Program, reach: &Reachability) -> Vec<Diagnostic> {
    let mut out = vec![];
    let mut sites: Vec<_> = reach.virtual_targets.iter().collect();
    sites.sort_by_key(|(site, _)| **site);
    for (site, targets) in sites {
        let caller_sig = program.method_signature(site.method);
        let at = format!("b{}[{}]", site.block, site.instr);
        let caller = program.method(site.method);
        let instr = caller
            .blocks
            .get(site.block)
            .and_then(|blk| blk.instrs.get(site.instr));
        let Some((Callee::Virtual { declared, selector }, args)) = instr.and_then(|i| match i {
            Instr::Call(call) => Some((&call.callee, &call.args)),
            _ => None,
        }) else {
            out.push(Diagnostic::error(
                "ir::vtable",
                &caller_sig,
                format!("recorded virtual call site {at} is not a virtual call"),
            ));
            continue;
        };
        for &t in targets {
            let tm = program.method(t);
            let tsig = program.method_signature(t);
            if tm.kind != MethodKind::Virtual {
                out.push(Diagnostic::error(
                    "ir::vtable",
                    &caller_sig,
                    format!("site {at}: devirtualized target {tsig} is not a virtual method"),
                ));
                continue;
            }
            if tm.selector != *selector {
                out.push(Diagnostic::error(
                    "ir::vtable",
                    &caller_sig,
                    format!(
                        "site {at}: target {tsig} answers selector {}, site dispatches {}",
                        program.selector_name(tm.selector),
                        program.selector_name(*selector),
                    ),
                ));
            }
            // An override lives below the declared receiver class; an
            // inherited implementation lives above it.
            if !program.is_subclass(tm.owner, *declared)
                && !program.is_subclass(*declared, tm.owner)
            {
                out.push(Diagnostic::error(
                    "ir::vtable",
                    &caller_sig,
                    format!(
                        "site {at}: target {tsig} owner {} is unrelated to receiver type {}",
                        program.class(tm.owner).name,
                        program.class(*declared).name,
                    ),
                ));
            }
            if args.len() != tm.param_locals() as usize {
                out.push(Diagnostic::error(
                    "ir::vtable",
                    &caller_sig,
                    format!(
                        "site {at}: target {tsig} takes {} locals, site passes {}",
                        tm.param_locals(),
                        args.len(),
                    ),
                ));
            }
        }
    }
    out
}
