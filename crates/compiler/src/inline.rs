//! The code-size-driven inliner that forms compilation units.
//!
//! A CU "consists of a root method and all the methods that were inlined
//! into that root method" (Sec. 2). Inlining decisions here are
//! deliberately sensitive to the same inputs as Graal's:
//!
//! * **callee size** — only callees below a size threshold are inlined, and
//!   the threshold applies to the *effective* (instrumented) size, so the
//!   profiling build inlines less than the regular build;
//! * **CU budget** — a CU stops growing once it reaches a byte budget, so
//!   the same method may be inlined in one caller but not another;
//! * **PGO call counts** — hot callees get a larger threshold and cold
//!   callees are never inlined, so the optimized build diverges from both
//!   the regular and the instrumented build;
//! * **monomorphism** — only static calls and virtual calls with exactly one
//!   analysis-time target are inlined (devirtualization), so saturation in
//!   `nimage-analysis` indirectly shapes CUs too.

use std::collections::{HashMap, HashSet};

use nimage_analysis::{CallSite, Reachability};
use nimage_ir::{Callee, Instr, MethodId, Program};

use crate::cu::{CompilationUnit, CompiledProgram, CuId, InlineNode};
use crate::instrument::{instrumented_method_size, InstrumentConfig, CU_PROBE_BYTES};
use crate::pgo::CallCountProfile;

/// Inliner tuning knobs.
#[derive(Debug, Clone)]
pub struct InlineConfig {
    /// Maximum effective callee size (bytes) eligible for inlining.
    pub inline_threshold: u32,
    /// Threshold multiplier for hot callees when a PGO profile is present.
    pub hot_multiplier: u32,
    /// A callee is *hot* when its profiled call count reaches this value.
    pub hot_call_count: u64,
    /// Maximum CU size in bytes; inlining stops when the budget is hit.
    pub cu_budget: u32,
    /// Maximum inline depth.
    pub max_depth: u32,
}

impl Default for InlineConfig {
    fn default() -> Self {
        InlineConfig {
            inline_threshold: 180,
            hot_multiplier: 3,
            hot_call_count: 16,
            cu_budget: 2048,
            max_depth: 8,
        }
    }
}

/// Compiles a program: forms compilation units for every reachable method
/// that needs an out-of-line copy.
///
/// `profile` is `None` for the regular and instrumented builds and
/// `Some(..)` for the profile-guided optimized build.
///
/// CUs are built wave by wave over a root worklist. The first wave holds
/// the mandatory roots: the entry point, spawn targets and every target of
/// a polymorphic virtual call (those are reached through the vtable and
/// can never be fully inlined away). Every call a CU does not inline roots
/// a CU of the next wave. [`build_cu`] is a pure function of the program,
/// analysis results and its root, so the final signature-ordered merge
/// (the paper's alphabetical default `.text` order) renumbers CUs into a
/// total order that does not depend on worklist order.
pub fn compile(
    program: &Program,
    reachability: Reachability,
    inline_cfg: &InlineConfig,
    instr_cfg: InstrumentConfig,
    profile: Option<&CallCountProfile>,
) -> CompiledProgram {
    let mut root_seen: HashSet<MethodId> = HashSet::new();
    let mut frontier: Vec<MethodId> = vec![];
    let push_root = |m: MethodId, frontier: &mut Vec<MethodId>, seen: &mut HashSet<MethodId>| {
        if seen.insert(m) {
            frontier.push(m);
        }
    };
    if let Some(e) = program.entry {
        push_root(e, &mut frontier, &mut root_seen);
    }
    for &m in &reachability.methods {
        for b in &program.method(m).blocks {
            for i in &b.instrs {
                if let Instr::Spawn { method, .. } = i {
                    push_root(*method, &mut frontier, &mut root_seen);
                }
            }
        }
    }
    for targets in reachability.virtual_targets.values() {
        if targets.len() != 1 {
            for &t in targets {
                push_root(t, &mut frontier, &mut root_seen);
            }
        }
    }

    let mut built: Vec<CompilationUnit> = vec![];
    while !frontier.is_empty() {
        let mut next: Vec<MethodId> = vec![];
        for &root in &frontier {
            let (cu, not_inlined) = build_cu(
                program,
                &reachability,
                inline_cfg,
                &instr_cfg,
                profile,
                root,
            );
            for m in not_inlined {
                push_root(m, &mut next, &mut root_seen);
            }
            built.push(cu);
        }
        frontier = next;
    }

    // Default .text order: alphabetical by root signature (Sec. 2). The
    // root id tiebreak makes the order total even if two roots shared a
    // signature.
    built.sort_by_key(|cu| (program.method_signature(cu.root), cu.root));
    let mut root_to_cu = HashMap::new();
    for (i, cu) in built.iter_mut().enumerate() {
        cu.id = CuId(i as u32);
        root_to_cu.insert(cu.root, cu.id);
    }

    CompiledProgram {
        cus: built,
        root_to_cu,
        instrumentation: instr_cfg,
        reachability,
    }
}

/// The single analysis-time target of a call site, if the call is direct
/// (static) or monomorphic.
fn direct_target(reach: &Reachability, callee: &Callee, site: CallSite) -> Option<MethodId> {
    match callee {
        Callee::Static(m) => Some(*m),
        Callee::Virtual { .. } => match reach.virtual_targets.get(&site) {
            Some(ts) if ts.len() == 1 => Some(ts[0]),
            _ => None,
        },
    }
}

/// Builds one CU rooted at `root`. Returns the CU and the methods invoked
/// but not inlined (future roots).
fn build_cu(
    program: &Program,
    reach: &Reachability,
    cfg: &InlineConfig,
    instr: &InstrumentConfig,
    profile: Option<&CallCountProfile>,
    root: MethodId,
) -> (CompilationUnit, Vec<MethodId>) {
    let mut nodes: Vec<InlineNode> = vec![];
    let mut not_inlined: Vec<MethodId> = vec![];
    let mut cu_size: u32 = if instr.trace_cu { CU_PROBE_BYTES } else { 0 };

    // DFS worklist entry: (method, parent node, call site in parent, depth,
    // methods on the inline path for recursion detection).
    struct Work {
        method: MethodId,
        parent: Option<u32>,
        site: Option<CallSite>,
        depth: u32,
        path: Vec<MethodId>,
    }

    let mut stack = vec![Work {
        method: root,
        parent: None,
        site: None,
        depth: 0,
        path: vec![],
    }];

    while let Some(w) = stack.pop() {
        let size = instrumented_method_size(program, w.method, instr);
        // Re-check the budget at materialization time: a sibling's subtree
        // may have consumed the budget since the inline decision was made.
        if w.parent.is_some() && cu_size.saturating_add(size) > cfg.cu_budget {
            not_inlined.push(w.method);
            continue;
        }
        let node_idx = nodes.len() as u32;
        nodes.push(InlineNode {
            method: w.method,
            parent: w.parent,
            offset: cu_size,
            size,
            children: vec![],
        });
        cu_size += size;
        if let (Some(p), Some(site)) = (w.parent, w.site) {
            nodes[p as usize].children.push((site, node_idx));
        }

        // Visit call sites in reverse so the DFS stack pops them in source
        // order, keeping offsets deterministic.
        let method = program.method(w.method);
        let mut sites: Vec<(CallSite, MethodId)> = vec![];
        for (bi, block) in method.blocks.iter().enumerate() {
            for (ii, ins) in block.instrs.iter().enumerate() {
                if let Instr::Call { callee, .. } = ins {
                    let site = CallSite {
                        method: w.method,
                        block: bi,
                        instr: ii,
                    };
                    match direct_target(reach, callee, site) {
                        Some(t) => sites.push((site, t)),
                        None => {
                            // Polymorphic: targets were made roots already.
                        }
                    }
                }
            }
        }
        for &(site, target) in sites.iter().rev() {
            let callee_size = instrumented_method_size(program, target, instr);
            let mut threshold = cfg.inline_threshold;
            if let Some(p) = profile {
                let count = p.count(program, target);
                if count >= cfg.hot_call_count {
                    threshold *= cfg.hot_multiplier;
                } else if count == 0 {
                    // Profiled-cold callees are never inlined.
                    threshold = 0;
                }
            }
            let recursive = w.path.contains(&target) || target == w.method;
            let fits_budget = cu_size.saturating_add(callee_size) <= cfg.cu_budget;
            let inline =
                !recursive && w.depth < cfg.max_depth && callee_size <= threshold && fits_budget;
            if inline {
                let mut path = w.path.clone();
                path.push(w.method);
                stack.push(Work {
                    method: target,
                    parent: Some(node_idx),
                    site: Some(site),
                    depth: w.depth + 1,
                    path,
                });
            } else {
                not_inlined.push(target);
            }
        }
    }

    // The DFS stack assigns offsets in pop order, which interleaves subtree
    // sizes correctly for our purposes (offsets are unique and increasing).
    (
        CompilationUnit {
            id: CuId(0), // renumbered by `compile`
            root,
            nodes,
            size: cu_size,
        },
        not_inlined,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_ir::{ProgramBuilder, TypeRef};

    /// main -> helper (small), helper -> leaf (small); plus a `big` method
    /// too large to inline.
    fn chain_program(pad_big: usize) -> nimage_ir::Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let leaf = pb.declare_static(c, "leaf", &[], Some(TypeRef::Int));
        let helper = pb.declare_static(c, "helper", &[], Some(TypeRef::Int));
        let big = pb.declare_static(c, "big", &[], Some(TypeRef::Int));
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));

        let mut f = pb.body(leaf);
        let v = f.iconst(1);
        f.ret(Some(v));
        pb.finish_body(leaf, f);

        let mut f = pb.body(helper);
        let v = f.call_static(leaf, &[], true).unwrap();
        f.ret(Some(v));
        pb.finish_body(helper, f);

        let mut f = pb.body(big);
        let mut v = f.iconst(0);
        for _ in 0..pad_big {
            let one = f.iconst(1);
            v = f.add(v, one);
        }
        f.ret(Some(v));
        pb.finish_body(big, f);

        let mut f = pb.body(main);
        let a = f.call_static(helper, &[], true).unwrap();
        let b = f.call_static(big, &[], true).unwrap();
        let s = f.add(a, b);
        f.ret(Some(s));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.build().unwrap()
    }

    fn compile_default(p: &nimage_ir::Program, instr: InstrumentConfig) -> CompiledProgram {
        let reach = analyze(p, &AnalysisConfig::default());
        compile(p, reach, &InlineConfig::default(), instr, None)
    }

    #[test]
    fn small_chain_is_fully_inlined_big_is_not() {
        let p = chain_program(100);
        let cp = compile_default(&p, InstrumentConfig::NONE);
        let main = p.entry.unwrap();
        let main_cu = cp.cu(cp.cu_of_root(main).unwrap());
        // main, helper, leaf all in one CU.
        assert_eq!(main_cu.nodes.len(), 3);
        // big gets its own CU.
        let big = p.class_by_name("t.Main").unwrap();
        let big_m = p
            .class(big)
            .methods
            .iter()
            .copied()
            .find(|&m| p.method(m).name == "big")
            .unwrap();
        assert!(cp.cu_of_root(big_m).is_some());
        // helper and leaf do NOT get own CUs (inlined everywhere).
        let helper_m = p
            .class(big)
            .methods
            .iter()
            .copied()
            .find(|&m| p.method(m).name == "helper")
            .unwrap();
        assert!(cp.cu_of_root(helper_m).is_none());
    }

    #[test]
    fn instrumentation_changes_cu_grouping() {
        let p = chain_program(100);
        let regular = compile_default(&p, InstrumentConfig::NONE);
        // Heavy heap instrumentation makes helper+leaf too big to inline
        // when combined with a tiny threshold; use a tight config instead.
        let reach = analyze(&p, &AnalysisConfig::default());
        let tight = InlineConfig {
            inline_threshold: 40,
            ..InlineConfig::default()
        };
        let instrumented = compile(&p, reach, &tight, InstrumentConfig::FULL, None);
        // The instrumented build must not produce the identical CU set.
        let sigs = |cp: &CompiledProgram| cp.root_signatures(&p);
        assert_ne!(sigs(&regular), sigs(&instrumented));
    }

    #[test]
    fn pgo_cold_callee_is_not_inlined() {
        let p = chain_program(10);
        let reach = analyze(&p, &AnalysisConfig::default());
        // Empty profile: every callee is cold, nothing is inlined.
        let profile = CallCountProfile::new();
        let cp = compile(
            &p,
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            Some(&profile),
        );
        let main_cu = cp.cu(cp.cu_of_root(p.entry.unwrap()).unwrap());
        assert_eq!(main_cu.nodes.len(), 1);
    }

    #[test]
    fn recursion_is_never_inlined() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.R", None);
        let rec = pb.declare_static(c, "rec", &[TypeRef::Int], Some(TypeRef::Int));
        let mut f = pb.body(rec);
        let n = f.param(0);
        let zero = f.iconst(0);
        let stop = f.le(n, zero);
        f.if_then_else(
            stop,
            |f| {
                let v = f.iconst(0);
                f.ret(Some(v));
            },
            |f| {
                let one = f.iconst(1);
                let n1 = f.sub(n, one);
                let v = f.call_static(rec, &[n1], true).unwrap();
                f.ret(Some(v));
            },
        );
        pb.finish_body(rec, f);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let ten = f.iconst(10);
        let v = f.call_static(rec, &[ten], true).unwrap();
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();

        let cp = compile_default(&p, InstrumentConfig::NONE);
        let rec_cu = cp.cu(cp.cu_of_root(rec).unwrap());
        // rec inlined into main once at most; within its own CU, rec must
        // not contain another copy of itself.
        assert_eq!(rec_cu.nodes.iter().filter(|n| n.method == rec).count(), 1);
    }

    #[test]
    fn cu_order_is_alphabetical_by_root_signature() {
        let p = chain_program(100);
        let cp = compile_default(&p, InstrumentConfig::NONE);
        let sigs = cp.root_signatures(&p);
        let mut sorted = sigs.clone();
        sorted.sort();
        assert_eq!(sigs, sorted);
    }

    #[test]
    fn offsets_are_disjoint_and_within_cu() {
        let p = chain_program(100);
        let cp = compile_default(&p, InstrumentConfig::FULL);
        for cu in &cp.cus {
            let mut spans: Vec<(u32, u32)> = cu
                .nodes
                .iter()
                .map(|n| (n.offset, n.offset + n.size))
                .collect();
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlapping inline-node spans");
            }
            for n in &cu.nodes {
                assert!(n.offset + n.size <= cu.size);
            }
        }
    }

    #[test]
    fn cu_budget_limits_cu_size() {
        let p = chain_program(100);
        let reach = analyze(&p, &AnalysisConfig::default());
        let cfg = InlineConfig {
            cu_budget: 64,
            ..InlineConfig::default()
        };
        let cp = compile(&p, reach, &cfg, InstrumentConfig::NONE, None);
        for cu in &cp.cus {
            assert!(cu.size <= 64 || cu.nodes.len() == 1);
        }
    }
}
