//! # nimage-analysis
//!
//! Reachability analysis for nimage programs, standing in for GraalVM Native
//! Image's type-based points-to analysis (Wimmer et al., and the saturation
//! variant the paper cites in Sec. 2).
//!
//! The analysis is a Rapid-Type-Analysis-style fixpoint:
//!
//! * starting from the program entry point, it walks the bodies of reachable
//!   methods;
//! * `new C` marks `C` *instantiated* (allowing its methods to become virtual
//!   dispatch targets) and *reachable* (so its `<clinit>` runs at build time
//!   and its static fields become heap roots);
//! * virtual call sites dispatch to every instantiated subclass of the
//!   declared receiver type — unless the selector **saturates**: once the
//!   target set of a selector grows past [`AnalysisConfig::saturation_threshold`],
//!   the analysis marks *every* implementation of the selector reachable,
//!   mirroring the conservative saturation optimization of Native Image;
//! * static field accesses mark the field (and its owner class) reachable;
//! * `spawn` targets are additional entry points.
//!
//! The result deliberately *over-approximates* the executed code — the paper
//! notes that "the points-to analysis is conservative and always includes
//! more code than what is actually reachable or executed at runtime", which
//! is exactly why profile-guided reordering helps.

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet, VecDeque};

use nimage_ir::{Callee, ClassId, FieldId, Instr, MethodId, MethodKind, Program, SelectorId};

/// Tuning knobs for the reachability analysis.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Once a selector has this many possible targets, the analysis
    /// saturates it: all implementations anywhere in the class hierarchy are
    /// marked reachable (Sec. 2's saturation).
    pub saturation_threshold: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            saturation_threshold: 6,
        }
    }
}

/// Identifies one call instruction inside a method body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSite {
    /// The calling method.
    pub method: MethodId,
    /// Block index within the caller.
    pub block: usize,
    /// Instruction index within the block.
    pub instr: usize,
}

/// Result of [`analyze`].
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Reachable methods in deterministic discovery order. Class
    /// initializers are *not* listed here (they execute at build time and
    /// are not compiled into the image); see [`Reachability::build_time_inits`].
    pub methods: Vec<MethodId>,
    /// Classes that may be instantiated at run time.
    pub instantiated: Vec<ClassId>,
    /// All reachable classes (instantiated ∪ owners of reachable members ∪
    /// superclasses thereof), in discovery order.
    pub classes: Vec<ClassId>,
    /// Reachable static fields (heap-snapshot roots), in discovery order.
    pub static_fields: Vec<FieldId>,
    /// Reachable instance fields.
    pub instance_fields: Vec<FieldId>,
    /// Class initializers to execute at image build time, in execution order
    /// (discovery order of their classes).
    pub build_time_inits: Vec<MethodId>,
    /// Possible targets of every reachable virtual call site.
    pub virtual_targets: HashMap<CallSite, Vec<MethodId>>,
    /// Selectors whose target sets saturated.
    pub saturated: HashSet<SelectorId>,
    /// Direct call-graph edges `(caller, callee)` for static calls and
    /// monomorphic virtual calls — the edges the inliner may act on.
    pub direct_edges: Vec<(MethodId, MethodId)>,
}

impl Reachability {
    /// Whether a method is reachable.
    pub fn is_method_reachable(&self, m: MethodId) -> bool {
        self.methods.contains(&m)
    }
}

/// A conservative whole-program call graph over *every* method body —
/// including class initializers, which [`analyze`] deliberately excludes
/// from its reachable-method list because they run at build time.
///
/// Virtual sites are resolved against the full class hierarchy (the
/// declared receiver and all of its subclasses), not the instantiated
/// set: clients like the clinit-purity interprocedural analysis in
/// `nimage-verify` need summaries that over-approximate any possible
/// execution, not just post-analysis runtime behavior.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `callees[m]` — methods that method `m` may call, sorted and
    /// deduplicated.
    pub callees: Vec<Vec<MethodId>>,
    /// `spawns[m]` — methods that `m` hands to `spawn` (started, not
    /// called; effects happen on another thread).
    pub spawns: Vec<Vec<MethodId>>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    pub fn build(program: &Program) -> CallGraph {
        let n = program.methods().len();
        let mut callees: Vec<Vec<MethodId>> = vec![vec![]; n];
        let mut spawns: Vec<Vec<MethodId>> = vec![vec![]; n];
        for (m, method) in program.methods().iter().enumerate() {
            for block in &method.blocks {
                for instr in &block.instrs {
                    match instr {
                        Instr::Call(call) => match &call.callee {
                            Callee::Static(t) => callees[m].push(*t),
                            Callee::Virtual { declared, selector } => {
                                for c in program.subclasses_of(*declared) {
                                    if let Some(t) = program.resolve_virtual(c, *selector) {
                                        callees[m].push(t);
                                    }
                                }
                            }
                        },
                        Instr::Spawn(s) => spawns[m].push(s.method),
                        _ => {}
                    }
                }
            }
            callees[m].sort_unstable();
            callees[m].dedup();
            spawns[m].sort_unstable();
            spawns[m].dedup();
        }
        CallGraph { callees, spawns }
    }
}

#[derive(Default)]
struct State {
    method_seen: HashSet<MethodId>,
    methods: Vec<MethodId>,
    instantiated_seen: HashSet<ClassId>,
    instantiated: Vec<ClassId>,
    class_seen: HashSet<ClassId>,
    classes: Vec<ClassId>,
    sfield_seen: HashSet<FieldId>,
    static_fields: Vec<FieldId>,
    ifield_seen: HashSet<FieldId>,
    instance_fields: Vec<FieldId>,
    worklist: VecDeque<MethodId>,
    /// selector -> discovered target methods
    selector_targets: HashMap<SelectorId, HashSet<MethodId>>,
    saturated: HashSet<SelectorId>,
    /// virtual call sites discovered so far, per selector, with declared type
    pending_sites: HashMap<SelectorId, Vec<(CallSite, ClassId)>>,
}

impl State {
    fn mark_method(&mut self, m: MethodId) {
        if self.method_seen.insert(m) {
            self.methods.push(m);
            self.worklist.push_back(m);
        }
    }

    fn mark_class(&mut self, p: &Program, c: ClassId) {
        let mut cur = Some(c);
        while let Some(cls) = cur {
            if !self.class_seen.insert(cls) {
                break;
            }
            self.classes.push(cls);
            cur = p.class(cls).superclass;
        }
    }

    fn mark_instantiated(&mut self, p: &Program, c: ClassId) -> bool {
        self.mark_class(p, c);
        if self.instantiated_seen.insert(c) {
            self.instantiated.push(c);
            true
        } else {
            false
        }
    }
}

/// Runs the reachability analysis from the program's entry point.
///
/// # Panics
/// Panics if the program has no entry point.
pub fn analyze(program: &Program, config: &AnalysisConfig) -> Reachability {
    let entry = program.entry.expect("program has no entry point");
    let mut st = State::default();

    st.mark_method(entry);
    st.mark_class(program, program.method(entry).owner);

    while let Some(mid) = st.worklist.pop_front() {
        let method = program.method(mid);
        st.mark_class(program, method.owner);
        let mut newly_instantiated: Vec<ClassId> = vec![];
        for (bi, block) in method.blocks.iter().enumerate() {
            for (ii, instr) in block.instrs.iter().enumerate() {
                match instr {
                    Instr::New(_, c) if st.mark_instantiated(program, *c) => {
                        newly_instantiated.push(*c);
                    }
                    Instr::GetStatic(_, f) | Instr::PutStatic(f, _) => {
                        if st.sfield_seen.insert(*f) {
                            st.static_fields.push(*f);
                        }
                        st.mark_class(program, program.field(*f).owner);
                    }
                    Instr::GetField(_, _, f) | Instr::PutField(_, f, _) => {
                        if st.ifield_seen.insert(*f) {
                            st.instance_fields.push(*f);
                        }
                        st.mark_class(program, program.field(*f).owner);
                    }
                    Instr::Call(call) => match &call.callee {
                        Callee::Static(callee_m) => st.mark_method(*callee_m),
                        Callee::Virtual { declared, selector } => {
                            let site = CallSite {
                                method: mid,
                                block: bi,
                                instr: ii,
                            };
                            st.pending_sites
                                .entry(*selector)
                                .or_default()
                                .push((site, *declared));
                            resolve_selector(program, config, &mut st, *declared, *selector);
                        }
                    },
                    Instr::Spawn(s) => st.mark_method(s.method),
                    _ => {}
                }
            }
        }
        // New instantiations may enable targets at previously seen sites.
        for c in newly_instantiated {
            flow_new_instance(program, config, &mut st, c);
        }
    }

    // Final target sets per site.
    let mut virtual_targets: HashMap<CallSite, Vec<MethodId>> = HashMap::new();
    for (selector, sites) in &st.pending_sites {
        for &(site, declared) in sites {
            let targets = targets_for(program, &st, declared, *selector);
            virtual_targets.insert(site, targets);
        }
    }

    let mut direct_edges = vec![];
    for &m in &st.methods {
        let method = program.method(m);
        for (bi, block) in method.blocks.iter().enumerate() {
            for (ii, instr) in block.instrs.iter().enumerate() {
                if let Instr::Call(call) = instr {
                    match &call.callee {
                        Callee::Static(c) => direct_edges.push((m, *c)),
                        Callee::Virtual { .. } => {
                            let site = CallSite {
                                method: m,
                                block: bi,
                                instr: ii,
                            };
                            if let Some(ts) = virtual_targets.get(&site) {
                                if ts.len() == 1 {
                                    direct_edges.push((m, ts[0]));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Build-time class initializers, in class discovery order.
    let build_time_inits = st
        .classes
        .iter()
        .filter_map(|&c| program.class(c).clinit)
        .collect();

    Reachability {
        methods: st.methods,
        instantiated: st.instantiated,
        classes: st.classes,
        static_fields: st.static_fields,
        instance_fields: st.instance_fields,
        build_time_inits,
        virtual_targets,
        saturated: st.saturated,
        direct_edges,
    }
}

/// Resolves a (declared, selector) pair against the current instantiated set
/// and marks targets reachable, applying saturation.
fn resolve_selector(
    program: &Program,
    config: &AnalysisConfig,
    st: &mut State,
    declared: ClassId,
    selector: SelectorId,
) {
    if st.saturated.contains(&selector) {
        saturate(program, st, selector);
        return;
    }
    let mut found: Vec<MethodId> = vec![];
    for &c in &st.instantiated {
        if program.is_subclass(c, declared) {
            if let Some(t) = program.resolve_virtual(c, selector) {
                found.push(t);
            }
        }
    }
    for t in found {
        add_selector_target(program, config, st, selector, t);
    }
}

/// When class `c` becomes instantiated, any previously seen virtual site
/// whose declared type is a superclass of `c` gains a target.
fn flow_new_instance(program: &Program, config: &AnalysisConfig, st: &mut State, c: ClassId) {
    let selectors: Vec<SelectorId> = st.pending_sites.keys().copied().collect();
    for selector in selectors {
        if st.saturated.contains(&selector) {
            continue;
        }
        let declared_types: Vec<ClassId> = st.pending_sites[&selector]
            .iter()
            .map(|&(_, d)| d)
            .collect();
        for declared in declared_types {
            if program.is_subclass(c, declared) {
                if let Some(t) = program.resolve_virtual(c, selector) {
                    add_selector_target(program, config, st, selector, t);
                }
            }
        }
    }
}

fn add_selector_target(
    program: &Program,
    config: &AnalysisConfig,
    st: &mut State,
    selector: SelectorId,
    target: MethodId,
) {
    let set = st.selector_targets.entry(selector).or_default();
    let inserted = set.insert(target);
    let len = set.len();
    if inserted {
        st.mark_method(target);
        if len >= config.saturation_threshold {
            st.saturated.insert(selector);
            saturate(program, st, selector);
        }
    }
}

/// Marks every implementation of `selector` in the whole program reachable.
fn saturate(program: &Program, st: &mut State, selector: SelectorId) {
    let mut targets = vec![];
    for m in 0..program.methods().len() {
        let mid = MethodId::from(m);
        let method = program.method(mid);
        if method.selector == selector && method.kind == MethodKind::Virtual {
            targets.push(mid);
        }
    }
    for t in targets {
        st.selector_targets.entry(selector).or_default().insert(t);
        st.mark_method(t);
        st.mark_class(program, program.method(t).owner);
    }
}

/// Final possible-target list for a site, in deterministic (method id) order.
fn targets_for(
    program: &Program,
    st: &State,
    declared: ClassId,
    selector: SelectorId,
) -> Vec<MethodId> {
    let mut out: Vec<MethodId> = if st.saturated.contains(&selector) {
        st.selector_targets
            .get(&selector)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    } else {
        let mut v = vec![];
        for &c in &st.instantiated {
            if program.is_subclass(c, declared) {
                if let Some(t) = program.resolve_virtual(c, selector) {
                    v.push(t);
                }
            }
        }
        v
    };
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_ir::{ProgramBuilder, TypeRef};

    /// entry -> calls Base.run virtually on the given instantiated classes.
    fn hierarchy_program(n_subclasses: usize, instantiate: &[usize]) -> (Program, Vec<MethodId>) {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("t.Base", None);
        let run_base = pb.declare_virtual(base, "run", &[], Some(TypeRef::Int));
        let mut f = pb.body(run_base);
        let v = f.iconst(0);
        f.ret(Some(v));
        pb.finish_body(run_base, f);

        let mut runs = vec![run_base];
        let mut classes = vec![base];
        for i in 0..n_subclasses {
            let c = pb.add_class(&format!("t.Sub{i}"), Some(base));
            let m = pb.declare_virtual(c, "run", &[], Some(TypeRef::Int));
            let mut f = pb.body(m);
            let v = f.iconst(i as i64 + 1);
            f.ret(Some(v));
            pb.finish_body(m, f);
            runs.push(m);
            classes.push(c);
        }

        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let sel = pb.intern_selector("run", 0);
        let mut f = pb.body(main);
        let mut last = f.iconst(0);
        for &idx in instantiate {
            let obj = f.new_object(classes[idx]);
            last = f.call_virtual(base, sel, &[obj], true).unwrap();
        }
        f.ret(Some(last));
        pb.finish_body(main, f);
        pb.set_entry(main);
        (pb.build().unwrap(), runs)
    }

    #[test]
    fn only_instantiated_targets_are_reachable() {
        let (p, runs) = hierarchy_program(3, &[2]); // instantiate Sub1 only
        let r = analyze(&p, &AnalysisConfig::default());
        assert!(r.is_method_reachable(runs[2]));
        assert!(!r.is_method_reachable(runs[1]));
        assert!(!r.is_method_reachable(runs[3]));
    }

    #[test]
    fn monomorphic_virtual_call_produces_direct_edge() {
        let (p, runs) = hierarchy_program(3, &[1]);
        let r = analyze(&p, &AnalysisConfig::default());
        let entry = p.entry.unwrap();
        assert!(r.direct_edges.contains(&(entry, runs[1])));
    }

    #[test]
    fn polymorphic_call_has_no_direct_edge_but_all_targets_reachable() {
        let (p, runs) = hierarchy_program(3, &[1, 2]);
        let r = analyze(&p, &AnalysisConfig::default());
        assert!(!r.direct_edges.iter().any(|&(_, t)| t == runs[1]));
        assert!(r.is_method_reachable(runs[1]));
        assert!(r.is_method_reachable(runs[2]));
    }

    #[test]
    fn saturation_marks_all_implementations() {
        let (p, runs) = hierarchy_program(10, &[1, 2, 3, 4, 5, 6]);
        let cfg = AnalysisConfig {
            saturation_threshold: 4,
        };
        let r = analyze(&p, &cfg);
        assert_eq!(r.saturated.len(), 1);
        // Even never-instantiated Sub9.run becomes reachable (conservatism).
        assert!(r.is_method_reachable(*runs.last().unwrap()));
    }

    #[test]
    fn without_saturation_uninstantiated_stay_unreachable() {
        let (p, runs) = hierarchy_program(10, &[1, 2, 3]);
        let cfg = AnalysisConfig {
            saturation_threshold: 100,
        };
        let r = analyze(&p, &cfg);
        assert!(r.saturated.is_empty());
        assert!(!r.is_method_reachable(*runs.last().unwrap()));
    }

    #[test]
    fn static_fields_and_clinits_become_reachable() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("t.A", None);
        let fld = pb.add_static_field(a, "X", TypeRef::Int);
        let cl = pb.declare_clinit(a);
        let mut f = pb.body(cl);
        let v = f.iconst(42);
        f.put_static(fld, v);
        f.ret(None);
        pb.finish_body(cl, f);

        let main_cls = pb.add_class("t.Main", None);
        let main = pb.declare_static(main_cls, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let v = f.get_static(fld);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();

        let r = analyze(&p, &AnalysisConfig::default());
        assert_eq!(r.static_fields, vec![fld]);
        assert_eq!(r.build_time_inits, vec![cl]);
        // clinit is not a compiled (runtime) method.
        assert!(!r.is_method_reachable(cl));
    }

    #[test]
    fn spawn_target_is_entry_point() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let worker = pb.declare_static(c, "worker", &[], None);
        let mut f = pb.body(worker);
        f.ret(None);
        pb.finish_body(worker, f);
        let main = pb.declare_static(c, "main", &[], None);
        let mut f = pb.body(main);
        f.spawn(worker, &[]);
        f.ret(None);
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        assert!(r.is_method_reachable(worker));
    }

    #[test]
    fn unreachable_code_is_excluded() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let dead = pb.declare_static(c, "dead", &[], None);
        let mut f = pb.body(dead);
        f.ret(None);
        pb.finish_body(dead, f);
        let main = pb.declare_static(c, "main", &[], None);
        let mut f = pb.body(main);
        f.ret(None);
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let r = analyze(&p, &AnalysisConfig::default());
        assert!(!r.is_method_reachable(dead));
        assert_eq!(r.methods, vec![main]);
    }

    #[test]
    fn discovery_order_is_deterministic() {
        let (p, _) = hierarchy_program(5, &[1, 3, 2]);
        let r1 = analyze(&p, &AnalysisConfig::default());
        let r2 = analyze(&p, &AnalysisConfig::default());
        assert_eq!(r1.methods, r2.methods);
        assert_eq!(r1.classes, r2.classes);
        assert_eq!(r1.instantiated, r2.instantiated);
    }
}
