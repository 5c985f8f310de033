//! Property tests of inliner/CU invariants over random call trees.

use proptest::prelude::*;

use nimage_analysis::{analyze, AnalysisConfig};
use nimage_compiler::{
    compile, CompiledProgram, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
};
use nimage_ir::{MethodId, Program, ProgramBuilder, TypeRef};

/// Builds a program of `n` methods where method `i` calls the methods named
/// by `calls[i]` (indices < i, keeping the graph acyclic) with `pad`
/// padding instructions each; `main` calls method `n-1`.
fn call_tree_program(pads: &[u8], calls: &[Vec<u8>]) -> Program {
    let n = pads.len();
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("p.T", None);
    let mut ids: Vec<MethodId> = vec![];
    for i in 0..n {
        ids.push(pb.declare_static(c, &format!("m{i:02}"), &[], Some(TypeRef::Int)));
    }
    for i in 0..n {
        let mut f = pb.body(ids[i]);
        let mut acc = f.iconst(i as i64);
        for _ in 0..pads[i] {
            let one = f.iconst(1);
            acc = f.add(acc, one);
        }
        for &t in &calls[i] {
            let callee = ids[t as usize % i.max(1)];
            if (t as usize % i.max(1)) < i {
                let v = f.call_static(callee, &[], true).unwrap();
                acc = f.add(acc, v);
            }
        }
        f.ret(Some(acc));
        pb.finish_body(ids[i], f);
    }
    let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let v = f.call_static(ids[n - 1], &[], true).unwrap();
    f.ret(Some(v));
    pb.finish_body(main, f);
    pb.set_entry(main);
    pb.build().unwrap()
}

fn compiled(p: &Program, budget: u32, threshold: u32) -> CompiledProgram {
    let reach = analyze(p, &AnalysisConfig::default());
    let cfg = InlineConfig {
        cu_budget: budget,
        inline_threshold: threshold,
        ..InlineConfig::default()
    };
    compile(
        &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
        reach,
        &cfg,
        InstrumentConfig::NONE,
        None,
    )
}

fn tree_inputs() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
    (2usize..10).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..60, n..=n),
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3), n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reachable method is *somewhere*: a CU root or an inlinee.
    #[test]
    fn reachable_methods_are_materialized((pads, calls) in tree_inputs(), budget in 256u32..4096, threshold in 0u32..400) {
        let p = call_tree_program(&pads, &calls);
        let cp = compiled(&p, budget, threshold);
        for &m in &cp.reachability.methods {
            let present = cp.cus.iter().any(|cu| cu.contains(m));
            prop_assert!(present, "{} missing from every CU", p.method_signature(m));
        }
    }

    /// Inline-node byte spans never overlap and stay inside their CU.
    #[test]
    fn cu_spans_are_disjoint((pads, calls) in tree_inputs(), budget in 256u32..4096, threshold in 0u32..400) {
        let p = call_tree_program(&pads, &calls);
        let cp = compiled(&p, budget, threshold);
        for cu in &cp.cus {
            let mut spans: Vec<(u32, u32)> = cu
                .nodes
                .iter()
                .map(|n| (n.offset, n.offset + n.size))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlapping nodes in {}", cu.id);
            }
            for n in &cu.nodes {
                prop_assert!(n.offset + n.size <= cu.size);
            }
            // Child links are internally consistent.
            for (i, n) in cu.nodes.iter().enumerate() {
                for &(site, child) in &n.children {
                    prop_assert_eq!(site.method, n.method);
                    prop_assert_eq!(
                        cu.nodes[child as usize].parent,
                        Some(i as u32)
                    );
                }
            }
        }
    }

    /// Default CU order is alphabetical by root signature, and the entry
    /// method always has a CU.
    #[test]
    fn default_order_and_entry((pads, calls) in tree_inputs()) {
        let p = call_tree_program(&pads, &calls);
        let cp = compiled(&p, 2048, 180);
        let sigs = cp.root_signatures(&p);
        let mut sorted = sigs.clone();
        sorted.sort();
        prop_assert_eq!(sigs, sorted);
        prop_assert!(cp.cu_of_root(p.entry.unwrap()).is_some());
    }

    /// Zero threshold means no inlining at all: every CU has one node.
    #[test]
    fn zero_threshold_disables_inlining((pads, calls) in tree_inputs()) {
        let p = call_tree_program(&pads, &calls);
        let cp = compiled(&p, 4096, 0);
        for cu in &cp.cus {
            prop_assert_eq!(cu.nodes.len(), 1);
        }
    }
}
