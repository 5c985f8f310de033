//! Property tests of the layout optimizer's contract: whatever the input,
//! the output is a permutation of it, never predicts worse than first
//! touch, and reports predictions consistent with the scorer.

use proptest::prelude::*;

use nimage_compiler::CuId;
use nimage_heap::ObjId;
use nimage_image::optimize::{optimize_layout, predict_faults, CodeInput, HeapInput};
use nimage_image::ImageOptions;

/// Native-tail pages of the test geometry.
const TAIL_PAGES: u32 = 64;

/// The simulator's default fault-around window, in pages.
const WINDOW: u64 = 16;

/// A small image geometry (64-page native tail) so the candidate search
/// exercises window sharing without megabyte-sized inputs.
fn options() -> ImageOptions {
    ImageOptions {
        native_tail: u64::from(TAIL_PAGES) * 4096,
        ..ImageOptions::default()
    }
}

/// Derives a permutation of `0..n` from a list of generated swaps
/// (Fisher–Yates with externally supplied randomness, so the proptest
/// input fully determines it).
fn permutation(n: usize, swaps: &[usize]) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for (i, &s) in swaps.iter().enumerate() {
        let a = i % n;
        let b = s % n;
        p.swap(a, b);
    }
    p
}

fn sorted(ids: Vec<u32>) -> Vec<u32> {
    let mut ids = ids;
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The optimizer returns permutations of its inputs, its chosen
    /// placement never predicts more faults than first touch (candidate 0
    /// of its own search), and its reported prediction matches a re-score
    /// of the returned orders.
    #[test]
    fn optimizer_is_an_anchored_permutation(
        cu_sizes in proptest::collection::vec(1u64..3000, 1..48),
        cu_swaps in proptest::collection::vec(0usize..4096, 0..64),
        (cu_hot_pct, obj_hot_pct) in (0usize..=100, 0usize..=100),
        obj_sizes in proptest::collection::vec(1u64..600, 1..80),
        obj_swaps in proptest::collection::vec(0usize..4096, 0..96),
        native in proptest::collection::vec(0u32..TAIL_PAGES, 0..12),
    ) {
        let first_touch: Vec<CuId> =
            permutation(cu_sizes.len(), &cu_swaps).into_iter().map(CuId).collect();
        let cu_hot = cu_sizes.len() * cu_hot_pct / 100;
        let code = CodeInput {
            first_touch: &first_touch,
            hot: cu_hot,
            sizes: &cu_sizes,
            native_pages: &native,
        };
        let obj_first: Vec<ObjId> =
            permutation(obj_sizes.len(), &obj_swaps).into_iter().map(ObjId).collect();
        let obj_hot = obj_sizes.len() * obj_hot_pct / 100;
        let heap = HeapInput {
            first_touch: &obj_first,
            hot: obj_hot,
            sizes: &obj_sizes,
            spans: &[],
        };
        let opts = options();
        let plan = optimize_layout(&code, Some(&heap), &opts, WINDOW);

        // Permutation of the CU input.
        prop_assert_eq!(
            sorted(plan.cu_order.iter().map(|c| c.0).collect()),
            (0..cu_sizes.len() as u32).collect::<Vec<_>>()
        );
        // Permutation of the object input.
        let object_order = plan.object_order.as_ref().expect("heap side was given");
        prop_assert_eq!(
            sorted(object_order.iter().map(|o| o.0).collect()),
            (0..obj_sizes.len() as u32).collect::<Vec<_>>()
        );
        // Permutation of the native-tail pages.
        prop_assert_eq!(
            sorted(plan.native_order.clone()),
            (0..TAIL_PAGES).collect::<Vec<_>>()
        );

        // Anchored by first touch: never predicted worse.
        prop_assert!(plan.predicted_faults.total() <= plan.first_touch_faults.total());

        // The reported prediction is the scorer's verdict on the
        // returned orders, not a stale candidate's.
        let rescored = predict_faults(
            &code,
            Some(&heap),
            &plan.cu_order,
            Some(object_order),
            Some(&plan.native_order),
            &opts,
            WINDOW,
        );
        prop_assert_eq!(rescored, plan.predicted_faults);
    }

    /// Code-only planning (no heap side) upholds the same contract.
    #[test]
    fn code_only_plan_is_anchored(
        cu_sizes in proptest::collection::vec(1u64..5000, 1..64),
        cu_swaps in proptest::collection::vec(0usize..4096, 0..64),
        cu_hot_pct in 0usize..=100,
        native in proptest::collection::vec(0u32..TAIL_PAGES, 0..10),
    ) {
        let first_touch: Vec<CuId> =
            permutation(cu_sizes.len(), &cu_swaps).into_iter().map(CuId).collect();
        let code = CodeInput {
            first_touch: &first_touch,
            hot: cu_sizes.len() * cu_hot_pct / 100,
            sizes: &cu_sizes,
            native_pages: &native,
        };
        let opts = options();
        let plan = optimize_layout(&code, None, &opts, WINDOW);
        prop_assert!(plan.object_order.is_none());
        prop_assert_eq!(
            sorted(plan.cu_order.iter().map(|c| c.0).collect()),
            (0..cu_sizes.len() as u32).collect::<Vec<_>>()
        );
        prop_assert!(plan.predicted_faults.total() <= plan.first_touch_faults.total());
    }
}
