//! Page-fault-cost-aware layout optimization: the native tail's hot/cold
//! split, kept when the fault-cost model says it pays.
//!
//! The paper's orderings (`order_cus` / `order_objects`) linearize entities
//! in plain first-touch order. That is the right *hot/cold split* — touched
//! entities form a dense prefix, never-touched ones are exiled past the hot
//! frontier — but it never touches the native tail, whose startup-touched
//! pages are scattered across the whole tail, so each one faults its own
//! fault-around window (`nimage_vm::paging`, the aligned window of
//! `PagingConfig::fault_around_pages`). Packing them to the front of the
//! tail ([`split_native_tail`], hot/cold splitting at page granularity)
//! collapses those faults into the one or two windows that cover the
//! packed prefix. The paper leaves this reordering as future work
//! (Appendix A).
//!
//! [`optimize_layout`] keeps the first-touch CU and object orders and
//! scores two placements with [`predict_faults`] (the placement rule of
//! [`crate::BinaryImage::build`] plus the simulator's window-counting
//! rule): the identity native order, which is the paper's placement, and
//! the split. It keeps the split only when it predicts strictly fewer
//! faults, so the plan never predicts more faults than the paper's
//! ordering, and where the split finds no slack it *is* first-touch order
//! exactly (see DESIGN.md §12).

use nimage_compiler::CuId;
use nimage_heap::ObjId;

use crate::layout::LayoutCursor;
use crate::ImageOptions;

/// The `.text` half of the optimizer's input.
#[derive(Debug, Clone)]
pub struct CodeInput<'a> {
    /// All CUs in first-touch order: the `hot` profiled CUs first (in
    /// first-entry order), then the never-touched rest.
    pub first_touch: &'a [CuId],
    /// Length of the hot prefix of `first_touch`.
    pub hot: usize,
    /// CU sizes in bytes, indexed by `CuId::index()`.
    pub sizes: &'a [u64],
    /// Native-tail pages in first-touch order (the profiling run's
    /// `native_touch_pages`; may contain repeats or out-of-range pages,
    /// which are ignored).
    pub native_pages: &'a [u32],
}

/// The `.svm_heap` half of the optimizer's input.
#[derive(Debug, Clone)]
pub struct HeapInput<'a> {
    /// All snapshot objects in first-touch order: the `hot` matched
    /// objects first (in first-access order), then the unmatched rest.
    pub first_touch: &'a [ObjId],
    /// Length of the hot prefix of `first_touch`.
    pub hot: usize,
    /// Object sizes in bytes, indexed by `ObjId::index()`.
    pub sizes: &'a [u64],
    /// Measured object-relative touched-byte spans per object, indexed by
    /// `ObjId::index()` like `sizes`. An empty span list means the object
    /// is unmeasured and the predictor falls back to its full extent;
    /// pass `&[]` when no measurements exist at all (e.g. profiles from
    /// legacy CSVs).
    pub spans: &'a [Vec<(u64, u64)>],
}

/// Predicted major faults of one placement under the cost model, split by
/// section like the simulator's `FaultCounts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PredictedFaults {
    /// Predicted `.text` major faults (CU windows + native-tail windows).
    pub text: u64,
    /// Predicted `.svm_heap` major faults.
    pub heap: u64,
}

impl PredictedFaults {
    /// Both sections combined.
    pub fn total(&self) -> u64 {
        self.text + self.heap
    }
}

/// The optimizer's output: a full placement plan plus its predicted cost
/// next to the first-touch reference cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderPlan {
    /// CU order (a permutation of the input's `first_touch`).
    pub cu_order: Vec<CuId>,
    /// Object order (a permutation), when a heap input was given.
    pub object_order: Option<Vec<ObjId>>,
    /// Native-tail page permutation: `native_order[i]` is the physical
    /// tail page of logical page `i` (the `set_native_page_order`
    /// contract).
    pub native_order: Vec<u32>,
    /// Predicted faults of plain first-touch order with the identity
    /// native order: the paper's placement, which the plan is measured
    /// against.
    pub first_touch_faults: PredictedFaults,
    /// Predicted faults of the chosen placement: `first_touch_faults`,
    /// or the native split's when its total is strictly lower.
    pub predicted_faults: PredictedFaults,
}

/// The identity native-tail permutation (no native split).
fn identity_native_order(tail_pages: u64) -> Vec<u32> {
    (0..tail_pages as u32).collect()
}

/// The hot/cold split of a `tail_pages`-page native tail: the pages in
/// `touched` (a first-touch profile; repeats and out-of-range pages are
/// ignored) move to the front of the tail in first-touch order, untouched
/// pages follow in their original order. Returns the position array
/// `pos[logical] = physical` that `BinaryImage::set_native_page_order`
/// takes.
pub fn split_native_tail(touched: &[u32], tail_pages: u64) -> Vec<u32> {
    let mut pos = vec![u32::MAX; tail_pages as usize];
    let mut next = 0u32;
    for &p in touched {
        if let Some(slot) = pos.get_mut(p as usize).filter(|s| **s == u32::MAX) {
            *slot = next;
            next += 1;
        }
    }
    for slot in pos.iter_mut() {
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
    }
    pos
}

/// A page-interval set that counts distinct fault-around windows: the
/// simulator charges exactly one major fault per aligned window containing
/// at least one touched page, so predicted faults reduce to counting the
/// distinct values of `page / fault_around_pages` over all touched pages.
struct WindowSet {
    window_pages: u64,
    /// Sorted, disjoint touched-window intervals `[first, last]`.
    windows: Vec<(u64, u64)>,
}

impl WindowSet {
    fn new(window_pages: u64) -> WindowSet {
        WindowSet {
            window_pages,
            windows: vec![],
        }
    }

    /// Marks the byte range `[start, end)` as touched.
    fn touch_bytes(&mut self, start: u64, end: u64, page_size: u64) {
        if start >= end {
            return;
        }
        let first = start / page_size / self.window_pages;
        let last = (end - 1) / page_size / self.window_pages;
        self.windows.push((first, last));
    }

    /// Number of distinct touched windows, consumed.
    fn count(mut self) -> u64 {
        self.windows.sort_unstable();
        let mut n = 0u64;
        let mut covered_to: Option<u64> = None;
        for (first, last) in self.windows {
            let from = match covered_to {
                Some(c) if first <= c => c + 1,
                _ => first,
            };
            if from <= last {
                n += last - from + 1;
            }
            covered_to = Some(covered_to.map_or(last, |c| c.max(last)));
        }
        n
    }
}

/// The placement-independent half of the cost model, computed once per
/// [`optimize_layout`] call: which CUs and objects startup touches.
struct Scorer<'a> {
    code: &'a CodeInput<'a>,
    heap: Option<&'a HeapInput<'a>>,
    options: &'a ImageOptions,
    fault_around_pages: u64,
    hot_cu: Vec<bool>,
    hot_obj: Vec<bool>,
}

impl<'a> Scorer<'a> {
    fn new(
        code: &'a CodeInput<'a>,
        heap: Option<&'a HeapInput<'a>>,
        options: &'a ImageOptions,
        fault_around_pages: u64,
    ) -> Scorer<'a> {
        let mut hot_cu = vec![false; code.sizes.len()];
        for &cu in &code.first_touch[..code.hot] {
            hot_cu[cu.index()] = true;
        }
        let mut hot_obj = vec![false; heap.map_or(0, |h| h.sizes.len())];
        for &o in heap.map_or(&[][..], |h| &h.first_touch[..h.hot]) {
            hot_obj[o.index()] = true;
        }
        Scorer {
            code,
            heap,
            options,
            fault_around_pages,
            hot_cu,
            hot_obj,
        }
    }

    /// Scores one placement: places it with `BinaryImage::build`'s
    /// own [`LayoutCursor`] and section bases, and counts windows with the
    /// simulator's rule. Hot CUs are costed under the *full-extent*
    /// touch model (every hot CU touches all of its bytes; cold entities
    /// touch none); hot heap objects use their measured touched-byte spans
    /// when the profiling run recorded them (`HeapInput::spans`), falling
    /// back to full extent per unmeasured object.
    ///
    /// The full-extent model is an upper bound on the real run's touched
    /// byte set — the VM touches inline nodes and object fields
    /// individually — but it is the *same* upper bound for every placement,
    /// and the native-tail part is page-exact (startup touches whole
    /// pages), so the comparison is meaningful and the native savings are
    /// exact. Measured heap spans tighten that bound to the bytes startup
    /// actually read or wrote, which lets the heap half stop charging for
    /// the cold interiors of large arrays. See DESIGN.md §12 for when the
    /// model's remaining slack makes the optimizer fall back to first-touch
    /// order.
    fn predict(
        &self,
        cu_order: &[CuId],
        native_order: &[u32],
        object_order: Option<&[ObjId]>,
    ) -> PredictedFaults {
        let (code, options) = (self.code, self.options);
        let ps = options.page_size;
        let mut text = WindowSet::new(self.fault_around_pages);
        let mut cursor = LayoutCursor::new(0, options.cu_align);
        for &cu in cu_order {
            let size = code.sizes[cu.index()];
            let at = cursor.place(size);
            if self.hot_cu[cu.index()] {
                text.touch_bytes(at, at + size, ps);
            }
        }
        let native_start = options.native_start(cursor.end());
        // Out-of-range profile pages fall off the permutation; repeats
        // touch a window already counted.
        for &p in code.native_pages {
            if let Some(&phys) = native_order.get(p as usize) {
                let page_off = native_start + u64::from(phys) * ps;
                text.touch_bytes(page_off, page_off + ps, ps);
            }
        }

        let mut heap_faults = 0u64;
        if let Some(h) = self.heap {
            let order = object_order.expect("heap input requires an object order");
            let mut heap_set = WindowSet::new(self.fault_around_pages);
            let mut cursor = LayoutCursor::new(options.heap_start(native_start), options.obj_align);
            for &obj in order {
                let size = h.sizes[obj.index()];
                let at = cursor.place(size);
                if self.hot_obj[obj.index()] {
                    let spans = h.spans.get(obj.index()).map_or(&[][..], Vec::as_slice);
                    if spans.is_empty() {
                        heap_set.touch_bytes(at, at + size, ps);
                    } else {
                        // Spans are object-relative; clamp to the object's
                        // extent in *this* build (the measurement came from
                        // the instrumented build, whose object may be
                        // larger).
                        for &(s, e) in spans {
                            let e = e.min(size);
                            if s < e {
                                heap_set.touch_bytes(at + s, at + e, ps);
                            }
                        }
                    }
                }
            }
            heap_faults = heap_set.count();
        }

        PredictedFaults {
            text: text.count(),
            heap: heap_faults,
        }
    }
}

/// Plans the placement of CUs (and objects, when `heap` is given) against
/// the fault-cost model. Both sections keep their first-touch order; the
/// only choice is the native tail's. The plan scores two placements with
/// [`predict_faults`]' model, the identity native order (plain first-touch
/// order, scored as `first_touch_faults`) and the native-tail hot/cold
/// split, and keeps the split only when it predicts strictly fewer faults
/// in total.
///
/// `options` is the geometry the plan's image will be built with and
/// `fault_around_pages` the simulator's window (`PagingConfig`).
pub fn optimize_layout(
    code: &CodeInput<'_>,
    heap: Option<&HeapInput<'_>>,
    options: &ImageOptions,
    fault_around_pages: u64,
) -> OrderPlan {
    assert!(
        fault_around_pages.is_power_of_two(),
        "fault_around_pages must be a power of two"
    );
    let scorer = Scorer::new(code, heap, options, fault_around_pages);
    let object_order = heap.map(|h| h.first_touch);
    let tail = options.native_pages();
    let identity = identity_native_order(tail);
    let first_touch_faults = scorer.predict(code.first_touch, &identity, object_order);
    let split = split_native_tail(code.native_pages, tail);
    let split_faults = scorer.predict(code.first_touch, &split, object_order);
    let (native_order, predicted_faults) = if split_faults.total() < first_touch_faults.total() {
        (split, split_faults)
    } else {
        (identity, first_touch_faults)
    };

    OrderPlan {
        cu_order: code.first_touch.to_vec(),
        object_order: object_order.map(<[ObjId]>::to_vec),
        native_order,
        first_touch_faults,
        predicted_faults,
    }
}

/// Predicts the major-fault counts of one placement under the cost model —
/// the same scoring [`optimize_layout`] uses for its two placements, exposed
/// for reporting: the caller passes any CU/object orders (e.g. a
/// strategy's first-touch orders) and gets the per-section predicted fault
/// counts of that placement.
pub fn predict_faults(
    code: &CodeInput<'_>,
    heap: Option<&HeapInput<'_>>,
    cu_order: &[CuId],
    object_order: Option<&[ObjId]>,
    native_order: Option<&[u32]>,
    options: &ImageOptions,
    fault_around_pages: u64,
) -> PredictedFaults {
    let identity;
    let native_order = match native_order {
        Some(order) => order,
        None => {
            identity = identity_native_order(options.native_pages());
            &identity
        }
    };
    Scorer::new(code, heap, options, fault_around_pages).predict(
        cu_order,
        native_order,
        object_order,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator's default fault-around window, in pages.
    const WINDOW: u64 = 16;

    fn cus(n: u32) -> Vec<CuId> {
        (0..n).map(CuId).collect()
    }

    #[test]
    fn window_set_counts_distinct_windows() {
        let mut w = WindowSet::new(16);
        w.touch_bytes(0, 4096, 4096); // window 0
        w.touch_bytes(4096, 8192, 4096); // window 0 again
        w.touch_bytes(16 * 4096, 16 * 4096 + 1, 4096); // window 1
        w.touch_bytes(40 * 4096, 80 * 4096, 4096); // windows 2..=4
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn native_split_packs_hot_pages_to_front() {
        let order = split_native_tail(&[5, 2, 7, 2, 900], 192);
        assert_eq!(order[5], 0);
        assert_eq!(order[2], 1);
        assert_eq!(order[7], 2);
        // Untouched pages keep their relative order after the hot ones.
        assert_eq!(order[0], 3);
        assert_eq!(order[1], 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..192).collect::<Vec<u32>>());
        // Repeats and out-of-range pages are ignored.
        assert_eq!(split_native_tail(&[1, 1, 99, 0], 4), vec![1, 0, 2, 3]);
        // An empty profile leaves the tail as it is.
        assert_eq!(split_native_tail(&[], 4), identity_native_order(4));
    }

    #[test]
    fn optimizer_beats_first_touch_via_native_split() {
        let order = cus(4);
        let sizes = vec![100, 200, 300, 400];
        let code = CodeInput {
            first_touch: &order,
            hot: 2,
            sizes: &sizes,
            // Scattered startup pages: 4 separate windows under identity.
            native_pages: &[0, 40, 90, 150],
        };
        let plan = optimize_layout(&code, None, &ImageOptions::default(), WINDOW);
        assert!(plan.predicted_faults.text < plan.first_touch_faults.text);
        // The tail starts on page 1 (CUs fill < a page), so the packed hot
        // tail pages land in the same fault-around window as the hot CUs:
        // one window total. Under the identity permutation, tail page 0
        // shares that window, and pages 40/90/150 each fault their own.
        assert_eq!(plan.predicted_faults.text, 1);
        assert_eq!(plan.first_touch_faults.text, 4);
    }

    #[test]
    fn optimizer_output_is_permutation() {
        let order = cus(9);
        let sizes: Vec<u64> = (0..9).map(|i| 1000 + i * 777).collect();
        let objs: Vec<ObjId> = (0..7).map(ObjId).collect();
        let osizes: Vec<u64> = (0..7).map(|i| 24 + i * 321).collect();
        let code = CodeInput {
            first_touch: &order,
            hot: 5,
            sizes: &sizes,
            native_pages: &[3, 99],
        };
        let heap = HeapInput {
            first_touch: &objs,
            hot: 4,
            sizes: &osizes,
            spans: &[],
        };
        let base = optimize_layout(&code, Some(&heap), &ImageOptions::default(), WINDOW);
        let mut sorted = base.cu_order.clone();
        sorted.sort();
        assert_eq!(sorted, cus(9));
        let mut osorted = base.object_order.clone().unwrap();
        osorted.sort();
        assert_eq!(osorted, objs);
    }

    #[test]
    fn measured_spans_charge_fewer_heap_faults_than_full_extent() {
        // One huge hot object spanning many fault-around windows, of which
        // startup touches only the first and last few bytes. Full extent
        // charges every window it covers; the measured spans charge two.
        let objs: Vec<ObjId> = (0..2).map(ObjId).collect();
        let opts = ImageOptions::default();
        let window = opts.page_size * WINDOW;
        let osizes = vec![10 * window, 64];
        let code = CodeInput {
            first_touch: &[],
            hot: 0,
            sizes: &[],
            native_pages: &[],
        };
        let full = HeapInput {
            first_touch: &objs,
            hot: 1,
            sizes: &osizes,
            spans: &[],
        };
        let spans = vec![vec![(0, 8), (10 * window - 8, 10 * window)], vec![]];
        let measured = HeapInput {
            first_touch: &objs,
            hot: 1,
            sizes: &osizes,
            spans: &spans,
        };
        let order = objs.clone();
        let predict = |heap: &HeapInput<'_>| {
            predict_faults(&code, Some(heap), &[], Some(&order), None, &opts, WINDOW)
        };
        let full_cost = predict(&full);
        let span_cost = predict(&measured);
        assert_eq!(full_cost.heap, 10);
        assert_eq!(span_cost.heap, 2);
        // Spans past the object's extent in this build are clamped away.
        let stale = vec![vec![(20 * window, 21 * window)], vec![]];
        let clamped = HeapInput {
            first_touch: &objs,
            hot: 1,
            sizes: &osizes,
            spans: &stale,
        };
        assert_eq!(predict(&clamped).heap, 0);
    }

    #[test]
    fn degenerates_to_first_touch_when_no_slack() {
        // One hot CU, no native touches: the split predicts the same cost
        // as the identity, so the plan keeps plain first-touch order and
        // the identity native order.
        let order = cus(3);
        let sizes = vec![64, 64, 64];
        let code = CodeInput {
            first_touch: &order,
            hot: 1,
            sizes: &sizes,
            native_pages: &[],
        };
        let plan = optimize_layout(&code, None, &ImageOptions::default(), WINDOW);
        assert_eq!(plan.cu_order, order);
        assert_eq!(plan.native_order, identity_native_order(192));
        assert_eq!(plan.predicted_faults, plan.first_touch_faults);
    }
}
