//! Page-fault-cost-aware layout optimization: hot/cold splitting plus
//! fault-around-window clustering.
//!
//! The paper's orderings (`order_cus` / `order_objects`) linearize entities
//! in plain first-touch order. That is the right *hot/cold split* — touched
//! entities form a dense prefix, never-touched ones are exiled past the hot
//! frontier — but it leaves two costs of the demand-paging model on the
//! table (`nimage_vm::paging`, the aligned fault-around window of
//! `PagingConfig::fault_around_pages`):
//!
//! 1. **The native tail is not split.** The startup-touched native pages
//!    are scattered across the whole tail, so each one faults its own
//!    fault-around window. Packing them to the front of the tail (hot/cold
//!    splitting at page granularity) collapses those faults into the one or
//!    two windows that cover the packed prefix.
//! 2. **The hot prefix is packed by accident, not by cost.** Alignment
//!    padding between hot entities and hot entities straddling a window
//!    boundary can push the hot span over one more fault-around window than
//!    its bytes need. Clustering co-accessed entities into window-sized
//!    chains and packing chains against alignment waste shaves that slack
//!    where it exists.
//!
//! The optimizer works by *candidate search under an exact cost model*: it
//! generates a fixed, deterministic list of candidate placements — the
//! first-touch order itself is always candidate 0 — scores each one with
//! [`predict_faults`] (the placement rule of [`crate::BinaryImage::build`]
//! plus the simulator's window-counting rule), and keeps the argmin, ties
//! broken toward the lowest candidate index. Because first-touch is in the
//! candidate set, the chosen placement never predicts more faults than the
//! paper's ordering, and on workloads where neither the native split nor
//! the clustering finds slack the optimizer *degenerates to first-touch
//! order exactly* (see DESIGN.md §12).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nimage_compiler::CuId;
use nimage_heap::ObjId;

use crate::layout::{align_up, LayoutCursor};
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
    /// Predicted faults of plain first-touch order (candidate 0).
    pub first_touch_faults: PredictedFaults,
    /// Predicted faults of the chosen placement (never more than
    /// `first_touch_faults` in any section total).
    pub predicted_faults: PredictedFaults,
}

/// The identity native-tail permutation (candidate 0: no native split).
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

/// The candidate-independent half of the cost model, computed once per
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

    /// Scores one candidate placement: places it with `BinaryImage::build`'s
    /// own [`LayoutCursor`] and section bases, and counts windows with the
    /// simulator's rule. Hot CUs are costed under the *full-extent*
    /// touch model (every hot CU touches all of its bytes; cold entities
    /// touch none); hot heap objects use their measured touched-byte spans
    /// when the profiling run recorded them (`HeapInput::spans`), falling
    /// back to full extent per unmeasured object.
    ///
    /// The full-extent model is an upper bound on the real run's touched
    /// byte set — the VM touches inline nodes and object fields
    /// individually — but it is the *same* upper bound for every candidate,
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
            let order = object_order.expect("heap input requires a candidate object order");
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

/// No successor: the entity is its chain's tail.
const NONE: usize = usize::MAX;

/// The smallest current chain head `>= k` (`n` when there is none).
/// `heads[h] == h` exactly for heads; every other entry links towards
/// a larger index and is shortened as it is followed (path halving).
fn next_head(heads: &mut [usize], mut k: usize) -> usize {
    while heads[k] != k {
        heads[k] = heads[heads[k]];
        k = heads[k];
    }
    k
}

/// Ext-TSP-style chain clustering (greedy Pettis–Hansen merge) over the
/// co-access graph of the hot first-touch sequence.
///
/// Two hot entities `i < j` are *startup-window neighbors* when the bytes
/// between them along the first-touch layout, `dist(i, j)`, are fewer than
/// one fault-around window; the closer, the heavier the edge. Entities
/// start as singleton chains; edges are taken by descending weight —
/// ascending `(dist, i, j)` — and merge two chains end-to-end when the
/// edge runs from the tail of one to the head of the other and the merged
/// chain still fits one window. Every merge appends a chain that starts
/// after the other one's tail, so each chain runs in increasing first-touch
/// rank (a merge can never close a cycle), and chains are emitted by their
/// heads — their earliest members — so clustering never moves an entity
/// far from its startup position.
///
/// The edges are never materialised: the graph is nearly complete when the
/// whole hot set spans a window or two. A merge only ever *removes* a tail
/// (`i`) and a head (`j`) and never creates one, so an edge whose `i` is no
/// longer a tail or whose `j` is no longer a head is rejected whenever it
/// comes up and can be skipped unseen. Each tail keeps one cursor — its
/// next edge to a current head, in `j` order, which for a fixed `i` is also
/// `dist` order — in a min-heap keyed `(dist, i, j)`, so the heap yields
/// exactly the surviving edges of the sorted list, in its order.
fn cluster_hot(hot_sizes: &[u64], window_bytes: u64) -> Vec<usize> {
    let n = hot_sizes.len();
    // Prefix byte positions along the first-touch sequence.
    let mut pos = Vec::with_capacity(n + 1);
    pos.push(0u64);
    for &s in hot_sizes {
        pos.push(pos[pos.len() - 1] + s);
    }
    let cursor = |i: usize, j: usize| {
        let dist = pos[j] - pos[i + 1];
        (j < n && dist < window_bytes).then_some(Reverse((dist, i, j)))
    };

    // Chain bookkeeping: `succ` links each member to the next; `end` maps a
    // head to its tail and a tail to its head; a chain's bytes sit at its
    // head.
    let mut succ = vec![NONE; n];
    let mut end: Vec<usize> = (0..n).collect();
    let mut bytes = hot_sizes.to_vec();
    let mut heads: Vec<usize> = (0..=n).collect();
    let mut cursors: BinaryHeap<_> = (0..n.saturating_sub(1))
        .filter_map(|i| cursor(i, i + 1))
        .collect();
    while let Some(Reverse((_, i, j))) = cursors.pop() {
        if heads[j] != j {
            // `j` was merged behind another chain since this cursor was
            // set: move on to the next current head.
            cursors.extend(cursor(i, next_head(&mut heads, j)));
            continue;
        }
        let head = end[i];
        if bytes[head] + bytes[j] <= window_bytes {
            // `i` stops being a tail, so its cursor ends here.
            let tail = end[j];
            succ[i] = j;
            end[head] = tail;
            end[tail] = head;
            bytes[head] += bytes[j];
            heads[j] = j + 1;
        } else {
            cursors.extend(cursor(i, next_head(&mut heads, j + 1)));
        }
    }

    let members =
        |h: usize| std::iter::successors(Some(h), |&m| Some(succ[m]).filter(|&s| s != NONE));
    (0..n)
        .filter(|&h| heads[h] == h)
        .flat_map(members)
        .collect()
}

/// Page-boundary-aware packing: walks the hot prefix in order and, when
/// the next hot entity would straddle a page boundary, moves the best-fit
/// cold entity (largest that fits the gap to the boundary, ties: first in
/// cold order) in front of it as a filler. Cold entities are untouched, so
/// a filler costs nothing where the page is already hot — but it does push
/// later hot bytes back, which is why the result is only *kept* when the
/// predictor scores it no worse than the unpacked candidate.
fn pack_page_boundaries<T: Copy>(
    hot: &[T],
    cold: &[T],
    size_of: impl Fn(T) -> u64,
    align: u64,
    page_size: u64,
) -> Vec<T> {
    let mut used = vec![false; cold.len()];
    let mut out = Vec::with_capacity(hot.len() + cold.len());
    let mut cursor = LayoutCursor::new(0, align);
    for &h in hot {
        let at = cursor.next();
        let size = size_of(h);
        let gap = align_up(at, page_size) - at;
        if gap > 0 && size > gap {
            // Find the largest unused cold entity that fits the gap.
            let mut best: Option<(u64, usize)> = None;
            for (i, &c) in cold.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let cs = size_of(c);
                if cs <= gap && best.is_none_or(|(bs, _)| cs > bs) {
                    best = Some((cs, i));
                }
            }
            if let Some((cs, i)) = best {
                used[i] = true;
                out.push(cold[i]);
                cursor.place(cs);
            }
        }
        out.push(h);
        cursor.place(size);
    }
    for (i, &c) in cold.iter().enumerate() {
        if !used[i] {
            out.push(c);
        }
    }
    out
}

/// The three orders of one section the candidates draw on: plain
/// first-touch (borrowed), the window-clustered hot prefix followed by the
/// cold rest, and the clustered prefix page-boundary-packed with cold
/// fillers.
fn section_orders<'a, T: Copy>(
    first_touch: &'a [T],
    hot: usize,
    size_of: impl Fn(T) -> u64,
    align: u64,
    page_size: u64,
    window_bytes: u64,
) -> [Cow<'a, [T]>; 3] {
    let (hot, cold) = first_touch.split_at(hot);
    let hot_sizes: Vec<u64> = hot.iter().map(|&e| size_of(e)).collect();
    let clustered: Vec<T> = cluster_hot(&hot_sizes, window_bytes)
        .into_iter()
        .map(|i| hot[i])
        .collect();
    let packed = pack_page_boundaries(&clustered, cold, size_of, align, page_size);
    let clustered_order = clustered.iter().chain(cold).copied().collect();
    [
        Cow::Borrowed(first_touch),
        Cow::Owned(clustered_order),
        Cow::Owned(packed),
    ]
}

/// The code candidates as `(CU order, native order)` indices into
/// [`section_orders`]' three CU orders and `[identity, hot/cold split]`:
/// 0 is the paper's ordering, untouched; 1 adds the native-tail hot/cold
/// split; 2 clusters the hot prefix; 3 also packs page boundaries.
const CODE_CANDIDATES: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 1), (2, 1)];

/// Optimizes the placement of CUs (and objects, when `heap` is given)
/// against the fault-cost model: generates the deterministic candidate
/// set — every code candidate paired with every heap order — scores each
/// with [`predict_faults`]' model, and keeps the argmin, ties broken toward
/// the lowest candidate index, so the plan degenerates to plain
/// first-touch order (plus, always, the native-tail hot/cold split when it
/// helps) whenever clustering finds no slack. Candidates are scored by
/// reference; only the chosen one is copied into the plan.
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
    let (ps, window_bytes) = (options.page_size, options.page_size * fault_around_pages);
    let cu_orders = section_orders(
        code.first_touch,
        code.hot,
        |cu: CuId| code.sizes[cu.index()],
        options.cu_align,
        ps,
        window_bytes,
    );
    let tail = options.native_pages();
    let native_orders = [
        identity_native_order(tail),
        split_native_tail(code.native_pages, tail),
    ];
    let object_orders = heap.map(|h| {
        section_orders(
            h.first_touch,
            h.hot,
            |o: ObjId| h.sizes[o.index()],
            options.obj_align,
            ps,
            window_bytes,
        )
    });
    let object_choices: Vec<Option<&[ObjId]>> = match &object_orders {
        None => vec![None],
        Some(orders) => orders.iter().map(|o| Some(&o[..])).collect(),
    };

    let mut scored = CODE_CANDIDATES
        .iter()
        .flat_map(|&(c, n)| object_choices.iter().map(move |&o| (c, n, o)))
        .map(|(c, n, o)| {
            (
                scorer.predict(&cu_orders[c], &native_orders[n], o),
                (c, n, o),
            )
        });
    let first = scored.next().expect("candidate set is never empty");
    let first_touch_faults = first.0;
    let (predicted_faults, (c, n, o)) = scored.fold(first, |best, next| {
        if next.0.total() < best.0.total() {
            next
        } else {
            best
        }
    });

    OrderPlan {
        cu_order: cu_orders[c].to_vec(),
        object_order: o.map(<[ObjId]>::to_vec),
        native_order: native_orders[n].clone(),
        first_touch_faults,
        predicted_faults,
    }
}

/// Predicts the major-fault counts of one placement under the cost model —
/// the same scoring [`optimize_layout`] uses for its candidates, exposed
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
    use proptest::prelude::*;

    /// The rule [`cluster_hot`] implements, written the direct way: every
    /// window-neighbor edge materialised with its weight, sorted by
    /// descending weight (ties: lower endpoints first), then merged
    /// tail → head under the window cap.
    fn cluster_hot_spec(sizes: &[u64], window: u64) -> Vec<usize> {
        let n = sizes.len();
        let mut pos = vec![0u64];
        for &s in sizes {
            pos.push(pos[pos.len() - 1] + s);
        }
        let mut edges = vec![];
        for i in 0..n {
            for j in i + 1..n {
                let dist = pos[j] - pos[i + 1];
                if dist >= window {
                    break;
                }
                edges.push((window - dist, i, j));
            }
        }
        edges.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut chain_of: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for (_, a, b) in edges {
            let (ca, cb) = (chain_of[a], chain_of[b]);
            let bytes = |c: usize| members[c].iter().map(|&m| sizes[m]).sum::<u64>();
            if ca == cb
                || members[ca].last() != Some(&a)
                || members[cb].first() != Some(&b)
                || bytes(ca) + bytes(cb) > window
            {
                continue;
            }
            let moved = std::mem::take(&mut members[cb]);
            for &m in &moved {
                chain_of[m] = ca;
            }
            members[ca].extend(moved);
        }
        let mut chains: Vec<Vec<usize>> = members.into_iter().filter(|m| !m.is_empty()).collect();
        chains.sort_by_key(|m| *m.iter().min().unwrap());
        chains.concat()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy merge is exactly the materialised one: runs of equal
        /// sizes — zero, tiny, larger than any window, whole fractions of
        /// one — give long stretches of tied distances, rejected caps and
        /// chains that fill a window to the byte.
        #[test]
        fn lazy_merge_equals_the_sorted_edge_list(
            runs in proptest::collection::vec(
                (
                    prop_oneof![
                        Just(0u64),
                        1u64..16,
                        1u64..5000,
                        1u64..100_000,
                        // Whole fractions of a window: chains that fill
                        // one exactly.
                        prop_oneof![Just(125u64), Just(512), Just(4096)],
                    ],
                    1usize..24,
                ),
                0..16,
            ),
            window in prop_oneof![Just(1000u64), Just(4096), Just(65536)],
        ) {
            let sizes: Vec<u64> = runs
                .iter()
                .flat_map(|&(size, len)| std::iter::repeat_n(size, len))
                .collect();
            prop_assert_eq!(cluster_hot(&sizes, window), cluster_hot_spec(&sizes, window));
        }
    }

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
        // One hot CU, no native touches: every candidate predicts the same
        // cost, so the tie-break keeps candidate 0 (plain first-touch,
        // identity native order).
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
