//! The layout optimizer's fault predictor, checked against the image and
//! the paging simulator it models. Each random layout is built the way the
//! pipeline builds images (`Pipeline::layout_stage`), then the predictor's
//! own touch model is fed to the simulator: every hot CU's full extent,
//! every hot native page through the tail permutation, and every hot
//! object's clamped measured spans (its full extent when it has none). The
//! simulator's fault counts must equal `predict_faults`' per section.
//!
//! Each section gets its own simulator, as the predictor counts each
//! section's windows on their own. `.svm_heap` starts page-aligned but not
//! window-aligned, so in one shared simulator `.text`'s last fault-around
//! window can already have mapped the heap's first pages.
//!
//! Shared by `crates/core/tests/predictor_matches_simulator.rs` and the
//! root package's smoke test of the same name.

use nimage_compiler::{CuId, InstrumentConfig};
use nimage_core::{BuildOptions, LayoutOrders, Pipeline};
use nimage_heap::ObjId;
use nimage_image::optimize::{predict_faults, CodeInput, HeapInput};
use nimage_ir::Program;
use nimage_vm::{PagingConfig, PagingSim};

/// One xorshift64 step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `v` shuffled by a Fisher–Yates driven from `state`.
fn shuffled<T>(mut v: Vec<T>, state: &mut u64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, (next(state) % (i as u64 + 1)) as usize);
    }
    v
}

/// A random prefix length of a sequence of `n`.
fn prefix(n: usize, state: &mut u64) -> usize {
    (next(state) % (n as u64 + 1)) as usize
}

/// Checks `layouts` random layouts of `program`'s uninstrumented build,
/// cycling the fault-around window through 1, 2, 16 and 64 pages.
pub fn check_random_layouts(name: &str, program: &Program, layouts: u64) {
    let built = Pipeline::new(program, BuildOptions::default())
        .build_instrumented(InstrumentConfig::NONE)
        .unwrap();
    let (compiled, snap) = (&built.compiled, &built.snapshot);
    let mut cu_sizes = vec![0u64; compiled.cus.len()];
    for cu in &compiled.cus {
        cu_sizes[cu.id.index()] = u64::from(cu.size);
    }
    let n_objs = snap.entries().iter().map(|e| e.obj.index() + 1).max();
    let mut obj_sizes = vec![0u64; n_objs.unwrap_or(0)];
    for e in snap.entries() {
        obj_sizes[e.obj.index()] = u64::from(e.size);
    }

    for layout in 0..layouts {
        let window = [1, 2, 16, 64][(layout % 4) as usize];
        let opts = BuildOptions {
            verify: false,
            ..BuildOptions::default()
        };
        let paging = PagingConfig::new(window).unwrap();
        let (ps, tail) = (opts.image.page_size, opts.image.native_pages());
        let mut state = (layout + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);

        // Placement: random CU, object and native-tail permutations.
        let cu_ids: Vec<CuId> = compiled.cus.iter().map(|c| c.id).collect();
        let cu_order = shuffled(cu_ids.clone(), &mut state);
        let obj_ids: Vec<ObjId> = snap.entries().iter().map(|e| e.obj).collect();
        let object_order = shuffled(obj_ids.clone(), &mut state);
        let native_order = shuffled((0..tail as u32).collect(), &mut state);

        // Touch model: random hot prefixes of independent first-touch
        // orders, native pages with repeats and out-of-range entries, and
        // spans that may overrun the object (the predictor clamps them).
        let cu_first = shuffled(cu_ids, &mut state);
        let cu_hot = prefix(cu_first.len(), &mut state);
        let native_pages: Vec<u32> = (0..prefix(12, &mut state))
            .map(|_| (next(&mut state) % (tail + 8)) as u32)
            .collect();
        let obj_first = shuffled(obj_ids, &mut state);
        let obj_hot = prefix(obj_first.len(), &mut state);
        let mut spans = vec![Vec::new(); obj_sizes.len()];
        for &obj in &obj_first[..obj_hot] {
            let reach = obj_sizes[obj.index()] + 16;
            spans[obj.index()] = (0..next(&mut state) % 4)
                .map(|_| {
                    let s = next(&mut state) % reach;
                    (s, s + 1 + next(&mut state) % reach)
                })
                .collect();
        }

        let code = CodeInput {
            first_touch: &cu_first,
            hot: cu_hot,
            sizes: &cu_sizes,
            native_pages: &native_pages,
        };
        let heap = HeapInput {
            first_touch: &obj_first,
            hot: obj_hot,
            sizes: &obj_sizes,
            spans: &spans,
        };
        let predicted = predict_faults(
            &code,
            Some(&heap),
            &cu_order,
            Some(&object_order),
            Some(&native_order),
            &opts.image,
            window,
        );

        let image = Pipeline::new(program, opts.clone())
            .layout_stage(
                compiled,
                snap,
                LayoutOrders {
                    cu_order: Some(cu_order),
                    object_order: Some(object_order),
                    native_order: Some(native_order),
                    predicted: None,
                },
                None,
            )
            .unwrap();
        let mut text = PagingSim::new(&image, paging.clone());
        for &cu in &cu_first[..cu_hot] {
            text.touch_range(&image, image.cu_offset(cu), cu_sizes[cu.index()]);
        }
        for &page in native_pages.iter().filter(|&&p| u64::from(p) < tail) {
            let logical = image.native_start + u64::from(page) * ps;
            text.touch(&image, image.map_native_offset(logical));
        }
        let mut heap_sim = PagingSim::new(&image, paging);
        for &obj in &obj_first[..obj_hot] {
            let base = image.object_offset(obj).unwrap();
            let size = obj_sizes[obj.index()];
            match spans[obj.index()].as_slice() {
                [] => {
                    heap_sim.touch_range(&image, base, size);
                }
                measured => {
                    for &(s, e) in measured {
                        let e = e.min(size);
                        if s < e {
                            heap_sim.touch_range(&image, base + s, e - s);
                        }
                    }
                }
            }
        }

        let (text, heap) = (text.faults(), heap_sim.faults());
        assert_eq!(
            (text.svm_heap, heap.text),
            (0, 0),
            "{name} layout {layout}: a touch left its section"
        );
        assert_eq!(
            (text.text, heap.svm_heap),
            (predicted.text, predicted.heap),
            "{name} layout {layout} (window {window}): simulator (text, heap) vs predictor"
        );
    }
}
