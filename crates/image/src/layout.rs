//! Section layout of the binary image.

use nimage_compiler::{CompiledProgram, CuId};
use nimage_heap::{HeapSnapshot, ObjId};

/// Sentinel for "object not in the image" in the dense offset table.
const NO_OFFSET: u64 = u64::MAX;

/// Layout options.
#[derive(Debug, Clone)]
pub struct ImageOptions {
    /// Page size in bytes (the paper evaluates with 4 KiB pages).
    pub page_size: u64,
    /// Alignment of compilation units within `.text`.
    pub cu_align: u64,
    /// Alignment of objects within `.svm_heap`.
    pub obj_align: u64,
    /// Size of the native-code tail at the end of `.text` (statically
    /// linked native methods, not reordered — Fig. 6 / Appendix A).
    pub native_tail: u64,
}

impl Default for ImageOptions {
    fn default() -> Self {
        ImageOptions {
            page_size: 4096,
            cu_align: 16,
            obj_align: 8,
            native_tail: 768 * 1024,
        }
    }
}

impl ImageOptions {
    /// Number of pages in the native tail.
    pub fn native_pages(&self) -> u64 {
        self.native_tail / self.page_size
    }

    /// Where the native tail starts when the last CU ends at `cu_end`: the
    /// next page boundary, because the linker places the statically linked
    /// libraries in their own page-aligned region.
    pub(crate) fn native_start(&self, cu_end: u64) -> u64 {
        align_up(cu_end, self.page_size)
    }

    /// Where `.svm_heap` starts: the first page boundary after the native
    /// tail that begins at `native_start`.
    pub(crate) fn heap_start(&self, native_start: u64) -> u64 {
        align_up(native_start + self.native_tail, self.page_size)
    }
}

/// The placement rule of both sections: entities go one after another,
/// each at the next multiple of the section's alignment. The image builder
/// and the layout optimizer's fault predictor both place bytes through it,
/// so a predicted layout is the built one by construction.
#[derive(Debug)]
pub(crate) struct LayoutCursor {
    end: u64,
    align: u64,
}

impl LayoutCursor {
    /// A cursor at `start` placing at multiples of `align` (a power of two).
    pub(crate) fn new(start: u64, align: u64) -> LayoutCursor {
        LayoutCursor { end: start, align }
    }

    /// The offset the next entity would be placed at.
    pub(crate) fn next(&self) -> u64 {
        align_up(self.end, self.align)
    }

    /// Places an entity of `size` bytes and returns its offset.
    pub(crate) fn place(&mut self, size: u64) -> u64 {
        let at = self.next();
        self.end = at + size;
        at
    }

    /// The end of the last placed entity.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }
}

/// Which section an offset belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Compiled code (`.text`), including the native tail.
    Text,
    /// The heap snapshot (`.svm_heap`).
    SvmHeap,
}

/// A contiguous byte range of the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Absolute start offset.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

impl SectionSpan {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.size
    }

    /// Whether the span contains `offset`.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.offset && offset < self.end()
    }
}

/// A laid-out binary image.
#[derive(Debug, Clone)]
pub struct BinaryImage {
    /// Layout options used.
    pub options: ImageOptions,
    /// The `.text` span (offset 0).
    pub text: SectionSpan,
    /// The `.svm_heap` span (page-aligned after `.text`).
    pub svm_heap: SectionSpan,
    /// CU layout order.
    pub cu_order: Vec<CuId>,
    /// Absolute offset of each CU, indexed densely by [`CuId::index`].
    /// The interpreter touches code on every call, so the lookup must be
    /// an array read, not a map walk.
    cu_offsets: Vec<u64>,
    /// Object layout order (snapshot entries).
    pub object_order: Vec<ObjId>,
    /// Absolute offset of each object, indexed densely by
    /// [`ObjId::index`]; [`NO_OFFSET`] marks objects absent from the
    /// image (e.g. PEA-folded). Heap accesses hit this on every step.
    object_offsets: Vec<u64>,
    /// Total image size in bytes.
    pub total_size: u64,
    /// Absolute offset where the native tail begins (page-aligned).
    pub native_start: u64,
    /// Optional permutation of the native tail's pages (the paper's stated
    /// future work: reordering statically linked native methods). Entry `i`
    /// is the physical page (within the tail) where logical page `i` now
    /// lives.
    native_page_order: Option<Vec<u32>>,
}

pub(crate) fn align_up(v: u64, a: u64) -> u64 {
    debug_assert!(a.is_power_of_two());
    (v + a - 1) & !(a - 1)
}

impl BinaryImage {
    /// Lays out an image.
    ///
    /// `cu_order` / `object_order` default to the build's own orders (the
    /// paper's baseline: alphabetical CUs, objects in CU order). Orders must
    /// be permutations of the full CU / snapshot-entry sets.
    ///
    /// # Panics
    /// Panics if a provided order is not a permutation of the build's CUs or
    /// snapshot objects.
    pub fn build(
        compiled: &CompiledProgram,
        snapshot: &HeapSnapshot,
        cu_order: Option<Vec<CuId>>,
        object_order: Option<Vec<ObjId>>,
        options: ImageOptions,
    ) -> BinaryImage {
        let cu_order = cu_order.unwrap_or_else(|| compiled.cus.iter().map(|c| c.id).collect());
        assert_eq!(
            cu_order.len(),
            compiled.cus.len(),
            "cu order must cover every CU exactly once"
        );
        {
            let mut seen = vec![false; compiled.cus.len()];
            for &c in &cu_order {
                assert!(!seen[c.index()], "duplicate CU {c} in order");
                seen[c.index()] = true;
            }
        }
        let object_order =
            object_order.unwrap_or_else(|| snapshot.entries().iter().map(|e| e.obj).collect());
        assert_eq!(
            object_order.len(),
            snapshot.entries().len(),
            "object order must cover every snapshot entry exactly once"
        );

        let mut cu_offsets = vec![NO_OFFSET; compiled.cus.len()];
        let mut cursor = LayoutCursor::new(0, options.cu_align);
        for &cu in &cu_order {
            cu_offsets[cu.index()] = cursor.place(u64::from(compiled.cu(cu).size));
        }
        let native_start = options.native_start(cursor.end());
        let text = SectionSpan {
            offset: 0,
            size: native_start + options.native_tail,
        };

        let heap_start = options.heap_start(native_start);
        let n_objs = object_order
            .iter()
            .map(|o| o.index() + 1)
            .max()
            .unwrap_or(0);
        let mut object_offsets = vec![NO_OFFSET; n_objs];
        let mut cursor = LayoutCursor::new(heap_start, options.obj_align);
        for &obj in &object_order {
            let entry = snapshot
                .entry(obj)
                .unwrap_or_else(|| panic!("object {obj} not in snapshot"));
            object_offsets[obj.index()] = cursor.place(u64::from(entry.size));
        }
        let svm_heap = SectionSpan {
            offset: heap_start,
            size: cursor.end() - heap_start,
        };

        // Construction-site mirror of the invariants nimage-verify's layout
        // checker enforces on the finished image.
        debug_assert_eq!(native_start % options.page_size, 0);
        debug_assert_eq!(svm_heap.offset % options.page_size, 0);
        debug_assert!(svm_heap.offset >= text.end(), "sections overlap");
        debug_assert!(
            cu_order.iter().all(
                |&cu| cu_offsets[cu.index()] + u64::from(compiled.cu(cu).size) <= native_start
            ),
            "a CU placement reaches into the native tail"
        );
        debug_assert!(
            object_order
                .iter()
                .all(|&o| object_offsets[o.index()] >= heap_start),
            "an object placement falls outside the heap section"
        );

        BinaryImage {
            total_size: svm_heap.end(),
            options,
            text,
            svm_heap,
            cu_order,
            cu_offsets,
            object_order,
            object_offsets,
            native_start,
            native_page_order: None,
        }
    }

    /// Number of pages in the native tail ([`ImageOptions::native_pages`]).
    pub fn native_pages(&self) -> u64 {
        self.options.native_pages()
    }

    /// Applies a permutation to the native tail's pages — the paper's
    /// Appendix A future work ("we do not profile and hence reorder native
    /// methods…; we consider reordering these methods part of our future
    /// work"). `order[i]` gives the new physical page (within the tail) of
    /// logical page `i`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..native_pages()`.
    pub fn set_native_page_order(&mut self, order: Vec<u32>) {
        let n = self.native_pages() as usize;
        assert_eq!(order.len(), n, "native order must cover the whole tail");
        let mut seen = vec![false; n];
        for &p in &order {
            assert!(
                (p as usize) < n && !seen[p as usize],
                "native order must be a permutation"
            );
            seen[p as usize] = true;
        }
        self.native_page_order = Some(order);
    }

    /// Maps an absolute offset through the native-tail page permutation.
    /// Offsets outside the tail are returned unchanged.
    pub fn map_native_offset(&self, offset: u64) -> u64 {
        let Some(order) = &self.native_page_order else {
            return offset;
        };
        if offset < self.native_start || offset >= self.text.size {
            return offset;
        }
        let ps = self.options.page_size;
        let rel = offset - self.native_start;
        let page = (rel / ps) as usize;
        let within = rel % ps;
        self.native_start + u64::from(order[page]) * ps + within
    }

    /// Absolute offset of a CU.
    ///
    /// # Panics
    /// Panics if the CU is not part of the image.
    pub fn cu_offset(&self, cu: CuId) -> u64 {
        let off = self.cu_offsets[cu.index()];
        assert_ne!(off, NO_OFFSET, "CU {cu} is not part of the image");
        off
    }

    /// Absolute offset of a snapshot object, or `None` if the object is not
    /// in the image (e.g. PEA-folded).
    #[inline]
    pub fn object_offset(&self, obj: ObjId) -> Option<u64> {
        match self.object_offsets.get(obj.index()) {
            Some(&off) if off != NO_OFFSET => Some(off),
            _ => None,
        }
    }

    /// The section containing an absolute offset.
    pub fn section_of(&self, offset: u64) -> Option<SectionKind> {
        if self.text.contains(offset) {
            Some(SectionKind::Text)
        } else if self.svm_heap.contains(offset) {
            Some(SectionKind::SvmHeap)
        } else {
            None
        }
    }

    /// Page index of an absolute offset.
    pub fn page_of(&self, offset: u64) -> u64 {
        offset / self.options.page_size
    }

    /// Number of pages spanned by the whole image.
    pub fn total_pages(&self) -> u64 {
        self.total_size.div_ceil(self.options.page_size)
    }

    /// Number of pages of the `.text` section.
    pub fn text_pages(&self) -> u64 {
        self.text.size.div_ceil(self.options.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimage_analysis::{analyze, AnalysisConfig};
    use nimage_compiler::{
        compile, InlineConfig, InstrumentConfig, ProgramIndex, DEFAULT_MAX_PATHS,
    };
    use nimage_heap::{snapshot, HeapBuildConfig};
    use nimage_ir::{Program, ProgramBuilder, TypeRef};

    fn demo_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let fld = pb.add_static_field(c, "DATA", TypeRef::array_of(TypeRef::Int));
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let n = f.iconst(100);
        let arr = f.new_array(TypeRef::Int, n);
        f.put_static(fld, arr);
        f.ret(None);
        pb.finish_body(cl, f);

        // Several CUs: one big method per letter so alphabetical order is
        // observable.
        let mut mains = vec![];
        for name in ["aa", "bb", "cc"] {
            let m = pb.declare_static(c, name, &[], Some(TypeRef::Int));
            let mut f = pb.body(m);
            let mut v = f.iconst(0);
            for _ in 0..60 {
                let one = f.iconst(1);
                v = f.add(v, one);
            }
            f.ret(Some(v));
            pb.finish_body(m, f);
            mains.push(m);
        }
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let arr = f.get_static(fld);
        let zero = f.iconst(0);
        let v0 = f.array_get(arr, zero);
        let mut acc = v0;
        for &m in &mains {
            let v = f.call_static(m, &[], true).unwrap();
            acc = f.add(acc, v);
        }
        f.ret(Some(acc));
        pb.finish_body(main, f);
        pb.set_entry(main);
        pb.build().unwrap()
    }

    fn build_all(p: &Program) -> (nimage_compiler::CompiledProgram, nimage_heap::HeapSnapshot) {
        let reach = analyze(p, &AnalysisConfig::default());
        let cp = compile(
            &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(
            &ProgramIndex::new(p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        (cp, snap)
    }

    #[test]
    fn sections_are_disjoint_and_page_aligned() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        assert_eq!(img.text.offset, 0);
        assert_eq!(img.svm_heap.offset % img.options.page_size, 0);
        assert!(img.svm_heap.offset >= img.text.end());
        assert_eq!(img.total_size, img.svm_heap.end());
    }

    #[test]
    fn cu_offsets_respect_order_and_alignment() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        let mut prev_end = 0;
        for &cu in &img.cu_order {
            let off = img.cu_offset(cu);
            assert_eq!(off % img.options.cu_align, 0);
            assert!(off >= prev_end);
            prev_end = off + u64::from(cp.cu(cu).size);
        }
        // Native tail sits after the last CU.
        assert!(img.text.size >= prev_end + img.options.native_tail);
    }

    #[test]
    fn custom_cu_order_changes_offsets() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        let default = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        let mut reversed: Vec<CuId> = cp.cus.iter().map(|c| c.id).collect();
        reversed.reverse();
        let img = BinaryImage::build(
            &cp,
            &snap,
            Some(reversed.clone()),
            None,
            ImageOptions::default(),
        );
        assert_eq!(img.cu_order, reversed);
        if cp.cus.len() > 1 {
            assert_ne!(default.cu_offset(cp.cus[0].id), img.cu_offset(cp.cus[0].id));
        }
        // Section sizes agree modulo alignment padding.
        let align = ImageOptions::default().cu_align * cp.cus.len() as u64;
        assert!(default.text.size.abs_diff(img.text.size) <= align);
    }

    #[test]
    #[should_panic(expected = "must cover every CU")]
    fn partial_cu_order_is_rejected() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        BinaryImage::build(&cp, &snap, Some(vec![]), None, ImageOptions::default());
    }

    #[test]
    fn section_of_and_pages() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        assert_eq!(img.section_of(0), Some(SectionKind::Text));
        assert_eq!(
            img.section_of(img.svm_heap.offset),
            Some(SectionKind::SvmHeap)
        );
        assert_eq!(img.section_of(img.total_size), None);
        assert_eq!(img.page_of(0), 0);
        assert_eq!(img.page_of(img.options.page_size), 1);
        assert!(img.total_pages() >= img.text_pages());
    }

    #[test]
    fn object_offsets_follow_object_order() {
        let p = demo_program();
        let (cp, snap) = build_all(&p);
        let img = BinaryImage::build(&cp, &snap, None, None, ImageOptions::default());
        let mut prev = img.svm_heap.offset;
        for &o in &img.object_order {
            let off = img.object_offset(o).unwrap();
            assert!(off >= prev);
            assert_eq!(off % img.options.obj_align, 0);
            prev = off;
        }
    }
}
