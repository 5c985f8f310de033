//! Demand-paging simulator with fault-around/readahead.
//!
//! The binary "is memory-mapped when the program starts, hence each page is
//! lazily copied to memory on the first access" (Sec. 2). The simulator
//! tracks, per image page:
//!
//! * **faulted** — the page's first touch raised a major page fault
//!   (Fig. 6's green cells);
//! * **resident without fault** — the page was mapped in by the kernel's
//!   fault-around/readahead as a side effect of a neighbouring fault
//!   (Fig. 6's red cells);
//! * **untouched** — never mapped (Fig. 6's black cells).
//!
//! Faults are attributed to the section containing the faulting offset, the
//! way the paper extracts per-section fault counts from `perf` (Sec. 7.1).
//! The fault-around window is aligned, like Linux's `fault_around_order`
//! window; packing the hot bytes densely therefore amortizes a single fault
//! over many soon-needed pages — the entire mechanism the paper's ordering
//! strategies exploit.

use nimage_image::{BinaryImage, SectionKind};

/// Dense page bitmap. The simulator consults page residency on every
/// interpreter heap/code touch, so membership must be a bit test, not a
/// hashed probe. Grows on demand for touches past the sized range.
#[derive(Debug, Clone, Default)]
struct PageSet {
    bits: Vec<u64>,
    len: u64,
}

impl PageSet {
    fn with_capacity(pages: u64) -> Self {
        PageSet {
            bits: vec![0; pages.div_ceil(64) as usize],
            len: 0,
        }
    }

    #[inline]
    fn contains(&self, page: u64) -> bool {
        match self.bits.get((page / 64) as usize) {
            Some(w) => w & (1 << (page % 64)) != 0,
            None => false,
        }
    }

    #[inline]
    fn insert(&mut self, page: u64) {
        let word = (page / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1 << (page % 64);
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.len += 1;
        }
    }
}

/// Paging behaviour knobs.
#[derive(Debug, Clone)]
pub struct PagingConfig {
    /// Pages mapped around a fault (aligned window; Linux defaults to 16
    /// with `fault_around_order = 4`). Must be a power of two.
    pub fault_around_pages: u64,
}

/// An invalid [`PagingConfig`]: the fault-around window was not a power of
/// two. The simulator aligns windows by masking, so any other value would
/// silently map wrong page ranges — it is rejected up front instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingConfigError {
    /// The rejected window size.
    pub fault_around_pages: u64,
}

impl std::fmt::Display for PagingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault-around window must be a power of two, got {}",
            self.fault_around_pages
        )
    }
}

impl std::error::Error for PagingConfigError {}

impl PagingConfig {
    /// Validated constructor: rejects a window that is not a power of two
    /// (Linux's `fault_around_order` is an order for the same reason).
    ///
    /// # Errors
    /// Returns [`PagingConfigError`] for a non-power-of-two window.
    pub fn new(fault_around_pages: u64) -> Result<PagingConfig, PagingConfigError> {
        let config = PagingConfig { fault_around_pages };
        config.validate()?;
        Ok(config)
    }

    /// Checks the power-of-two invariant on an already-built config (the
    /// fields are public, so a struct literal can bypass [`Self::new`]).
    ///
    /// # Errors
    /// Returns [`PagingConfigError`] for a non-power-of-two window.
    pub fn validate(&self) -> Result<(), PagingConfigError> {
        if self.fault_around_pages.is_power_of_two() {
            Ok(())
        } else {
            Err(PagingConfigError {
                fault_around_pages: self.fault_around_pages,
            })
        }
    }
}

impl Default for PagingConfig {
    fn default() -> Self {
        PagingConfig {
            fault_around_pages: 16,
        }
    }
}

/// Major page faults per binary section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionFaults {
    /// Faults on `.text` pages.
    pub text: u64,
    /// Faults on `.svm_heap` pages.
    pub svm_heap: u64,
}

impl SectionFaults {
    /// Total faults across both sections.
    pub fn total(&self) -> u64 {
        self.text + self.svm_heap
    }
}

/// State of one image page, for the Fig. 6 visualization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never mapped (black).
    Untouched,
    /// Mapped by fault-around without its own fault (red).
    Resident,
    /// Caused a major fault (green).
    Faulted,
}

/// The demand-paging simulator for one process execution.
#[derive(Debug, Clone)]
pub struct PagingSim {
    config: PagingConfig,
    page_size: u64,
    total_pages: u64,
    resident: PageSet,
    faulted: PageSet,
    faults: SectionFaults,
}

impl PagingSim {
    /// Creates a simulator for an image.
    ///
    /// # Panics
    /// Panics if the fault-around window is not a power of two.
    pub fn new(image: &BinaryImage, config: PagingConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        PagingSim {
            page_size: image.options.page_size,
            total_pages: image.total_pages(),
            config,
            resident: PageSet::with_capacity(image.total_pages()),
            faulted: PageSet::with_capacity(image.total_pages()),
            faults: SectionFaults::default(),
        }
    }

    /// Touches one byte offset; returns `true` if this touch raised a major
    /// fault.
    pub fn touch(&mut self, image: &BinaryImage, offset: u64) -> bool {
        let page = offset / self.page_size;
        if self.resident.contains(page) {
            return false;
        }
        // Major fault: account to the section of the faulting offset.
        self.faulted.insert(page);
        match image.section_of(offset) {
            Some(SectionKind::Text) => self.faults.text += 1,
            Some(SectionKind::SvmHeap) => self.faults.svm_heap += 1,
            None => {}
        }
        // Fault-around: map the aligned window containing the page.
        let window = self.config.fault_around_pages;
        let start = page & !(window - 1);
        for p in start..(start + window).min(self.total_pages) {
            self.resident.insert(p);
        }
        self.resident.insert(page);
        true
    }

    /// Touches every page overlapping `[offset, offset + len)`.
    pub fn touch_range(&mut self, image: &BinaryImage, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut faults = 0;
        if self.touch(image, offset) {
            faults += 1;
        }
        let first = offset / self.page_size + 1;
        let last = (offset + len - 1) / self.page_size;
        for p in first..=last {
            if self.touch(image, p * self.page_size) {
                faults += 1;
            }
        }
        faults
    }

    /// Fault counts so far.
    pub fn faults(&self) -> SectionFaults {
        self.faults
    }

    /// The per-page state of the page range `[first, first + count)`.
    pub fn page_states(&self, first: u64, count: u64) -> Vec<PageState> {
        (first..first + count)
            .map(|p| {
                if self.faulted.contains(p) {
                    PageState::Faulted
                } else if self.resident.contains(p) {
                    PageState::Resident
                } else {
                    PageState::Untouched
                }
            })
            .collect()
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
    use nimage_image::ImageOptions;
    use nimage_ir::{ProgramBuilder, TypeRef};

    fn tiny_image() -> BinaryImage {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("t.Main", None);
        let fld = pb.add_static_field(c, "A", TypeRef::array_of(TypeRef::Int));
        let cl = pb.declare_clinit(c);
        let mut f = pb.body(cl);
        let n = f.iconst(4096);
        let a = f.new_array(TypeRef::Int, n);
        f.put_static(fld, a);
        f.ret(None);
        pb.finish_body(cl, f);
        let main = pb.declare_static(c, "main", &[], Some(TypeRef::Int));
        let mut f = pb.body(main);
        let a = f.get_static(fld);
        let z = f.iconst(0);
        let v = f.array_get(a, z);
        f.ret(Some(v));
        pb.finish_body(main, f);
        pb.set_entry(main);
        let p = pb.build().unwrap();
        let reach = analyze(&p, &AnalysisConfig::default());
        let cp = compile(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            reach,
            &InlineConfig::default(),
            InstrumentConfig::NONE,
            None,
        );
        let snap = snapshot(
            &ProgramIndex::new(&p, DEFAULT_MAX_PATHS),
            &cp,
            &HeapBuildConfig::default(),
        )
        .unwrap();
        BinaryImage::build(&cp, &snap, None, None, ImageOptions::default())
    }

    #[test]
    fn config_rejects_non_power_of_two_window() {
        for bad in [0, 3, 6, 15, 17] {
            let err = PagingConfig::new(bad).unwrap_err();
            assert_eq!(err.fault_around_pages, bad);
            assert!(err.to_string().contains("power of two"));
        }
        for good in [1, 2, 16, 64] {
            assert_eq!(PagingConfig::new(good).unwrap().fault_around_pages, good);
        }
        // A struct literal bypasses `new`; `validate` catches it.
        let literal = PagingConfig {
            fault_around_pages: 12,
        };
        assert!(literal.validate().is_err());
        assert!(PagingConfig::default().validate().is_ok());
    }

    #[test]
    fn first_touch_faults_second_does_not() {
        let img = tiny_image();
        let mut sim = PagingSim::new(&img, PagingConfig::default());
        assert!(sim.touch(&img, 0));
        assert!(!sim.touch(&img, 0));
        assert_eq!(sim.faults().text, 1);
    }

    #[test]
    fn fault_around_maps_neighbours_without_faults() {
        let img = tiny_image();
        let mut sim = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 16,
            },
        );
        sim.touch(&img, 0);
        // Pages 1..16 are resident without their own fault.
        assert!(!sim.touch(&img, img.options.page_size * 5));
        assert_eq!(sim.faults().total(), 1);
        let states = sim.page_states(0, 16);
        assert_eq!(states[0], PageState::Faulted);
        assert!(states[1..].iter().all(|&s| s == PageState::Resident));
    }

    #[test]
    fn window_is_aligned_not_centered() {
        let img = tiny_image();
        let mut sim = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 16,
            },
        );
        // Fault at page 17 → window [16, 32).
        sim.touch(&img, img.options.page_size * 17);
        let states = sim.page_states(0, 32);
        assert_eq!(states[15], PageState::Untouched);
        assert_eq!(states[16], PageState::Resident);
        assert_eq!(states[17], PageState::Faulted);
        assert_eq!(states[31], PageState::Resident);
    }

    #[test]
    fn faults_attributed_to_sections() {
        let img = tiny_image();
        let mut sim = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 1,
            },
        );
        sim.touch(&img, img.text.offset);
        sim.touch(&img, img.svm_heap.offset);
        let f = sim.faults();
        assert_eq!(f.text, 1);
        assert_eq!(f.svm_heap, 1);
        assert_eq!(f.total(), 2);
    }

    #[test]
    fn scattered_touches_fault_more_than_dense_ones() {
        let img = tiny_image();
        let ps = img.options.page_size;
        // Dense: 32 consecutive pages.
        let mut dense = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 16,
            },
        );
        for p in 0..32 {
            dense.touch(&img, p * ps);
        }
        // Scattered: 32 pages spread with a stride of 16 pages.
        let mut scattered = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 16,
            },
        );
        let span = img.total_pages();
        for i in 0..32u64 {
            scattered.touch(&img, ((i * 16) % span) * ps);
        }
        assert!(dense.faults().total() < scattered.faults().total());
    }

    #[test]
    fn touch_range_covers_every_page() {
        let img = tiny_image();
        let ps = img.options.page_size;
        let mut sim = PagingSim::new(
            &img,
            PagingConfig {
                fault_around_pages: 1,
            },
        );
        sim.touch_range(&img, ps / 2, 3 * ps);
        // Range spans pages 0..=3.
        let states = sim.page_states(0, 4);
        assert!(states.iter().all(|&s| s == PageState::Faulted));
    }
}
