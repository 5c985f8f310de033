//! Execution separated from paging: the first-touch access log.
//!
//! A layout decides only *where* an image's bytes sit, never what a run
//! executes — so which bytes a run touches, and in which order, is a
//! property of the build alone. The interpreter therefore does not page
//! anything while it runs. It appends the *first* touch of every
//! layout-independent key to an [`AccessLog`]:
//!
//! * the code bytes of one inline node of one compilation unit — a
//!   `(CU, node)` pair;
//! * one byte of one snapshot object — a `(object, byte offset)` pair;
//! * one logical page of the native tail.
//!
//! plus the log position at the first `respond`. Paging is a replay of that
//! log against one image, after the run: the demand-paging simulator
//! sees the first touches in execution order and produces the fault counts,
//! the faults at the first response, the per-page states and the
//! `page-fault` trace instants. Every report — [`crate::Vm::run`]'s,
//! [`crate::Vm::run_reference`]'s and [`relayout`]'s — is paged by this one
//! function.
//!
//! The replay is exact by construction. Residency only grows, so a repeat
//! of an already-touched key lands on a page that is resident in *every*
//! layout and can never fault; dropping repeats changes nothing. A key maps
//! to the same bytes on every image of one build, and whether an object is
//! in the image at all is a property of the snapshot, not of the order.
//! Hence one interpretation per build serves every layout of it:
//! [`relayout`] re-pages a run's log against another image and returns the
//! report a re-execution on that image would have produced.

use nimage_compiler::{CompiledProgram, CuId};
use nimage_heap::{HObjectKind, HeapSnapshot, ObjId};
use nimage_image::{BinaryImage, ImageOptions};
use nimage_trace::Tracer;

use crate::exec::VmError;
use crate::paging::{PagingConfig, PagingSim};
use crate::report::RunReport;

/// One layout-independent key a run touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The code bytes of inline node `node` of compilation unit `cu`.
    Code {
        /// Compilation-unit index.
        cu: u32,
        /// Inline-node index within the CU.
        node: u32,
    },
    /// Byte `offset` of snapshot object `obj`.
    Object {
        /// Snapshot object index.
        obj: u32,
        /// Byte offset from the object's start.
        offset: u64,
    },
    /// Logical page `page` of the native tail (before any tail
    /// permutation).
    Native {
        /// Page index from the start of the tail.
        page: u32,
    },
}

/// The first touch of every key in execution order, plus the log position
/// of the first `respond` intrinsic. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLog {
    touches: Vec<Touch>,
    respond_at: Option<usize>,
}

impl AccessLog {
    /// Reassembles a log from its parts; `None` when `respond_at` points
    /// past the end of `touches`.
    pub fn from_parts(touches: Vec<Touch>, respond_at: Option<usize>) -> Option<AccessLog> {
        respond_at
            .is_none_or(|at| at <= touches.len())
            .then_some(AccessLog {
                touches,
                respond_at,
            })
    }

    /// The logged first touches, in execution order.
    pub fn touches(&self) -> &[Touch] {
        &self.touches
    }

    /// How many touches preceded the first response (`None`: no response).
    pub fn respond_at(&self) -> Option<usize> {
        self.respond_at
    }

    /// Whether this log can page `report`'s run on any image of the build
    /// `(compiled, snapshot)` laid out under `options`: every CU, node,
    /// object and native page in range, and a response position exactly
    /// when the report has a first response. A decoded log that fails
    /// this must be recomputed — [`relayout`] indexes without checks.
    pub fn fits(
        &self,
        report: &RunReport,
        compiled: &CompiledProgram,
        snapshot: &HeapSnapshot,
        options: &ImageOptions,
    ) -> bool {
        let native_pages = tail_pages(options);
        report.first_response.is_some() == self.respond_at.is_some()
            && self.touches.iter().all(|t| match *t {
                Touch::Code { cu, node } => compiled
                    .cus
                    .get(cu as usize)
                    .is_some_and(|c| (node as usize) < c.nodes.len()),
                Touch::Object { obj, .. } => snapshot.entry(ObjId(obj)).is_some(),
                Touch::Native { page } => u64::from(page) < native_pages,
            })
    }

    /// Pages the log against `image` — a fresh paging simulator fed the
    /// first touches in order, one `page-fault` instant per major fault
    /// into `trace` — and writes every paging-dependent field of `report`:
    /// fault counts, the faults at the first response and both sections'
    /// page states.
    pub(crate) fn page_into(
        &self,
        report: &mut RunReport,
        compiled: &CompiledProgram,
        image: &BinaryImage,
        paging: &PagingConfig,
        trace: &Tracer,
    ) {
        let mut sim = PagingSim::new(image, paging.clone());
        let (before, after) = self
            .touches
            .split_at(self.respond_at.unwrap_or(self.touches.len()));
        replay(before, &mut sim, compiled, image, trace);
        if let Some(rp) = report.first_response.as_mut() {
            rp.faults = sim.faults();
        }
        replay(after, &mut sim, compiled, image, trace);
        let ps = image.options.page_size;
        report.faults = sim.faults();
        report.text_page_states = sim.page_states(image.text.offset / ps, image.text_pages());
        report.heap_page_states =
            sim.page_states(image.svm_heap.offset / ps, image.svm_heap.size.div_ceil(ps));
    }
}

/// Feeds `touches` to `sim` in order, at their offsets in `image`.
fn replay(
    touches: &[Touch],
    sim: &mut PagingSim,
    compiled: &CompiledProgram,
    image: &BinaryImage,
    trace: &Tracer,
) {
    for t in touches {
        let (section, faults) = match *t {
            Touch::Code { cu, node } => {
                let n = &compiled.cu(CuId(cu)).nodes[node as usize];
                let off = image.cu_offset(CuId(cu)) + u64::from(n.offset);
                (
                    ".text",
                    sim.touch_range(image, off, u64::from(n.size.max(1))),
                )
            }
            Touch::Object { obj, offset } => match image.object_offset(ObjId(obj)) {
                Some(base) => (".svm_heap", u64::from(sim.touch(image, base + offset))),
                None => continue,
            },
            Touch::Native { page } => {
                let logical = image.native_start + u64::from(page) * image.options.page_size;
                let off = image.map_native_offset(logical);
                (".text", u64::from(sim.touch(image, off)))
            }
        };
        // One branch when disabled; faults are rare next to touches.
        if faults > 0 && trace.is_enabled() {
            for _ in 0..faults {
                trace.instant("page-fault", || format!("section={section}"));
            }
        }
    }
}

/// The report a run of the same build would produce on `image`, from the
/// report and log of one run on any other image of that build — the
/// execution is reused, only the paging is redone (see the module docs for
/// why this is exact). `log` must [`AccessLog::fits`] the build.
///
/// # Errors
/// [`VmError::Config`] when the fault-around window of `paging` is not a
/// power of two.
///
/// # Panics
/// Panics if `log` does not fit `compiled` / `image`.
pub fn relayout(
    report: &RunReport,
    log: &AccessLog,
    compiled: &CompiledProgram,
    image: &BinaryImage,
    paging: &PagingConfig,
    trace: &Tracer,
) -> Result<RunReport, VmError> {
    paging.validate()?;
    let mut out = report.clone();
    log.page_into(&mut out, compiled, image, paging, trace);
    Ok(out)
}

/// Pages the interpreter addresses in the native tail: every native
/// touch lands on a logical page below this (at least one, so a layout
/// without a tail still has a page to touch).
pub(crate) fn tail_pages(options: &ImageOptions) -> u64 {
    (options.native_tail / options.page_size).max(1)
}

/// Dense test-and-set bitset.
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: u64) -> Bits {
        Bits(vec![0; len.div_ceil(64) as usize])
    }

    /// Sets bit `i`; `true` when it was clear.
    #[inline]
    fn first(&mut self, i: u64) -> bool {
        let (word, mask) = ((i / 64) as usize, 1 << (i % 64));
        let fresh = self.0[word] & mask == 0;
        self.0[word] |= mask;
        fresh
    }
}

/// Where one snapshot object's bits start in [`FirstTouches::objects`],
/// and how many byte offsets they cover.
#[derive(Clone, Copy)]
struct ObjSlot {
    base: u64,
    extent: u64,
}

/// Marks build-heap objects that are not in the snapshot.
const NOT_IN_IMAGE: ObjSlot = ObjSlot {
    base: u64::MAX,
    extent: 0,
};

/// The interpreter's recorder: deduplicates touches per key with dense
/// bitsets (one bit per `(CU, node)`, per byte offset of every snapshot
/// object, per native-tail page) and appends each first touch to the log.
pub(crate) struct FirstTouches {
    log: AccessLog,
    /// First node bit of each CU, by CU index.
    node_base: Vec<u64>,
    code: Bits,
    /// Per build-heap object index.
    slots: Vec<ObjSlot>,
    objects: Bits,
    native: Bits,
}

impl FirstTouches {
    pub(crate) fn new(
        compiled: &CompiledProgram,
        snapshot: &HeapSnapshot,
        options: &ImageOptions,
    ) -> FirstTouches {
        let mut node_base = Vec::with_capacity(compiled.cus.len());
        let mut nodes = 0u64;
        for cu in &compiled.cus {
            node_base.push(nodes);
            nodes += cu.nodes.len() as u64;
        }
        let heap = snapshot.heap();
        let mut slots = vec![NOT_IN_IMAGE; heap.len()];
        let mut bytes = 0u64;
        for e in snapshot.entries() {
            // The interpreter addresses array elements at 8-byte strides
            // whatever the element size, so a bool array's touchable range
            // exceeds its image size.
            let extent = match &heap.get(e.obj).kind {
                HObjectKind::Array { elems, .. } => {
                    u64::from(e.size).max(24 + 8 * elems.len() as u64)
                }
                _ => u64::from(e.size),
            };
            if let Some(slot) = slots.get_mut(e.obj.index()) {
                *slot = ObjSlot {
                    base: bytes,
                    extent,
                };
                bytes += extent;
            }
        }
        FirstTouches {
            log: AccessLog::default(),
            node_base,
            code: Bits::new(nodes),
            slots,
            objects: Bits::new(bytes),
            native: Bits::new(tail_pages(options)),
        }
    }

    /// A touch of inline node `node` of `cu`'s code.
    #[inline]
    pub(crate) fn code(&mut self, cu: CuId, node: u32) {
        if self
            .code
            .first(self.node_base[cu.index()] + u64::from(node))
        {
            self.log.touches.push(Touch::Code { cu: cu.0, node });
        }
    }

    /// A touch of byte `offset` of build-heap object `obj`; returns whether
    /// the object is in the image. An offset outside the object's extent
    /// is logged without deduplication (a repeat replays as a no-op).
    #[inline]
    pub(crate) fn object(&mut self, obj: ObjId, offset: u64) -> bool {
        let slot = self.slots.get(obj.index()).copied().unwrap_or(NOT_IN_IMAGE);
        if slot.base == NOT_IN_IMAGE.base {
            return false;
        }
        if offset >= slot.extent || self.objects.first(slot.base + offset) {
            self.log.touches.push(Touch::Object { obj: obj.0, offset });
        }
        true
    }

    /// A touch of logical native-tail page `page` (always below the tail's
    /// page count); returns whether it is the page's first.
    #[inline]
    pub(crate) fn native(&mut self, page: u32) -> bool {
        let fresh = self.native.first(u64::from(page));
        if fresh {
            self.log.touches.push(Touch::Native { page });
        }
        fresh
    }

    /// Marks the first response at the current log position (called once,
    /// at the run's first `respond`).
    pub(crate) fn respond(&mut self) {
        self.log.respond_at = Some(self.log.touches.len());
    }

    pub(crate) fn into_log(self) -> AccessLog {
        self.log
    }
}
