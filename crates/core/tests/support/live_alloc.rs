//! A counting global allocator for tests that bound memory footprints: it
//! keeps the net bytes allocated and not yet freed, per thread and for the
//! whole process, so [`retained_bytes`] can tell how much of the heap a
//! value built on this thread holds, and [`process_retained_bytes`] how
//! much a value built with the help of other threads holds. Including this
//! module installs it as the test binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Counts, per thread and per process, bytes allocated minus bytes freed.
pub struct LiveAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

static PROCESS: AtomicIsize = AtomicIsize::new(0);

/// Layout sizes never exceed `isize::MAX`, so the callers' casts are
/// lossless.
fn note(delta: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
    PROCESS.fetch_add(delta, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits the caller's guarantees that `GlobalAlloc` requires; `note`
// only updates a const-initialised thread-local and an atomic, and never
// allocates.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

/// Runs `f` and returns its result with the bytes that `f` allocated on
/// this thread and had not freed when it returned: what the result holds,
/// if `f` leaks nothing and spawns no thread that allocates for it.
#[allow(dead_code)] // each test binary reads one of the two counters
pub fn retained_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    let after = LIVE.with(Cell::get);
    (
        out,
        usize::try_from(after - before).expect("freed more than allocated"),
    )
}

/// Runs `f` and returns its result with the bytes the whole process
/// allocated while `f` ran and had not freed when it returned: what the
/// result holds, counting what threads that `f` started allocated for it,
/// if nothing else in the process allocates meanwhile. A test binary that
/// reads it must run its tests one at a time.
#[allow(dead_code)] // each test binary reads one of the two counters
pub fn process_retained_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = PROCESS.load(Ordering::SeqCst);
    let out = f();
    let after = PROCESS.load(Ordering::SeqCst);
    (
        out,
        usize::try_from(after - before).expect("freed more than allocated"),
    )
}
