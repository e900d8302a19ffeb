//! The process allocator: the system allocator, which counts through
//! `measure::alloc_track` only while counting is switched on. Timed
//! untraced phases run with counting off, so they pay one relaxed load
//! per allocation and nothing else.

use measure::alloc_track::{self, AllocSnapshot, CountingAlloc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);

pub struct GatedAlloc;

// SAFETY: every call is forwarded unchanged to `System`, directly or
// through `CountingAlloc` (which itself forwards to `System`), so a
// block is always freed by the allocator that made it whichever way
// the gate stood at either time.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            unsafe { CountingAlloc.alloc(layout) }
        } else {
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            unsafe { CountingAlloc.dealloc(ptr, layout) }
        } else {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
        } else {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocation events and net live-byte growth over a section that ran
/// with counting on. Blocks made before the section and freed inside
/// it count negative, hence the wrapping difference.
pub struct Section(AllocSnapshot);

impl Section {
    pub fn start() -> Section {
        Section(alloc_track::snapshot())
    }

    pub fn allocs(&self) -> u64 {
        alloc_track::snapshot().allocs_since(&self.0) as u64
    }

    pub fn live_bytes(&self) -> i64 {
        alloc_track::snapshot()
            .live_bytes
            .wrapping_sub(self.0.live_bytes) as i64
    }
}
