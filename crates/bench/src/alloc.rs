//! Counting global allocator: total bytes handed out (bytes/step budgets)
//! plus live bytes and their high-water mark (a peak-RSS proxy).
//!
//! A binary opts in with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: rotom_bench::alloc::CountingAlloc = rotom_bench::alloc::CountingAlloc;
//! ```
//!
//! Dealloc sizes come from the layout, so the live count is exact for every
//! allocation made through the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` allocator with byte counters (see the module doc).
pub struct CountingAlloc;

/// The three counters on one cache line of their own. As separate statics
/// their placement followed the size of whatever was linked before them,
/// and a pair that straddled two lines slowed every allocation of an
/// unrelated workload.
#[repr(align(64))]
struct Counters {
    total: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

// The counters are statistics that publish no other data: `Relaxed`.
static COUNTERS: Counters = Counters {
    total: AtomicU64::new(0),
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
};

fn grow(bytes: usize) {
    let bytes = bytes as u64;
    COUNTERS.total.fetch_add(bytes, Ordering::Relaxed);
    let live = COUNTERS.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
    COUNTERS.peak.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's guarantees; the counter updates
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS
            .live
            .fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            COUNTERS
                .live
                .fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Bytes handed out so far: every allocation plus the grown portion of
/// every reallocation, across all threads.
pub fn total_bytes() -> u64 {
    COUNTERS.total.load(Ordering::Relaxed)
}

/// High-water mark of live bytes.
pub fn peak_bytes() -> u64 {
    COUNTERS.peak.load(Ordering::Relaxed)
}
