//! A counting global allocator: forwards every request to
//! [`std::alloc::System`] and, while counting is switched on, charges
//! each allocation (count and bytes) to the layer the tracer says is
//! running.
//!
//! The layer index lives in a global atomic that [`crate::ledger`]
//! updates on every callback entry and exit, so an allocation made by a
//! mapper's handler is charged to that mapper and one made by the kernel
//! between handlers to the kernel. Counting is off in untraced runs; the
//! allocator then costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::ledger::LAYERS;

/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// The layer allocations are charged to (an index into [`LAYERS`]).
static CURRENT: AtomicUsize = AtomicUsize::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static ALLOCS: [AtomicU64; LAYERS] = [ZERO; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [ZERO; LAYERS];

/// The allocator type installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn charge(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let layer = CURRENT.load(Ordering::Relaxed);
            ALLOCS[layer].fetch_add(1, Ordering::Relaxed);
            BYTES[layer].fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the only extra
// work is relaxed atomic bookkeeping, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `GlobalAlloc::alloc` requires; it is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::charge(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every such pointer came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is counted as one allocation of the new size:
        // it is a call into the allocator the hot path could avoid.
        Self::charge(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for `ptr`, `layout` and `new_size`; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Charges subsequent allocations to `layer`.
#[inline]
pub fn set_layer(layer: usize) {
    CURRENT.store(layer, Ordering::Relaxed);
}

/// `(allocations, bytes)` charged to each layer so far.
pub fn snapshot() -> [(u64, u64); LAYERS] {
    std::array::from_fn(|i| {
        (
            ALLOCS[i].load(Ordering::Relaxed),
            BYTES[i].load(Ordering::Relaxed),
        )
    })
}
