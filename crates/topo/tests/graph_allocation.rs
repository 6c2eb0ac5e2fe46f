//! What a graph with no edges costs, counted at the allocator: the shell an
//! analytic router stands in for holds nothing per node.

use mm_topo::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks it for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local, which never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_million_node_shell_allocates_less_than_a_kibibyte() {
    let before = ALLOCATED.with(Cell::get);
    let g = Graph::with_name(1 << 20, "torus(1024x1024)");
    let bytes = ALLOCATED.with(Cell::get) - before;
    assert!(bytes < 1024, "{bytes} bytes");
    assert_eq!((g.node_count(), g.edge_count()), (1 << 20, 0));
}
