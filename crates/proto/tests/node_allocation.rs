//! What per-node protocol state costs, counted at the allocator: a bare
//! `NodeMachine` is 16 bytes and stays so while it answers queries.

use mm_core::Port;
use mm_proto::{NodeMachine, Outbox, ProtoMsg};
use mm_sim::TargetSet;
use mm_topo::NodeId;
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

/// Bytes the calling thread allocated while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Keeps the last message sent, in place.
#[derive(Default)]
struct Last(Option<(NodeId, ProtoMsg)>);

impl Outbox for Last {
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.0 = Some((to, msg));
    }

    fn multicast(&mut self, _: TargetSet, msg: ProtoMsg) {
        self.0 = Some((NodeId::new(u32::MAX), msg));
    }
}

#[test]
fn bare_machines_cost_sixteen_bytes_each_and_answer_for_free() {
    const N: usize = 4096;
    let (mut nodes, bytes) =
        allocated_by(|| (0..N).map(|_| NodeMachine::default()).collect::<Vec<_>>());
    assert_eq!(bytes, N * 16);

    let port = Port::from_name("svc");
    let mut out = Last::default();
    let query = ProtoMsg::Query {
        port,
        reply_to: NodeId::new(1),
        locate_id: 7,
    };
    let (settled, bytes) = allocated_by(|| nodes[3].handle(NodeId::new(3), query, 0, &mut out));
    assert_eq!(
        (settled, bytes),
        (None, 0),
        "a bare node's miss allocates nothing"
    );
    assert!(matches!(
        out.0,
        Some((to, ProtoMsg::Miss { locate_id: 7, .. })) if to == NodeId::new(1)
    ));
}
