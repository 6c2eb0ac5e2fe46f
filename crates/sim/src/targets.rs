//! Shared multicast target sets.
//!
//! A post or query set (`P(i)`, `Q(j)`) is built once per operation from
//! the resolver and then travels through the simulator — queue entry,
//! fan expansion, handler — without being copied again; cloning a
//! `Vec<NodeId>` per multicast hop was one of the simulator's dominant
//! allocation costs. [`TargetSet`] is a shared, canonically sorted,
//! deduplicated `Arc<[NodeId]>`: cloning is a reference-count bump, and
//! the simulator's multicast path can skip its own sort/dedup because the
//! invariant is established once at construction.

use mm_topo::NodeId;
use std::ops::Deref;
use std::sync::Arc;

/// A shared, sorted, duplicate-free set of multicast targets.
///
/// # Example
///
/// ```
/// use mm_sim::TargetSet;
/// use mm_topo::NodeId;
///
/// let set = TargetSet::new(&[NodeId::new(3), NodeId::new(1), NodeId::new(3)]);
/// assert_eq!(&*set, &[NodeId::new(1), NodeId::new(3)]);
/// let cheap = set.clone(); // refcount bump, no copy
/// assert!(cheap.contains(NodeId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSet {
    ids: Arc<[NodeId]>,
}

// Concurrency audit (live host): the simulator is single-threaded, but
// `mm-proto`'s `LiveNet` runs one OS thread per node and `TargetSet`
// rides inside the messages they exchange. The share is an `Arc` (atomic
// refcount, not `Rc`) over an immutable slice, so clones/drops from
// concurrent node threads are sound and the contents can never be
// observed mid-mutation. Pinned here so a future swap to a non-atomic
// smart pointer fails to compile instead of racing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TargetSet>();
};

impl TargetSet {
    /// Builds a set from arbitrary targets (copies, sorts, dedups).
    pub fn new(targets: &[NodeId]) -> Self {
        Self::from_vec(targets.to_vec())
    }

    /// Builds a set from an owned vector (sorts and dedups in place; no
    /// extra copy beyond the final shared allocation).
    pub fn from_vec(mut targets: Vec<NodeId>) -> Self {
        targets.sort_unstable();
        targets.dedup();
        TargetSet {
            ids: targets.into(),
        }
    }

    /// The empty set.
    pub fn empty() -> Self {
        TargetSet { ids: Arc::new([]) }
    }

    /// The targets, ascending and duplicate-free.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of distinct targets.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for the empty set.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: NodeId) -> bool {
        self.ids.binary_search(&v).is_ok()
    }

    /// Iterates the targets in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }
}

impl Deref for TargetSet {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids
    }
}

impl From<Vec<NodeId>> for TargetSet {
    fn from(v: Vec<NodeId>) -> Self {
        TargetSet::from_vec(v)
    }
}

impl From<&[NodeId]> for TargetSet {
    fn from(v: &[NodeId]) -> Self {
        TargetSet::new(v)
    }
}

impl<'a> IntoIterator for &'a TargetSet {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sorts_and_dedups() {
        let s = TargetSet::new(&[n(5), n(1), n(5), n(3), n(1)]);
        assert_eq!(s.as_slice(), &[n(1), n(3), n(5)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(n(3)));
        assert!(!s.contains(n(2)));
    }

    #[test]
    fn empty_set() {
        let s = TargetSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s, TargetSet::new(&[]));
    }

    #[test]
    fn clones_share_storage() {
        let a = TargetSet::new(&[n(1), n(2)]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        assert_eq!(a, b);
    }

    #[test]
    fn conversions() {
        let s: TargetSet = vec![n(2), n(0)].into();
        assert_eq!(&*s, &[n(0), n(2)]);
        let slice: &[NodeId] = &[n(1)];
        assert_eq!(TargetSet::from(slice).len(), 1);
    }
}
