//! The placed block store: block→node map plus failure-mode queries.

use std::collections::BTreeMap;

use cluster::{ClusterState, NodeId, Topology};
use simkit::SimRng;

use crate::layout::{BlockRef, StripeId, StripeLayout};
use crate::placement::{PlacementError, PlacementPolicy};

/// An erasure-coded file placed on a cluster.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct BlockStore {
    layout: StripeLayout,
    /// Block → node, indexed by [`StripeLayout::global_index`].
    node_of: Vec<NodeId>,
    /// Every native block, grouped by holder in node order and in
    /// layout order within a holder.
    natives: Vec<BlockRef>,
    /// Node `i`'s natives are `natives[native_start[i]..native_start[i + 1]]`.
    native_start: Vec<usize>,
}

impl BlockStore {
    /// Places `layout` on `topo` with the given policy.
    ///
    /// # Errors
    ///
    /// Propagates the policy's [`PlacementError`].
    pub fn place(
        topo: &Topology,
        layout: StripeLayout,
        policy: &dyn PlacementPolicy,
        rng: &mut SimRng,
    ) -> Result<BlockStore, PlacementError> {
        let node_of = policy.place(topo, &layout, rng)?;
        debug_assert_eq!(node_of.len(), layout.num_blocks());
        // A counting sort by holder: count, prefix-sum, then fill each
        // holder's run in layout order.
        let mut native_start = vec![0usize; topo.num_nodes() + 1];
        for block in layout.native_blocks() {
            native_start[node_of[layout.global_index(block)].index() + 1] += 1;
        }
        for i in 1..native_start.len() {
            native_start[i] += native_start[i - 1];
        }
        let mut next = native_start[..topo.num_nodes()].to_vec();
        let mut natives = vec![BlockRef::default(); layout.num_native()];
        for block in layout.native_blocks() {
            let slot = &mut next[node_of[layout.global_index(block)].index()];
            natives[*slot] = block;
            *slot += 1;
        }
        Ok(BlockStore {
            layout,
            node_of,
            natives,
            native_start,
        })
    }

    /// The file layout.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// The node holding a block.
    ///
    /// # Panics
    ///
    /// Panics on an unknown block.
    pub fn node_of(&self, block: BlockRef) -> NodeId {
        self.node_of[self.layout.global_index(block)]
    }

    /// The native blocks stored on a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn natives_on(&self, node: NodeId) -> &[BlockRef] {
        let i = node.index();
        &self.natives[self.native_start[i]..self.native_start[i + 1]]
    }

    /// Native blocks whose holders have failed — exactly the inputs of
    /// the job's *degraded tasks*.
    pub fn lost_native_blocks(&self, state: &ClusterState) -> Vec<BlockRef> {
        self.layout
            .native_blocks()
            .filter(|&b| !state.is_alive(self.node_of(b)))
            .collect()
    }

    /// The surviving `(position, node)` pairs of a stripe.
    pub fn survivors_of(&self, stripe: StripeId, state: &ClusterState) -> Vec<(usize, NodeId)> {
        self.layout
            .stripe_blocks(stripe)
            .filter_map(|b| {
                let node = self.node_of(b);
                state.is_alive(node).then_some((b.pos, node))
            })
            .collect()
    }

    /// True if the stripe still has at least `k` surviving blocks.
    pub fn is_recoverable(&self, stripe: StripeId, state: &ClusterState) -> bool {
        let n = self.layout.params().n();
        let start = stripe.index() * n;
        let alive = self.node_of[start..start + n]
            .iter()
            .filter(|&&node| state.is_alive(node))
            .count();
        alive >= self.layout.params().k()
    }

    /// Per-node count of stored native blocks (diagnostics / balance
    /// assertions in tests and benches).
    pub fn native_load(&self) -> BTreeMap<NodeId, usize> {
        self.native_start
            .windows(2)
            .enumerate()
            .map(|(i, run)| (NodeId(i as u32), run[1] - run[0]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{RackAwarePlacement, RoundRobinPlacement};
    use cluster::FailureScenario;
    use erasure::CodeParams;

    fn example() -> (Topology, BlockStore) {
        let topo = Topology::with_rack_sizes(&[3, 2], 2, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 12).unwrap();
        let mut rng = SimRng::seed_from_u64(42);
        let store = BlockStore::place(&topo, layout, &RackAwarePlacement, &mut rng).unwrap();
        (topo, store)
    }

    #[test]
    fn lost_blocks_track_failures() {
        let (topo, store) = example();
        let healthy = ClusterState::all_alive(&topo);
        assert!(store.lost_native_blocks(&healthy).is_empty());

        let node = topo.node(0);
        let state = ClusterState::from_scenario(&topo, &FailureScenario::nodes([node]));
        let lost = store.lost_native_blocks(&state);
        assert_eq!(lost.len(), store.natives_on(node).len());
        for b in &lost {
            assert_eq!(store.node_of(*b), node);
        }
    }

    #[test]
    fn survivors_and_recoverability_single_failure() {
        let (topo, store) = example();
        let state = ClusterState::from_scenario(&topo, &FailureScenario::nodes([topo.node(1)]));
        for s in 0..store.layout().num_stripes() {
            let stripe = StripeId(s as u32);
            let survivors = store.survivors_of(stripe, &state);
            // A single node holds at most one block per stripe.
            assert!(survivors.len() >= 3);
            assert!(store.is_recoverable(stripe, &state));
            for (_, node) in survivors {
                assert!(state.is_alive(node));
            }
        }
    }

    #[test]
    fn rack_failure_still_recoverable_with_rack_aware_placement() {
        // The Section III constraint exists precisely so a full-rack
        // failure keeps every stripe recoverable.
        let (topo, store) = example();
        for rack in topo.rack_ids() {
            let state = ClusterState::from_scenario(&topo, &FailureScenario::rack(rack));
            for s in 0..store.layout().num_stripes() {
                assert!(
                    store.is_recoverable(StripeId(s as u32), &state),
                    "stripe {s} unrecoverable after {rack} failure"
                );
            }
        }
    }

    #[test]
    fn round_robin_native_load_is_even() {
        let topo = Topology::homogeneous(3, 4, 4, 1);
        let layout = StripeLayout::new(CodeParams::new(12, 10).unwrap(), 240).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        let store = BlockStore::place(&topo, layout, &RoundRobinPlacement, &mut rng).unwrap();
        for (_, count) in store.native_load() {
            assert_eq!(count, 20);
        }
    }

    #[test]
    fn natives_on_partitions_all_natives() {
        let (topo, store) = example();
        let total: usize = topo.node_ids().map(|n| store.natives_on(n).len()).sum();
        assert_eq!(total, store.layout().num_native());
    }
}
