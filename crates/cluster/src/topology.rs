//! Cluster topology: racks of nodes with per-node slot counts and
//! processing speed factors.
//!
//! The paper assumes the simplified two-level network of its Figure 1:
//! nodes connect to a top-of-rack switch, racks connect through a core
//! switch. Rack membership is the only topology information the
//! schedulers need; link capacities live in the `netsim` crate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a node (server). Dense indices `0..num_nodes`.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

/// Identifies a rack. Dense indices `0..num_racks`.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RackId(pub u32);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RackId {
    /// The dense index of this rack.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// Static per-node configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The rack this node belongs to.
    pub rack: RackId,
    /// Concurrent map tasks this node can run (the paper's `L`).
    pub map_slots: u32,
    /// Concurrent reduce tasks this node can run.
    pub reduce_slots: u32,
    /// Relative processing speed: task durations are divided by this.
    /// 1.0 is a regular node; the paper's heterogeneous cluster uses 0.5
    /// for the slow half and its extreme case 0.1 for the 5 "bad" nodes.
    pub speed_factor: f64,
}

/// An immutable cluster topology: nodes grouped into racks.
///
/// Construct with [`Topology::homogeneous`] for equal racks (the
/// analysis/simulation default) or [`Topology::with_rack_sizes`] for
/// uneven racks (the motivating example's 3+2 cluster, the testbed's
/// 3×4 layout).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    rack_members: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds a cluster of `num_racks` racks with `nodes_per_rack` nodes
    /// each, every node with the given slot counts and speed 1.0.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn homogeneous(
        num_racks: usize,
        nodes_per_rack: usize,
        map_slots: u32,
        reduce_slots: u32,
    ) -> Topology {
        Topology::with_rack_sizes(&vec![nodes_per_rack; num_racks], map_slots, reduce_slots)
    }

    /// Builds a cluster with explicitly sized racks.
    ///
    /// # Panics
    ///
    /// Panics if there are no racks, any rack is empty, or `map_slots`
    /// is zero.
    pub fn with_rack_sizes(rack_sizes: &[usize], map_slots: u32, reduce_slots: u32) -> Topology {
        assert!(!rack_sizes.is_empty(), "topology needs at least one rack");
        assert!(rack_sizes.iter().all(|&s| s > 0), "empty rack");
        assert!(map_slots > 0, "nodes need at least one map slot");
        let mut nodes = Vec::new();
        let mut rack_members = Vec::new();
        for (r, &size) in rack_sizes.iter().enumerate() {
            let mut members = Vec::with_capacity(size);
            for _ in 0..size {
                let id = NodeId(nodes.len() as u32);
                nodes.push(NodeSpec {
                    rack: RackId(r as u32),
                    map_slots,
                    reduce_slots,
                    speed_factor: 1.0,
                });
                members.push(id);
            }
            rack_members.push(members);
        }
        Topology {
            nodes,
            rack_members,
        }
    }

    /// Sets one node's relative processing speed (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown or the factor is not positive.
    pub fn with_speed_factor(mut self, node: NodeId, factor: f64) -> Topology {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "bad speed factor {factor}"
        );
        self.nodes[node.index()].speed_factor = factor;
        self
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.rack_members.len()
    }

    /// The node id at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_nodes()`.
    pub fn node(&self, i: usize) -> NodeId {
        assert!(i < self.nodes.len(), "node index {i} out of range");
        NodeId(i as u32)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all rack ids.
    pub fn rack_ids(&self) -> impl Iterator<Item = RackId> + '_ {
        (0..self.rack_members.len() as u32).map(RackId)
    }

    /// The static spec of a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn spec(&self, node: NodeId) -> &NodeSpec {
        &self.nodes[node.index()]
    }

    /// The rack a node belongs to.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.nodes[node.index()].rack
    }

    /// The nodes in a rack.
    ///
    /// # Panics
    ///
    /// Panics on an unknown rack.
    pub fn nodes_in_rack(&self, rack: RackId) -> &[NodeId] {
        &self.rack_members[rack.index()]
    }

    /// True if the two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> u32 {
        self.nodes.iter().map(|n| n.map_slots).sum()
    }

    /// The sizes of all racks, in rack order.
    pub fn rack_sizes(&self) -> Vec<usize> {
        self.rack_members.iter().map(|m| m.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_layout() {
        let t = Topology::homogeneous(4, 10, 4, 1);
        assert_eq!(t.num_nodes(), 40);
        assert_eq!(t.num_racks(), 4);
        assert_eq!(t.total_map_slots(), 160);
        assert_eq!(t.rack_of(NodeId(0)), RackId(0));
        assert_eq!(t.rack_of(NodeId(39)), RackId(3));
        assert_eq!(t.nodes_in_rack(RackId(1)).len(), 10);
        assert!(t.same_rack(NodeId(10), NodeId(19)));
        assert!(!t.same_rack(NodeId(9), NodeId(10)));
    }

    #[test]
    fn motivating_example_layout() {
        // Figure 2: rack 0 holds nodes {1,2,3}, rack 1 holds {4,5}
        // (zero-indexed here).
        let t = Topology::with_rack_sizes(&[3, 2], 2, 1);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.rack_sizes(), vec![3, 2]);
        assert_eq!(t.rack_of(NodeId(2)), RackId(0));
        assert_eq!(t.rack_of(NodeId(3)), RackId(1));
    }

    #[test]
    fn speed_factors() {
        let t = Topology::homogeneous(1, 4, 2, 1)
            .with_speed_factor(NodeId(2), 0.5)
            .with_speed_factor(NodeId(3), 0.1);
        assert_eq!(t.spec(NodeId(0)).speed_factor, 1.0);
        assert_eq!(t.spec(NodeId(2)).speed_factor, 0.5);
        assert_eq!(t.spec(NodeId(3)).speed_factor, 0.1);
    }

    #[test]
    fn iterators_cover_everything() {
        let t = Topology::homogeneous(3, 2, 1, 1);
        assert_eq!(t.node_ids().count(), 6);
        assert_eq!(t.rack_ids().count(), 3);
        let all: Vec<NodeId> = t
            .rack_ids()
            .flat_map(|r| t.nodes_in_rack(r).to_vec())
            .collect();
        assert_eq!(all.len(), 6);
    }

    #[test]
    #[should_panic(expected = "empty rack")]
    fn rejects_empty_rack() {
        let _ = Topology::with_rack_sizes(&[3, 0], 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one map slot")]
    fn rejects_zero_map_slots() {
        let _ = Topology::homogeneous(1, 1, 0, 1);
    }

    #[test]
    #[should_panic(expected = "bad speed factor")]
    fn rejects_nonpositive_speed() {
        let _ = Topology::homogeneous(1, 1, 1, 1).with_speed_factor(NodeId(0), 0.0);
    }

    #[test]
    fn display_and_serde() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(RackId(1).to_string(), "rack1");
        let t = Topology::homogeneous(2, 2, 4, 1);
        // Round-trip through serde's data model (via Debug equality).
        let t2 = t.clone();
        assert_eq!(t, t2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn rack_membership_is_a_partition(
            sizes in proptest::collection::vec(1usize..6, 1..6),
            slots in 1u32..4,
        ) {
            let topo = Topology::with_rack_sizes(&sizes, slots, 1);
            prop_assert_eq!(topo.num_nodes(), sizes.iter().sum::<usize>());
            prop_assert_eq!(topo.num_racks(), sizes.len());
            // Every node is in exactly the rack that lists it.
            for node in topo.node_ids() {
                let rack = topo.rack_of(node);
                prop_assert!(topo.nodes_in_rack(rack).contains(&node));
                let appearances: usize = topo
                    .rack_ids()
                    .map(|r| topo.nodes_in_rack(r).iter().filter(|&&m| m == node).count())
                    .sum();
                prop_assert_eq!(appearances, 1);
            }
            prop_assert_eq!(
                topo.total_map_slots(),
                (topo.num_nodes() as u32) * slots
            );
            prop_assert_eq!(topo.rack_sizes(), sizes);
        }

        #[test]
        fn same_rack_is_an_equivalence(sizes in proptest::collection::vec(1usize..5, 1..5)) {
            let topo = Topology::with_rack_sizes(&sizes, 1, 1);
            let nodes: Vec<NodeId> = topo.node_ids().collect();
            for &a in &nodes {
                prop_assert!(topo.same_rack(a, a));
                for &b in &nodes {
                    prop_assert_eq!(topo.same_rack(a, b), topo.same_rack(b, a));
                }
            }
        }
    }
}
