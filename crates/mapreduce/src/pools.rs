//! A job's unassigned normal (non-degraded) map tasks, pooled by the
//! node that stores each task's input block, with backlog orders that
//! answer the scheduler's rack-local and remote queries without a scan.
//!
//! Locality-first falls back to "the node with the largest backlog"
//! (Algorithm 1): within the slave's rack, then across the cluster.
//! Both questions are the maximum of `(pool length, Reverse(node))`
//! over the non-empty pools, excluding the slave. [`NormalPools`] keeps
//! that key in one ordered set for the cluster and one per rack, so a
//! query reads at most two keys from the top of a set and every change
//! to a pool moves one key in two sets.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use cluster::{NodeId, RackId, Topology};

use crate::job::MapTaskId;

/// Orders non-empty pools by backlog; the largest key is the node a
/// rack-local or remote claim draws from. Ties go to the lower node.
type Backlog = (usize, Reverse<NodeId>);

/// Per-node pools of unassigned normal tasks, their total, and the
/// cluster-wide and per-rack backlog orders over them.
#[derive(Debug)]
pub(crate) struct NormalPools {
    /// Unassigned normal tasks whose input block lives on each node.
    pools: Vec<Vec<MapTaskId>>,
    /// Sum of the pool lengths.
    total: usize,
    /// `(len, Reverse(node))` of every non-empty pool.
    cluster: BTreeSet<Backlog>,
    /// The same keys, split by the node's rack.
    racks: Vec<BTreeSet<Backlog>>,
}

impl NormalPools {
    /// Takes filled per-node pools and builds both orders in bulk: one
    /// inserted key per task would make the engine build several times
    /// slower on large clusters.
    pub(crate) fn new(topo: &Topology, pools: Vec<Vec<MapTaskId>>) -> NormalPools {
        debug_assert_eq!(pools.len(), topo.num_nodes());
        // Bucket the non-empty pools by length, each bucket in
        // descending node order. Read bucket by bucket, the keys come
        // out ascending, so each set is one bulk build over sorted keys.
        let mut by_len: Vec<Vec<NodeId>> = Vec::new();
        for (i, pool) in pools.iter().enumerate().rev() {
            if by_len.len() < pool.len() {
                by_len.resize_with(pool.len(), Vec::new);
            }
            if let Some(bucket) = pool.len().checked_sub(1) {
                by_len[bucket].push(NodeId(i as u32));
            }
        }
        let mut cluster = Vec::with_capacity(by_len.iter().map(Vec::len).sum());
        let mut racks: Vec<Vec<Backlog>> = (0..topo.num_racks())
            .map(|r| Vec::with_capacity(topo.nodes_in_rack(RackId(r as u32)).len()))
            .collect();
        for (bucket, nodes) in by_len.iter().enumerate() {
            for &node in nodes {
                let key = (bucket + 1, Reverse(node));
                cluster.push(key);
                racks[topo.rack_of(node).index()].push(key);
            }
        }
        NormalPools {
            total: pools.iter().map(Vec::len).sum(),
            pools,
            cluster: BTreeSet::from_iter(cluster),
            racks: racks.into_iter().map(BTreeSet::from_iter).collect(),
        }
    }

    /// Unassigned normal tasks in all pools.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Unassigned normal tasks whose block lives on `node`.
    pub(crate) fn len_of(&self, node: NodeId) -> usize {
        self.pools[node.index()].len()
    }

    /// Adds a task to `node`'s pool.
    pub(crate) fn push(&mut self, topo: &Topology, node: NodeId, task: MapTaskId) {
        self.unlist(topo, node);
        self.pools[node.index()].push(task);
        self.total += 1;
        self.list(topo, node);
    }

    /// Claims the most recently added task of `node`'s pool.
    pub(crate) fn pop(&mut self, topo: &Topology, node: NodeId) -> Option<MapTaskId> {
        if self.pools[node.index()].is_empty() {
            return None;
        }
        self.unlist(topo, node);
        let task = self.pools[node.index()].pop();
        self.total -= 1;
        self.list(topo, node);
        task
    }

    /// Empties `node`'s pool (its node failed), returning the tasks in
    /// pool order.
    pub(crate) fn take_all(&mut self, topo: &Topology, node: NodeId) -> Vec<MapTaskId> {
        self.unlist(topo, node);
        let moved = std::mem::take(&mut self.pools[node.index()]);
        self.total -= moved.len();
        moved
    }

    /// The node with the largest backlog in `rack`, other than `slave`.
    pub(crate) fn largest_in_rack(&self, rack: RackId, slave: NodeId) -> Option<NodeId> {
        largest_except(&self.racks[rack.index()], slave)
    }

    /// The node with the largest backlog in the cluster, other than
    /// `slave`.
    pub(crate) fn largest(&self, slave: NodeId) -> Option<NodeId> {
        largest_except(&self.cluster, slave)
    }

    /// Removes `node`'s key from both orders (before its pool changes).
    fn unlist(&mut self, topo: &Topology, node: NodeId) {
        if !self.pools[node.index()].is_empty() {
            let key = backlog(&self.pools, node);
            self.cluster.remove(&key);
            self.racks[topo.rack_of(node).index()].remove(&key);
        }
    }

    /// Adds `node`'s key to both orders (after its pool changed).
    fn list(&mut self, topo: &Topology, node: NodeId) {
        if !self.pools[node.index()].is_empty() {
            let key = backlog(&self.pools, node);
            self.cluster.insert(key);
            self.racks[topo.rack_of(node).index()].insert(key);
        }
    }
}

fn backlog(pools: &[Vec<MapTaskId>], node: NodeId) -> Backlog {
    (pools[node.index()].len(), Reverse(node))
}

/// The largest key's node, skipping `slave`: at most two keys are read.
fn largest_except(order: &BTreeSet<Backlog>, slave: NodeId) -> Option<NodeId> {
    order
        .iter()
        .rev()
        .map(|&(_, Reverse(node))| node)
        .find(|&node| node != slave)
}

/// The linear scan the orders replace: the non-empty pool with the
/// largest `(len, Reverse(node))` among `candidates`, excluding `slave`.
#[cfg(test)]
pub(crate) fn scan_largest(
    pools: &NormalPools,
    candidates: impl IntoIterator<Item = NodeId>,
    slave: NodeId,
) -> Option<NodeId> {
    candidates
        .into_iter()
        .filter(|&m| m != slave)
        .max_by_key(|&m| (pools.len_of(m), Reverse(m)))
        .filter(|&m| pools.len_of(m) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One change to the pools, with indices reduced modulo the
    /// topology's node count when applied.
    #[derive(Debug, Clone)]
    enum Op {
        /// A requeue.
        Push(usize),
        /// A node-local claim.
        Pop(usize),
        /// A rack-local or remote claim for this slave, from the node
        /// the orders pick.
        ClaimRackLocal(usize),
        ClaimRemote(usize),
        /// The node fails: its pool turns degraded.
        TakeAll(usize),
        /// The node recovers: some of its former tasks return.
        Restore(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<usize>().prop_map(Op::Push),
            2 => any::<usize>().prop_map(Op::Pop),
            2 => any::<usize>().prop_map(Op::ClaimRackLocal),
            2 => any::<usize>().prop_map(Op::ClaimRemote),
            1 => any::<usize>().prop_map(Op::TakeAll),
            1 => (any::<usize>(), 1usize..=4).prop_map(|(n, k)| Op::Restore(n, k)),
        ]
    }

    /// After every change, both orders must pick what the linear scan
    /// picks for every possible slave, and the total must match.
    fn assert_matches_scan(p: &NormalPools, topo: &Topology) {
        assert_eq!(p.total(), p.pools.iter().map(Vec::len).sum::<usize>());
        for slave in topo.node_ids() {
            let rack = topo.rack_of(slave);
            assert_eq!(
                p.largest(slave),
                scan_largest(p, topo.node_ids(), slave),
                "remote pick for {slave:?}"
            );
            assert_eq!(
                p.largest_in_rack(rack, slave),
                scan_largest(p, topo.nodes_in_rack(rack).iter().copied(), slave),
                "rack-local pick for {slave:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn backlog_orders_pick_what_the_linear_scan_picks(
            racks in proptest::collection::vec(1usize..=4, 1..=4),
            initial in proptest::collection::vec(0usize..=3, 16),
            ops in proptest::collection::vec(op(), 0..80),
        ) {
            let topo = Topology::with_rack_sizes(&racks, 1, 1);
            let n = topo.num_nodes();
            let mut next = 0;
            let mut fresh = || {
                next += 1;
                MapTaskId(next)
            };
            let filled = (0..n)
                .map(|i| (0..initial[i]).map(|_| fresh()).collect())
                .collect();
            let mut p = NormalPools::new(&topo, filled);
            assert_matches_scan(&p, &topo);
            for op in ops {
                match op {
                    Op::Push(i) => p.push(&topo, topo.node(i % n), fresh()),
                    Op::Pop(i) => {
                        let node = topo.node(i % n);
                        let before = p.len_of(node);
                        prop_assert_eq!(p.pop(&topo, node).is_some(), before > 0);
                    }
                    Op::ClaimRackLocal(i) => {
                        let slave = topo.node(i % n);
                        if let Some(src) = p.largest_in_rack(topo.rack_of(slave), slave) {
                            prop_assert!(p.pop(&topo, src).is_some());
                        }
                    }
                    Op::ClaimRemote(i) => {
                        let slave = topo.node(i % n);
                        if let Some(src) = p.largest(slave) {
                            prop_assert!(p.pop(&topo, src).is_some());
                        }
                    }
                    Op::TakeAll(i) => {
                        let node = topo.node(i % n);
                        let before = p.len_of(node);
                        prop_assert_eq!(p.take_all(&topo, node).len(), before);
                        prop_assert_eq!(p.len_of(node), 0);
                    }
                    Op::Restore(i, k) => {
                        let node = topo.node(i % n);
                        for _ in 0..k {
                            p.push(&topo, node, fresh());
                        }
                    }
                }
                assert_matches_scan(&p, &topo);
            }
        }
    }
}
