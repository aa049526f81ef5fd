//! Block placement policies.
//!
//! Section III derives two placement requirements for HDFS-RAID from
//! HDFS's replica-placement rule: the code must have `n − k ≥ 2`, and at
//! most `n − k` blocks of any stripe may land in one rack (so a rack
//! failure never destroys a stripe). [`RackAwarePlacement`] enforces both
//! while balancing per-node load, matching the simulator setup ("randomly
//! place them in the nodes based on the requirements in Section III",
//! Section V-B). [`RoundRobinPlacement`] reproduces the testbed setup
//! ("placed in the slaves in a round-robin manner for load balancing",
//! Section VI), which does not enforce the rack constraint.

use std::fmt;

use cluster::{NodeId, Topology};
use simkit::SimRng;

use crate::layout::StripeLayout;

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A stripe has more blocks than nodes, so blocks cannot sit on
    /// distinct nodes.
    TooFewNodes {
        /// Stripe width `n`.
        n: usize,
        /// Cluster size.
        nodes: usize,
    },
    /// The rack constraint `ceil(n / R) ≤ n − k` cannot be met.
    RackConstraintUnsatisfiable {
        /// Stripe width `n`.
        n: usize,
        /// Parity count `n − k`.
        parity: usize,
        /// Number of racks.
        racks: usize,
    },
    /// The code's fault tolerance is below the paper's requirement
    /// `n − k ≥ 2`.
    InsufficientParity {
        /// Parity count `n − k`.
        parity: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::TooFewNodes { n, nodes } => {
                write!(f, "stripe width {n} exceeds cluster size {nodes}")
            }
            PlacementError::RackConstraintUnsatisfiable { n, parity, racks } => write!(
                f,
                "cannot place {n} blocks across {racks} racks with at most {parity} per rack"
            ),
            PlacementError::InsufficientParity { parity } => {
                write!(f, "placement requires n-k >= 2, got {parity}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A placement policy maps every block of every stripe to a node.
///
/// Returned vector is indexed by [`StripeLayout::global_index`].
pub trait PlacementPolicy {
    /// Produces the block→node map.
    ///
    /// # Errors
    ///
    /// Implementations return [`PlacementError`] when the topology cannot
    /// satisfy their constraints.
    fn place(
        &self,
        topo: &Topology,
        layout: &StripeLayout,
        rng: &mut SimRng,
    ) -> Result<Vec<NodeId>, PlacementError>;
}

/// Randomized placement honouring the Section III constraints:
/// blocks of a stripe on distinct nodes, at most `n − k` per rack,
/// `n − k ≥ 2`, with global load balancing (each stripe picks the
/// least-loaded nodes of each rack, ties broken randomly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RackAwarePlacement;

impl PlacementPolicy for RackAwarePlacement {
    fn place(
        &self,
        topo: &Topology,
        layout: &StripeLayout,
        rng: &mut SimRng,
    ) -> Result<Vec<NodeId>, PlacementError> {
        let n = layout.params().n();
        let parity = layout.params().parity();
        let racks = topo.num_racks();
        if parity < 2 {
            return Err(PlacementError::InsufficientParity { parity });
        }
        if n > topo.num_nodes() {
            return Err(PlacementError::TooFewNodes {
                n,
                nodes: topo.num_nodes(),
            });
        }
        if n > racks * parity {
            return Err(PlacementError::RackConstraintUnsatisfiable { n, parity, racks });
        }
        // A rack takes at most `parity` blocks of a stripe, and no more
        // than it has nodes.
        let caps: Vec<usize> = topo
            .rack_sizes()
            .into_iter()
            .map(|size| parity.min(size))
            .collect();
        let mut load = vec![0usize; topo.num_nodes()];
        // Native blocks are balanced separately: the analysis and the
        // simulation both assume each node stores F/N natives.
        let mut native_load = vec![0usize; topo.num_nodes()];
        let k = layout.params().k();
        let mut map = Vec::with_capacity(layout.num_blocks());
        // Scratch reused by every stripe.
        let mut quota = vec![0usize; racks];
        let mut rack_order: Vec<usize> = Vec::with_capacity(racks);
        let mut members: Vec<NodeId> = Vec::new();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        for _stripe in 0..layout.num_stripes() {
            // Distribute n slots across racks: start with an even spread,
            // then push the remainder to randomly-ordered racks, never
            // exceeding a rack's cap. The shuffle permutes its input, so
            // it starts from `0..racks` every stripe.
            quota.fill(0);
            let mut remaining = n;
            rack_order.clear();
            rack_order.extend(0..racks);
            rng.shuffle(&mut rack_order);
            // Round-robin fill in random rack order.
            'fill: loop {
                for &r in &rack_order {
                    if remaining == 0 {
                        break 'fill;
                    }
                    if quota[r] < caps[r] {
                        quota[r] += 1;
                        remaining -= 1;
                    }
                }
                // If a full pass made no progress the constraint is
                // unsatisfiable for these rack sizes.
                if remaining > 0 && quota.iter().zip(&caps).all(|(q, cap)| q >= cap) {
                    return Err(PlacementError::RackConstraintUnsatisfiable { n, parity, racks });
                }
            }
            // Pick the least-loaded nodes in each rack (random tie-break),
            // then shuffle which stripe position goes to which node.
            chosen.clear();
            for (r, &rack_quota) in quota.iter().enumerate() {
                if rack_quota == 0 {
                    continue;
                }
                members.clear();
                members.extend_from_slice(topo.nodes_in_rack(cluster::RackId(r as u32)));
                rng.shuffle(&mut members);
                let start = chosen.len();
                pick_least_loaded(&members, &load, rack_quota, &mut chosen);
                for m in &chosen[start..] {
                    load[m.index()] += 1;
                }
            }
            debug_assert_eq!(chosen.len(), n);
            // Give the k native positions to the nodes with the fewest
            // natives so far (random tie-break), parity to the rest.
            rng.shuffle(&mut chosen);
            chosen.sort_by_key(|m| native_load[m.index()]);
            let (natives, parities) = chosen.split_at_mut(k);
            for m in natives.iter() {
                native_load[m.index()] += 1;
            }
            rng.shuffle(natives);
            rng.shuffle(parities);
            map.extend_from_slice(&chosen);
        }
        Ok(map)
    }
}

/// Appends the `quota` least-loaded `members` to `chosen`, ties in
/// `members` order: the first `quota` of a stable sort by load. It takes
/// every member at the lowest load, then, only while the quota is unmet,
/// every member at the next load up, so a pass touches no more levels
/// than the quota needs.
fn pick_least_loaded(members: &[NodeId], load: &[usize], quota: usize, chosen: &mut Vec<NodeId>) {
    debug_assert!(
        quota <= members.len(),
        "quota {quota} over {} members",
        members.len()
    );
    let goal = chosen.len() + quota;
    let mut level = members.iter().map(|m| load[m.index()]).min().unwrap_or(0);
    while chosen.len() < goal {
        let mut next = usize::MAX;
        for &m in members {
            let at = load[m.index()];
            if at == level {
                chosen.push(m);
                if chosen.len() == goal {
                    return;
                }
            } else if at > level {
                next = next.min(at);
            }
        }
        level = next;
    }
}

/// Deterministic round-robin placement: block `pos` of stripe `s` goes to
/// node `(s·k + pos) mod N`, so native blocks rotate evenly across all
/// nodes (the testbed's 20-natives-per-slave layout) and each stripe's
/// `n` blocks land on `n` consecutive nodes. Does **not** enforce the
/// rack constraint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobinPlacement;

impl PlacementPolicy for RoundRobinPlacement {
    fn place(
        &self,
        topo: &Topology,
        layout: &StripeLayout,
        _rng: &mut SimRng,
    ) -> Result<Vec<NodeId>, PlacementError> {
        let n = layout.params().n();
        let k = layout.params().k();
        if n > topo.num_nodes() {
            return Err(PlacementError::TooFewNodes {
                n,
                nodes: topo.num_nodes(),
            });
        }
        let nodes = topo.num_nodes();
        let mut map = Vec::with_capacity(layout.num_blocks());
        for s in 0..layout.num_stripes() {
            for pos in 0..n {
                map.push(topo.node((s * k + pos) % nodes));
            }
        }
        Ok(map)
    }
}

/// A hand-specified placement (e.g. the paper's Figure 2), given as one
/// node per block in [`StripeLayout::global_index`] order. Validated for
/// length and per-stripe node distinctness, but intentionally not for the
/// rack constraint, so pathological layouts can be studied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitPlacement {
    map: Vec<NodeId>,
}

impl ExplicitPlacement {
    /// Wraps an explicit block→node map.
    pub fn new(map: Vec<NodeId>) -> ExplicitPlacement {
        ExplicitPlacement { map }
    }
}

impl PlacementPolicy for ExplicitPlacement {
    fn place(
        &self,
        topo: &Topology,
        layout: &StripeLayout,
        _rng: &mut SimRng,
    ) -> Result<Vec<NodeId>, PlacementError> {
        assert_eq!(
            self.map.len(),
            layout.num_blocks(),
            "explicit placement covers {} blocks, layout has {}",
            self.map.len(),
            layout.num_blocks()
        );
        let n = layout.params().n();
        assert!(
            self.map.iter().all(|m| m.index() < topo.num_nodes()),
            "explicit placement references unknown node"
        );
        for s in 0..layout.num_stripes() {
            let mut nodes: Vec<NodeId> = self.map[s * n..(s + 1) * n].to_vec();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), n, "stripe {s} reuses a node");
        }
        Ok(self.map.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::CodeParams;

    fn check_constraints(topo: &Topology, layout: &StripeLayout, map: &[NodeId]) {
        let n = layout.params().n();
        let parity = layout.params().parity();
        for s in 0..layout.num_stripes() {
            let nodes: Vec<NodeId> = (0..n).map(|p| map[s * n + p]).collect();
            // Distinct nodes per stripe.
            let mut uniq = nodes.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), n, "stripe {s} reuses a node");
            // Rack constraint.
            for rack in topo.rack_ids() {
                let in_rack = nodes.iter().filter(|&&m| topo.rack_of(m) == rack).count();
                assert!(
                    in_rack <= parity,
                    "stripe {s} puts {in_rack} blocks in {rack}"
                );
            }
        }
    }

    #[test]
    fn rack_aware_satisfies_section3() {
        // The paper's default: 40 nodes / 4 racks, (20,15), 1440 natives.
        let topo = Topology::homogeneous(4, 10, 4, 1);
        let layout = StripeLayout::new(CodeParams::new(20, 15).unwrap(), 1440).unwrap();
        let mut rng = SimRng::seed_from_u64(11);
        let map = RackAwarePlacement.place(&topo, &layout, &mut rng).unwrap();
        assert_eq!(map.len(), layout.num_blocks());
        check_constraints(&topo, &layout, &map);
    }

    #[test]
    fn rack_aware_balances_load() {
        let topo = Topology::homogeneous(4, 10, 4, 1);
        let layout = StripeLayout::new(CodeParams::new(16, 12).unwrap(), 1440).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let map = RackAwarePlacement.place(&topo, &layout, &mut rng).unwrap();
        let mut per_node = vec![0usize; topo.num_nodes()];
        for node in &map {
            per_node[node.index()] += 1;
        }
        let min = per_node.iter().min().unwrap();
        let max = per_node.iter().max().unwrap();
        // 1920 blocks over 40 nodes = 48 each; allow ±1 from quota rounding.
        assert!(max - min <= 2, "load spread {min}..{max}");
    }

    #[test]
    fn rack_aware_on_motivating_example() {
        // 5 nodes in racks of 3+2, (4,2): at most 2 blocks per rack.
        let topo = Topology::with_rack_sizes(&[3, 2], 2, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 12).unwrap();
        let mut rng = SimRng::seed_from_u64(2);
        let map = RackAwarePlacement.place(&topo, &layout, &mut rng).unwrap();
        check_constraints(&topo, &layout, &map);
    }

    /// Picks `quota` of nodes `0..load.len()` listed in `order`.
    fn pick(order: &[u32], load: &[usize], quota: usize) -> Vec<u32> {
        let members: Vec<NodeId> = order.iter().map(|&i| NodeId(i)).collect();
        let mut chosen = vec![NodeId(99)];
        pick_least_loaded(&members, load, quota, &mut chosen);
        assert_eq!(chosen.remove(0), NodeId(99), "earlier picks kept");
        chosen.iter().map(|m| m.0).collect()
    }

    #[test]
    fn quota_filled_from_one_load_level() {
        // Three members at the least load 1: the first two in member
        // order, whatever their ids.
        let load = [2, 1, 3, 1, 1];
        assert_eq!(pick(&[4, 0, 3, 2, 1], &load, 2), vec![4, 3]);
        // A quota equal to the level's size takes the whole level.
        assert_eq!(pick(&[4, 0, 3, 2, 1], &load, 3), vec![4, 3, 1]);
    }

    #[test]
    fn quota_filled_from_two_load_levels() {
        // One member at load 1, then the load-2 members in member order;
        // the load-4 member is never reached.
        let load = [2, 4, 2, 1, 2];
        assert_eq!(pick(&[2, 1, 0, 3, 4], &load, 3), vec![3, 2, 0]);
        // A gap between levels: after load 0 comes load 5, skipping
        // no level that exists.
        let load = [5, 0, 7, 5];
        assert_eq!(pick(&[3, 2, 1, 0], &load, 2), vec![1, 3]);
        // Every member, sorted by load with ties in member order.
        let load = [1, 0, 1, 0];
        assert_eq!(pick(&[2, 0, 1, 3], &load, 4), vec![1, 3, 2, 0]);
    }

    #[test]
    fn rack_aware_rejects_impossible() {
        // (6,5): parity 1 < 2.
        let topo = Topology::homogeneous(3, 4, 1, 1);
        let layout = StripeLayout::new(CodeParams::new(6, 5).unwrap(), 10).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(
            RackAwarePlacement
                .place(&topo, &layout, &mut rng)
                .unwrap_err(),
            PlacementError::InsufficientParity { parity: 1 }
        );
        // 2 racks * parity 2 = 4 < n = 6.
        let layout = StripeLayout::new(CodeParams::new(6, 4).unwrap(), 8).unwrap();
        let topo = Topology::homogeneous(2, 6, 1, 1);
        assert_eq!(
            RackAwarePlacement
                .place(&topo, &layout, &mut rng)
                .unwrap_err(),
            PlacementError::RackConstraintUnsatisfiable {
                n: 6,
                parity: 2,
                racks: 2
            }
        );
        // Cluster smaller than a stripe.
        let topo = Topology::homogeneous(2, 2, 1, 1);
        let layout = StripeLayout::new(CodeParams::new(6, 4).unwrap(), 8).unwrap();
        assert_eq!(
            RackAwarePlacement
                .place(&topo, &layout, &mut rng)
                .unwrap_err(),
            PlacementError::TooFewNodes { n: 6, nodes: 4 }
        );
    }

    #[test]
    fn round_robin_matches_testbed() {
        // Testbed: 240 natives, (12,10), 12 slaves => 20 natives per slave.
        let topo = Topology::homogeneous(3, 4, 4, 1);
        let layout = StripeLayout::new(CodeParams::new(12, 10).unwrap(), 240).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        let map = RoundRobinPlacement.place(&topo, &layout, &mut rng).unwrap();
        let mut natives_per_node = vec![0usize; 12];
        for b in layout.native_blocks() {
            natives_per_node[map[layout.global_index(b)].index()] += 1;
        }
        assert!(
            natives_per_node.iter().all(|&c| c == 20),
            "{natives_per_node:?}"
        );
    }

    #[test]
    fn round_robin_deterministic() {
        let topo = Topology::homogeneous(2, 3, 1, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 8).unwrap();
        let mut r1 = SimRng::seed_from_u64(1);
        let mut r2 = SimRng::seed_from_u64(999);
        assert_eq!(
            RoundRobinPlacement.place(&topo, &layout, &mut r1).unwrap(),
            RoundRobinPlacement.place(&topo, &layout, &mut r2).unwrap()
        );
    }

    #[test]
    fn rack_aware_deterministic_per_seed() {
        let topo = Topology::homogeneous(4, 10, 4, 1);
        let layout = StripeLayout::new(CodeParams::new(8, 6).unwrap(), 240).unwrap();
        let a = RackAwarePlacement
            .place(&topo, &layout, &mut SimRng::seed_from_u64(7))
            .unwrap();
        let b = RackAwarePlacement
            .place(&topo, &layout, &mut SimRng::seed_from_u64(7))
            .unwrap();
        let c = RackAwarePlacement
            .place(&topo, &layout, &mut SimRng::seed_from_u64(8))
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn error_display() {
        for e in [
            PlacementError::TooFewNodes { n: 6, nodes: 4 },
            PlacementError::RackConstraintUnsatisfiable {
                n: 6,
                parity: 2,
                racks: 2,
            },
            PlacementError::InsufficientParity { parity: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

#[cfg(test)]
mod explicit_tests {
    use super::*;
    use erasure::CodeParams;

    #[test]
    fn explicit_placement_round_trips() {
        let topo = Topology::with_rack_sizes(&[3, 2], 2, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 4).unwrap();
        let map: Vec<NodeId> = vec![
            NodeId(0),
            NodeId(1),
            NodeId(3),
            NodeId(4),
            NodeId(2),
            NodeId(3),
            NodeId(0),
            NodeId(4),
        ];
        let mut rng = SimRng::seed_from_u64(0);
        let placed = ExplicitPlacement::new(map.clone())
            .place(&topo, &layout, &mut rng)
            .unwrap();
        assert_eq!(placed, map);
    }

    #[test]
    #[should_panic(expected = "reuses a node")]
    fn explicit_placement_rejects_duplicates_within_stripe() {
        let topo = Topology::with_rack_sizes(&[3, 2], 2, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 2).unwrap();
        let map = vec![NodeId(0), NodeId(0), NodeId(1), NodeId(2)];
        let mut rng = SimRng::seed_from_u64(0);
        let _ = ExplicitPlacement::new(map).place(&topo, &layout, &mut rng);
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn explicit_placement_rejects_wrong_length() {
        let topo = Topology::with_rack_sizes(&[3, 2], 2, 1);
        let layout = StripeLayout::new(CodeParams::new(4, 2).unwrap(), 4).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        let _ = ExplicitPlacement::new(vec![NodeId(0)]).place(&topo, &layout, &mut rng);
    }
}
