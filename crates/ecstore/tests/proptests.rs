//! Property-based tests for placement and degraded-read planning over
//! randomized topologies and coding schemes.

use cluster::{ClusterState, FailureScenario, NodeId, RackId, Topology};
use ecstore::placement::{
    PlacementError, PlacementPolicy, RackAwarePlacement, RoundRobinPlacement,
};
use ecstore::{BlockStore, DegradedReadPlan, SourceSelection, StripeLayout};
use erasure::CodeParams;
use proptest::prelude::*;
use simkit::SimRng;

#[derive(Debug, Clone)]
struct Setup {
    racks: usize,
    nodes_per_rack: usize,
    n: usize,
    k: usize,
    stripes: usize,
    seed: u64,
}

fn setup() -> impl Strategy<Value = Setup> {
    // Feasible combinations: parity >= 2, n <= racks*parity, n <= nodes.
    (
        2usize..=5,
        2usize..=5,
        2usize..=6,
        2usize..=4,
        1usize..=12,
        any::<u64>(),
    )
        .prop_filter_map(
            "feasible placement",
            |(racks, nodes_per_rack, k, parity, stripes, seed)| {
                let n = k + parity;
                let nodes = racks * nodes_per_rack;
                (n <= nodes && n <= racks * parity && n <= 255).then_some(Setup {
                    racks,
                    nodes_per_rack,
                    n,
                    k,
                    stripes,
                    seed,
                })
            },
        )
}

fn place(s: &Setup, policy: &dyn PlacementPolicy) -> (Topology, BlockStore) {
    let topo = Topology::homogeneous(s.racks, s.nodes_per_rack, 2, 1);
    let layout = StripeLayout::new(
        CodeParams::new(s.n, s.k).expect("valid code"),
        s.stripes * s.k,
    )
    .expect("layout");
    let mut rng = SimRng::seed_from_u64(s.seed);
    let store = BlockStore::place(&topo, layout, policy, &mut rng).expect("placement");
    (topo, store)
}

/// The rack-aware selection by its definition: fresh scratch per stripe,
/// and each rack's picks the first `quota` of its shuffled members sorted
/// by `(load, shuffled position)`. Returns the map and the most load
/// levels that one rack's picks spanned.
fn reference_place(
    topo: &Topology,
    layout: &StripeLayout,
    rng: &mut SimRng,
) -> (Result<Vec<NodeId>, PlacementError>, usize) {
    let n = layout.params().n();
    let parity = layout.params().parity();
    let racks = topo.num_racks();
    let mut levels = 0;
    if parity < 2 {
        return (Err(PlacementError::InsufficientParity { parity }), levels);
    }
    if n > topo.num_nodes() {
        let nodes = topo.num_nodes();
        return (Err(PlacementError::TooFewNodes { n, nodes }), levels);
    }
    if n > racks * parity {
        let err = PlacementError::RackConstraintUnsatisfiable { n, parity, racks };
        return (Err(err), levels);
    }
    let rack_sizes = topo.rack_sizes();
    let mut load = vec![0usize; topo.num_nodes()];
    let mut native_load = vec![0usize; topo.num_nodes()];
    let k = layout.params().k();
    let mut map = Vec::with_capacity(layout.num_blocks());
    for _stripe in 0..layout.num_stripes() {
        let mut quota = vec![0usize; racks];
        let mut remaining = n;
        let mut rack_order: Vec<usize> = (0..racks).collect();
        rng.shuffle(&mut rack_order);
        'fill: loop {
            for &r in &rack_order {
                if remaining == 0 {
                    break 'fill;
                }
                if quota[r] < parity.min(rack_sizes[r]) {
                    quota[r] += 1;
                    remaining -= 1;
                }
            }
            if remaining > 0
                && rack_order
                    .iter()
                    .all(|&r| quota[r] >= parity.min(rack_sizes[r]))
            {
                let err = PlacementError::RackConstraintUnsatisfiable { n, parity, racks };
                return (Err(err), levels);
            }
        }
        let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
        for (r, &rack_quota) in quota.iter().enumerate() {
            if rack_quota == 0 {
                continue;
            }
            let mut members = topo.nodes_in_rack(RackId(r as u32)).to_vec();
            rng.shuffle(&mut members);
            let mut keyed: Vec<(usize, usize)> = members
                .iter()
                .enumerate()
                .map(|(pos, m)| (load[m.index()], pos))
                .collect();
            keyed.sort();
            keyed.truncate(rack_quota);
            let mut spanned: Vec<usize> = keyed.iter().map(|&(l, _)| l).collect();
            spanned.dedup();
            levels = levels.max(spanned.len());
            for &(_, pos) in &keyed {
                let m = members[pos];
                chosen.push(m);
                load[m.index()] += 1;
            }
        }
        rng.shuffle(&mut chosen);
        chosen.sort_by_key(|m| native_load[m.index()]);
        let mut natives = chosen[..k].to_vec();
        let mut parities = chosen[k..].to_vec();
        for m in &natives {
            native_load[m.index()] += 1;
        }
        rng.shuffle(&mut natives);
        rng.shuffle(&mut parities);
        natives.extend(parities);
        map.extend(natives);
    }
    (Ok(map), levels)
}

#[derive(Debug, Clone)]
struct OracleCase {
    rack_sizes: Vec<usize>,
    n: usize,
    k: usize,
    stripes: usize,
    seed: u64,
}

/// The most racks an oracle case has: (12,10) needs six, plus three.
const MAX_ORACLE_RACKS: usize = 9;

/// Unequal racks (some smaller than their quota), small random codes and
/// the paper's wide ones, whose per-rack quota exceeds 1.
fn oracle_case() -> impl Strategy<Value = OracleCase> {
    let code = prop_oneof![
        4 => (1usize..=6, 2usize..=4).prop_map(|(k, parity)| (k + parity, k)),
        1 => Just((20, 15)),
        1 => Just((16, 12)),
        1 => Just((12, 10)),
        1 => Just((9, 6)),
        1 => Just((8, 6)),
    ];
    (
        code,
        0usize..=3,
        proptest::collection::vec(1usize..=12, MAX_ORACLE_RACKS),
        1usize..=40,
        any::<u64>(),
    )
        .prop_map(|((n, k), extra_racks, mut rack_sizes, stripes, seed)| {
            rack_sizes.truncate(n.div_ceil(n - k) + extra_racks);
            OracleCase {
                rack_sizes,
                n,
                k,
                stripes,
                seed,
            }
        })
}

/// A placement's map and its generator's next draw afterwards.
type Placed = (Result<Vec<NodeId>, PlacementError>, u64);

/// Places an oracle case with both implementations; returns what each
/// placed and the most levels a reference pick spanned.
fn place_both(case: &OracleCase) -> (Placed, Placed, usize) {
    let topo = Topology::with_rack_sizes(&case.rack_sizes, 2, 1);
    let params = CodeParams::new(case.n, case.k).expect("valid code");
    let layout = StripeLayout::new(params, case.stripes * case.k).expect("layout");
    let mut rng = SimRng::seed_from_u64(case.seed);
    let placed = RackAwarePlacement.place(&topo, &layout, &mut rng);
    let mut reference_rng = SimRng::seed_from_u64(case.seed);
    let (reference, levels) = reference_place(&topo, &layout, &mut reference_rng);
    (
        (placed, rng.next_u64()),
        (reference, reference_rng.next_u64()),
        levels,
    )
}

#[test]
fn oracle_cases_reach_a_second_load_level() {
    // The oracle proptest only checks the level-by-level walk past its
    // first level if its cases make a rack's picks span two loads.
    let strategy = oracle_case();
    let mut placed = 0;
    let mut two_level = 0;
    for seed in 0..256 {
        let case = strategy.generate(&mut TestRng::new(seed));
        let ((result, _), _, levels) = place_both(&case);
        placed += usize::from(result.is_ok());
        two_level += usize::from(levels >= 2);
    }
    assert!(placed >= 128, "only {placed} of 256 cases placed");
    assert!(
        two_level >= 64,
        "only {two_level} of 256 cases span two levels"
    );
}

proptest! {

    #[test]
    fn rack_aware_placement_matches_reference(case in oracle_case()) {
        let ((placed, next), (reference, reference_next), _) = place_both(&case);
        prop_assert_eq!(placed, reference);
        prop_assert_eq!(next, reference_next, "generator states differ");
    }

    #[test]
    fn rack_aware_placement_invariants(s in setup()) {
        let (topo, store) = place(&s, &RackAwarePlacement);
        let layout = store.layout();
        for stripe in 0..layout.num_stripes() {
            let stripe = ecstore::StripeId(stripe as u32);
            let nodes: Vec<_> = layout
                .stripe_blocks(stripe)
                .map(|b| store.node_of(b))
                .collect();
            // Distinct nodes.
            let mut uniq = nodes.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), s.n, "stripe reuses a node");
            // Rack constraint: at most n-k blocks per rack.
            for rack in topo.rack_ids() {
                let count = nodes.iter().filter(|&&m| topo.rack_of(m) == rack).count();
                prop_assert!(count <= s.n - s.k, "rack constraint violated");
            }
        }
        // Native balance: max-min spread stays within quota rounding.
        let loads: Vec<usize> = store.native_load().values().copied().collect();
        let (min, max) = (
            loads.iter().min().copied().unwrap_or(0),
            loads.iter().max().copied().unwrap_or(0),
        );
        prop_assert!(
            max - min <= s.stripes.min(2) + 1,
            "native load spread {min}..{max} too wide"
        );
    }

    #[test]
    fn any_single_failure_keeps_all_stripes_recoverable(s in setup()) {
        let (topo, store) = place(&s, &RackAwarePlacement);
        for victim in topo.node_ids() {
            let state =
                ClusterState::from_scenario(&topo, &FailureScenario::nodes([victim]));
            for stripe in 0..store.layout().num_stripes() {
                prop_assert!(store.is_recoverable(ecstore::StripeId(stripe as u32), &state));
            }
        }
    }

    #[test]
    fn any_rack_failure_keeps_all_stripes_recoverable(s in setup()) {
        let (topo, store) = place(&s, &RackAwarePlacement);
        for rack in topo.rack_ids() {
            let state = ClusterState::from_scenario(&topo, &FailureScenario::rack(rack));
            for stripe in 0..store.layout().num_stripes() {
                prop_assert!(
                    store.is_recoverable(ecstore::StripeId(stripe as u32), &state),
                    "rack {rack} failure destroyed stripe {stripe}"
                );
            }
        }
    }

    #[test]
    fn lost_blocks_partition_by_holder(s in setup()) {
        let (topo, store) = place(&s, &RackAwarePlacement);
        let victim = topo.node((s.seed % topo.num_nodes() as u64) as usize);
        let state = ClusterState::from_scenario(&topo, &FailureScenario::nodes([victim]));
        let lost = store.lost_native_blocks(&state);
        prop_assert_eq!(lost.len(), store.natives_on(victim).len());
        for b in &lost {
            prop_assert_eq!(store.node_of(*b), victim);
        }
    }

    #[test]
    fn degraded_plans_are_valid_for_both_strategies(s in setup()) {
        let (topo, store) = place(&s, &RackAwarePlacement);
        let victim = topo.node(0);
        let state = ClusterState::from_scenario(&topo, &FailureScenario::nodes([victim]));
        let mut rng = SimRng::seed_from_u64(s.seed ^ 0xdead);
        let readers: Vec<_> = state.alive_nodes();
        for target in store.lost_native_blocks(&state).into_iter().take(4) {
            for strategy in [SourceSelection::UniformRandom, SourceSelection::LocalFirst] {
                let reader = readers[(s.seed as usize) % readers.len()];
                let plan = DegradedReadPlan::plan(
                    &store, &topo, &state, target, reader, strategy, &mut rng,
                )
                .unwrap();
                prop_assert_eq!(plan.sources.len(), s.k);
                let mut blocks: Vec<_> = plan.sources.iter().map(|&(b, _)| b).collect();
                blocks.sort();
                blocks.dedup();
                prop_assert_eq!(blocks.len(), s.k, "duplicate sources");
                for (block, holder) in &plan.sources {
                    prop_assert!(state.is_alive(*holder));
                    prop_assert_eq!(store.node_of(*block), *holder);
                    prop_assert_eq!(block.stripe, target.stripe);
                }
                prop_assert!(plan.cross_rack_reads(&topo) <= s.k);
            }
        }
    }

    #[test]
    fn round_robin_spreads_natives_evenly(s in setup()) {
        let (_topo, store) = place(&s, &RoundRobinPlacement);
        let loads: Vec<usize> = store.native_load().values().copied().collect();
        let total: usize = loads.iter().sum();
        prop_assert_eq!(total, s.stripes * s.k);
        let (min, max) = (
            loads.iter().min().copied().unwrap_or(0),
            loads.iter().max().copied().unwrap_or(0),
        );
        // Rotation keeps per-node native counts within 1 of each other
        // when the block count divides evenly; otherwise within the
        // number of stripes.
        prop_assert!(max - min <= s.stripes.max(1), "{min}..{max}");
    }
}
