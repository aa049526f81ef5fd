//! Property-based tests for the flow-level network: feasibility and
//! max-min optimality of rate allocations, byte conservation, and
//! monotonicity of completion under contention.

use netsim::fairshare::{max_min_rates, max_min_rates_ref, FairshareWorkspace};
use netsim::{NetConfig, Network};
use proptest::prelude::*;
use simkit::time::SimTime;

fn random_paths(num_links: usize, max_flows: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..num_links, 1..=num_links.min(4)),
        0..max_flows,
    )
    .prop_map(|flows| flows.into_iter().map(|s| s.into_iter().collect()).collect())
}

proptest! {
    #[test]
    fn allocation_is_feasible(
        caps in proptest::collection::vec(1e6f64..1e10, 1..8),
        seed_paths in random_paths(8, 12),
    ) {
        let num_links = caps.len();
        let paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_links).collect::<Vec<_>>())
            .filter(|p: &Vec<usize>| !p.is_empty())
            .collect();
        let rates = max_min_rates(&caps, &paths);
        prop_assert_eq!(rates.len(), paths.len());
        let mut usage = vec![0.0f64; num_links];
        for (f, path) in paths.iter().enumerate() {
            prop_assert!(rates[f] > 0.0, "flow {f} starved");
            for &l in path {
                usage[l] += rates[f];
            }
        }
        for l in 0..num_links {
            prop_assert!(usage[l] <= caps[l] * (1.0 + 1e-6), "link {l} oversubscribed");
        }
    }

    #[test]
    fn every_flow_has_a_bottleneck(
        caps in proptest::collection::vec(1e6f64..1e9, 1..6),
        seed_paths in random_paths(6, 8),
    ) {
        let num_links = caps.len();
        let paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_links).collect::<Vec<_>>())
            .filter(|p: &Vec<usize>| !p.is_empty())
            .collect();
        let rates = max_min_rates(&caps, &paths);
        let mut usage = vec![0.0f64; num_links];
        for (f, path) in paths.iter().enumerate() {
            for &l in path {
                usage[l] += rates[f];
            }
        }
        // Max-min certificate: every flow crosses a saturated link where
        // it has (one of) the largest rates.
        for (f, path) in paths.iter().enumerate() {
            let ok = path.iter().any(|&l| {
                usage[l] >= caps[l] * (1.0 - 1e-6)
                    && paths
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.contains(&l))
                        .all(|(g, _)| rates[g] <= rates[f] * (1.0 + 1e-6))
            });
            prop_assert!(ok, "flow {f} lacks a bottleneck certificate");
        }
    }

    #[test]
    fn workspace_allocator_matches_reference_bit_for_bit(
        caps in proptest::collection::vec(1e6f64..1e10, 1..8),
        seed_paths in random_paths(8, 16),
        loopbacks in 0usize..3,
        pad_links in 1usize..64,
    ) {
        // The production allocator must reproduce the naive reference
        // implementation exactly — same freeze rounds, same
        // floating-point operations, hence bit-identical rates.
        let num_links = caps.len();
        let mut paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_links).collect::<Vec<_>>())
            .collect();
        for _ in 0..loopbacks {
            paths.push(Vec::new());
        }
        let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        let ref_bits = bits(&max_min_rates_ref(&caps, &paths));
        prop_assert_eq!(&ref_bits, &bits(&max_min_rates(&caps, &paths)));
        // A reused (dirty) workspace must agree too, while the link
        // count grows and shrinks between calls.
        let mut wider = caps.clone();
        wider.extend(std::iter::repeat_n(3.3e9, pad_links));
        let wider_bits = bits(&max_min_rates_ref(&wider, &paths));
        let paths32: Vec<Vec<u32>> = paths
            .iter()
            .map(|p| p.iter().map(|&l| l as u32).collect())
            .collect();
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&wider, &paths32, &mut rates);
        prop_assert_eq!(&wider_bits, &bits(&rates));
        ws.compute_sparse(&caps, &paths32, &mut rates);
        prop_assert_eq!(&ref_bits, &bits(&rates));
        ws.compute_sparse(&wider, &paths32, &mut rates);
        prop_assert_eq!(&wider_bits, &bits(&rates));
    }

    #[test]
    fn sparse_allocator_matches_reference_bit_for_bit(
        caps in proptest::collection::vec(1e6f64..1e10, 1..12),
        seed_paths in random_paths(12, 20),
        loopbacks in 0usize..3,
        pad_links in 0usize..512,
    ) {
        // The bounded-recompute (sparse) allocator must reproduce the
        // reference exactly even when the capacity vector is mostly
        // untouched padding — same freeze rounds, same floating-point
        // operations, bit-identical rates.
        let num_real = caps.len();
        let mut caps = caps;
        caps.extend(std::iter::repeat_n(7.7e9, pad_links));
        let mut paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_real).collect::<Vec<_>>())
            .collect();
        for _ in 0..loopbacks {
            paths.push(Vec::new());
        }
        let reference = max_min_rates_ref(&caps, &paths);
        let ref_bits: Vec<u64> = reference.iter().map(|r| r.to_bits()).collect();
        let paths32: Vec<Vec<u32>> = paths
            .iter()
            .map(|p| p.iter().map(|&l| l as u32).collect())
            .collect();
        // A reused (dirty) workspace must agree too, across epochs.
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&caps, &paths32, &mut rates);
        ws.compute_sparse(&caps, &paths32, &mut rates);
        prop_assert_eq!(
            &ref_bits,
            &rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bytes_are_conserved(
        transfers in proptest::collection::vec((0usize..6, 0usize..6, 1u64..64_000_000), 1..20),
        bw in 1u64..=4,
    ) {
        // Deliver every flow; total delivered time must cover bytes at
        // link speed, and all flows complete.
        let mut net = Network::new(&[3, 3], NetConfig::uniform(bw * 100_000_000));
        let mut now = SimTime::ZERO;
        let mut started = 0usize;
        for &(src, dst, bytes) in &transfers {
            net.start_flow(now, src, dst, bytes);
            started += 1;
        }
        let mut finished = 0usize;
        let mut guard = 0;
        while let Some(t) = net.next_completion() {
            prop_assert!(t >= now, "completion in the past");
            now = t;
            let done = net.drain_finished(now);
            for (_, stats) in &done {
                // A flow's duration is at least its serialized time over
                // the fastest possible path (one link at full speed would
                // be bytes*8/(4*bw) at most; we check a weak lower bound:
                // nonzero for nonzero inter-node payloads).
                if stats.src != stats.dst && stats.bytes > 0 {
                    prop_assert!(stats.duration().as_micros() > 0);
                }
                finished += 1;
            }
            guard += 1;
            prop_assert!(guard < 10_000, "network failed to converge");
        }
        prop_assert_eq!(finished, started);
        prop_assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn contention_never_speeds_a_flow_up(
        bytes in 1_000_000u64..512_000_000,
        competitors in 0usize..6,
    ) {
        // Measure a cross-rack flow alone, then with competitors sharing
        // its destination rack downlink; the observed flow must finish
        // no earlier under contention.
        let solo = {
            let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
            net.start_flow(SimTime::ZERO, 4, 0, bytes);
            net.next_completion().unwrap()
        };
        let contended = {
            let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
            let main = net.start_flow(SimTime::ZERO, 4, 0, bytes);
            for c in 0..competitors {
                net.start_flow(SimTime::ZERO, 5 + (c % 3), 1 + (c % 3), u64::MAX / 1024);
            }
            // Drain until the observed flow completes.
            let mut done_at = None;
            while done_at.is_none() {
                let t = net.next_completion().expect("main flow must finish");
                for (id, stats) in net.drain_finished(t) {
                    if id == main {
                        done_at = Some(stats.finished);
                    }
                }
            }
            done_at.unwrap()
        };
        prop_assert!(contended >= solo, "contended {contended} < solo {solo}");
    }
}
