//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each using a set of links with fixed capacities,
//! the max-min fair allocation repeatedly finds the most contended link,
//! freezes its flows at an equal share of its remaining capacity, and
//! subtracts that share along their paths. The result is the classic
//! water-filling allocation: no flow can increase its rate without
//! decreasing that of a flow with an equal or smaller rate.
//!
//! Two implementations live here:
//!
//! * [`FairshareWorkspace::compute_sparse`] — the production path: a
//!   **bounded-recompute** allocator that touches only the links the
//!   given paths actually cross. Per call it is `O(total path length +
//!   active links · rounds)`, independent of how many links the
//!   network has — the property that makes per-event reallocation
//!   affordable on a 10,000-node topology, where a handful of flows
//!   share a few dozen of the ~20,000 links.
//! * [`max_min_rates_ref`] — the straightforward textbook version this
//!   module originally shipped, retained as the oracle.
//!
//! Both produce **bit-identical** rates: links with no unfrozen flow
//! never contribute to a round's `best_share`, so restricting every
//! scan to the active (path-referenced) links — enumerated in ascending
//! link order, exactly as the reference's dense scan visits them —
//! reproduces the same freeze rounds, the same `best_share` every
//! round, and hence the same clamped subtraction sequence per link.

/// Computes max-min fair rates.
///
/// * `capacities[l]` — capacity of link `l` in bits/second.
/// * `paths[f]` — the link indices flow `f` traverses (may be empty for a
///   loopback flow, which gets `f64::INFINITY`).
///
/// Returns one rate per flow, in bits/second. Convenience wrapper over
/// [`FairshareWorkspace::compute_sparse`] for one-shot callers; event
/// loops should hold a workspace to amortize the scratch allocations.
///
/// # Panics
///
/// Panics if a path references an unknown link or the capacity of a
/// referenced link is not positive and finite.
pub fn max_min_rates(capacities: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    let mut ws = FairshareWorkspace::new();
    let mut rates = Vec::new();
    let paths32: Vec<Vec<u32>> = paths
        .iter()
        .map(|p| {
            p.iter()
                .map(|&l| u32::try_from(l).expect("link index fits u32"))
                .collect()
        })
        .collect();
    ws.compute_sparse(capacities, &paths32, &mut rates);
    rates
}

/// Scratch state for [`FairshareWorkspace::compute_sparse`]. Create
/// once, reuse for every allocation; all internal buffers retain their
/// capacity between calls, so a warm workspace allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct FairshareWorkspace {
    /// Remaining capacity per link.
    remaining: Vec<f64>,
    /// Unfrozen flows crossing each link.
    load: Vec<u32>,
    /// Flow → links, CSR: flow `f` uses `path_flat[path_off[f]..path_off[f+1]]`.
    path_off: Vec<u32>,
    path_flat: Vec<u32>,
    /// Link → flows, CSR: link `l` carries `link_flows[link_off[l]..link_off[l+1]]`.
    link_off: Vec<u32>,
    link_flows: Vec<u32>,
    /// Per-flow freeze flag.
    frozen: Vec<bool>,
    /// Bottleneck links of the current round.
    round_links: Vec<u32>,
    /// Sparse-path scratch: original link id → epoch stamp. A link is
    /// "known this call" iff its stamp equals `epoch`.
    link_epoch: Vec<u32>,
    /// Sparse-path scratch: original link id → dense index, valid only
    /// when the epoch stamp matches.
    link_dense: Vec<u32>,
    /// Sparse-path scratch: dense index → original link id, ascending.
    active: Vec<u32>,
    /// Current sparse-call epoch (see `link_epoch`).
    epoch: u32,
}

impl FairshareWorkspace {
    /// An empty workspace.
    pub fn new() -> FairshareWorkspace {
        FairshareWorkspace::default()
    }

    /// Bounded-recompute max-min fair rates: identical semantics — and
    /// identical floating-point results — to [`max_min_rates_ref`], but
    /// every per-round scan walks only the links the given paths cross. Cost per call is `O(total path length + active links ·
    /// rounds)` instead of `O(num links · rounds)`; `capacities` is
    /// only indexed at active links, never traversed.
    ///
    /// The one scan proportional to the full link count is a lazy,
    /// amortized resize of two epoch-stamped lookup tables the first
    /// time a larger link id appears; steady-state calls allocate and
    /// clear nothing.
    ///
    /// # Panics
    ///
    /// Panics if a path references an unknown link (`>= capacities.len()`)
    /// or the capacity of a *referenced* link is not positive and
    /// finite. (Unreferenced links' capacities are never inspected —
    /// the price of never touching them.)
    pub fn compute_sparse<I>(&mut self, capacities: &[f64], paths: I, rates: &mut Vec<f64>)
    where
        I: IntoIterator,
        I::Item: AsRef<[u32]>,
    {
        let num_links = capacities.len();
        if self.link_epoch.len() < num_links {
            self.link_epoch.resize(num_links, 0);
            self.link_dense.resize(num_links, 0);
        }
        if self.epoch == u32::MAX {
            self.link_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;

        rates.clear();
        self.frozen.clear();
        self.active.clear();

        // Pass 1: copy paths into the flow CSR (original link ids for
        // now), collect the set of referenced links, and freeze
        // loopback (empty-path) flows at infinity.
        self.path_off.clear();
        self.path_flat.clear();
        self.path_off.push(0);
        let mut unfrozen_left = 0usize;
        for path in paths {
            let path = path.as_ref();
            for &l in path {
                assert!((l as usize) < num_links, "path references unknown link {l}");
                if self.link_epoch[l as usize] != epoch {
                    self.link_epoch[l as usize] = epoch;
                    self.active.push(l);
                }
                self.path_flat.push(l);
            }
            self.path_off.push(self.path_flat.len() as u32);
            if path.is_empty() {
                rates.push(f64::INFINITY);
                self.frozen.push(true);
            } else {
                rates.push(0.0);
                self.frozen.push(false);
                unfrozen_left += 1;
            }
        }
        let num_flows = rates.len();

        // Dense link ids in ascending original order, so every scan
        // below visits links exactly as the reference's `0..num_links`
        // loop would.
        self.active.sort_unstable();
        let num_active = self.active.len();
        self.remaining.clear();
        self.load.clear();
        self.load.resize(num_active, 0);
        for (d, &l) in self.active.iter().enumerate() {
            let cap = capacities[l as usize];
            assert!(
                cap > 0.0 && cap.is_finite(),
                "link capacities must be positive and finite"
            );
            self.link_dense[l as usize] = d as u32;
            self.remaining.push(cap);
        }

        // Translate the flow CSR to dense ids and count link loads.
        for l in &mut self.path_flat {
            let d = self.link_dense[*l as usize];
            self.load[d as usize] += 1;
            *l = d;
        }

        // Pass 2: invert into the link CSR by counting sort (ascending
        // flow order per link).
        self.link_off.clear();
        self.link_off.resize(num_active + 1, 0);
        for &l in &self.path_flat {
            self.link_off[l as usize + 1] += 1;
        }
        for l in 0..num_active {
            self.link_off[l + 1] += self.link_off[l];
        }
        self.link_flows.clear();
        self.link_flows.resize(self.path_flat.len(), 0);
        {
            let cursor = &mut self.round_links;
            cursor.clear();
            cursor.extend_from_slice(&self.link_off[..num_active]);
            for f in 0..num_flows {
                let (s, e) = (self.path_off[f] as usize, self.path_off[f + 1] as usize);
                for &l in &self.path_flat[s..e] {
                    let c = &mut cursor[l as usize];
                    self.link_flows[*c as usize] = f as u32;
                    *c += 1;
                }
            }
        }

        // Progressive filling over the active links only. Links outside
        // `active` carry no flow, so the reference's scans skip them
        // via the `load > 0` guard; restricting the loop to `active`
        // removes them from the scan without changing a single
        // floating-point operation.
        while unfrozen_left > 0 {
            let mut best_share = f64::INFINITY;
            for l in 0..num_active {
                if self.load[l] > 0 {
                    let share = self.remaining[l] / self.load[l] as f64;
                    if share < best_share {
                        best_share = share;
                    }
                }
            }
            debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
            let tol = best_share * 1e-12;
            self.round_links.clear();
            for l in 0..num_active {
                if self.load[l] > 0 && self.remaining[l] / self.load[l] as f64 <= best_share + tol {
                    self.round_links.push(l as u32);
                }
            }
            for i in 0..self.round_links.len() {
                let l = self.round_links[i] as usize;
                let (s, e) = (self.link_off[l] as usize, self.link_off[l + 1] as usize);
                for j in s..e {
                    let f = self.link_flows[j] as usize;
                    if self.frozen[f] {
                        continue;
                    }
                    self.frozen[f] = true;
                    rates[f] = best_share;
                    unfrozen_left -= 1;
                    let (ps, pe) = (self.path_off[f] as usize, self.path_off[f + 1] as usize);
                    for &pl in &self.path_flat[ps..pe] {
                        let r = &mut self.remaining[pl as usize];
                        *r = (*r - best_share).max(0.0);
                        self.load[pl as usize] -= 1;
                    }
                }
            }
        }
    }
}

/// Reference implementation of [`max_min_rates`]: allocates its scratch
/// per call and re-scans every flow each freeze round. Retained as the
/// oracle for property tests.
///
/// # Panics
///
/// Panics if a path references an unknown link or a capacity is not
/// positive.
pub fn max_min_rates_ref(capacities: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    assert!(
        capacities.iter().all(|&c| c > 0.0 && c.is_finite()),
        "link capacities must be positive and finite"
    );
    let num_links = capacities.len();
    let num_flows = paths.len();
    for path in paths {
        for &l in path {
            assert!(l < num_links, "path references unknown link {l}");
        }
    }

    let mut rates = vec![0.0f64; num_flows];
    let mut frozen = vec![false; num_flows];
    let mut remaining: Vec<f64> = capacities.to_vec();
    // Number of unfrozen flows crossing each link.
    let mut load = vec![0usize; num_links];
    let mut unfrozen_left = 0usize;
    for (f, path) in paths.iter().enumerate() {
        if path.is_empty() {
            rates[f] = f64::INFINITY;
            frozen[f] = true;
        } else {
            unfrozen_left += 1;
            for &l in path {
                load[l] += 1;
            }
        }
    }

    while unfrozen_left > 0 {
        // The bottleneck link: smallest per-flow share among loaded links.
        let mut best_share = f64::INFINITY;
        for l in 0..num_links {
            if load[l] > 0 {
                let share = remaining[l] / load[l] as f64;
                if share < best_share {
                    best_share = share;
                }
            }
        }
        debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
        // Freeze every unfrozen flow crossing a bottleneck link. A small
        // relative tolerance groups links whose shares are equal up to
        // floating-point noise.
        let tol = best_share * 1e-12;
        let mut bottleneck = vec![false; num_links];
        for l in 0..num_links {
            if load[l] > 0 && remaining[l] / load[l] as f64 <= best_share + tol {
                bottleneck[l] = true;
            }
        }
        for f in 0..num_flows {
            if frozen[f] || !paths[f].iter().any(|&l| bottleneck[l]) {
                continue;
            }
            rates[f] = best_share;
            frozen[f] = true;
            unfrozen_left -= 1;
            for &l in &paths[f] {
                remaining[l] = (remaining[l] - best_share).max(0.0);
                load[l] -= 1;
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: f64 = 1e9;

    #[test]
    fn single_flow_gets_full_bottleneck() {
        let rates = max_min_rates(&[GBPS, 0.1 * GBPS], &[vec![0, 1]]);
        assert_eq!(rates, vec![0.1 * GBPS]);
    }

    #[test]
    fn equal_flows_split_equally() {
        // The paper's motivating scenario: two degraded reads sharing one
        // rack downlink each get half the bandwidth.
        let rates = max_min_rates(&[0.1 * GBPS], &[vec![0], vec![0]]);
        assert!((rates[0] - 0.05 * GBPS).abs() < 1.0);
        assert!((rates[1] - 0.05 * GBPS).abs() < 1.0);
    }

    #[test]
    fn water_filling_redistribution() {
        // Link 0: 1 Gbps shared by flows A and B; flow B also crosses
        // link 1 at 0.2 Gbps. B is frozen at 0.2; A then gets 0.8.
        let rates = max_min_rates(&[GBPS, 0.2 * GBPS], &[vec![0], vec![0, 1]]);
        assert!((rates[1] - 0.2 * GBPS).abs() < 1.0, "B {}", rates[1]);
        assert!((rates[0] - 0.8 * GBPS).abs() < 1.0, "A {}", rates[0]);
    }

    #[test]
    fn loopback_flows_are_infinite() {
        let rates = max_min_rates(&[GBPS], &[vec![], vec![0]]);
        assert_eq!(rates[0], f64::INFINITY);
        assert_eq!(rates[1], GBPS);
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[GBPS], &[]).is_empty());
    }

    #[test]
    fn allocation_is_feasible_and_pareto() {
        // Random-ish topology: 5 links, 8 flows; verify (1) no link is
        // oversubscribed, (2) every flow has a saturated link on its path
        // whose other flows are not smaller (max-min certificate).
        let caps = [GBPS, 0.5 * GBPS, 0.25 * GBPS, 2.0 * GBPS, 0.75 * GBPS];
        let paths: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![4],
            vec![0, 4],
            vec![1, 4],
            vec![2],
        ];
        let rates = max_min_rates(&caps, &paths);
        let mut usage = [0.0f64; 5];
        for (f, path) in paths.iter().enumerate() {
            assert!(rates[f] > 0.0);
            for &l in path {
                usage[l] += rates[f];
            }
        }
        for l in 0..5 {
            assert!(
                usage[l] <= caps[l] * (1.0 + 1e-9),
                "link {l} oversubscribed"
            );
        }
        for (f, path) in paths.iter().enumerate() {
            let has_certificate = path.iter().any(|&l| {
                let saturated = usage[l] >= caps[l] * (1.0 - 1e-9);
                let is_max_on_link = paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.contains(&l))
                    .all(|(g, _)| rates[g] <= rates[f] * (1.0 + 1e-9));
                saturated && is_max_on_link
            });
            assert!(has_certificate, "flow {f} has no bottleneck certificate");
        }
    }

    #[test]
    fn workspace_matches_reference_bit_for_bit() {
        // A contended mesh with ties, loopbacks, and repeated links.
        let caps = [
            GBPS,
            0.5 * GBPS,
            0.25 * GBPS,
            2.0 * GBPS,
            0.75 * GBPS,
            0.1 * GBPS,
        ];
        let paths: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![4],
            vec![0, 4],
            vec![1, 4],
            vec![2],
            vec![5],
            vec![5],
            vec![0, 5],
            vec![],
        ];
        let reference = max_min_rates_ref(&caps, &paths);
        let via_workspace = max_min_rates(&caps, &paths);
        let ref_bits: Vec<u64> = reference.iter().map(|r| r.to_bits()).collect();
        let ws_bits: Vec<u64> = via_workspace.iter().map(|r| r.to_bits()).collect();
        assert_eq!(ref_bits, ws_bits);
    }

    /// Rates as bit patterns, so comparisons are exact.
    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        // The contended mesh of `workspace_matches_reference_bit_for_bit`
        // spread over a huge capacity vector where almost every link is
        // untouched: the sparse path must match the dense reference scan
        // exactly.
        let mut caps = vec![3.3 * GBPS; 4096];
        for (l, c) in [
            (0usize, GBPS),
            (100, 0.5 * GBPS),
            (2000, 0.25 * GBPS),
            (2001, 2.0 * GBPS),
            (4000, 0.75 * GBPS),
            (4095, 0.1 * GBPS),
        ] {
            caps[l] = c;
        }
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 100],
            vec![],
            vec![100, 2000],
            vec![2000, 2001],
            vec![0, 2001],
            vec![4000],
            vec![0, 4000],
            vec![100, 4000],
            vec![2000],
            vec![4095],
            vec![4095],
            vec![0, 4095],
            vec![],
        ];
        let reference = max_min_rates_ref(&caps, &widen(&paths));
        let mut ws = FairshareWorkspace::new();
        let mut sparse = Vec::new();
        ws.compute_sparse(&caps, &paths, &mut sparse);
        assert_eq!(bits(&sparse), bits(&reference));
    }

    /// Paths in the reference's `usize` link ids.
    fn widen(paths: &[Vec<u32>]) -> Vec<Vec<usize>> {
        paths
            .iter()
            .map(|p| p.iter().map(|&l| l as usize).collect())
            .collect()
    }

    #[test]
    fn sparse_never_reads_untouched_capacities() {
        // Untouched links may carry garbage capacities (NaN, zero):
        // the sparse path must not inspect them.
        let caps = [GBPS, f64::NAN, 0.0, -5.0, 0.5 * GBPS];
        let paths: Vec<Vec<u32>> = vec![vec![0, 4], vec![4]];
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&caps, &paths, &mut rates);
        let expected = max_min_rates_ref(&[GBPS, GBPS, GBPS, GBPS, 0.5 * GBPS], &widen(&paths));
        assert_eq!(bits(&rates), bits(&expected));
    }

    #[test]
    fn sparse_reuse_is_clean_across_calls_and_epochs() {
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&[GBPS, 0.5 * GBPS], &[vec![0u32, 1], vec![1]], &mut rates);
        let first = rates.clone();
        // A different problem over a larger link space.
        ws.compute_sparse(&vec![GBPS; 64], &[vec![63u32]], &mut rates);
        assert_eq!(rates, vec![GBPS]);
        // Shrinking back must not see stale dense mappings.
        ws.compute_sparse(&[GBPS, 0.5 * GBPS], &[vec![0u32, 1], vec![1]], &mut rates);
        assert_eq!(rates, first);
        // No flows at all.
        ws.compute_sparse(&[GBPS], core::iter::empty::<&[u32]>(), &mut rates);
        assert!(rates.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn sparse_rejects_unknown_link() {
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&[GBPS], &[vec![3u32]], &mut rates);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sparse_rejects_zero_capacity_on_touched_link() {
        let mut ws = FairshareWorkspace::new();
        let mut rates = Vec::new();
        ws.compute_sparse(&[0.0], &[vec![0u32]], &mut rates);
    }

    #[test]
    fn workspace_reuse_is_clean_across_calls() {
        // One dirty workspace across problems whose link counts grow and
        // shrink must reproduce the reference on each of them.
        let problems: Vec<(Vec<f64>, Vec<Vec<u32>>)> = vec![
            (vec![GBPS, 0.5 * GBPS], vec![vec![0, 1], vec![1]]),
            (vec![GBPS], vec![vec![0]]),
            (
                vec![0.25 * GBPS; 300],
                vec![vec![299, 7], vec![7], vec![], vec![150, 299]],
            ),
            (vec![GBPS, 0.5 * GBPS], vec![vec![0, 1], vec![1]]),
        ];
        let mut ws = FairshareWorkspace::new();
        let mut rates = vec![99.0; 7];
        for (caps, paths) in &problems {
            ws.compute_sparse(caps, paths, &mut rates);
            assert_eq!(bits(&rates), bits(&max_min_rates_ref(caps, &widen(paths))));
        }
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn rejects_unknown_link() {
        let _ = max_min_rates(&[GBPS], &[vec![3]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = max_min_rates(&[0.0], &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn reference_rejects_unknown_link() {
        let _ = max_min_rates_ref(&[GBPS], &[vec![3]]);
    }
}
