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
//! * [`FlowIncidence`] — the production path: a **persistent** flow↔link
//!   incidence that the owner updates as flows start and leave
//!   ([`FlowIncidence::push`], [`FlowIncidence::swap_remove`], each
//!   `O(route length)`). It keeps, per link that carries a flow, the
//!   list of hops crossing it, plus the set of such *live* links. A
//!   reallocation ([`FlowIncidence::compute`]) only resets remaining
//!   capacity and load on the live links and runs progressive filling,
//!   handing each flow's rate to the caller as the flow freezes: no
//!   per-flow setup pass, no path copy, no sort, no rebuilt index. Its
//!   cost is `O(flows + live links · rounds)`, independent of how many
//!   links the network has — on a 10,000-node topology a few thousand
//!   flows cross a few thousand of the ~20,000 links.
//! * [`max_min_rates_ref`] — the straightforward textbook version this
//!   module originally shipped, retained as the oracle.
//!
//! Both produce **bit-identical** rates, although the incidence visits
//! links and flows in whatever order starts and departures left them:
//!
//! * links with no unfrozen flow never contribute to a round, so
//!   restricting every scan to the live links drops no candidate;
//! * a round's `best_share` is the minimum of the same set of `f64`
//!   quotients `remaining / load`, and a minimum does not depend on scan
//!   order;
//! * the round's bottleneck links — those within `tol` of `best_share` —
//!   form a set, and so do the unfrozen flows crossing them;
//! * within a round every subtraction on a link uses the same
//!   `best_share`, so the clamped sequence `r ← max(r − best_share, 0)`
//!   a link goes through does not depend on the order its flows are
//!   frozen in.
//!
//! Hence the same freeze rounds, the same `best_share` every round and
//! the same per-link arithmetic as the reference's ascending scans.

/// Most links a route may cross: the two-level tree's longest route is
/// `src NIC up, src rack up, dst rack down, dst NIC down`.
pub const MAX_HOPS: usize = 4;

/// A hop entry packs `slot << HOP_BITS | hop`.
const HOP_BITS: u32 = 2;
const HOP_MASK: u32 = (1 << HOP_BITS) - 1;
/// `live_pos` marker for a link that carries no flow.
const NOT_LIVE: u32 = u32::MAX;

/// One flow's route, and where each of its hops sits in that link's
/// hop list.
#[derive(Clone, Copy, Debug)]
struct Route {
    len: u8,
    links: [u32; MAX_HOPS],
    at: [u32; MAX_HOPS],
    /// The [`FlowIncidence::compute`] call that froze the flow: it is
    /// frozen in the running call iff this equals the incidence's
    /// `epoch`.
    frozen_in: u32,
}

/// A link that carries at least one flow.
#[derive(Clone, Debug)]
struct LiveLink {
    id: u32,
    /// One entry per hop crossing the link, `slot << HOP_BITS | hop`,
    /// in no particular order.
    hops: Vec<u32>,
}

/// The persistent flow↔link incidence behind max-min allocation, with
/// the scratch that progressive filling needs. Flows live in dense
/// slots `0..len()`, like a `Vec`: [`FlowIncidence::push`] appends one
/// and [`FlowIncidence::swap_remove`] moves the last flow into the
/// freed slot, so an owner that keeps its own flow vector in the same
/// order reads rates by the same index. A link's hop list is taken when
/// the link goes live and kept for reuse when it empties, so memory
/// follows the most links ever live at once rather than every link ever
/// used; the per-call scratch keeps its capacity, so
/// [`FlowIncidence::compute`] allocates nothing once warm.
#[derive(Clone, Debug, Default)]
pub struct FlowIncidence {
    /// Per flow slot.
    routes: Vec<Route>,
    /// Flows that cross at least one link (not loopback).
    routed: usize,
    /// The links that carry a flow, in no particular order.
    live: Vec<LiveLink>,
    /// Link id → index in `live`, or `NOT_LIVE`.
    live_pos: Vec<u32>,
    /// Emptied hop lists, kept for the next link that goes live.
    spare_hops: Vec<Vec<u32>>,
    /// Per-call scratch, indexed like `live`: remaining capacity and
    /// the number of unfrozen hops on each live link.
    remaining: Vec<f64>,
    load: Vec<u32>,
    /// Numbers the [`FlowIncidence::compute`] calls, for
    /// [`Route::frozen_in`].
    epoch: u32,
    /// Per-round scratch: the `live` indices still carrying an unfrozen
    /// hop, and their shares `remaining / load` at the round's start.
    open: Vec<u32>,
    shares: Vec<f64>,
}

impl FlowIncidence {
    /// An incidence with no flows.
    pub fn new() -> FlowIncidence {
        FlowIncidence::default()
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if there are no flows.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The links the flow in `slot` crosses (empty for loopback).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn links(&self, slot: usize) -> &[u32] {
        let route = &self.routes[slot];
        &route.links[..route.len as usize]
    }

    /// Adds a flow crossing `links` (empty for loopback) in slot
    /// `len()`. A link may appear more than once; each occurrence loads
    /// it once, as in [`max_min_rates_ref`]. Link ids are checked
    /// against the capacities only by [`FlowIncidence::compute`].
    ///
    /// # Panics
    ///
    /// Panics if `links` is longer than [`MAX_HOPS`].
    pub fn push(&mut self, links: &[u32]) {
        assert!(
            links.len() <= MAX_HOPS,
            "a route crosses at most {MAX_HOPS} links"
        );
        let slot = u32::try_from(self.routes.len())
            .ok()
            .filter(|&s| s <= u32::MAX >> HOP_BITS)
            .expect("flow slot fits a hop entry");
        let mut route = Route {
            len: links.len() as u8,
            links: [0; MAX_HOPS],
            at: [0; MAX_HOPS],
            frozen_in: 0,
        };
        for (hop, &link) in links.iter().enumerate() {
            let pos = self.live_index(link);
            let hops = &mut self.live[pos].hops;
            route.links[hop] = link;
            route.at[hop] = hops.len() as u32;
            hops.push(slot << HOP_BITS | hop as u32);
        }
        self.routed += usize::from(!links.is_empty());
        self.routes.push(route);
    }

    /// Removes the flow in `slot`; the last flow moves into `slot`, as
    /// with `Vec::swap_remove`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn swap_remove(&mut self, slot: usize) {
        // Hop positions are re-read every iteration: detaching one hop
        // may move a later hop of the same flow within a shared list.
        for hop in 0..self.routes[slot].len as usize {
            let (link, at) = (self.routes[slot].links[hop], self.routes[slot].at[hop]);
            self.detach(link, at as usize);
        }
        let route = self.routes.swap_remove(slot);
        self.routed -= usize::from(route.len > 0);
        if let Some(moved) = self.routes.get(slot) {
            let entry = (slot as u32) << HOP_BITS;
            for hop in 0..moved.len as usize {
                let pos = self.live_pos[moved.links[hop] as usize] as usize;
                self.live[pos].hops[moved.at[hop] as usize] = entry | hop as u32;
            }
        }
    }

    /// The `live` index of `link`, making it live if it is not.
    fn live_index(&mut self, link: u32) -> usize {
        let l = link as usize;
        if l >= self.live_pos.len() {
            self.live_pos.resize(l + 1, NOT_LIVE);
        }
        if self.live_pos[l] == NOT_LIVE {
            self.live_pos[l] = self.live.len() as u32;
            self.live.push(LiveLink {
                id: link,
                hops: self.spare_hops.pop().unwrap_or_default(),
            });
        }
        self.live_pos[l] as usize
    }

    /// Drops the hop entry at `at` of `link`'s list; a link left with
    /// no hop stops being live.
    fn detach(&mut self, link: u32, at: usize) {
        let pos = self.live_pos[link as usize] as usize;
        let hops = &mut self.live[pos].hops;
        hops.swap_remove(at);
        if let Some(&entry) = hops.get(at) {
            self.routes[(entry >> HOP_BITS) as usize].at[(entry & HOP_MASK) as usize] = at as u32;
        } else if hops.is_empty() {
            let emptied = self.live.swap_remove(pos);
            self.spare_hops.push(emptied.hops);
            self.live_pos[link as usize] = NOT_LIVE;
            if let Some(moved) = self.live.get(pos) {
                self.live_pos[moved.id as usize] = pos as u32;
            }
        }
    }

    /// Max-min fair rates of the current flows: calls `on_rate(slot,
    /// rate)` once per flow that crosses a link, as progressive filling
    /// freezes it, so in no particular slot order. Loopback flows are
    /// never reported; their rate is `f64::INFINITY`. The rates have
    /// identical semantics — and identical floating-point results — to
    /// [`max_min_rates_ref`] over the same paths (see the
    /// [module docs](self)). `capacities` is indexed only at live links,
    /// never traversed.
    ///
    /// # Panics
    ///
    /// Panics if a live link is unknown (`>= capacities.len()`) or its
    /// capacity is not positive and finite. (Other links' capacities
    /// are never inspected — the price of never touching them.)
    pub fn compute(&mut self, capacities: &[f64], mut on_rate: impl FnMut(usize, f64)) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: no stamp may look like the new epoch's.
            for route in &mut self.routes {
                route.frozen_in = 0;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let mut unfrozen_left = self.routed;
        self.remaining.clear();
        self.load.clear();
        for link in &self.live {
            let cap = *capacities
                .get(link.id as usize)
                .unwrap_or_else(|| panic!("path references unknown link {}", link.id));
            assert!(
                cap > 0.0 && cap.is_finite(),
                "link capacities must be positive and finite"
            );
            self.remaining.push(cap);
            self.load.push(link.hops.len() as u32);
        }

        // Every live link starts loaded; one whose load drops to zero
        // leaves `open` at the next round's scan.
        self.open.clear();
        self.open.extend(0..self.live.len() as u32);
        while unfrozen_left > 0 {
            let mut best_share = f64::INFINITY;
            self.shares.clear();
            let mut kept = 0;
            for i in 0..self.open.len() {
                let pos = self.open[i];
                let load = self.load[pos as usize];
                if load == 0 {
                    continue;
                }
                let share = self.remaining[pos as usize] / load as f64;
                if share < best_share {
                    best_share = share;
                }
                self.open[kept] = pos;
                self.shares.push(share);
                kept += 1;
            }
            self.open.truncate(kept);
            debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
            // The bottleneck links are judged on the shares taken before
            // this round froze anything, as in the reference.
            let tol = best_share * 1e-12;
            for (&pos, &share) in self.open.iter().zip(&self.shares) {
                if share > best_share + tol {
                    continue;
                }
                for &entry in &self.live[pos as usize].hops {
                    let f = (entry >> HOP_BITS) as usize;
                    let route = &mut self.routes[f];
                    if route.frozen_in == epoch {
                        continue;
                    }
                    route.frozen_in = epoch;
                    on_rate(f, best_share);
                    unfrozen_left -= 1;
                    for &link in &route.links[..route.len as usize] {
                        let q = self.live_pos[link as usize] as usize;
                        self.remaining[q] = (self.remaining[q] - best_share).max(0.0);
                        self.load[q] -= 1;
                    }
                }
            }
        }
    }
}

/// Reference implementation of [`FlowIncidence::compute`]: allocates its scratch
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

    /// An incidence holding `paths`, in slot order.
    fn incidence_of(paths: &[Vec<u32>]) -> FlowIncidence {
        let mut incidence = FlowIncidence::new();
        for path in paths {
            incidence.push(path);
        }
        incidence
    }

    /// Max-min rates of `paths` through a fresh incidence.
    fn max_min_rates(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
        let narrow: Vec<Vec<u32>> = paths
            .iter()
            .map(|p| p.iter().map(|&l| l as u32).collect())
            .collect();
        rates_of(&mut incidence_of(&narrow), caps)
    }

    /// The incidence's rates by slot, loopbacks at infinity.
    fn rates_of(incidence: &mut FlowIncidence, caps: &[f64]) -> Vec<f64> {
        let mut rates: Vec<f64> = (0..incidence.len())
            .map(|slot| {
                if incidence.links(slot).is_empty() {
                    f64::INFINITY
                } else {
                    f64::NAN
                }
            })
            .collect();
        incidence.compute(caps, |slot, rate| {
            assert!(rates[slot].is_nan(), "slot {slot} reported twice");
            rates[slot] = rate;
        });
        assert!(rates.iter().all(|r| !r.is_nan()), "a flow was not reported");
        rates
    }

    /// Paths in the reference's `usize` link ids.
    fn widen(paths: &[Vec<u32>]) -> Vec<Vec<usize>> {
        paths
            .iter()
            .map(|p| p.iter().map(|&l| l as usize).collect())
            .collect()
    }

    #[test]
    fn sparse_matches_dense_bit_for_bit() {
        // The contended mesh of `workspace_matches_reference_bit_for_bit`
        // spread over a huge capacity vector where almost every link is
        // untouched: the incidence must match the reference's dense scan
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
        let rates = rates_of(&mut incidence_of(&paths), &caps);
        assert_eq!(bits(&rates), bits(&reference));
    }

    #[test]
    fn sparse_never_reads_untouched_capacities() {
        // Untouched links may carry garbage capacities (NaN, zero,
        // negative): the incidence must not inspect them.
        let caps = [GBPS, f64::NAN, 0.0, -5.0, 0.5 * GBPS];
        let paths: Vec<Vec<u32>> = vec![vec![0, 4], vec![4]];
        let mut incidence = incidence_of(&paths);
        let rates = rates_of(&mut incidence, &caps);
        let expected = max_min_rates_ref(&[GBPS, GBPS, GBPS, GBPS, 0.5 * GBPS], &widen(&paths));
        assert_eq!(bits(&rates), bits(&expected));
        // A link that was live and emptied is untouched again.
        incidence.push(&[2]);
        incidence.swap_remove(2);
        let rates = rates_of(&mut incidence, &caps);
        assert_eq!(bits(&rates), bits(&expected));
    }

    #[test]
    fn sparse_reuse_is_clean_across_calls_and_epochs() {
        let mut incidence = incidence_of(&[vec![0, 1], vec![1]]);
        let first = rates_of(&mut incidence, &[GBPS, 0.5 * GBPS]);
        // A different problem over a larger link space.
        incidence.swap_remove(0);
        incidence.swap_remove(0);
        incidence.push(&[63]);
        assert_eq!(rates_of(&mut incidence, &vec![GBPS; 64]), vec![GBPS]);
        // Shrinking back must not see stale live links.
        incidence.swap_remove(0);
        incidence.push(&[0, 1]);
        incidence.push(&[1]);
        assert_eq!(rates_of(&mut incidence, &[GBPS, 0.5 * GBPS]), first);
        // No flows at all.
        incidence.swap_remove(1);
        incidence.swap_remove(0);
        assert!(incidence.is_empty());
        assert!(rates_of(&mut incidence, &[GBPS]).is_empty());
    }

    #[test]
    fn frozen_stamps_survive_epoch_wraparound() {
        let paths: Vec<Vec<u32>> = vec![vec![0, 1], vec![1], vec![], vec![0]];
        let caps = [GBPS, 0.5 * GBPS];
        let expected = bits(&max_min_rates_ref(&caps, &widen(&paths)));
        let mut incidence = incidence_of(&paths);
        assert_eq!(bits(&rates_of(&mut incidence, &caps)), expected);
        // The first call stamped every flow 1. When the counter wraps,
        // those stamps must not read as frozen in the new first call.
        incidence.epoch = u32::MAX;
        for _ in 0..3 {
            assert_eq!(bits(&rates_of(&mut incidence, &caps)), expected);
        }
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn sparse_rejects_unknown_link() {
        rates_of(&mut incidence_of(&[vec![3]]), &[GBPS]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sparse_rejects_zero_capacity_on_touched_link() {
        rates_of(&mut incidence_of(&[vec![0]]), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "at most 4 links")]
    fn rejects_route_longer_than_max_hops() {
        FlowIncidence::new().push(&[0, 1, 2, 3, 4]);
    }

    #[test]
    fn workspace_reuse_is_clean_across_calls() {
        // One dirty incidence across problems whose link counts grow and
        // shrink must reproduce the reference on each of them. Emptying
        // it from the front relabels a moved flow on every removal.
        let problems: Vec<(Vec<f64>, Vec<Vec<u32>>)> = vec![
            (vec![GBPS, 0.5 * GBPS], vec![vec![0, 1], vec![1]]),
            (vec![GBPS], vec![vec![0]]),
            (
                vec![0.25 * GBPS; 300],
                vec![vec![299, 7], vec![7], vec![], vec![150, 299]],
            ),
            (vec![GBPS, 0.5 * GBPS], vec![vec![0, 1], vec![1]]),
        ];
        let mut incidence = FlowIncidence::new();
        for (caps, paths) in &problems {
            while !incidence.is_empty() {
                incidence.swap_remove(0);
            }
            for path in paths {
                incidence.push(path);
            }
            let rates = rates_of(&mut incidence, caps);
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
