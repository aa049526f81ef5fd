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
//!   list of hops crossing it, plus the set of such *live* links, and
//!   it remembers the last fill. A reallocation
//!   ([`FlowIncidence::compute`]) resumes that fill at the first round
//!   the changes since can move (see [below](#resuming-a-fill)) and
//!   hands each refilled flow's rate to the caller as the flow freezes:
//!   no per-flow setup pass, no path copy, no sort, no rebuilt index.
//!   Its cost follows what changed — the links that gained a flow, the
//!   touches it undoes and the rounds it refills — and is independent
//!   of how many links the network has: on a 10,000-node topology a few
//!   thousand flows cross a few thousand of the ~20,000 links.
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
//!
//! # Resuming a fill
//!
//! A fill is a sequence of rounds; round `r` freezes its flows at level
//! `λ_r`. The incidence keeps each round's level, each flow's round, and
//! a touch log: for each link and round in which a flow crossing the
//! link froze, the link's remaining capacity and frozen-hop count just
//! before that round's first update to it. A link's touches are
//! chained, so the log gives its state at the start of every round.
//! Before its first touch a link always holds its capacity with no hop
//! frozen, so a first touch is kept as the link's id alone, in a list
//! per round; most links are touched in one round only.
//!
//! Between fills flows leave and arrive. Before the next fill runs, it
//! picks a resume round `R` such that its rounds `0..R` are the old ones:
//! same level, same frozen flows, same per-link arithmetic. It then undoes
//! the touches of rounds `R..`, counts the flows of rounds `..R` as frozen
//! at their round's level without reporting them, and fills on from `R`.
//! A full fill is the case `R = 0`. `R` starts at the number of old
//! rounds and is lowered:
//!
//! * **to the round of each departed flow.** In an earlier round `r` the
//!   flow was unfrozen, so none of its links was a bottleneck of `r`, or
//!   the flow would have frozen there. Its departure lowers those links'
//!   loads, which only raises their shares `remaining / load`, so they
//!   stay above `λ_r + tol`.
//! * **to the first round an arrival can reach.** An arriving flow loads
//!   each of its links from round 0 on. For each such link and each
//!   round `r < R`, the touch chain gives the link's state
//!   `(remaining_r, frozen_r)` at the start of `r`. With its current hop
//!   count `hops`, its share there is `remaining_r / (hops − frozen_r)`.
//!   Where that share is at most `λ_r + λ_r·1e-12`, the link would lower
//!   the round's minimum or join its bottlenecks, so `R` drops to the
//!   first such `r`. Testing only the level at which a link last
//!   saturated is **not** enough, because the arrival loads the link in
//!   every earlier round too.
//!
//! Below the final `R` the rounds replay by induction. Each link starts
//! round `r` in its old state, since the same flows froze before `r`. A
//! link the changes did not touch keeps its share. A link that only lost
//! flows keeps a share above `λ_r + tol`. A link that gained one has a
//! share above `λ_r + tol` by the check; an old bottleneck with an
//! arrival would fail that check, because more load only lowers its
//! share. So the minimum is the same link's same quotient `λ_r`, the
//! bottleneck links are the same, neither an arrival nor a departure
//! crosses them, and the same flows freeze at `λ_r` with the same
//! per-link arithmetic.
//!
//! The owner's next completion needs one division per round, not per
//! flow. All flows of a round share its level, and `x ↦ x / λ_r` is
//! monotone, as are the microsecond ceiling and the `max(1, ·)` that
//! follow. So the earliest completion among a round's flows is that of
//! its flow with the least remaining bits, and the minimum over rounds
//! of those is bit for bit the minimum over all flows. An advance
//! subtracts the same `λ_r · dt` from every flow of a round, which keeps
//! the least-remaining flow of a kept round the least.

/// Most links a route may cross: the two-level tree's longest route is
/// `src NIC up, src rack up, dst rack down, dst NIC down`.
pub const MAX_HOPS: usize = 4;

/// A hop entry packs `slot << HOP_BITS | hop`.
const HOP_BITS: u32 = 2;
const HOP_MASK: u32 = (1 << HOP_BITS) - 1;
/// `live_pos` marker for a link that carries no flow.
const NOT_LIVE: u32 = u32::MAX;
/// Marker for no round: a flow no fill has frozen, no departure since
/// the last fill.
const NONE: u32 = u32::MAX;
/// A link's latest touch in the last fill is packed in a `u32`:
/// `UNTOUCHED`, `FIRST | round` for its first touch, or the index of a
/// later touch in the touch log. A first touch is not logged: the state
/// before it is always the link's capacity with no hop frozen.
const UNTOUCHED: u32 = u32::MAX;
const FIRST: u32 = 1 << 31;

/// One flow's route, and where each of its hops sits in that link's
/// hop list.
#[derive(Clone, Copy, Debug)]
struct Route {
    len: u8,
    links: [u32; MAX_HOPS],
    at: [u32; MAX_HOPS],
    /// The [`FlowIncidence::compute`] call that froze the flow: it is
    /// frozen in the running call iff this equals the incidence's
    /// `epoch` or its `round` lies below the resume round.
    frozen_in: u32,
    /// The round of the last fill that froze the flow, `NONE` until a
    /// fill has seen it.
    round: u32,
}

/// A link that carries at least one flow, with its fill state: as the
/// last fill left it between fills, as the running round has it in one.
#[derive(Clone, Debug)]
struct LiveLink {
    id: u32,
    /// A hop was added since the last fill (the id is in `grown`).
    grown: bool,
    /// One entry per hop crossing the link, `slot << HOP_BITS | hop`,
    /// in no particular order.
    hops: Vec<u32>,
    /// Remaining capacity; NaN until a fill first sees the link and reads
    /// its capacity.
    remaining: f64,
    /// Number of frozen hops.
    frozen: u32,
    /// The link's latest touch (see [`UNTOUCHED`]).
    touch: u32,
}

/// One round of the last fill.
#[derive(Clone, Copy, Debug)]
struct Round {
    /// The rate the round's flows froze at.
    level: f64,
    /// The lengths of the touch log and of the first-touch list, and
    /// the number of frozen flows, when the round ended.
    log_end: u32,
    firsts_end: u32,
    frozen_end: u32,
}

/// A link's state just before a round's first update to it, for every
/// round but the one that touched the link first.
#[derive(Clone, Copy, Debug)]
struct Touch {
    remaining: f64,
    frozen: u32,
    link: u32,
    round: u32,
    /// The link's previous touch (see [`UNTOUCHED`]).
    prev: u32,
}

/// The persistent flow↔link incidence behind max-min allocation, with
/// the last fill's state and the scratch that progressive filling
/// needs. Flows live in dense slots `0..len()`, like a `Vec`:
/// [`FlowIncidence::push`] appends one and [`FlowIncidence::swap_remove`]
/// moves the last flow into the freed slot, so an owner that keeps its
/// own flow vector in the same order reads rates by the same index. A
/// link's hop list is taken when the link goes live and kept for reuse
/// when it empties, so memory follows the most links ever live at once
/// rather than every link ever used; the touch log and the per-call
/// scratch keep their capacity, so [`FlowIncidence::compute`] allocates
/// nothing once warm.
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
    /// Numbers the [`FlowIncidence::compute`] calls, for
    /// [`Route::frozen_in`].
    epoch: u32,
    /// The last fill's rounds; its touch log and the ids of the links
    /// it touched first in each round, both in round order.
    rounds: Vec<Round>,
    log: Vec<Touch>,
    firsts: Vec<u32>,
    /// The next fill refills at least from this round: the lowest round
    /// of a flow removed since the last fill, `NONE` if none (0 before
    /// the first fill, which has no rounds to keep).
    refill_from: u32,
    /// The ids of the links that gained a hop since the last fill; one
    /// that went idle and live again in between may appear twice.
    grown: Vec<u32>,
    /// Per-round scratch: the `live` indices that may carry an unfrozen
    /// hop, and those whose share `remaining / load` was within
    /// tolerance of the lowest share scanned so far.
    open: Vec<u32>,
    candidates: Vec<u32>,
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

    /// The round of the last [`FlowIncidence::compute`] in which the
    /// flow in `slot` froze, whether that call refilled it or kept it:
    /// `None` for a loopback flow and for one no call has seen yet.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn round(&self, slot: usize) -> Option<u32> {
        let round = self.routes[slot].round;
        (round != NONE).then_some(round)
    }

    /// Number of rounds of the last [`FlowIncidence::compute`].
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The level of round `round` of the last
    /// [`FlowIncidence::compute`]: the rate of every flow that froze in
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `round >= rounds()`.
    pub fn level(&self, round: u32) -> f64 {
        self.rounds[round as usize].level
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
            round: NONE,
        };
        for (hop, &link) in links.iter().enumerate() {
            let pos = self.live_index(link);
            let live = &mut self.live[pos];
            route.links[hop] = link;
            route.at[hop] = live.hops.len() as u32;
            live.hops.push(slot << HOP_BITS | hop as u32);
            if !live.grown {
                live.grown = true;
                self.grown.push(link);
            }
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
        self.refill_from = self.refill_from.min(route.round);
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
                grown: false,
                hops: self.spare_hops.pop().unwrap_or_default(),
                remaining: f64::NAN,
                frozen: 0,
                touch: UNTOUCHED,
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

    /// Max-min fair rates of the current flows. Resumes the last call's
    /// fill at the first round the flows pushed and removed since can
    /// change (see the [module docs](self#resuming-a-fill)) and calls
    /// `on_rate(slot, round, rate)` once per flow it refills, as
    /// progressive filling freezes it, so in no particular slot order. A
    /// flow it keeps is not reported: its rate is still
    /// [`FlowIncidence::level`] of its [`FlowIncidence::round`], which
    /// is what the last call reported for it. Loopback flows are never
    /// reported; their rate is `f64::INFINITY`. The rates have identical
    /// semantics — and identical floating-point results — to
    /// [`max_min_rates_ref`] over the same paths (see the
    /// [module docs](self)).
    ///
    /// `capacities` is indexed only at live links, never traversed, and
    /// is checked when a link goes live: a live link's capacity must not
    /// change while it stays live.
    ///
    /// # Panics
    ///
    /// Panics if a link that went live is unknown (`>= capacities.len()`)
    /// or its capacity is not positive and finite. (Other links'
    /// capacities are never inspected — the price of never touching
    /// them.)
    pub fn compute(&mut self, capacities: &[f64], mut on_rate: impl FnMut(usize, u32, f64)) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: no stamp may look like the new epoch's.
            for route in &mut self.routes {
                route.frozen_in = 0;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;
        let resume = self.resume_round(capacities);
        let kept = resume
            .checked_sub(1)
            .map_or(0, |r| self.rounds[r as usize].frozen_end as usize);
        self.restore(capacities, resume);
        let mut unfrozen_left = self.routed - kept;

        // A link in `open` whose load is zero leaves it at the next
        // round's scan.
        while unfrozen_left > 0 {
            let mut best_share = f64::INFINITY;
            self.candidates.clear();
            let mut loaded = 0;
            for i in 0..self.open.len() {
                let pos = self.open[i];
                let link = &self.live[pos as usize];
                let load = link.hops.len() as u32 - link.frozen;
                if load == 0 {
                    continue;
                }
                let share = link.remaining / load as f64;
                if share < best_share {
                    best_share = share;
                }
                // `x + x·1e-12` is monotone, so a link within tolerance
                // of the round's minimum is within it of every lower
                // bound scanned before.
                if share <= best_share + best_share * 1e-12 {
                    self.candidates.push(pos);
                }
                self.open[loaded] = pos;
                loaded += 1;
            }
            self.open.truncate(loaded);
            debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
            // The bottleneck links are judged on the shares taken before
            // this round froze anything, as in the reference.
            let tol = best_share * 1e-12;
            let live = &self.live;
            self.candidates.retain(|&pos| {
                let link = &live[pos as usize];
                link.remaining / (link.hops.len() as u32 - link.frozen) as f64 <= best_share + tol
            });
            let round = self.rounds.len() as u32;
            let round_start = self.log.len() as u32;
            for &pos in &self.candidates {
                // The round changes the link's state, never its hops.
                let hops = std::mem::take(&mut self.live[pos as usize].hops);
                for &entry in &hops {
                    let f = (entry >> HOP_BITS) as usize;
                    let route = &mut self.routes[f];
                    if route.frozen_in == epoch || route.round < resume {
                        continue;
                    }
                    route.frozen_in = epoch;
                    route.round = round;
                    on_rate(f, round, best_share);
                    unfrozen_left -= 1;
                    for &id in &route.links[..route.len as usize] {
                        let link = &mut self.live[self.live_pos[id as usize] as usize];
                        if link.touch == UNTOUCHED {
                            self.firsts.push(id);
                            link.touch = FIRST | round;
                        } else if untouched_since(link.touch, round, round_start) {
                            self.log.push(Touch {
                                remaining: link.remaining,
                                frozen: link.frozen,
                                link: id,
                                round,
                                prev: link.touch,
                            });
                            link.touch = self.log.len() as u32 - 1;
                        }
                        link.remaining = (link.remaining - best_share).max(0.0);
                        link.frozen += 1;
                    }
                }
                self.live[pos as usize].hops = hops;
            }
            debug_assert!(self.log.len() < FIRST as usize, "touch log overflow");
            self.rounds.push(Round {
                level: best_share,
                log_end: self.log.len() as u32,
                firsts_end: self.firsts.len() as u32,
                frozen_end: (self.routed - unfrozen_left) as u32,
            });
        }
        debug_assert!(
            self.live.iter().all(|l| l.frozen as usize == l.hops.len()),
            "a fill ended with an unfrozen hop"
        );
    }

    /// The resume round of the next fill (see the
    /// [module docs](self#resuming-a-fill)): the last fill's round count,
    /// lowered to the round of every flow removed since and to the first
    /// round each link that gained a hop since can reach. Reads the
    /// capacity of each link that went live since and is still live.
    fn resume_round(&mut self, capacities: &[f64]) -> u32 {
        let mut resume =
            std::mem::replace(&mut self.refill_from, NONE).min(self.rounds.len() as u32);
        let mut kept = 0;
        for i in 0..self.grown.len() {
            let id = self.grown[i];
            let pos = self.live_pos[id as usize];
            if pos == NOT_LIVE || !self.live[pos as usize].grown {
                continue;
            }
            let link = &mut self.live[pos as usize];
            link.grown = false;
            if link.remaining.is_nan() {
                let cap = *capacities
                    .get(id as usize)
                    .unwrap_or_else(|| panic!("path references unknown link {id}"));
                assert!(
                    cap > 0.0 && cap.is_finite(),
                    "link capacities must be positive and finite"
                );
                link.remaining = cap;
            }
            // The walk can only lower `resume`; at 0 it has nothing to find.
            if resume > 0 {
                resume = self.first_reached_round(pos as usize, capacities, resume);
            }
            self.grown[kept] = id;
            kept += 1;
        }
        self.grown.truncate(kept);
        resume
    }

    /// The first round below `resume` whose minimum or bottleneck set
    /// live link `pos` would join at its current hop count, or `resume`
    /// if none.
    fn first_reached_round(&self, pos: usize, capacities: &[f64], mut resume: u32) -> u32 {
        let link = &self.live[pos];
        let hops = link.hops.len() as u32;
        // The state after the link's latest touch holds to the last
        // round; a touch's state holds from the round after the previous
        // touch to its own, and the capacity up to the first touch.
        let (mut remaining, mut frozen) = (link.remaining, link.frozen);
        let mut end = self.rounds.len() as u32;
        let mut touch = link.touch;
        loop {
            let begin = match touch {
                UNTOUCHED => 0,
                t if t & FIRST != 0 => (t & !FIRST) + 1,
                t => self.log[t as usize].round + 1,
            };
            if begin < end.min(resume) {
                // Below `resume` only flows still present are frozen.
                debug_assert!(frozen <= hops, "a kept round froze a departed hop");
                let load = hops - frozen;
                if load > 0 {
                    let share = remaining / load as f64;
                    let rounds = &self.rounds[begin as usize..end.min(resume) as usize];
                    if let Some(r) = rounds
                        .iter()
                        .position(|round| share <= round.level + round.level * 1e-12)
                    {
                        resume = begin + r as u32;
                    }
                }
            }
            (remaining, frozen, end, touch) = match touch {
                UNTOUCHED => return resume,
                t if t & FIRST != 0 => (capacities[link.id as usize], 0, begin, UNTOUCHED),
                t => {
                    let t = &self.log[t as usize];
                    (t.remaining, t.frozen, begin, t.prev)
                }
            };
        }
    }

    /// Rolls the links back to their state at the start of round
    /// `resume` and drops the rounds from it on, leaving in `open` every
    /// link that may carry an unfrozen hop then: those the dropped
    /// rounds touched and those that gained a hop.
    fn restore(&mut self, capacities: &[f64], resume: u32) {
        let (log_start, firsts_start) = match resume.checked_sub(1) {
            Some(r) => {
                let r = &self.rounds[r as usize];
                (r.log_end, r.firsts_end)
            }
            None => (0, 0),
        };
        self.rounds.truncate(resume as usize);
        self.open.clear();
        for id in self.grown.drain(..) {
            let pos = self.live_pos[id as usize];
            // A link with touches to undo joins below.
            if untouched_since(self.live[pos as usize].touch, resume, log_start) {
                self.open.push(pos);
            }
        }
        // Later touches first, newest first, so a link ends on the state
        // before its first touch from `resume` on...
        for (i, t) in self.log.drain(log_start as usize..).enumerate().rev() {
            let pos = self.live_pos[t.link as usize];
            if pos == NOT_LIVE {
                continue; // idle now: every flow it carried left
            }
            let link = &mut self.live[pos as usize];
            if link.touch != log_start + i as u32 {
                continue; // a touch of the link's life before it went idle
            }
            (link.remaining, link.frozen, link.touch) = (t.remaining, t.frozen, t.prev);
            if untouched_since(t.prev, resume, log_start) {
                self.open.push(pos);
            }
        }
        // ...unless that is its first touch: then it restarts from its
        // capacity.
        for id in self.firsts.drain(firsts_start as usize..) {
            let pos = self.live_pos[id as usize];
            if pos == NOT_LIVE {
                continue;
            }
            let link = &mut self.live[pos as usize];
            // A link that went idle and live again is untouched.
            if link.touch != UNTOUCHED && link.touch & FIRST != 0 {
                debug_assert!(link.touch & !FIRST >= resume);
                (link.remaining, link.frozen, link.touch) = (capacities[id as usize], 0, UNTOUCHED);
                self.open.push(pos);
            }
        }
        debug_assert!(
            {
                let mut open = self.open.clone();
                open.sort_unstable();
                open.windows(2).all(|w| w[0] != w[1])
            },
            "a link joined `open` twice"
        );
    }
}

/// True if a link whose latest touch is `touch` has none in round
/// `round` or later, given the touch log's length `log_start` when that
/// round began.
fn untouched_since(touch: u32, round: u32, log_start: u32) -> bool {
    match touch {
        UNTOUCHED => true,
        t if t & FIRST != 0 => t & !FIRST < round,
        t => t < log_start,
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

    /// The incidence's rates by slot after a compute, loopbacks at
    /// infinity: a refilled flow's as reported, a kept flow's as its
    /// round's level.
    fn rates_of(incidence: &mut FlowIncidence, caps: &[f64]) -> Vec<f64> {
        let mut reported = vec![None; incidence.len()];
        incidence.compute(caps, |slot, round, rate| {
            assert!(reported[slot].is_none(), "slot {slot} reported twice");
            reported[slot] = Some((round, rate));
        });
        (0..incidence.len())
            .map(|slot| match incidence.round(slot) {
                None => {
                    assert!(incidence.links(slot).is_empty(), "slot {slot} never frozen");
                    f64::INFINITY
                }
                Some(round) => {
                    let level = incidence.level(round);
                    if let Some(got) = reported[slot] {
                        assert_eq!(got, (round, level), "slot {slot} reported off its round");
                    }
                    level
                }
            })
            .collect()
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
    fn a_fill_with_no_change_refills_no_flow() {
        let paths: Vec<Vec<u32>> = vec![vec![0, 1], vec![1], vec![], vec![0]];
        let caps = [GBPS, 0.5 * GBPS];
        let mut incidence = incidence_of(&paths);
        let first = rates_of(&mut incidence, &caps);
        let mut refilled = 0;
        incidence.compute(&caps, |_, _, _| refilled += 1);
        assert_eq!(refilled, 0);
        assert_eq!(bits(&rates_of(&mut incidence, &caps)), bits(&first));
    }

    #[test]
    fn resumes_below_the_first_round_an_arrival_reaches() {
        // Link 0 (1 Gbps) carries three flows: round 0 freezes them at a
        // third. Link 1 (0.9 Gbps) carries one: round 1 at 0.9 Gbps.
        let caps = [GBPS, 0.9 * GBPS, GBPS];
        let mut paths: Vec<Vec<u32>> = vec![vec![0], vec![0], vec![0], vec![1]];
        let mut incidence = incidence_of(&paths);
        rates_of(&mut incidence, &caps);
        assert_eq!(incidence.rounds(), 2);
        // A flow on link 2 alone stays above both levels, and one on
        // link 1 reaches only round 1: no call refills round 0.
        for path in [vec![2], vec![1]] {
            incidence.push(&path);
            paths.push(path);
            let mut refilled = Vec::new();
            incidence.compute(&caps, |slot, round, _| refilled.push((slot, round)));
            assert!(
                refilled.iter().all(|&(_, round)| round >= 1),
                "{refilled:?}"
            );
            let reference = max_min_rates_ref(&caps, &widen(&paths));
            assert_eq!(bits(&rates_of(&mut incidence, &caps)), bits(&reference));
        }
        // A second flow on link 1 would join round 0's level only if
        // its share fell to a third of 1 Gbps; three more on it do.
        for _ in 0..2 {
            incidence.push(&[1]);
            paths.push(vec![1]);
        }
        let mut rounds = Vec::new();
        incidence.compute(&caps, |_, round, _| rounds.push(round));
        assert_eq!(rounds.iter().min(), Some(&0));
        let reference = max_min_rates_ref(&caps, &widen(&paths));
        assert_eq!(bits(&rates_of(&mut incidence, &caps)), bits(&reference));
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
