//! The fluid-flow network: tracks active flows over a two-level tree
//! topology, advances their progress piecewise-linearly, and reports
//! completions.
//!
//! # Topology
//!
//! The link layout matches the paper's Figure 1:
//!
//! ```text
//!                    core switch (unconstrained)
//!                   /                         \
//!        rack 0 up/down (W)           rack 1 up/down (W)
//!         /        \                    /         \
//!   node NICs up/down             node NICs up/down
//! ```
//!
//! An intra-rack flow traverses `[src NIC up, dst NIC down]`; an
//! inter-rack flow additionally crosses `[src rack uplink, dst rack
//! downlink]`. The rack downlink of capacity `W` is the paper's "download
//! bandwidth of each rack".

use std::collections::VecDeque;

use simkit::time::{SimDuration, SimTime};

use crate::fairshare::{FlowIncidence, MAX_HOPS};

/// Identifies an active or finished flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl FlowId {
    /// The raw id, for logging.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Link capacities for the two-level tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Capacity of each node NIC (both directions), bits/second.
    pub node_bps: u64,
    /// Capacity of each rack uplink and downlink (the paper's `W`),
    /// bits/second.
    pub rack_bps: u64,
}

impl NetConfig {
    /// The same capacity on every link.
    pub fn uniform(bps: u64) -> NetConfig {
        NetConfig {
            node_bps: bps,
            rack_bps: bps,
        }
    }

    /// The paper's default: 1 Gbps NICs and rack links.
    pub fn gigabit() -> NetConfig {
        NetConfig::uniform(1_000_000_000)
    }
}

/// Completion record for a finished flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowStats {
    /// When the flow was started.
    pub started: SimTime,
    /// When the flow finished (or was cancelled).
    pub finished: SimTime,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
}

impl FlowStats {
    /// Transfer duration.
    pub fn duration(&self) -> SimDuration {
        self.finished.duration_since(self.started)
    }
}

/// A flow's route as the flow event log exposes it: the link indices the
/// flow traverses (empty for loopback). Stored inline: every route in
/// the two-level tree is at most [`MAX_HOPS`] links (`src NIC up, src
/// rack up, dst rack down, dst NIC down`), so no heap allocation is
/// ever needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowRoute {
    len: u8,
    links: [u32; MAX_HOPS],
}

impl FlowRoute {
    const LOOPBACK: FlowRoute = FlowRoute {
        len: 0,
        links: [0; MAX_HOPS],
    };

    fn of(links: &[usize]) -> FlowRoute {
        let mut route = FlowRoute::LOOPBACK;
        for &l in links {
            route.links[route.len as usize] = u32::try_from(l).expect("link index fits u32");
            route.len += 1;
        }
        route
    }

    /// The traversed link indices.
    pub fn as_slice(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }
}

/// What happened to a flow, as recorded by the opt-in flow event log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowLogKind {
    /// The flow was registered.
    Started {
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Links the flow traverses.
        route: FlowRoute,
    },
    /// Max-min reallocation assigned the flow a new rate. Reallocation
    /// runs once per batch of changes at one instant, so a flow logs at
    /// most one rate per reallocation: the rate that holds after it.
    /// Loopback flows (infinite rate) never log rate changes.
    RateChanged {
        /// The new rate in bits per second.
        rate_bps: f64,
    },
    /// The flow left the network.
    Finished {
        /// True if cancelled before delivering all bytes.
        cancelled: bool,
    },
}

/// One timestamped entry of the flow event log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowLogEntry {
    /// When it happened.
    pub at: SimTime,
    /// The flow concerned.
    pub flow: FlowId,
    /// What happened.
    pub kind: FlowLogKind,
}

/// What a flow is and whose it is. Its progress lives apart, in
/// [`Network`]'s dense `progress` vector, so the per-event walks read
/// 16 bytes per flow.
#[derive(Clone, Debug)]
struct ActiveFlow<T> {
    id: FlowId,
    src: usize,
    dst: usize,
    bytes: u64,
    started: SimTime,
    tag: T,
}

impl<T> ActiveFlow<T> {
    fn stats(&self, finished: SimTime) -> FlowStats {
        FlowStats {
            started: self.started,
            finished,
            bytes: self.bytes,
            src: self.src,
            dst: self.dst,
        }
    }
}

/// The ids of the flows one [`Network::start_tagged`] call started, in
/// order: consecutive, so reading them allocates nothing.
#[derive(Clone, Debug)]
pub struct FlowIds(std::ops::Range<u64>);

impl Iterator for FlowIds {
    type Item = FlowId;

    fn next(&mut self) -> Option<FlowId> {
        self.0.next().map(FlowId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for FlowIds {}

/// One entry of the utilization log: over `(since, until]`, the rack
/// downlinks moved `rack_down_bits` in aggregate out of
/// `rack_down_capacity_bits` possible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilizationSample {
    /// Window start.
    pub since: SimTime,
    /// Window end.
    pub until: SimTime,
    /// Bits that crossed any rack downlink during the window.
    pub rack_down_bits: f64,
    /// Aggregate rack-downlink capacity of the window.
    pub rack_down_capacity_bits: f64,
}

impl UtilizationSample {
    /// Fraction of aggregate rack-downlink capacity in use (0..=1).
    pub fn fraction(&self) -> f64 {
        if self.rack_down_capacity_bits <= 0.0 {
            0.0
        } else {
            (self.rack_down_bits / self.rack_down_capacity_bits).min(1.0)
        }
    }
}

/// The live network state. See the [crate docs](crate) for the model.
///
/// Every flow carries a tag of type `T` that the network hands back when
/// the flow finishes or is cancelled, so an owner can file what a flow
/// is for with the flow itself instead of in a map of its own.
/// [`Network::new`] builds an untagged network (`T = ()`);
/// [`Network::tagged`] any other.
#[derive(Clone, Debug)]
pub struct Network<T = ()> {
    /// rack index of each node.
    node_rack: Vec<usize>,
    capacities: Vec<f64>,
    num_racks: usize,
    flows: Vec<ActiveFlow<T>>,
    /// Each flow's `(remaining_bits, rate_bps)`, slot-aligned with
    /// `flows` (same pushes, same swap-removes).
    progress: Vec<(f64, f64)>,
    /// The slot in `flows` of each id from `first_id` on, `NO_SLOT`
    /// once the flow left. Leading `NO_SLOT`s are popped, so the table
    /// spans the ids from the oldest live flow to the newest.
    slot_of: VecDeque<u32>,
    /// The id `slot_of[0]` stands for.
    first_id: u64,
    last_advanced: SimTime,
    /// Cached earliest completion given current rates; valid only while
    /// `dirty` is false.
    next_done: Option<SimTime>,
    /// Set when flows start, are cancelled or finish; cleared by
    /// [`Network::settle`]. Rates and `next_done` are stale while set.
    dirty: bool,
    /// Number of settles that reallocated rates.
    reallocations: u64,
    /// Number of flows those settles froze (refilled).
    refilled: u64,
    /// Active flows with nothing left to send, which the next
    /// [`Network::drain_tagged`] removes.
    done_flows: usize,
    /// Slots that held a finished flow when noted: by the advance walk
    /// (which starts the list afresh), by a start with nothing to send,
    /// and by a swap-remove that moves a finished flow. A superset of
    /// the finished flows' slots, so the drain visits only these.
    done_slots: Vec<u32>,
    /// When set, every advance appends a rack-downlink utilization
    /// sample (the paper's "unused network resources" evidence).
    utilization_log: Option<Vec<UtilizationSample>>,
    /// When set, flow starts, rate changes and completions append
    /// entries here for the observability layer to drain. `None` (the
    /// default) keeps the hot paths branch-only, preserving bit-identical
    /// untraced runs.
    flow_log: Option<Vec<FlowLogEntry>>,
    /// Scratch of a settle with the flow log on: the slots whose rate
    /// changed, logged in slot order once the settle ends.
    rate_changed: Vec<u32>,
    /// Scratch of [`Network::drain_tagged`]: the finished flows.
    finished: Vec<ActiveFlow<T>>,
    rack_bps: f64,
    /// The flow↔link incidence for rate reallocation, kept slot-aligned
    /// with `flows` (same pushes, same swap-removes) so that flows
    /// start and finish on every simulated transfer without rebuilding
    /// it or allocating.
    incidence: FlowIncidence,
    /// Per round of the incidence's last fill, the slot of its flow with
    /// the least `remaining_bits`: the round's first completion.
    round_min: Vec<u32>,
}

/// Residual bits below which a flow counts as finished (absorbs the
/// microsecond-rounding of completion times).
const DONE_EPS_BITS: f64 = 1e-3;

/// `slot_of` marker for a flow that left.
const NO_SLOT: u32 = u32::MAX;

/// The untagged API: each call is its `_tagged` counterpart with `()`.
impl Network {
    /// [`Network::tagged`], untagged.
    pub fn new(rack_sizes: &[usize], config: NetConfig) -> Network {
        Network::tagged(rack_sizes, config)
    }

    /// [`Network::start_tagged`] of `(src, dst, bytes)` triples.
    pub fn start_flows(&mut self, now: SimTime, specs: &[(usize, usize, u64)]) -> Vec<FlowId> {
        self.start_tagged(
            now,
            specs.iter().map(|&(src, dst, bytes)| (src, dst, bytes, ())),
        )
        .collect()
    }

    /// [`Network::cancel_tagged`], returning the stats only.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<FlowStats> {
        self.cancel_tagged(now, id).map(|(stats, ())| stats)
    }

    /// [`Network::drain_tagged`], collecting `(id, stats)` pairs.
    pub fn drain_finished(&mut self, now: SimTime) -> Vec<(FlowId, FlowStats)> {
        let mut done = Vec::new();
        self.drain_tagged(now, |id, stats, ()| done.push((id, stats)));
        done
    }
}

impl<T> Network<T> {
    /// Builds the network for racks of the given sizes, its flows tagged
    /// with `T`.
    ///
    /// Link indexing: for node `i`, uplink `2i`, downlink `2i+1`; for
    /// rack `r`, uplink `2N + 2r`, downlink `2N + 2r + 1`.
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes or a capacity is zero.
    pub fn tagged(rack_sizes: &[usize], config: NetConfig) -> Network<T> {
        assert!(config.node_bps > 0 && config.rack_bps > 0, "zero capacity");
        let mut node_rack = Vec::new();
        for (r, &size) in rack_sizes.iter().enumerate() {
            for _ in 0..size {
                node_rack.push(r);
            }
        }
        assert!(!node_rack.is_empty(), "network with no nodes");
        let num_nodes = node_rack.len();
        let num_racks = rack_sizes.len();
        let mut capacities = Vec::with_capacity(2 * num_nodes + 2 * num_racks);
        capacities.extend(std::iter::repeat_n(config.node_bps as f64, 2 * num_nodes));
        capacities.extend(std::iter::repeat_n(config.rack_bps as f64, 2 * num_racks));
        Network {
            node_rack,
            capacities,
            num_racks,
            flows: Vec::new(),
            progress: Vec::new(),
            slot_of: VecDeque::new(),
            first_id: 0,
            last_advanced: SimTime::ZERO,
            next_done: None,
            dirty: false,
            reallocations: 0,
            refilled: 0,
            done_flows: 0,
            done_slots: Vec::new(),
            utilization_log: None,
            flow_log: None,
            rate_changed: Vec::new(),
            finished: Vec::new(),
            rack_bps: config.rack_bps as f64,
            incidence: FlowIncidence::new(),
            round_min: Vec::new(),
        }
    }

    /// Starts recording rack-downlink utilization samples on every
    /// network advance. Call before the first flow starts.
    pub fn enable_utilization_log(&mut self) {
        if self.utilization_log.is_none() {
            self.utilization_log = Some(Vec::new());
        }
    }

    /// The recorded utilization samples (empty unless
    /// [`Network::enable_utilization_log`] was called).
    pub fn utilization_log(&self) -> &[UtilizationSample] {
        self.utilization_log.as_deref().unwrap_or(&[])
    }

    /// Starts recording per-flow lifecycle entries (start, rate change,
    /// finish) for the observability layer. Call before the first flow
    /// starts; logging stays enabled for the network's lifetime.
    pub fn enable_flow_log(&mut self) {
        if self.flow_log.is_none() {
            self.flow_log = Some(Vec::new());
        }
    }

    /// Drains the accumulated flow log entries into `f`, in the order
    /// they were recorded; does nothing unless
    /// [`Network::enable_flow_log`] was called. Pending rate changes are
    /// settled first, so the drained entries are complete up to the last
    /// network update and later entries never carry an earlier
    /// timestamp. The one exception is a finished flow still awaiting
    /// [`Network::drain_tagged`]: the rates of that instant wait for
    /// the drain, which a caller makes at the instant
    /// [`Network::next_completion`] reports. The log keeps its capacity,
    /// so a traced event loop allocates nothing here.
    pub fn drain_flow_log(&mut self, mut f: impl FnMut(FlowLogEntry)) {
        if self.flow_log.is_some() && self.done_flows == 0 {
            self.settle();
        }
        if let Some(log) = &mut self.flow_log {
            log.drain(..).for_each(&mut f);
        }
    }

    /// How many times rates have been reallocated: at most once per
    /// batch of flow starts, cancels and completions at one instant,
    /// however many operations the batch held.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// How many flows reallocations have frozen: each settle refills
    /// only the rounds of the last fill that its changes can move, so
    /// this counts its flow visits, not flows times settles.
    pub fn flows_refilled(&self) -> u64 {
        self.refilled
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_rack.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.num_racks
    }

    /// Every active flow's id and tag, in no particular order.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.flows.iter().map(|flow| (flow.id, &flow.tag))
    }

    /// The `(src, dst)` node pair of an active flow, or `None` if the
    /// flow has finished or was cancelled. Lets callers that track
    /// flows by id (e.g. a scheduler reacting to a node failure) find
    /// every transfer touching a given node without shadowing endpoint
    /// state of their own.
    pub fn flow_endpoints(&self, id: FlowId) -> Option<(usize, usize)> {
        let flow = &self.flows[self.slot(id)?];
        Some((flow.src, flow.dst))
    }

    /// The slot of an active flow.
    fn slot(&self, id: FlowId) -> Option<usize> {
        let offset = usize::try_from(id.0.checked_sub(self.first_id)?).ok()?;
        let slot = *self.slot_of.get(offset)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    fn route_for(&self, src: usize, dst: usize) -> FlowRoute {
        assert!(
            src < self.num_nodes() && dst < self.num_nodes(),
            "unknown node"
        );
        if src == dst {
            return FlowRoute::LOOPBACK; // no network traversal
        }
        let n = self.num_nodes();
        let (sr, dr) = (self.node_rack[src], self.node_rack[dst]);
        if sr == dr {
            FlowRoute::of(&[2 * src, 2 * dst + 1])
        } else {
            FlowRoute::of(&[2 * src, 2 * n + 2 * sr, 2 * n + 2 * dr + 1, 2 * dst + 1])
        }
    }

    /// Registers a flow without advancing time or reallocating rates.
    /// A loopback flow crosses no link, so it runs at an infinite rate
    /// and has nothing left to send.
    fn push_flow(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64, tag: T) {
        let id = FlowId(self.first_id + self.slot_of.len() as u64);
        let route = self.route_for(src, dst);
        if let Some(log) = &mut self.flow_log {
            log.push(FlowLogEntry {
                at: now,
                flow: id,
                kind: FlowLogKind::Started {
                    src,
                    dst,
                    bytes,
                    route,
                },
            });
        }
        let progress = if route.len == 0 {
            (0.0, f64::INFINITY)
        } else {
            ((bytes as f64) * 8.0, 0.0)
        };
        let slot = self.flows.len() as u32;
        if progress.0 <= DONE_EPS_BITS {
            self.done_flows += 1;
            self.done_slots.push(slot);
        }
        self.slot_of.push_back(slot);
        self.incidence.push(route.as_slice());
        self.progress.push(progress);
        self.flows.push(ActiveFlow {
            id,
            src,
            dst,
            bytes,
            started: now,
            tag,
        });
        self.dirty = true;
    }

    /// Takes the flow in `slot` out; the last flow moves into `slot`, as
    /// with `Vec::swap_remove`.
    fn remove_slot(&mut self, slot: usize) -> ActiveFlow<T> {
        let flow = self.flows.swap_remove(slot);
        let (remaining_bits, _) = self.progress.swap_remove(slot);
        self.incidence.swap_remove(slot);
        if let Some(moved) = self.flows.get(slot) {
            self.slot_of[(moved.id.0 - self.first_id) as usize] = slot as u32;
            if self.progress[slot].0 <= DONE_EPS_BITS {
                self.done_slots.push(slot as u32);
            }
            // The moved flow may be its round's first completion.
            let last = self.flows.len() as u32;
            let min = self
                .incidence
                .round(slot)
                .and_then(|round| self.round_min.get_mut(round as usize));
            if let Some(min) = min.filter(|min| **min == last) {
                *min = slot as u32;
            }
        }
        self.slot_of[(flow.id.0 - self.first_id) as usize] = NO_SLOT;
        while self.slot_of.front() == Some(&NO_SLOT) {
            self.slot_of.pop_front();
            self.first_id += 1;
        }
        self.done_flows -= usize::from(remaining_bits <= DONE_EPS_BITS);
        self.dirty = true;
        flow
    }

    /// Starts one flow per `(src, dst, bytes, tag)` at time `now`, in
    /// order, and returns their ids. Loopback flows (`src == dst`)
    /// complete at `now`. Rates are reallocated once for everything that
    /// changed at `now` (see [`Network::next_completion`]), so one call
    /// with many flows costs the same as many calls at one instant.
    ///
    /// # Panics
    ///
    /// Panics if a node index is unknown or `now` precedes the last
    /// network update.
    pub fn start_tagged(
        &mut self,
        now: SimTime,
        flows: impl IntoIterator<Item = (usize, usize, u64, T)>,
    ) -> FlowIds {
        self.advance_to(now);
        let first = self.first_id + self.slot_of.len() as u64;
        for (src, dst, bytes, tag) in flows {
            self.push_flow(now, src, dst, bytes, tag);
        }
        FlowIds(first..self.first_id + self.slot_of.len() as u64)
    }

    /// Cancels an active flow, returning its stats and tag if it
    /// existed.
    pub fn cancel_tagged(&mut self, now: SimTime, id: FlowId) -> Option<(FlowStats, T)> {
        self.advance_to(now);
        let flow = self.remove_slot(self.slot(id)?);
        if let Some(log) = &mut self.flow_log {
            log.push(FlowLogEntry {
                at: now,
                flow: id,
                kind: FlowLogKind::Finished { cancelled: true },
            });
        }
        Some((flow.stats(now), flow.tag))
    }

    /// The earliest instant at which some active flow completes, if any.
    /// Completion times are rounded **up** to a whole microsecond, so
    /// advancing to this instant always finishes the flow.
    ///
    /// Flow starts, cancels and completions only mark the rates stale;
    /// this call (like any later advance of time) reallocates them once
    /// for the whole batch at the last network update. While a flow has
    /// already finished, the answer is that update's instant whatever the
    /// rates, and the drain that must come next changes the flow set
    /// again, so the reallocation waits for it. That holds even when
    /// nothing changed since the last settle: time may have moved past
    /// the instant that settle found.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        if self.done_flows > 0 {
            return Some(self.last_advanced);
        }
        self.settle();
        self.next_done
    }

    /// Advances the fluid model to `now` and removes every flow that has
    /// finished, handing each one's id, stats and tag to `f` in
    /// ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last network update.
    pub fn drain_tagged(&mut self, now: SimTime, mut f: impl FnMut(FlowId, FlowStats, T)) {
        self.advance_to(now);
        let expected = self.done_flows;
        // The removals of a forward scan over every slot that re-checks
        // slot `i` after each swap-remove: a swap-remove only refills the
        // slot being scanned, from the tail, so the scan acts exactly at
        // the noted slots below the shrinking length, in ascending order.
        // That keeps the slot permutation, which orders the rate changes
        // that traced streams log. Removals here note slots again; the
        // loop covers them and the list is cleared after.
        self.done_slots.sort_unstable();
        self.done_slots.dedup();
        for i in 0..self.done_slots.len() {
            let slot = self.done_slots[i] as usize;
            while slot < self.flows.len() && self.progress[slot].0 <= DONE_EPS_BITS {
                let flow = self.remove_slot(slot);
                self.finished.push(flow);
            }
        }
        self.done_slots.clear();
        debug_assert_eq!(self.finished.len(), expected);
        debug_assert!(
            self.progress.iter().all(|p| p.0 > DONE_EPS_BITS),
            "a finished flow outlived its drain"
        );
        self.finished.sort_unstable_by_key(|flow| flow.id);
        for flow in self.finished.drain(..) {
            if let Some(log) = &mut self.flow_log {
                log.push(FlowLogEntry {
                    at: now,
                    flow: flow.id,
                    kind: FlowLogKind::Finished { cancelled: false },
                });
            }
            f(flow.id, flow.stats(now), flow.tag);
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_advanced,
            "network time went backwards: {now} < {}",
            self.last_advanced
        );
        let dt = now.duration_since(self.last_advanced).as_secs_f64();
        if dt > 0.0 {
            // Progress since the last update runs at the rates of the
            // flow set as it stood at the end of that instant.
            self.settle();
            let mut rack_down_bits = 0.0f64;
            let n = self.num_nodes();
            let sampling = self.utilization_log.is_some();
            self.done_slots.clear();
            for (slot, (remaining, rate)) in self.progress.iter_mut().enumerate() {
                // A loopback flow (infinite rate) started with nothing to
                // send and stays at zero.
                *remaining = (*remaining - *rate * dt).max(0.0);
                if sampling
                    && self
                        .incidence
                        .links(slot)
                        .iter()
                        .any(|&l| l as usize >= 2 * n && l % 2 == 1)
                {
                    rack_down_bits += *rate * dt;
                }
                if *remaining <= DONE_EPS_BITS {
                    self.done_slots.push(slot as u32);
                }
            }
            self.done_flows = self.done_slots.len();
            if let Some(log) = &mut self.utilization_log {
                log.push(UtilizationSample {
                    since: self.last_advanced,
                    until: now,
                    rack_down_bits,
                    rack_down_capacity_bits: self.num_racks as f64 * self.rack_bps * dt,
                });
            }
        }
        self.last_advanced = now;
    }

    /// Reallocates rates and finds the next completion, once, for every
    /// change since the last settle; a no-op when nothing changed. Runs
    /// at `last_advanced`, the instant of those changes. Only the rounds
    /// of the last fill that the changes can move are refilled; as they
    /// freeze their flows, each round's least-remaining flow is kept, so
    /// the next completion takes one division per round (the per-flow
    /// minimum bit for bit; see the fairshare module docs). Rates are a
    /// function of the flow set, so settling once gives bit for bit what
    /// settling after each change would have ended on.
    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.reallocations += 1;
        let now = self.last_advanced;
        let progress = &mut self.progress;
        let round_min = &mut self.round_min;
        let rate_changed = &mut self.rate_changed;
        let logging = self.flow_log.is_some();
        // Rounds come in ascending order; the first flow of each round
        // refilled replaces what the last settle left from that round on.
        let mut begun = 0;
        let mut refilled = 0;
        // Only the links current flows cross are touched, which keeps
        // per-event reallocation independent of the topology's total
        // link count (bit-identical to `max_min_rates_ref`; see the
        // fairshare module docs). The incidence's slots follow `flows`.
        self.incidence.compute(&self.capacities, |slot, r, rate| {
            let (remaining, flow_rate) = &mut progress[slot];
            // Fairshare rates are a deterministic function of the flow
            // set, so exact f64 comparison suffices to detect changes.
            if logging && rate != *flow_rate {
                rate_changed.push(slot as u32);
            }
            *flow_rate = rate;
            refilled += 1;
            let (remaining, round) = (*remaining, r as usize);
            if round >= begun {
                round_min.truncate(round);
                debug_assert_eq!(round_min.len(), round);
                round_min.push(slot as u32);
                begun = round + 1;
            } else if remaining < progress[round_min[round] as usize].0 {
                round_min[round] = slot as u32;
            }
        });
        self.refilled += refilled;
        self.round_min.truncate(self.incidence.rounds());
        self.next_done = if self.flows.is_empty() {
            None
        } else if self.done_flows > 0 {
            // A finished flow, loopbacks included, completes now.
            Some(now)
        } else {
            let secs = self
                .round_min
                .iter()
                .map(|&slot| {
                    let (remaining, rate) = self.progress[slot as usize];
                    remaining / rate
                })
                .fold(f64::INFINITY, f64::min);
            let micros = (secs * 1e6).ceil() as u64;
            Some(now + SimDuration::from_micros(micros.max(1)))
        };
        if let Some(log) = &mut self.flow_log {
            // Slot order, which traced streams and their goldens pin.
            self.rate_changed.sort_unstable();
            for slot in self.rate_changed.drain(..) {
                let slot = slot as usize;
                log.push(FlowLogEntry {
                    at: now,
                    flow: self.flows[slot].id,
                    kind: FlowLogKind::RateChanged {
                        rate_bps: self.progress[slot].1,
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: u64 = 1_000_000_000;
    const MBPS_100: u64 = 100_000_000;
    /// 128 MB, the paper's default block size.
    const BLOCK: u64 = 128 * 1024 * 1024;

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_cross_rack_transfer_time() {
        // One 128 MB block over a 100 Mbps path: ~10.7s (the paper's
        // motivating example rounds this to 10s).
        let mut net = Network::new(&[3, 2], NetConfig::uniform(MBPS_100));
        net.start_flows(SimTime::ZERO, &[(0, 3, BLOCK)]);
        let done = net.next_completion().unwrap();
        assert!((secs(done) - 10.74).abs() < 0.01, "{}", secs(done));
        assert_eq!(net.drain_finished(done).len(), 1);
        assert_eq!(net.flows().count(), 0);
    }

    #[test]
    fn flow_endpoints_track_liveness() {
        let mut net = Network::new(&[3, 2], NetConfig::uniform(MBPS_100));
        let a = net.start_flows(SimTime::ZERO, &[(0, 3, BLOCK)])[0];
        let b = net.start_flows(SimTime::ZERO, &[(4, 1, BLOCK)])[0];
        assert_eq!(net.flow_endpoints(a), Some((0, 3)));
        assert_eq!(net.flow_endpoints(b), Some((4, 1)));
        net.cancel_flow(SimTime::from_secs(1), a);
        assert_eq!(net.flow_endpoints(a), None);
        assert_eq!(net.flow_endpoints(b), Some((4, 1)));
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        assert_eq!(net.flow_endpoints(b), None);
    }

    #[test]
    fn two_competing_downloads_double_the_time() {
        // Section III: two degraded reads into the same rack "double the
        // download time, from 10s to 20s".
        let mut net = Network::new(&[3, 2], NetConfig::uniform(MBPS_100));
        // Nodes 0,1 in rack 0 each download a block from rack 1.
        net.start_flows(SimTime::ZERO, &[(3, 0, BLOCK)]);
        net.start_flows(SimTime::ZERO, &[(4, 1, BLOCK)]);
        let done = net.next_completion().unwrap();
        assert!((secs(done) - 2.0 * 10.74).abs() < 0.05, "{}", secs(done));
        // Both finish together (equal shares of the rack downlink).
        assert_eq!(net.drain_finished(done).len(), 2);
    }

    #[test]
    fn independent_racks_do_not_interfere() {
        let mut net = Network::new(&[2, 2, 2], NetConfig::uniform(MBPS_100));
        net.start_flows(SimTime::ZERO, &[(0, 2, BLOCK)]); // rack0 -> rack1
        net.start_flows(SimTime::ZERO, &[(4, 1, BLOCK)]); // rack2 -> rack0
                                                          // rack1-down and rack0-down are different links; both flows run
                                                          // at full speed.
        let done = net.next_completion().unwrap();
        assert!((secs(done) - 10.74).abs() < 0.01, "{}", secs(done));
        assert_eq!(net.drain_finished(done).len(), 2);
    }

    #[test]
    fn rate_rises_when_competitor_finishes() {
        // Flow A starts alone; B joins halfway; A slows to half rate;
        // when A ends, B speeds back up.
        let mut net = Network::new(&[2, 1], NetConfig::uniform(MBPS_100));
        let t0 = SimTime::ZERO;
        let a = net.start_flows(t0, &[(2, 0, BLOCK)])[0];
        let t1 = SimTime::from_secs(5);
        // Same destination NIC contended? No: choose dst 1, sharing only
        // the rack0 downlink.
        let b = net.start_flows(t1, &[(2, 1, BLOCK)])[0];
        // A has ~5.74s of work left at full rate, so ~11.48s shared.
        let done_a = net.next_completion().unwrap();
        let finished = net.drain_finished(done_a);
        assert_eq!(finished[0].0, a);
        assert_eq!(finished.len(), 1);
        assert!(
            (secs(done_a) - (5.0 + 11.48)).abs() < 0.05,
            "{}",
            secs(done_a)
        );
        // B transferred (done_a - t1) at half rate; the rest at full rate.
        let done_b = net.next_completion().unwrap();
        let t_b_total = secs(done_b) - 5.0;
        assert!(
            (t_b_total - (11.48 + (10.74 - 11.48 / 2.0))).abs() < 0.1,
            "{t_b_total}"
        );
        let finished = net.drain_finished(done_b);
        assert_eq!(finished[0].0, b);
        assert_eq!(finished.len(), 1);
    }

    #[test]
    fn loopback_completes_immediately() {
        let mut net = Network::new(&[2], NetConfig::gigabit());
        let now = SimTime::from_secs(3);
        let f = net.start_flows(now, &[(1, 1, BLOCK)])[0];
        assert_eq!(net.next_completion(), Some(now));
        let done = net.drain_finished(now);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, f);
        assert_eq!(done[0].1.duration(), SimDuration::ZERO);
    }

    #[test]
    fn cancel_releases_bandwidth() {
        let mut net = Network::new(&[2, 2], NetConfig::uniform(MBPS_100));
        let a = net.start_flows(SimTime::ZERO, &[(2, 0, BLOCK)])[0];
        let _b = net.start_flows(SimTime::ZERO, &[(3, 1, BLOCK)])[0];
        let t = SimTime::from_secs(4);
        let stats = net.cancel_flow(t, a).unwrap();
        assert_eq!(stats.finished, t);
        assert!(net.cancel_flow(t, a).is_none(), "double cancel");
        // b now runs at full rate: had moved 4s at half rate = 2s worth;
        // 8.74s left at full rate.
        let done = net.next_completion().unwrap();
        assert!((secs(done) - (4.0 + 8.74)).abs() < 0.05, "{}", secs(done));
    }

    #[test]
    fn nic_limits_fanin() {
        // Four sources in other racks converge on one node whose NIC is
        // the bottleneck (rack links are fat).
        let cfg = NetConfig {
            node_bps: MBPS_100,
            rack_bps: GBPS,
        };
        let mut net = Network::new(&[1, 4], cfg);
        for s in 1..5 {
            net.start_flows(SimTime::ZERO, &[(s, 0, BLOCK)]);
        }
        let done = net.next_completion().unwrap();
        // 4 blocks through a single 100 Mbps NIC: ~4 * 10.74.
        assert!((secs(done) - 4.0 * 10.74).abs() < 0.1, "{}", secs(done));
        assert_eq!(net.drain_finished(done).len(), 4);
    }

    #[test]
    fn flow_stats_record_endpoints() {
        let mut net = Network::new(&[2, 1], NetConfig::gigabit());
        net.start_flows(SimTime::from_secs(1), &[(0, 2, 1_000_000)]);
        let done = net.next_completion().unwrap();
        let stats = net.drain_finished(done);
        let (_, s) = stats[0];
        assert_eq!(s.src, 0);
        assert_eq!(s.dst, 2);
        assert_eq!(s.bytes, 1_000_000);
        assert_eq!(s.started, SimTime::from_secs(1));
        assert!(s.finished > s.started);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_time_reversal() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        net.start_flows(SimTime::from_secs(5), &[(0, 1, 100)]);
        net.start_flows(SimTime::from_secs(4), &[(1, 0, 100)]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn rejects_unknown_node() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        net.start_flows(SimTime::ZERO, &[(0, 9, 100)]);
    }

    #[test]
    fn deterministic_completion_order() {
        // Flows finishing at the same instant drain in start order.
        let mut net = Network::new(&[2, 2], NetConfig::uniform(MBPS_100));
        let a = net.start_flows(SimTime::ZERO, &[(2, 0, BLOCK)])[0];
        let b = net.start_flows(SimTime::ZERO, &[(3, 1, BLOCK)])[0];
        let done = net.next_completion().unwrap();
        let ids: Vec<FlowId> = net.drain_finished(done).iter().map(|f| f.0).collect();
        assert_eq!(ids, vec![a, b]);
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;

    #[test]
    fn utilization_log_tracks_rack_downlink_usage() {
        let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
        net.enable_utilization_log();
        // One cross-rack flow saturating rack1's downlink for ~10.7s.
        net.start_flows(SimTime::ZERO, &[(0, 2, 128 * 1024 * 1024)]);
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        let log = net.utilization_log();
        assert!(!log.is_empty());
        let total_bits: f64 = log.iter().map(|s| s.rack_down_bits).sum();
        assert!(
            (total_bits - 128.0 * 1024.0 * 1024.0 * 8.0).abs() < 1e6,
            "{total_bits}"
        );
        // One of two rack downlinks busy => 50% aggregate utilization.
        for sample in log {
            assert!((sample.fraction() - 0.5).abs() < 0.01, "{:?}", sample);
            assert!(sample.until > sample.since);
        }
    }

    #[test]
    fn intra_rack_flows_do_not_count() {
        let mut net = Network::new(&[2, 2], NetConfig::gigabit());
        net.enable_utilization_log();
        net.start_flows(SimTime::ZERO, &[(0, 1, 1_000_000)]); // same rack
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        let total: f64 = net.utilization_log().iter().map(|s| s.rack_down_bits).sum();
        assert_eq!(total, 0.0);
    }

    #[test]
    fn log_disabled_by_default() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        net.start_flows(SimTime::ZERO, &[(0, 1, 1_000)]);
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        assert!(net.utilization_log().is_empty());
    }
}

#[cfg(test)]
mod flow_log_tests {
    use super::*;

    const BLOCK: u64 = 128 * 1024 * 1024;

    /// Everything logged since the last drain.
    fn take(net: &mut Network) -> Vec<FlowLogEntry> {
        let mut entries = Vec::new();
        net.drain_flow_log(|e| entries.push(e));
        entries
    }

    #[test]
    fn logs_full_flow_lifecycle() {
        let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
        net.enable_flow_log();
        let a = net.start_flows(SimTime::ZERO, &[(0, 2, BLOCK)])[0];
        let entries = take(&mut net);
        assert_eq!(entries.len(), 2, "{entries:?}");
        match entries[0].kind {
            FlowLogKind::Started {
                src,
                dst,
                bytes,
                route,
            } => {
                assert_eq!((src, dst, bytes), (0, 2, BLOCK));
                // Cross-rack: NIC up, rack0 up, rack1 down, NIC down.
                assert_eq!(route.as_slice(), &[0, 8, 11, 5]);
            }
            ref other => panic!("expected Started, got {other:?}"),
        }
        assert!(
            matches!(entries[1].kind, FlowLogKind::RateChanged { rate_bps } if rate_bps == 1e8),
            "{entries:?}"
        );
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        let entries = take(&mut net);
        assert_eq!(
            entries,
            vec![FlowLogEntry {
                at: done,
                flow: a,
                kind: FlowLogKind::Finished { cancelled: false },
            }]
        );
        // Drained: nothing left.
        assert!(take(&mut net).is_empty());
    }

    #[test]
    fn logs_rate_changes_on_contention() {
        let mut net = Network::new(&[2, 1], NetConfig::uniform(100_000_000));
        net.enable_flow_log();
        let a = net.start_flows(SimTime::ZERO, &[(2, 0, BLOCK)])[0];
        take(&mut net);
        // Second flow shares the rack downlink: both drop to half rate.
        net.start_flows(SimTime::from_secs(2), &[(2, 1, BLOCK)]);
        let entries = take(&mut net);
        let a_changes: Vec<f64> = entries
            .iter()
            .filter_map(|e| match e.kind {
                FlowLogKind::RateChanged { rate_bps } if e.flow == a => Some(rate_bps),
                _ => None,
            })
            .collect();
        assert_eq!(a_changes, vec![5e7]);
    }

    #[test]
    fn cancel_logs_cancelled_finish() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        net.enable_flow_log();
        let a = net.start_flows(SimTime::ZERO, &[(0, 1, BLOCK)])[0];
        take(&mut net);
        net.cancel_flow(SimTime::from_millis(10), a);
        let entries = take(&mut net);
        assert_eq!(entries.len(), 1);
        assert!(matches!(
            entries[0].kind,
            FlowLogKind::Finished { cancelled: true }
        ));
    }

    #[test]
    fn loopback_flows_log_no_rate_changes() {
        let mut net = Network::new(&[2], NetConfig::gigabit());
        net.enable_flow_log();
        net.start_flows(SimTime::ZERO, &[(1, 1, BLOCK)]);
        let entries = take(&mut net);
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert!(matches!(entries[0].kind, FlowLogKind::Started { route, .. }
            if route.as_slice().is_empty()));
    }

    #[test]
    fn drained_log_is_settled_so_timestamps_stay_monotone() {
        // Two start calls at t0 and no `next_completion`: the drain
        // itself settles, so each flow logs one rate, stamped t0, before
        // anything that happens at t1.
        let mut net = Network::new(&[2, 1], NetConfig::uniform(100_000_000));
        net.enable_flow_log();
        let t0 = SimTime::ZERO;
        let a = net.start_flows(t0, &[(2, 0, BLOCK)])[0];
        let b = net.start_flows(t0, &[(2, 1, BLOCK)])[0];
        let mut entries = take(&mut net);
        let rates: Vec<(FlowId, f64)> = entries
            .iter()
            .filter_map(|e| match e.kind {
                FlowLogKind::RateChanged { rate_bps } => Some((e.flow, rate_bps)),
                _ => None,
            })
            .collect();
        assert_eq!(rates, vec![(a, 5e7), (b, 5e7)], "{entries:?}");
        assert!(entries.iter().all(|e| e.at == t0));
        let t1 = SimTime::from_secs(1);
        net.cancel_flow(t1, a);
        entries.extend(take(&mut net));
        let done = net.next_completion().unwrap();
        net.drain_finished(done);
        entries.extend(take(&mut net));
        assert!(
            entries.windows(2).all(|pair| pair[0].at <= pair[1].at),
            "{entries:?}"
        );
        assert!(entries.iter().any(|e| e.at == t1
            && e.flow == b
            && e.kind == FlowLogKind::RateChanged { rate_bps: 1e8 }));
    }

    #[test]
    fn disabled_log_returns_empty() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        net.start_flows(SimTime::ZERO, &[(0, 1, 1_000)]);
        assert!(take(&mut net).is_empty());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    /// Every completion as `(id, finished, src, dst)`, draining until
    /// the network is empty.
    fn run_to_empty(net: &mut Network) -> Vec<(u64, SimTime, usize, usize)> {
        let mut finished = Vec::new();
        while let Some(t) = net.next_completion() {
            for (id, stats) in net.drain_finished(t) {
                finished.push((id.as_u64(), stats.finished, stats.src, stats.dst));
            }
        }
        finished
    }

    #[test]
    fn one_batch_equals_several_batches_at_one_instant() {
        let specs = [
            (0usize, 2usize, 64_000_000u64),
            (1, 3, 32_000_000),
            (2, 0, 8_000_000),
            (3, 3, 1_000),
        ];
        let run = |split: usize| {
            let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
            for batch in specs.chunks(split) {
                net.start_flows(SimTime::ZERO, batch);
            }
            let finished = run_to_empty(&mut net);
            (finished, net.reallocations())
        };
        let whole = run(specs.len());
        assert_eq!(whole.0.len(), specs.len());
        for split in 1..specs.len() {
            assert_eq!(run(split), whole, "split into batches of {split}");
        }
    }

    #[test]
    fn starts_and_cancels_at_one_instant_reallocate_once() {
        let mut net = Network::new(&[3, 3], NetConfig::uniform(100_000_000));
        let first = net.start_flows(SimTime::ZERO, &[(0, 3, 1 << 30), (1, 4, 1 << 30)]);
        net.next_completion();
        assert_eq!(net.reallocations(), 1);
        let t = SimTime::from_secs(1);
        let more = net.start_flows(t, &[(2, 5, 1 << 30), (3, 0, 1 << 30)]);
        net.start_flows(t, &[(4, 1, 1 << 30)]);
        net.cancel_flow(t, first[0]);
        net.cancel_flow(t, more[1]);
        assert_eq!(net.reallocations(), 1, "changes alone must not reallocate");
        let next = net.next_completion();
        assert_eq!(net.reallocations(), 2);
        assert_eq!(net.next_completion(), next);
        assert_eq!(net.reallocations(), 2, "a settled network stays settled");
    }

    #[test]
    fn drain_then_start_at_one_instant_reallocates_once() {
        let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
        net.start_flows(SimTime::ZERO, &[(0, 2, 1_000_000), (1, 3, 1 << 30)]);
        let t = net.next_completion().unwrap();
        let before = net.reallocations();
        assert_eq!(net.drain_finished(t).len(), 1);
        net.start_flows(t, &[(2, 0, 1_000_000)]);
        net.next_completion();
        assert_eq!(net.reallocations(), before + 1);
    }

    #[test]
    fn a_finished_flow_defers_the_settle_to_its_drain() {
        // The loopback flow is done at `t`, so `t` is the next completion
        // whatever the other flows' rates; they are settled once, after
        // the drain that removes it.
        let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
        let t = SimTime::from_secs(2);
        let flows = net.start_flows(t, &[(0, 2, 1 << 20), (1, 1, 1 << 20), (3, 1, 1 << 20)]);
        assert_eq!(net.next_completion(), Some(t));
        assert_eq!(net.reallocations(), 0);
        let done: Vec<FlowId> = net.drain_finished(t).iter().map(|f| f.0).collect();
        assert_eq!(done, vec![flows[1]]);
        assert!(net.next_completion().unwrap() > t);
        assert_eq!(net.reallocations(), 1);
        // Cancelling a finished flow before its drain lifts the deferral.
        let u = net.start_flows(t, &[(2, 2, 1)])[0];
        assert_eq!(net.next_completion(), Some(t));
        net.cancel_flow(t, u);
        assert!(net.next_completion().unwrap() > t);
        assert_eq!(net.reallocations(), 2);
    }

    #[test]
    fn a_finished_flow_is_due_at_the_last_update_after_time_moves_on() {
        // The settle after the cancel finds the second flow due at
        // `done`. Later calls that change no flow move time past `done`
        // without a settle; the next completion must follow them, or
        // draining at it would move the network back in time.
        let mut net = Network::new(&[2, 2], NetConfig::uniform(100_000_000));
        let ids = net.start_flows(SimTime::ZERO, &[(0, 2, 1 << 20), (1, 3, 1 << 20)]);
        net.cancel_flow(SimTime::ZERO, ids[0]);
        let done = net.next_completion().unwrap();
        assert!(net.cancel_flow(done, ids[0]).is_none());
        assert_eq!(net.next_completion(), Some(done));
        let later = done + SimDuration::from_micros(5);
        assert!(net.cancel_flow(later, ids[0]).is_none());
        assert_eq!(net.next_completion(), Some(later));
        let finished: Vec<FlowId> = net.drain_finished(later).iter().map(|f| f.0).collect();
        assert_eq!(finished, vec![ids[1]]);
        assert_eq!(net.next_completion(), None);
    }

    /// The earliest completion of `flows` — `(remaining_bits, rate)`
    /// pairs — at `now` by the per-flow formula.
    fn formula(now: SimTime, flows: &[(f64, f64)]) -> SimTime {
        flows
            .iter()
            .map(|&(bits, rate)| {
                let micros = (bits / rate * 1e6).ceil() as u64;
                now + SimDuration::from_micros(micros.max(1))
            })
            .min()
            .unwrap()
    }

    /// Rack 0 of `[4, 4]` at 100 Mbps: round 0 holds node 0's three
    /// flows at a third of its uplink; round 1 holds `1 → 2` and
    /// `2 → 1` at the two thirds their downlinks have left.
    fn two_rounds() -> (Network, Vec<FlowId>) {
        let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
        let ids = net.start_flows(
            SimTime::ZERO,
            &[
                (0, 1, 1 << 30),
                (0, 2, 1 << 30),
                (0, 3, 1 << 30),
                (1, 2, 1 << 30),
                (2, 1, 1 << 30),
            ],
        );
        net.next_completion();
        assert_eq!(net.flows_refilled(), 5);
        (net, ids)
    }

    #[test]
    fn a_departure_from_the_top_round_refills_only_that_round() {
        let (mut net, ids) = two_rounds();
        net.cancel_flow(SimTime::from_secs(1), ids[3]);
        net.next_completion();
        assert_eq!(net.flows_refilled(), 5 + 1, "only `2 → 1` is refilled");
    }

    #[test]
    fn an_arrival_on_an_idle_rack_refills_no_lower_round() {
        let (mut net, _) = two_rounds();
        // Its links' full capacity lies above both levels.
        net.start_flows(SimTime::from_secs(1), &[(4, 5, 1 << 30)]);
        net.next_completion();
        assert_eq!(net.flows_refilled(), 5 + 1, "only the arrival is refilled");
    }

    #[test]
    fn a_settle_with_no_routed_change_refills_no_flow() {
        let (mut net, _) = two_rounds();
        let t = SimTime::from_secs(1);
        net.start_flows(t, &[(3, 3, 1 << 20)]);
        assert_eq!(net.next_completion(), Some(t));
        net.drain_finished(t);
        net.next_completion();
        assert_eq!(net.reallocations(), 2);
        assert_eq!(net.flows_refilled(), 5);
    }

    #[test]
    fn a_kept_rounds_first_completion_follows_its_flow_across_a_swap_remove() {
        // Round 0 is node 0's two flows at 50 Mbps; the shorter one sits
        // in the last slot. Round 1 is `1 → 0` alone at 100 Mbps.
        let mut net = Network::new(&[3], NetConfig::uniform(100_000_000));
        let ids = net.start_flows(
            SimTime::ZERO,
            &[(1, 0, 1 << 30), (0, 1, 1 << 30), (0, 2, 1 << 25)],
        );
        net.next_completion();
        // Cancelling `1 → 0` moves the shorter flow into slot 0, and the
        // settle keeps round 0 without refilling it.
        let t = SimTime::from_secs(1);
        net.cancel_flow(t, ids[0]);
        let done = net.next_completion().unwrap();
        assert_eq!(net.flows_refilled(), 3);
        let bits = |bytes: u64| bytes as f64 * 8.0 - 5e7;
        let want = formula(t, &[(bits(1 << 30), 5e7), (bits(1 << 25), 5e7)]);
        assert_eq!(done, want);
        let finished: Vec<FlowId> = net.drain_finished(done).iter().map(|f| f.0).collect();
        assert_eq!(finished, vec![ids[2]]);
    }

    /// The active flows' ids in slot order.
    fn slot_order(net: &Network) -> Vec<FlowId> {
        net.flows().map(|(id, ())| id).collect()
    }

    #[test]
    fn a_cancel_that_moves_a_finished_flow_down_leaves_it_to_the_drain() {
        // At `done` the short flow in the last slot has finished; the
        // cancel swap-removes slot 1 and moves it there, below the slot
        // the advance noted it at.
        let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
        let ids = net.start_flows(
            SimTime::ZERO,
            &[(0, 4, 1 << 30), (1, 5, 1 << 30), (2, 6, 1 << 20)],
        );
        let done = net.next_completion().unwrap();
        assert!(net.cancel_flow(done, ids[1]).is_some());
        assert_eq!(slot_order(&net), vec![ids[0], ids[2]]);
        assert_eq!(net.next_completion(), Some(done));
        let finished: Vec<FlowId> = net.drain_finished(done).iter().map(|f| f.0).collect();
        assert_eq!(finished, vec![ids[2]]);
        assert_eq!(slot_order(&net), vec![ids[0]]);
        assert!(net.next_completion().unwrap() > done);
    }

    #[test]
    fn a_loopback_started_after_the_advance_drains_in_the_same_pass() {
        // The start advances to `done`, where slot 0 has finished, then
        // pushes the loopback into slot 3. A forward scan removes slot
        // 0, then the loopback moved into it, then stops at the moved
        // `ids[2]`.
        let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
        let ids = net.start_flows(
            SimTime::ZERO,
            &[(0, 4, 1 << 20), (1, 5, 1 << 30), (2, 6, 1 << 30)],
        );
        let done = net.next_completion().unwrap();
        let loopback = net.start_flows(done, &[(3, 3, 1 << 20)])[0];
        let finished: Vec<FlowId> = net.drain_finished(done).iter().map(|f| f.0).collect();
        assert_eq!(finished, vec![ids[0], loopback]);
        assert_eq!(slot_order(&net), vec![ids[2], ids[1]]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut net = Network::new(&[1, 1], NetConfig::gigabit());
        assert!(net.start_flows(SimTime::ZERO, &[]).is_empty());
        assert_eq!(net.flows().count(), 0);
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.reallocations(), 0);
    }
}
