//! Property-based tests for the flow-level network: feasibility and
//! max-min optimality of rate allocations, byte conservation,
//! monotonicity of completion under contention, settling a batch of
//! same-instant changes once, the one-pass settle against a model
//! built on the reference allocator, and fills resumed after arrivals
//! and departures at every level.

use std::collections::BTreeMap;

use netsim::fairshare::{max_min_rates_ref, FlowIncidence, MAX_HOPS};
use netsim::{FlowId, FlowLogKind, NetConfig, Network};
use proptest::prelude::*;
use simkit::time::{SimDuration, SimTime};

fn random_paths(num_links: usize, max_flows: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..num_links, 1..=num_links.min(4)),
        0..max_flows,
    )
    .prop_map(|flows| flows.into_iter().map(|s| s.into_iter().collect()).collect())
}

/// Rates as bit patterns, so comparisons are exact.
fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

/// An incidence holding `paths`, in slot order.
fn incidence_of(paths: &[Vec<usize>]) -> FlowIncidence {
    let mut incidence = FlowIncidence::new();
    for path in paths {
        let links: Vec<u32> = path.iter().map(|&l| l as u32).collect();
        incidence.push(&links);
    }
    incidence
}

/// The incidence's rates by slot after a compute, loopbacks at
/// infinity: a refilled flow's as reported, a kept flow's as its round's
/// level. Each refilled flow must be reported exactly once, at its
/// round's level.
fn rates_of(incidence: &mut FlowIncidence, caps: &[f64]) -> Vec<f64> {
    let mut reported = vec![None; incidence.len()];
    incidence.compute(caps, |slot, round, rate| {
        assert!(reported[slot].is_none(), "slot {slot} reported twice");
        reported[slot] = Some((round, rate.to_bits()));
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
                    assert_eq!(got, (round, level.to_bits()), "slot {slot} off its round");
                }
                level
            }
        })
        .collect()
}

/// Max-min rates of `paths` through a fresh incidence.
fn max_min_rates(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    rates_of(&mut incidence_of(paths), caps)
}

/// One step of a flow set's life.
#[derive(Clone, Debug)]
enum Op {
    /// A flow starts over these links (reduced modulo the link count).
    Start(Vec<usize>),
    /// The flow in slot `pick % len` is cancelled.
    Cancel(usize),
    /// A forward scan finishes the flows whose bit in the mask is set.
    Finish(u64),
}

fn op(num_links: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(0..num_links, 0..=MAX_HOPS).prop_map(Op::Start),
        2 => any::<usize>().prop_map(Op::Cancel),
        1 => any::<u64>().prop_map(Op::Finish),
    ]
}

/// One change to an incidence between fills, aimed at the last fill's
/// rounds.
#[derive(Clone, Debug)]
enum LevelOp {
    /// A flow starts over the links `mask` picks (at least one) of flow
    /// `flow` among those frozen in round `round`, plus link `extra`.
    Across {
        round: usize,
        flow: usize,
        mask: u8,
        extra: Option<usize>,
    },
    /// Flow `flow` among those frozen in round `round` leaves.
    Depart { round: usize, flow: usize },
    /// A flow starts over these links.
    Start(Vec<usize>),
    /// A flow on `link` starts and leaves, and with `again` a second one
    /// starts; without, the link the flow crossed is one whose capacity
    /// must never be read.
    Flap { link: usize, again: bool },
}

fn level_op(num_links: usize) -> impl Strategy<Value = LevelOp> {
    prop_oneof![
        4 => (any::<usize>(), any::<usize>(), 1u8..16, proptest::option::of(0..num_links))
            .prop_map(|(round, flow, mask, extra)| LevelOp::Across { round, flow, mask, extra }),
        3 => (any::<usize>(), any::<usize>()).prop_map(|(round, flow)| LevelOp::Depart { round, flow }),
        1 => proptest::collection::vec(0..num_links, 1..=MAX_HOPS).prop_map(LevelOp::Start),
        1 => (0..num_links, any::<bool>()).prop_map(|(link, again)| LevelOp::Flap { link, again }),
    ]
}

/// The slots of the flows the incidence's last fill froze in round
/// `pick % rounds`.
fn frozen_in_round(incidence: &FlowIncidence, pick: usize) -> Vec<usize> {
    if incidence.rounds() == 0 {
        return Vec::new();
    }
    let round = (pick % incidence.rounds()) as u32;
    (0..incidence.len())
        .filter(|&slot| incidence.round(slot) == Some(round))
        .collect()
}

/// One call on a [`Network`] at the current instant.
#[derive(Clone, Debug)]
enum NetOp {
    /// `start_flows` with these `(src, dst, bytes)` triples.
    Start(Vec<(usize, usize, u64)>),
    /// `cancel_flow` of live flow `pick % live`.
    Cancel(usize),
    /// `drain_finished`.
    Drain,
}

fn net_op() -> impl Strategy<Value = NetOp> {
    prop_oneof![
        3 => proptest::collection::vec((0usize..6, 0usize..6, 1u64..40_000_000), 1..4)
            .prop_map(NetOp::Start),
        2 => any::<usize>().prop_map(NetOp::Cancel),
        2 => Just(NetOp::Drain),
    ]
}

/// One change to a network at the current instant, aimed at the levels
/// of the reference rates.
#[derive(Clone, Debug)]
enum LevelNetOp {
    /// A flow from the source of flow `flow` at level `level` to `other`
    /// (`from_src`), or from `other` to its destination.
    Across {
        level: usize,
        flow: usize,
        other: usize,
        from_src: bool,
        bytes: u64,
    },
    /// Flow `flow` at level `level` is cancelled.
    Depart { level: usize, flow: usize },
    /// `src → dst` starts and is cancelled, and with `again` starts anew.
    Flap { src: usize, dst: usize, again: bool },
    /// `drain_finished`.
    Drain,
    /// Moves the clock to the next completion, or by this many
    /// microseconds.
    Advance(bool, u64),
}

fn level_net_op() -> impl Strategy<Value = LevelNetOp> {
    let bytes = 1u64..40_000_000;
    prop_oneof![
        4 => (any::<usize>(), any::<usize>(), 0usize..8, any::<bool>(), bytes.clone())
            .prop_map(|(level, flow, other, from_src, bytes)| {
                LevelNetOp::Across { level, flow, other, from_src, bytes }
            }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(level, flow)| LevelNetOp::Depart { level, flow }),
        1 => (0usize..8, 0usize..8, any::<bool>())
            .prop_map(|(src, dst, again)| LevelNetOp::Flap { src, dst, again }),
        2 => Just(LevelNetOp::Drain),
        3 => (any::<bool>(), 1u64..3_000_000).prop_map(|(to, us)| LevelNetOp::Advance(to, us)),
    ]
}

/// One step of a tagged network's life in the model check.
#[derive(Clone, Debug)]
enum ModelOp {
    /// `start_tagged` with these `(src, dst, bytes)` triples.
    Start(Vec<(usize, usize, u64)>),
    /// `cancel_tagged` of started flow `pick % started` (live or not).
    Cancel(usize),
    /// `drain_tagged`.
    Drain,
    /// Moves the clock to the next completion, or by this many
    /// microseconds; the network sees the new time with its next call.
    Advance(bool, u64),
}

fn model_op() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        3 => proptest::collection::vec(
            (0usize..6, 0usize..6, prop_oneof![1 => Just(0u64), 6 => 1u64..40_000_000]),
            1..4,
        )
        .prop_map(ModelOp::Start),
        2 => any::<usize>().prop_map(ModelOp::Cancel),
        2 => Just(ModelOp::Drain),
        3 => (any::<bool>(), 1u64..3_000_000).prop_map(|(to, us)| ModelOp::Advance(to, us)),
    ]
}

/// What the model knows of a live flow.
#[derive(Clone, Debug)]
struct ModelFlow {
    src: usize,
    dst: usize,
    bytes: u64,
    started: SimTime,
    path: Vec<usize>,
    remaining_bits: f64,
    tag: String,
}

/// A fluid network kept by hand: flows in id order, rates from
/// `max_min_rates_ref`, progress and completion instants by the
/// formulas the network documents.
struct Model {
    racks: Vec<usize>,
    caps: Vec<f64>,
    flows: BTreeMap<FlowId, ModelFlow>,
    /// The instant of the last call the network saw.
    last: SimTime,
    /// Whether the flow set changed at `last`.
    changed: bool,
    /// The next completion as of the last change: the network answers
    /// with it until the flow set changes again.
    next: Option<SimTime>,
}

impl Model {
    fn new(racks: &[usize], config: NetConfig) -> Model {
        let nodes: usize = racks.iter().sum();
        let mut caps = vec![config.node_bps as f64; 2 * nodes];
        caps.extend(std::iter::repeat_n(config.rack_bps as f64, 2 * racks.len()));
        Model {
            racks: racks.to_vec(),
            caps,
            flows: BTreeMap::new(),
            last: SimTime::ZERO,
            changed: false,
            next: None,
        }
    }

    /// The link layout of `Network::tagged`.
    fn path(&self, src: usize, dst: usize) -> Vec<usize> {
        let rack_of = |node: usize| {
            let mut first = 0;
            self.racks
                .iter()
                .position(|&size| {
                    first += size;
                    node < first
                })
                .unwrap()
        };
        let n: usize = self.racks.iter().sum();
        let (sr, dr) = (rack_of(src), rack_of(dst));
        if src == dst {
            vec![]
        } else if sr == dr {
            vec![2 * src, 2 * dst + 1]
        } else {
            vec![2 * src, 2 * n + 2 * sr, 2 * n + 2 * dr + 1, 2 * dst + 1]
        }
    }

    /// The reference rates of the live flows, in id order.
    fn rates(&self) -> Vec<f64> {
        let paths: Vec<Vec<usize>> = self.flows.values().map(|f| f.path.clone()).collect();
        max_min_rates_ref(&self.caps, &paths)
    }

    /// The live flow `flow % n` among the `n` routed flows at the
    /// `level % levels`-th of the distinct reference rates, ascending.
    fn at_level(&self, level: usize, flow: usize) -> Option<FlowId> {
        let rated: Vec<(FlowId, f64)> = self
            .flows
            .keys()
            .copied()
            .zip(self.rates())
            .filter(|&(_, rate)| rate.is_finite())
            .collect();
        let mut levels: Vec<f64> = rated.iter().map(|&(_, rate)| rate).collect();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let rate = *levels.get(level % levels.len().max(1))?;
        let ids: Vec<FlowId> = rated.iter().filter(|r| r.1 == rate).map(|r| r.0).collect();
        Some(ids[flow % ids.len()])
    }

    /// `start_flows` of `specs` on both the network and the model at
    /// `now`.
    fn start(
        &mut self,
        net: &mut Network,
        now: SimTime,
        specs: &[(usize, usize, u64)],
    ) -> Vec<FlowId> {
        self.advance_to(now);
        let ids = net.start_flows(now, specs);
        for (&id, &(src, dst, bytes)) in ids.iter().zip(specs) {
            let path = self.path(src, dst);
            let remaining_bits = if path.is_empty() {
                0.0
            } else {
                bytes as f64 * 8.0
            };
            self.flows.insert(
                id,
                ModelFlow {
                    src,
                    dst,
                    bytes,
                    started: now,
                    path,
                    remaining_bits,
                    tag: String::new(),
                },
            );
        }
        self.changed = true;
        ids
    }

    /// `cancel_flow` of live flow `id` on both at `now`.
    fn cancel(&mut self, net: &mut Network, now: SimTime, id: FlowId) {
        self.advance_to(now);
        assert!(net.cancel_flow(now, id).is_some());
        self.flows.remove(&id);
        self.changed = true;
    }

    /// What the network does before each call: progress at the rates
    /// of the flow set since the last call. Completion instants are
    /// fixed at the instant of the last change.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        if dt > 0.0 {
            self.next = self.next_completion();
            self.changed = false;
            let rates = self.rates();
            for (flow, rate) in self.flows.values_mut().zip(rates) {
                flow.remaining_bits = (flow.remaining_bits - rate * dt).max(0.0);
            }
        }
        self.last = now;
    }

    /// The instant of the last call while any flow is finished;
    /// otherwise `now + max(1, ceil(remaining / rate · 1e6))` µs per
    /// flow, the earliest of them, where `now` is the instant of the
    /// last change.
    fn next_completion(&self) -> Option<SimTime> {
        if self.flows.values().any(|f| f.remaining_bits <= 1e-3) {
            return Some(self.last);
        }
        if !self.changed {
            return self.next;
        }
        let now = self.last;
        self.flows
            .values()
            .zip(self.rates())
            .map(|(flow, rate)| {
                let micros = (flow.remaining_bits / rate * 1e6).ceil() as u64;
                now + SimDuration::from_micros(micros.max(1))
            })
            .min()
    }
}

/// `drain_finished` as `(id, finished)` pairs.
fn drain(net: &mut Network, now: SimTime) -> Vec<(FlowId, SimTime)> {
    net.drain_finished(now)
        .into_iter()
        .map(|(id, stats)| (id, stats.finished))
        .collect()
}

/// Folds a network's flow log into each live flow's current rate, as
/// bit patterns.
fn fold_rates(net: &mut Network, rates: &mut BTreeMap<FlowId, u64>) {
    net.drain_flow_log(|e| match e.kind {
        FlowLogKind::RateChanged { rate_bps } => {
            rates.insert(e.flow, rate_bps.to_bits());
        }
        FlowLogKind::Finished { .. } => {
            rates.remove(&e.flow);
        }
        FlowLogKind::Started { .. } => {}
    });
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
        let ref_bits = bits(&max_min_rates_ref(&caps, &paths));
        prop_assert_eq!(&ref_bits, &bits(&max_min_rates(&caps, &paths)));
        // A reused (dirty) incidence must agree too, while the capacity
        // vector grows and shrinks between calls.
        let mut wider = caps.clone();
        wider.extend(std::iter::repeat_n(3.3e9, pad_links));
        let wider_bits = bits(&max_min_rates_ref(&wider, &paths));
        let mut incidence = incidence_of(&paths);
        prop_assert_eq!(&wider_bits, &bits(&rates_of(&mut incidence, &wider)));
        prop_assert_eq!(&ref_bits, &bits(&rates_of(&mut incidence, &caps)));
        prop_assert_eq!(&wider_bits, &bits(&rates_of(&mut incidence, &wider)));
    }

    #[test]
    fn sparse_allocator_matches_reference_bit_for_bit(
        caps in proptest::collection::vec(1e6f64..1e10, 1..12),
        seed_paths in random_paths(12, 20),
        loopbacks in 0usize..3,
        pad_links in 0usize..512,
    ) {
        // The incidence must reproduce the reference exactly even when
        // the capacity vector is mostly untouched padding — same freeze
        // rounds, same floating-point operations, bit-identical rates.
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
        let ref_bits = bits(&max_min_rates_ref(&caps, &paths));
        // Computing twice on the same incidence must agree too.
        let mut incidence = incidence_of(&paths);
        rates_of(&mut incidence, &caps);
        prop_assert_eq!(&ref_bits, &bits(&rates_of(&mut incidence, &caps)));
    }

    #[test]
    fn incidence_tracks_reference_through_starts_cancels_and_finishes(
        caps in proptest::collection::vec(1e6f64..1e10, 1..8),
        pad_links in 0usize..64,
        ops in proptest::collection::vec(op(8), 1..60),
    ) {
        // Starts push a flow; a cancel swap-removes one slot; a finish
        // swap-removes a subset while scanning forward, as
        // `Network::drain_finished` does. Paths may repeat a link or be
        // empty (loopback), and the few links are emptied and reused.
        // After every operation the rates must equal the reference on
        // the current flow set, bit for bit.
        let num_real = caps.len();
        let mut caps = caps;
        caps.extend(std::iter::repeat_n(7.7e9, pad_links));
        let mut incidence = FlowIncidence::new();
        let mut paths: Vec<Vec<usize>> = Vec::new();
        for op in ops {
            match op {
                Op::Start(path) => {
                    let path: Vec<usize> = path.into_iter().map(|l| l % num_real).collect();
                    let links: Vec<u32> = path.iter().map(|&l| l as u32).collect();
                    incidence.push(&links);
                    paths.push(path);
                }
                Op::Cancel(pick) => {
                    if !paths.is_empty() {
                        let slot = pick % paths.len();
                        incidence.swap_remove(slot);
                        paths.swap_remove(slot);
                    }
                }
                Op::Finish(mask) => {
                    let mut i = 0;
                    let mut seen = 0u32;
                    while i < paths.len() {
                        if mask >> (seen % 64) & 1 == 1 {
                            incidence.swap_remove(i);
                            paths.swap_remove(i);
                        } else {
                            i += 1;
                        }
                        seen += 1;
                    }
                }
            }
            prop_assert_eq!(incidence.len(), paths.len());
            for (slot, path) in paths.iter().enumerate() {
                let links: Vec<usize> = incidence.links(slot).iter().map(|&l| l as usize).collect();
                prop_assert_eq!(&links, path);
            }
            let rates = rates_of(&mut incidence, &caps);
            prop_assert_eq!(bits(&rates), bits(&max_min_rates_ref(&caps, &paths)));
        }
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
        let started = net.start_flows(now, &transfers).len();
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
        prop_assert_eq!(net.flows().count(), 0);
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
            net.start_flows(SimTime::ZERO, &[(4, 0, bytes)]);
            net.next_completion().unwrap()
        };
        let contended = {
            let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
            let main = net.start_flows(SimTime::ZERO, &[(4, 0, bytes)])[0];
            let others: Vec<(usize, usize, u64)> = (0..competitors)
                .map(|c| (5 + (c % 3), 1 + (c % 3), u64::MAX / 1024))
                .collect();
            net.start_flows(SimTime::ZERO, &others);
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

    #[test]
    fn settling_once_per_batch_matches_settling_after_every_op(
        steps in proptest::collection::vec(
            (
                any::<bool>(),
                prop_oneof![Just(0u64), 1u64..3_000_000],
                proptest::collection::vec(net_op(), 0..6),
            ),
            1..30,
        ),
    ) {
        // Two networks see the same calls. The eager one asks for the
        // next completion, and so settles, after every call. The lazy one
        // is never asked: it settles only when time advances, and it is
        // observed through clones. Completions, rates and the next
        // completion must agree bit for bit.
        let new_net = || {
            let mut net = Network::new(&[3, 3], NetConfig::uniform(100_000_000));
            net.enable_flow_log();
            net
        };
        let (mut eager, mut lazy) = (new_net(), new_net());
        let mut eager_rates = BTreeMap::new();
        let mut live: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for (to_completion, jump_us, ops) in steps {
            now = match eager.next_completion() {
                Some(t) if to_completion => t,
                _ => now + SimDuration::from_micros(jump_us),
            };
            for op in ops {
                match op {
                    NetOp::Start(specs) => {
                        let ids = eager.start_flows(now, &specs);
                        prop_assert_eq!(&ids, &lazy.start_flows(now, &specs));
                        live.extend(ids);
                    }
                    NetOp::Cancel(pick) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.swap_remove(pick % live.len());
                        let stats = eager.cancel_flow(now, id);
                        prop_assert!(stats.is_some());
                        prop_assert_eq!(stats, lazy.cancel_flow(now, id));
                    }
                    NetOp::Drain => {
                        let done = drain(&mut eager, now);
                        prop_assert_eq!(&done, &drain(&mut lazy, now));
                        live.retain(|id| !done.iter().any(|(d, _)| d == id));
                    }
                }
                eager.next_completion();
            }
            prop_assert_eq!(eager.next_completion(), lazy.clone().next_completion());
            // Close the instant: once what has finished is drained, a
            // settled view of the lazy network has every rate of it.
            let done = drain(&mut eager, now);
            prop_assert_eq!(&done, &drain(&mut lazy, now));
            live.retain(|id| !done.iter().any(|(d, _)| d == id));
            let mut view = lazy.clone();
            prop_assert_eq!(eager.next_completion(), view.next_completion());
            prop_assert!(view.reallocations() <= eager.reallocations());
            fold_rates(&mut eager, &mut eager_rates);
            // The lazy log is never drained, so it holds the whole history.
            let mut lazy_rates = BTreeMap::new();
            fold_rates(&mut view, &mut lazy_rates);
            prop_assert_eq!(&eager_rates, &lazy_rates);
            prop_assert!(eager_rates.keys().all(|id| live.contains(id)));
        }
    }

    #[test]
    fn one_pass_settle_matches_the_reference_formula(
        ops in proptest::collection::vec(model_op(), 1..40),
    ) {
        // After every step, the network's next completion must be the
        // one the reference rates give, bit for bit, and every flow that
        // leaves must come back with the tag it was started with. The
        // network under test is only ever read through clones, so it
        // settles when its own calls need the rates. `slots` models the
        // network's slot order: starts push, cancels swap-remove, and a
        // drain scans forward, re-checking a slot after each
        // swap-remove. Traced streams log rate changes in slot order.
        let config = NetConfig { node_bps: 100_000_000, rack_bps: 150_000_000 };
        let racks = [3, 3];
        let mut net: Network<String> = Network::tagged(&racks, config);
        let mut model = Model::new(&racks, config);
        let mut slots: Vec<FlowId> = Vec::new();
        let mut started: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                ModelOp::Start(specs) => {
                    model.advance_to(now);
                    let first = started.len();
                    let tagged = specs.iter().enumerate().map(|(i, &(src, dst, bytes))| {
                        (src, dst, bytes, format!("flow {}", first + i))
                    });
                    let ids: Vec<FlowId> = net.start_tagged(now, tagged).collect();
                    prop_assert_eq!(ids.len(), specs.len());
                    for (i, (&id, &(src, dst, bytes))) in ids.iter().zip(&specs).enumerate() {
                        let path = model.path(src, dst);
                        let remaining_bits = if path.is_empty() { 0.0 } else { bytes as f64 * 8.0 };
                        model.flows.insert(id, ModelFlow {
                            src, dst, bytes, started: now, path, remaining_bits,
                            tag: format!("flow {}", first + i),
                        });
                    }
                    slots.extend(&ids);
                    started.extend(ids);
                    model.changed = true;
                }
                ModelOp::Cancel(pick) => {
                    if started.is_empty() {
                        continue;
                    }
                    let id = started[pick % started.len()];
                    model.advance_to(now);
                    let got = net.cancel_tagged(now, id);
                    match model.flows.remove(&id) {
                        Some(f) => {
                            model.changed = true;
                            let slot = slots.iter().position(|&s| s == id).unwrap();
                            slots.swap_remove(slot);
                            let (stats, tag) = got.expect("a live flow cancels");
                            prop_assert_eq!(tag, f.tag);
                            prop_assert_eq!(
                                (stats.src, stats.dst, stats.bytes, stats.started, stats.finished),
                                (f.src, f.dst, f.bytes, f.started, now)
                            );
                        }
                        None => prop_assert!(got.is_none(), "{id:?} left already"),
                    }
                }
                ModelOp::Drain => {
                    model.advance_to(now);
                    let mut drained = Vec::new();
                    net.drain_tagged(now, |id, stats, tag| drained.push((id, stats, tag)));
                    let done: Vec<FlowId> = model
                        .flows
                        .iter()
                        .filter(|(_, f)| f.remaining_bits <= 1e-3)
                        .map(|(&id, _)| id)
                        .collect();
                    let mut i = 0;
                    while i < slots.len() {
                        if done.contains(&slots[i]) {
                            slots.swap_remove(i);
                        } else {
                            i += 1;
                        }
                    }
                    prop_assert_eq!(drained.len(), done.len());
                    model.changed |= !done.is_empty();
                    for ((id, stats, tag), want) in drained.into_iter().zip(done) {
                        prop_assert_eq!(id, want);
                        let f = model.flows.remove(&id).unwrap();
                        prop_assert_eq!(tag, f.tag);
                        prop_assert_eq!(
                            (stats.src, stats.dst, stats.bytes, stats.started, stats.finished),
                            (f.src, f.dst, f.bytes, f.started, now)
                        );
                    }
                }
                ModelOp::Advance(to_completion, jump_us) => {
                    now = match net.clone().next_completion() {
                        Some(t) if to_completion => t,
                        _ => now + SimDuration::from_micros(jump_us),
                    };
                }
            }
            prop_assert_eq!(net.clone().next_completion(), model.next_completion());
            prop_assert_eq!(net.flows().count(), model.flows.len());
            let mut live: Vec<(FlowId, String)> =
                net.flows().map(|(id, tag)| (id, tag.clone())).collect();
            let order: Vec<FlowId> = live.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(&order, &slots);
            live.sort();
            let want: Vec<(FlowId, String)> =
                model.flows.iter().map(|(&id, f)| (id, f.tag.clone())).collect();
            prop_assert_eq!(live, want);
            for (&id, f) in &model.flows {
                prop_assert_eq!(net.flow_endpoints(id), Some((f.src, f.dst)));
            }
        }
    }

    #[test]
    fn resumed_fills_match_the_reference_at_every_level(
        caps in proptest::collection::vec(
            prop_oneof![1e6f64..1e10, (0usize..4).prop_map(|i| [1e8, 1.5e8, 2e8, 3e8][i])],
            2..8,
        ),
        seed_paths in random_paths(8, 10),
        steps in proptest::collection::vec(proptest::collection::vec(level_op(8), 1..4), 1..25),
    ) {
        // Between fills, flows start across the links of a flow the last
        // fill froze in a chosen round, flows of a chosen round leave,
        // and links go live, idle and live again. Each fill resumes the
        // last; every rate, kept or refilled, must be the reference's on
        // the current flow set, bit for bit. The last link's capacity is
        // NaN: it only ever goes live and idle between fills, so no fill
        // may read it.
        let num_real = caps.len();
        let garbage = num_real;
        let mut nan_caps = caps.clone();
        nan_caps.push(f64::NAN);
        let mut paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().map(|l| l % num_real).collect())
            .collect();
        let mut incidence = incidence_of(&paths);
        rates_of(&mut incidence, &nan_caps);
        for ops in steps {
            for op in ops {
                match op {
                    LevelOp::Across { round, flow, mask, extra } => {
                        let slots = frozen_in_round(&incidence, round);
                        if slots.is_empty() {
                            continue;
                        }
                        let along = &paths[slots[flow % slots.len()]];
                        let mut path: Vec<usize> = along
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| mask >> i & 1 == 1)
                            .map(|(_, &l)| l)
                            .collect();
                        if path.is_empty() {
                            path.push(along[0]);
                        }
                        if let Some(l) = extra.filter(|_| path.len() < MAX_HOPS) {
                            path.push(l % num_real);
                        }
                        let links: Vec<u32> = path.iter().map(|&l| l as u32).collect();
                        incidence.push(&links);
                        paths.push(path);
                    }
                    LevelOp::Depart { round, flow } => {
                        let slots = frozen_in_round(&incidence, round);
                        if let Some(&slot) = slots.get(flow % slots.len().max(1)) {
                            incidence.swap_remove(slot);
                            paths.swap_remove(slot);
                        }
                    }
                    LevelOp::Start(path) => {
                        let path: Vec<usize> = path.into_iter().map(|l| l % num_real).collect();
                        let links: Vec<u32> = path.iter().map(|&l| l as u32).collect();
                        incidence.push(&links);
                        paths.push(path);
                    }
                    LevelOp::Flap { link, again } => {
                        let link = if again { link % num_real } else { garbage };
                        incidence.push(&[link as u32]);
                        incidence.swap_remove(incidence.len() - 1);
                        if again {
                            incidence.push(&[link as u32]);
                            paths.push(vec![link]);
                        }
                    }
                }
            }
            let rates = rates_of(&mut incidence, &nan_caps);
            prop_assert_eq!(bits(&rates), bits(&max_min_rates_ref(&caps, &paths)));
        }
    }

    #[test]
    fn resumed_settles_match_the_formula_model_at_every_level(
        ops in proptest::collection::vec(level_net_op(), 1..40),
    ) {
        // The network check of the test above: flows start into or out
        // of the endpoints of a flow at a chosen level, flows at a chosen
        // level are cancelled, and node pairs flap. After each step the
        // next completion must be the per-flow formula's on the
        // reference rates, and every flow's logged rate the reference's,
        // bit for bit.
        let config = NetConfig { node_bps: 100_000_000, rack_bps: 150_000_000 };
        let racks = [4, 4];
        let mut net = Network::new(&racks, config);
        net.enable_flow_log();
        let mut model = Model::new(&racks, config);
        let mut now = SimTime::ZERO;
        model.start(&mut net, now, &[(0, 5, 20_000_000), (1, 4, 30_000_000), (4, 0, 10_000_000)]);
        for op in ops {
            match op {
                LevelNetOp::Across { level, flow, other, from_src, bytes } => {
                    if let Some(id) = model.at_level(level, flow) {
                        let f = &model.flows[&id];
                        let spec = if from_src { (f.src, other, bytes) } else { (other, f.dst, bytes) };
                        model.start(&mut net, now, &[spec]);
                    }
                }
                LevelNetOp::Depart { level, flow } => {
                    if let Some(id) = model.at_level(level, flow) {
                        model.cancel(&mut net, now, id);
                    }
                }
                LevelNetOp::Flap { src, dst, again } => {
                    let id = model.start(&mut net, now, &[(src, dst, 5_000_000)])[0];
                    model.cancel(&mut net, now, id);
                    if again {
                        model.start(&mut net, now, &[(src, dst, 5_000_000)]);
                    }
                }
                LevelNetOp::Drain => {
                    model.advance_to(now);
                    let drained = drain(&mut net, now);
                    model.changed |= !drained.is_empty();
                    for (id, _) in drained {
                        let f = model.flows.remove(&id).unwrap();
                        prop_assert!(f.remaining_bits <= 1e-3, "{id:?} drained early");
                    }
                }
                LevelNetOp::Advance(to_completion, jump_us) => {
                    now = match net.clone().next_completion() {
                        Some(t) if to_completion => t,
                        _ => now + SimDuration::from_micros(jump_us),
                    };
                }
            }
            prop_assert_eq!(net.clone().next_completion(), model.next_completion());
            // While a flow is finished the settle waits for its drain.
            if model.flows.values().all(|f| f.remaining_bits > 1e-3) {
                let mut rates = BTreeMap::new();
                fold_rates(&mut net.clone(), &mut rates);
                let want: BTreeMap<FlowId, u64> = model
                    .flows
                    .keys()
                    .zip(model.rates())
                    .filter(|(_, rate)| rate.is_finite())
                    .map(|(&id, rate)| (id, rate.to_bits()))
                    .collect();
                prop_assert_eq!(rates, want);
            }
        }
    }
}
