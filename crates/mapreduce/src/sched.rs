//! The scheduler interface: a policy sees one heartbeat at a time and
//! claims map tasks for the reporting slave.
//!
//! [`Heartbeat`] is both the *view* (task pools, launch counters, the
//! load and rack-timing estimates of the paper's enhanced heuristics)
//! and the *actuator* (`take_*` methods claim a task and consume a map
//! slot). Reduce-task assignment is not policy-controlled — as in
//! Hadoop, reducers have no locality and the engine hands them out FIFO.

use cluster::{NodeId, RackId};
use simkit::time::SimTime;

use crate::engine::Engine;
use crate::job::{JobId, MapLocality, MapTaskId};

/// A map-task scheduling policy (the paper's Algorithms 1–3 implement
/// this in the `scheduler` crate).
pub trait MapScheduler {
    /// Claims tasks for the slave whose heartbeat is being served.
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>);

    /// Short policy name for reports ("LF", "BDF", "EDF").
    fn name(&self) -> &str;
}

/// One slave heartbeat being served by the master.
pub struct Heartbeat<'a> {
    engine: &'a mut Engine,
    slave: NodeId,
    assigned: Vec<(JobId, MapTaskId)>,
}

impl<'a> Heartbeat<'a> {
    pub(crate) fn new(engine: &'a mut Engine, slave: NodeId) -> Heartbeat<'a> {
        Heartbeat {
            engine,
            slave,
            assigned: Vec::new(),
        }
    }

    pub(crate) fn into_assigned(self) -> Vec<(JobId, MapTaskId)> {
        self.assigned
    }

    /// The reporting slave.
    pub fn slave(&self) -> NodeId {
        self.slave
    }

    /// The slave's rack.
    pub fn rack(&self) -> RackId {
        self.engine.topo.rack_of(self.slave)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Number of racks in the cluster.
    pub fn num_racks(&self) -> usize {
        self.engine.topo.num_racks()
    }

    /// Free map slots remaining on the slave (decreases as tasks are
    /// taken during this heartbeat).
    pub fn free_map_slots(&self) -> u32 {
        self.engine.free_map[self.slave.index()]
    }

    /// Running (submitted, unfinished) jobs in FIFO order. The queue
    /// cannot change during a heartbeat, so a policy that claims tasks
    /// while walking it can index it afresh at each step instead of
    /// holding this borrow.
    pub fn jobs(&self) -> &[JobId] {
        &self.engine.fifo
    }

    // ---- per-job counters (Algorithm 2's M, m, M_d, m_d) ---------------

    /// Total map tasks of the job (`M`).
    pub fn total_maps(&self, job: JobId) -> usize {
        self.engine.jobs[job.index()].maps.len()
    }

    /// Map tasks already launched (`m`).
    pub fn launched_maps(&self, job: JobId) -> usize {
        self.engine.jobs[job.index()].launched_maps
    }

    /// Total degraded tasks of the job (`M_d`).
    pub fn total_degraded(&self, job: JobId) -> usize {
        self.engine.jobs[job.index()].degraded_pool.len()
            + self.engine.jobs[job.index()].launched_degraded
    }

    /// Degraded tasks already launched (`m_d`).
    pub fn launched_degraded(&self, job: JobId) -> usize {
        self.engine.jobs[job.index()].launched_degraded
    }

    /// True if the job still has unassigned degraded tasks.
    pub fn has_degraded(&self, job: JobId) -> bool {
        !self.engine.jobs[job.index()].degraded_pool.is_empty()
    }

    /// True if the job still has unassigned normal (non-degraded) tasks.
    pub fn has_normal(&self, job: JobId) -> bool {
        self.engine.jobs[job.index()].normal.total() > 0
    }

    // ---- enhanced-heuristic estimates (Section IV-C) --------------------

    /// `t_s`: estimated seconds the given slave needs to finish its
    /// remaining node-local map tasks — pool size × mean map time ÷
    /// slots ÷ speed factor. Heterogeneity-aware, as the paper requires.
    pub fn slave_local_work_secs(&self, job: JobId, node: NodeId) -> f64 {
        let j = &self.engine.jobs[job.index()];
        let pool = j.normal.len_of(node) as f64;
        let spec = self.engine.topo.spec(node);
        pool * j.spec.map_time_mean.as_secs_f64() / spec.map_slots as f64 / spec.speed_factor
    }

    /// `E[t_s]`: mean of [`Heartbeat::slave_local_work_secs`] over live
    /// slaves, summed in ascending node order.
    pub fn mean_local_work_secs(&self, job: JobId) -> f64 {
        let mut alive = 0usize;
        let sum = self
            .engine
            .topo
            .node_ids()
            .filter(|&n| self.engine.cstate.is_alive(n))
            .inspect(|_| alive += 1)
            .map(|n| self.slave_local_work_secs(job, n))
            .sum::<f64>();
        if alive == 0 {
            return 0.0;
        }
        sum / alive as f64
    }

    /// `t_r`: seconds since the last degraded task was assigned to the
    /// rack (`+∞` if none ever was).
    pub fn secs_since_degraded_assign(&self, rack: RackId) -> f64 {
        match self.engine.last_degraded_assign[rack.index()] {
            Some(at) => self.engine.now.saturating_duration_since(at).as_secs_f64(),
            None => f64::INFINITY,
        }
    }

    /// `E[t_r]`: mean of [`Heartbeat::secs_since_degraded_assign`] over
    /// all racks (`+∞` if any rack has never received one).
    pub fn mean_secs_since_degraded_assign(&self) -> f64 {
        let racks = self.engine.topo.num_racks();
        (0..racks)
            .map(|r| self.secs_since_degraded_assign(RackId(r as u32)))
            .sum::<f64>()
            / racks as f64
    }

    /// The rack-awareness threshold `(R−1)·k·S / (R·W)`: the expected
    /// inter-rack time of one degraded read (Section IV-B/IV-C).
    pub fn degraded_read_threshold_secs(&self) -> f64 {
        let r = self.engine.topo.num_racks() as f64;
        let k = self.engine.store.layout().params().k() as f64;
        let bits = self.engine.cfg.block_bytes as f64 * 8.0;
        let w = self.engine.cfg.net.rack_bps as f64;
        (r - 1.0) * k * bits / (r * w)
    }

    // ---- task claiming ---------------------------------------------------

    /// Claims an unassigned map task whose block is stored on this slave.
    pub fn take_node_local(&mut self, job: JobId) -> Option<MapTaskId> {
        if self.free_map_slots() == 0 {
            return None;
        }
        let slave = self.slave;
        let e = &mut *self.engine;
        let task = e.jobs[job.index()].normal.pop(&e.topo, slave)?;
        self.claim_normal(job, task, MapLocality::NodeLocal);
        Some(task)
    }

    /// Claims an unassigned map task whose block is stored on another
    /// node of this slave's rack, preferring the node with the largest
    /// backlog.
    pub fn take_rack_local(&mut self, job: JobId) -> Option<MapTaskId> {
        if self.free_map_slots() == 0 {
            return None;
        }
        let slave = self.slave;
        let e = &mut *self.engine;
        let pools = &mut e.jobs[job.index()].normal;
        let source = pools.largest_in_rack(e.topo.rack_of(slave), slave)?;
        let task = pools
            .pop(&e.topo, source)
            .expect("listed pools are non-empty");
        self.claim_normal(job, task, MapLocality::RackLocal);
        Some(task)
    }

    /// Claims any remaining normal task (its block will be fetched across
    /// racks), preferring the node with the largest backlog.
    pub fn take_remote(&mut self, job: JobId) -> Option<MapTaskId> {
        if self.free_map_slots() == 0 {
            return None;
        }
        let slave = self.slave;
        let e = &mut *self.engine;
        let pools = &mut e.jobs[job.index()].normal;
        let source = pools.largest(slave)?;
        let task = pools
            .pop(&e.topo, source)
            .expect("listed pools are non-empty");
        let locality = self.engine.classify(source, slave);
        self.claim_normal(job, task, locality);
        Some(task)
    }

    /// Claims an unassigned degraded task and records the rack-timing
    /// bookkeeping used by [`Heartbeat::secs_since_degraded_assign`].
    pub fn take_degraded(&mut self, job: JobId) -> Option<MapTaskId> {
        if self.free_map_slots() == 0 {
            return None;
        }
        let task = self.engine.jobs[job.index()].degraded_pool.pop()?;
        let slave = self.slave;
        self.engine.jobs[job.index()].launched_degraded += 1;
        self.engine
            .mark_assigned(job, task, slave, MapLocality::Degraded);
        let rack = self.engine.topo.rack_of(slave);
        self.engine.last_degraded_assign[rack.index()] = Some(self.engine.now);
        self.assigned.push((job, task));
        Some(task)
    }

    fn claim_normal(&mut self, job: JobId, task: MapTaskId, locality: MapLocality) {
        let slave = self.slave;
        self.engine.mark_assigned(job, task, slave, locality);
        self.assigned.push((job, task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::job::JobSpec;
    use crate::pools::scan_largest;
    use cluster::{FailureScenario, FailureTimeline, Topology};
    use ecstore::placement::RackAwarePlacement;
    use erasure::CodeParams;
    use simkit::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Captures the view the very first heartbeat sees, then behaves
    /// greedily so the run completes.
    struct Spy {
        seen: Rc<RefCell<Option<Snapshot>>>,
    }

    #[derive(Debug, Clone)]
    struct Snapshot {
        slave: NodeId,
        rack: RackId,
        free_slots: u32,
        jobs: Vec<JobId>,
        total_maps: usize,
        total_degraded: usize,
        launched_maps: usize,
        launched_degraded: usize,
        t_s: f64,
        mean_t_s: f64,
        t_r: f64,
        mean_t_r: f64,
        threshold: f64,
        has_degraded: bool,
        has_normal: bool,
    }

    impl MapScheduler for Spy {
        fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
            if self.seen.borrow().is_none() {
                let job = hb.jobs()[0];
                *self.seen.borrow_mut() = Some(Snapshot {
                    slave: hb.slave(),
                    rack: hb.rack(),
                    free_slots: hb.free_map_slots(),
                    jobs: hb.jobs().to_vec(),
                    total_maps: hb.total_maps(job),
                    total_degraded: hb.total_degraded(job),
                    launched_maps: hb.launched_maps(job),
                    launched_degraded: hb.launched_degraded(job),
                    t_s: hb.slave_local_work_secs(job, hb.slave()),
                    mean_t_s: hb.mean_local_work_secs(job),
                    t_r: hb.secs_since_degraded_assign(hb.rack()),
                    mean_t_r: hb.mean_secs_since_degraded_assign(),
                    threshold: hb.degraded_read_threshold_secs(),
                    has_degraded: hb.has_degraded(job),
                    has_normal: hb.has_normal(job),
                });
            }
            claim_greedily(hb);
        }

        fn name(&self) -> &'static str {
            "spy"
        }
    }

    #[test]
    fn heartbeat_view_exposes_paper_estimates() {
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let seen = Rc::new(RefCell::new(None));
        let spy = Spy { seen: seen.clone() };
        let engine = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .config(EngineConfig {
                block_bytes: 100_000_000, // 0.8 Gbit
                net: netsim::NetConfig::uniform(1_000_000_000),
                ..EngineConfig::default()
            })
            .seed(3)
            .job(
                JobSpec::builder("spyjob")
                    .map_time(SimDuration::from_secs(8), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap();
        let lost = engine
            .store()
            .lost_native_blocks(engine.cluster_state())
            .len();
        engine.run(Box::new(spy)).unwrap();

        let snap = seen.borrow().clone().expect("first heartbeat captured");
        assert_eq!(snap.jobs.len(), 1);
        assert_eq!(snap.free_slots, 2);
        assert_eq!(snap.total_maps, 32);
        assert_eq!(snap.total_degraded, lost);
        assert_eq!(snap.launched_maps, 0);
        assert_eq!(snap.launched_degraded, 0);
        assert!(snap.has_degraded);
        assert!(snap.has_normal);
        assert_eq!(snap.rack, topo.rack_of(snap.slave));
        // t_s = pool * mean(8s) / slots(2) / speed(1.0); pools are a few
        // blocks per node.
        assert!(snap.t_s >= 0.0);
        assert!(snap.mean_t_s > 0.0, "cluster has unassigned local work");
        assert!(
            (snap.t_s / 4.0).fract().abs() < 1e-9,
            "t_s is a multiple of 8/2"
        );
        // No degraded task assigned yet: both rack timings are infinite.
        assert!(snap.t_r.is_infinite());
        assert!(snap.mean_t_r.is_infinite());
        // threshold = (R-1) k S / (R W) = (1/2)*2*0.8Gbit/1Gbps = 0.8s.
        assert!((snap.threshold - 0.8).abs() < 1e-9, "{}", snap.threshold);
    }

    #[test]
    fn rack_timing_updates_after_degraded_assignment() {
        // After the run there were degraded assignments; verify the
        // engine tracked per-rack times by observing a later heartbeat.
        struct LateSpy {
            saw_finite_tr: Rc<RefCell<bool>>,
        }
        impl MapScheduler for LateSpy {
            fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
                if hb.secs_since_degraded_assign(hb.rack()).is_finite() {
                    *self.saw_finite_tr.borrow_mut() = true;
                }
                'outer: while hb.free_map_slots() > 0 {
                    for i in 0..hb.jobs().len() {
                        let job = hb.jobs()[i];
                        if hb.take_degraded(job).is_some()
                            || hb.take_node_local(job).is_some()
                            || hb.take_rack_local(job).is_some()
                            || hb.take_remote(job).is_some()
                        {
                            continue 'outer;
                        }
                    }
                    break;
                }
            }
            fn name(&self) -> &'static str {
                "latespy"
            }
        }
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let flag = Rc::new(RefCell::new(false));
        let engine = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(1)]))
            .seed(5)
            .job(
                JobSpec::builder("late")
                    .map_time(SimDuration::from_secs(5), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap();
        engine
            .run(Box::new(LateSpy {
                saw_finite_tr: flag.clone(),
            }))
            .unwrap();
        assert!(
            *flag.borrow(),
            "t_r never became finite despite degraded launches"
        );
    }

    /// Claims greedily: node-local, rack-local, remote, then degraded.
    fn claim_greedily(hb: &mut Heartbeat<'_>) {
        'outer: while hb.free_map_slots() > 0 {
            for i in 0..hb.jobs().len() {
                let job = hb.jobs()[i];
                if hb.take_node_local(job).is_some()
                    || hb.take_rack_local(job).is_some()
                    || hb.take_remote(job).is_some()
                    || hb.take_degraded(job).is_some()
                {
                    continue 'outer;
                }
            }
            break;
        }
    }

    #[test]
    fn unassigned_normal_counts_the_node_local_pools_through_churn() {
        // `NormalPools` keeps its total and its backlog orders in step
        // with the pools only if every update point reports its change.
        // Audit them at every heartbeat of a run where node0 dies at 5 s
        // (its running maps are killed and requeued, its pool turns
        // degraded) and rejoins at 30 s (degraded tasks it holds turn
        // node-local again): the total must equal the pools' sum, and
        // the rack-local and remote picks for the slave must equal a
        // linear scan's.
        #[derive(Default)]
        struct Audit {
            checks: usize,
            saw_dead: bool,
            saw_recovered: bool,
            saw_requeue: bool,
            launched_after_last_beat: usize,
        }
        struct Auditor(Rc<RefCell<Audit>>);
        impl MapScheduler for Auditor {
            fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
                let mut audit = self.0.borrow_mut();
                let (slave, topo) = (hb.slave(), &hb.engine.topo);
                let rack = topo.rack_of(slave);
                for j in &hb.engine.jobs {
                    let p = &j.normal;
                    let pooled: usize = topo.node_ids().map(|n| p.len_of(n)).sum();
                    assert_eq!(p.total(), pooled, "at {}", hb.now());
                    assert_eq!(
                        p.largest(slave),
                        scan_largest(p, topo.node_ids(), slave),
                        "remote pick at {}",
                        hb.now()
                    );
                    let members = topo.nodes_in_rack(rack).iter().copied();
                    assert_eq!(
                        p.largest_in_rack(rack, slave),
                        scan_largest(p, members, slave),
                        "rack-local pick at {}",
                        hb.now()
                    );
                    audit.checks += 1;
                }
                let node0_alive = hb.engine.cstate.is_alive(NodeId(0));
                audit.saw_recovered |= audit.saw_dead && node0_alive;
                audit.saw_dead |= !node0_alive;
                let job = JobId(0);
                audit.saw_requeue |= hb.launched_maps(job) < audit.launched_after_last_beat;
                claim_greedily(hb);
                audit.launched_after_last_beat = hb.launched_maps(job);
            }
            fn name(&self) -> &'static str {
                "auditor"
            }
        }
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let audit = Rc::new(RefCell::new(Audit::default()));
        let result = Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .timeline(
                FailureTimeline::new()
                    .fail_node_at(topo.node(0), SimTime::from_secs(5))
                    .recover_node_at(topo.node(0), SimTime::from_secs(30)),
            )
            .seed(2)
            .job(
                JobSpec::builder("churn")
                    .map_time(SimDuration::from_secs(30), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
            .run(Box::new(Auditor(audit.clone())))
            .unwrap();
        assert_eq!(result.tasks.len(), 32);
        let audit = audit.borrow();
        assert!(audit.checks > 0);
        assert!(audit.saw_dead, "no heartbeat saw node0 down");
        assert!(audit.saw_recovered, "no heartbeat saw node0 back");
        assert!(audit.saw_requeue, "no launched map was requeued");
    }

    #[test]
    fn drained_pools_claim_nothing_while_degraded_work_remains() {
        // Greedy claiming drains every normal task before any degraded
        // one, so some heartbeat finds the node-local pools empty while
        // degraded tasks wait: rack-local and remote claims must return
        // `None` and leave the slots, counters and claims untouched.
        struct Prober(Rc<RefCell<usize>>);
        impl MapScheduler for Prober {
            fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
                let job = JobId(0);
                if !hb.has_normal(job) && hb.has_degraded(job) && hb.free_map_slots() > 0 {
                    let p = &hb.engine.jobs[job.index()].normal;
                    assert!(hb.engine.topo.node_ids().all(|n| p.len_of(n) == 0));
                    let state = |hb: &Heartbeat<'_>| {
                        (
                            hb.free_map_slots(),
                            hb.launched_maps(job),
                            hb.assigned.len(),
                        )
                    };
                    let before = state(hb);
                    assert_eq!(hb.take_rack_local(job), None);
                    assert_eq!(hb.take_remote(job), None);
                    assert_eq!(state(hb), before);
                    *self.0.borrow_mut() += 1;
                }
                claim_greedily(hb);
            }
            fn name(&self) -> &'static str {
                "prober"
            }
        }
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let probes = Rc::new(RefCell::new(0));
        Engine::builder(topo.clone())
            .code(CodeParams::new(4, 2).unwrap(), 32)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .seed(3)
            .job(
                JobSpec::builder("drain")
                    .map_time(SimDuration::from_secs(8), SimDuration::ZERO)
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
            .run(Box::new(Prober(probes.clone())))
            .unwrap();
        assert!(*probes.borrow() > 0, "no heartbeat probed drained pools");
    }
}
