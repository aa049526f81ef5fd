//! `scheduler` — the paper's three MapReduce map-task scheduling
//! policies, implemented against [`mapreduce::sched::MapScheduler`]:
//!
//! * [`LocalityFirst`] — Hadoop's default (Algorithm 1): fill every free
//!   slot with local tasks, then remote tasks, and only then degraded
//!   tasks. In failure mode all degraded tasks therefore pile up at the
//!   end of the map phase and compete for cross-rack bandwidth.
//! * [`DegradedFirst::basic`] — Algorithm 2: before the locality pass,
//!   launch **at most one** degraded task per heartbeat, and only while
//!   the launched-degraded fraction `m_d / M_d` is not ahead of the
//!   overall launched fraction `m / M`. This paces degraded tasks evenly
//!   across the map phase.
//! * [`DegradedFirst::enhanced`] — Algorithm 3: adds *locality
//!   preservation* (don't give degraded work to slaves with
//!   above-average local backlog, `ASSIGNTOSLAVE`) and *rack awareness*
//!   (don't send another degraded task to a rack whose previous degraded
//!   read is likely still in flight, `ASSIGNTORACK`).
//!
//! # Example
//!
//! ```
//! use scheduler::{DegradedFirst, LocalityFirst};
//! use mapreduce::sched::MapScheduler;
//!
//! assert_eq!(LocalityFirst::new().name(), "LF");
//! assert_eq!(DegradedFirst::basic().name(), "BDF");
//! assert_eq!(DegradedFirst::enhanced().name(), "EDF");
//! ```

use mapreduce::sched::{Heartbeat, MapScheduler};
use mapreduce::JobId;

/// Hadoop's default locality-first scheduling (Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalityFirst {
    _priv: (),
}

impl LocalityFirst {
    /// Creates the policy.
    pub fn new() -> LocalityFirst {
        LocalityFirst::default()
    }
}

impl MapScheduler for LocalityFirst {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        for i in 0..hb.jobs().len() {
            let job = hb.jobs()[i];
            while hb.free_map_slots() > 0 {
                if hb.take_node_local(job).is_some()
                    || hb.take_rack_local(job).is_some()
                    || hb.take_remote(job).is_some()
                    || hb.take_degraded(job).is_some()
                {
                    continue;
                }
                break;
            }
        }
    }

    fn name(&self) -> &'static str {
        "LF"
    }
}

/// Degraded-first scheduling (Algorithms 2 and 3), with the enhanced
/// heuristics individually toggleable for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedFirst {
    locality_preservation: bool,
    rack_awareness: bool,
}

impl DegradedFirst {
    /// The basic policy (Algorithm 2): pacing only.
    pub fn basic() -> DegradedFirst {
        DegradedFirst {
            locality_preservation: false,
            rack_awareness: false,
        }
    }

    /// The enhanced policy (Algorithm 3): pacing + locality preservation
    /// + rack awareness.
    pub fn enhanced() -> DegradedFirst {
        DegradedFirst {
            locality_preservation: true,
            rack_awareness: true,
        }
    }

    /// An ablation variant with explicit heuristic toggles.
    pub fn with_heuristics(locality_preservation: bool, rack_awareness: bool) -> DegradedFirst {
        DegradedFirst {
            locality_preservation,
            rack_awareness,
        }
    }

    /// True if the pacing condition `m/M ≥ m_d/M_d` holds (compared in
    /// cross-multiplied integers, so no rounding).
    fn pace_allows(hb: &Heartbeat<'_>, job: JobId) -> bool {
        let m = hb.launched_maps(job);
        let md = hb.launched_degraded(job);
        let big_m = hb.total_maps(job);
        let big_md = hb.total_degraded(job);
        debug_assert!(big_md > 0, "pace check without degraded tasks");
        m * big_md >= md * big_m
    }

    /// `ASSIGNTOSLAVE` (Section IV-C): refuse slaves whose estimated
    /// local-task backlog exceeds the cluster average — they have no
    /// spare slots, and taking a degraded task would push their local
    /// blocks to other nodes as new remote tasks.
    ///
    /// (The paper's Algorithm 3 pseudo-code writes the comparison as
    /// `t_s < E[t_s] → false`, but its prose and Figure 8(a) discussion —
    /// "EDF assigns degraded tasks to the nodes that have low processing
    /// time for local tasks" — require the opposite; we follow the
    /// prose.)
    fn assign_to_slave(hb: &Heartbeat<'_>, job: JobId) -> bool {
        let t_s = hb.slave_local_work_secs(job, hb.slave());
        let mean = hb.mean_local_work_secs(job);
        t_s <= mean
    }

    /// `ASSIGNTORACK` (Section IV-C): refuse racks that received a
    /// degraded task both more recently than average and within the
    /// expected duration of one degraded read — its download is likely
    /// still holding the rack links.
    fn assign_to_rack(hb: &Heartbeat<'_>) -> bool {
        let t_r = hb.secs_since_degraded_assign(hb.rack());
        let mean = hb.mean_secs_since_degraded_assign();
        let threshold = hb.degraded_read_threshold_secs();
        t_r >= mean.min(threshold)
    }
}

impl MapScheduler for DegradedFirst {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        // At most one degraded task per heartbeat (Algorithm 2, line 4):
        // two degraded tasks on one slave would compete for its NIC.
        let mut degraded_assigned = false;
        for i in 0..hb.jobs().len() {
            let job = hb.jobs()[i];
            if !degraded_assigned
                && hb.free_map_slots() > 0
                && hb.has_degraded(job)
                && Self::pace_allows(hb, job)
                && (!self.locality_preservation || Self::assign_to_slave(hb, job))
                && (!self.rack_awareness || Self::assign_to_rack(hb))
                && hb.take_degraded(job).is_some()
            {
                degraded_assigned = true;
            }
            // Locality pass over the remaining free slots (never assigns
            // further degraded tasks).
            while hb.free_map_slots() > 0 {
                if hb.take_node_local(job).is_some()
                    || hb.take_rack_local(job).is_some()
                    || hb.take_remote(job).is_some()
                {
                    continue;
                }
                break;
            }
        }
    }

    fn name(&self) -> &'static str {
        match (self.locality_preservation, self.rack_awareness) {
            (false, false) => "BDF",
            (true, true) => "EDF",
            (true, false) => "BDF+locality",
            (false, true) => "BDF+rack",
        }
    }
}

/// Delay scheduling (Zaharia et al., EuroSys 2010 — the paper's
/// reference \[35\]) layered on locality-first: when the head job has no
/// node-local task for the reporting slave, the slave *waits* instead of
/// immediately stealing a non-local task, up to `max_wait` per job;
/// after that it falls back to rack-local → remote → degraded as LF
/// does. Included as an additional replication-era baseline: delay
/// scheduling protects locality but, like LF, still leaves all degraded
/// tasks to the end of the map phase.
#[derive(Debug, Clone)]
pub struct DelayScheduling {
    max_wait: simkit::time::SimDuration,
    /// Per job: when the job first had to skip a non-local assignment.
    skip_since: std::collections::BTreeMap<JobId, simkit::time::SimTime>,
}

impl DelayScheduling {
    /// Creates the policy with the given maximum per-job locality wait.
    pub fn new(max_wait: simkit::time::SimDuration) -> DelayScheduling {
        DelayScheduling {
            max_wait,
            skip_since: std::collections::BTreeMap::new(),
        }
    }
}

impl MapScheduler for DelayScheduling {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        for i in 0..hb.jobs().len() {
            let job = hb.jobs()[i];
            while hb.free_map_slots() > 0 {
                if hb.take_node_local(job).is_some() {
                    self.skip_since.remove(&job);
                    continue;
                }
                if !hb.has_normal(job) && !hb.has_degraded(job) {
                    break; // nothing left in this job
                }
                if hb.has_normal(job) {
                    // Non-local work available: wait for locality first.
                    let since = *self.skip_since.entry(job).or_insert_with(|| hb.now());
                    let waited = hb.now().saturating_duration_since(since);
                    if waited < self.max_wait {
                        break; // keep the slot idle this heartbeat
                    }
                    if hb.take_rack_local(job).is_some() || hb.take_remote(job).is_some() {
                        continue;
                    }
                }
                if hb.take_degraded(job).is_some() {
                    continue;
                }
                break;
            }
        }
    }

    fn name(&self) -> &'static str {
        "LF+delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{FailureScenario, Topology};
    use ecstore::placement::RackAwarePlacement;
    use erasure::CodeParams;
    use mapreduce::engine::{Engine, EngineConfig};
    use mapreduce::job::JobSpec;
    use mapreduce::{MapLocality, RunResult};
    use simkit::time::SimDuration;

    /// A small failure-mode cluster: 16 nodes / 4 racks, (8,6), 240
    /// native blocks, deterministic 10 s maps, map-only.
    fn run(
        scheduler: Box<dyn MapScheduler>,
        failure: FailureScenario,
        seed: u64,
        rack_mbps: u64,
    ) -> RunResult {
        let topo = Topology::homogeneous(4, 4, 2, 1);
        let cfg = EngineConfig {
            net: netsim_cfg(rack_mbps),
            ..EngineConfig::default()
        };
        let job = JobSpec::builder("bench")
            .map_time(SimDuration::from_secs(10), SimDuration::ZERO)
            .map_only()
            .build();
        Engine::builder(topo.clone())
            .code(CodeParams::new(8, 6).unwrap(), 240)
            .placement(&RackAwarePlacement)
            .failure(failure)
            .config(cfg)
            .seed(seed)
            .job(job)
            .build()
            .unwrap()
            .run(scheduler)
            .unwrap()
    }

    fn netsim_cfg(rack_mbps: u64) -> netsim::NetConfig {
        netsim::NetConfig {
            node_bps: 1_000_000_000,
            rack_bps: rack_mbps * 1_000_000,
        }
    }

    fn single_failure(topo_node: u32) -> FailureScenario {
        FailureScenario::nodes([cluster::NodeId(topo_node)])
    }

    #[test]
    fn names() {
        assert_eq!(LocalityFirst::new().name(), "LF");
        assert_eq!(DegradedFirst::basic().name(), "BDF");
        assert_eq!(DegradedFirst::enhanced().name(), "EDF");
        assert_eq!(
            DegradedFirst::with_heuristics(true, false).name(),
            "BDF+locality"
        );
        assert_eq!(
            DegradedFirst::with_heuristics(false, true).name(),
            "BDF+rack"
        );
    }

    #[test]
    fn normal_mode_policies_are_identical() {
        // Without failures there are no degraded tasks and the
        // degraded-first policies reduce to locality-first exactly
        // (Section IV-A).
        let lf = run(
            Box::new(LocalityFirst::new()),
            FailureScenario::none(),
            3,
            1000,
        );
        let bdf = run(
            Box::new(DegradedFirst::basic()),
            FailureScenario::none(),
            3,
            1000,
        );
        let edf = run(
            Box::new(DegradedFirst::enhanced()),
            FailureScenario::none(),
            3,
            1000,
        );
        assert_eq!(lf, bdf);
        assert_eq!(lf, edf);
    }

    #[test]
    fn lf_launches_degraded_tasks_last() {
        let result = run(Box::new(LocalityFirst::new()), single_failure(0), 3, 100);
        let last_normal_assign = result
            .tasks
            .iter()
            .filter(|t| matches!(t.map_locality(), Some(l) if l != MapLocality::Degraded))
            .map(|t| t.assigned_at)
            .max()
            .unwrap();
        let first_degraded_assign = result
            .tasks
            .iter()
            .filter(|t| t.map_locality() == Some(MapLocality::Degraded))
            .map(|t| t.assigned_at)
            .min()
            .unwrap();
        // LF's first degraded launch happens only near the end of the
        // map phase.
        assert!(
            first_degraded_assign >= last_normal_assign,
            "LF launched a degraded task ({first_degraded_assign}) before the \
             last normal assignment ({last_normal_assign})"
        );
    }

    #[test]
    fn df_spreads_degraded_tasks_across_the_phase() {
        let result = run(Box::new(DegradedFirst::basic()), single_failure(0), 3, 100);
        // Compare against the map *launch* window: degraded reads extend
        // completions long past the final assignment.
        let phase_end = result
            .tasks
            .iter()
            .filter(|t| t.map_locality().is_some())
            .map(|t| t.assigned_at)
            .max()
            .unwrap();
        let assigns: Vec<f64> = result
            .tasks
            .iter()
            .filter(|t| t.map_locality() == Some(MapLocality::Degraded))
            .map(|t| t.assigned_at.as_secs_f64())
            .collect();
        assert!(!assigns.is_empty());
        let first = assigns.iter().cloned().fold(f64::INFINITY, f64::min);
        // The very first map assigned should (almost) always include a
        // degraded one: the pacing rule fires at m = m_d = 0.
        assert!(first < 5.0, "first degraded launch at {first}");
        // And launches are spread: the spread between first and last
        // degraded launch covers most of the map phase.
        let last = assigns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            last - first > phase_end.as_secs_f64() * 0.5,
            "degraded launches clustered: {first}..{last} of {phase_end}"
        );
    }

    #[test]
    fn degraded_first_beats_locality_first_in_failure_mode() {
        // The headline claim, on a constrained network (100 Mbps racks).
        for seed in [1, 2, 3] {
            let lf = run(Box::new(LocalityFirst::new()), single_failure(0), seed, 100);
            let bdf = run(
                Box::new(DegradedFirst::basic()),
                single_failure(0),
                seed,
                100,
            );
            let edf = run(
                Box::new(DegradedFirst::enhanced()),
                single_failure(0),
                seed,
                100,
            );
            let lf_rt = lf.jobs[0].runtime().as_secs_f64();
            let bdf_rt = bdf.jobs[0].runtime().as_secs_f64();
            let edf_rt = edf.jobs[0].runtime().as_secs_f64();
            assert!(
                bdf_rt < lf_rt,
                "seed {seed}: BDF {bdf_rt:.1}s not faster than LF {lf_rt:.1}s"
            );
            assert!(
                edf_rt < lf_rt,
                "seed {seed}: EDF {edf_rt:.1}s not faster than LF {lf_rt:.1}s"
            );
        }
    }

    #[test]
    fn degraded_first_cuts_degraded_read_time() {
        // Figure 8(b): BDF/EDF cut the degraded read time by ~80%+.
        let lf = run(Box::new(LocalityFirst::new()), single_failure(0), 5, 100);
        let edf = run(
            Box::new(DegradedFirst::enhanced()),
            single_failure(0),
            5,
            100,
        );
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let lf_read = mean(&lf.degraded_read_secs());
        let edf_read = mean(&edf.degraded_read_secs());
        assert!(
            edf_read < lf_read * 0.6,
            "EDF degraded read {edf_read:.1}s vs LF {lf_read:.1}s"
        );
    }

    #[test]
    fn edf_produces_fewer_remote_tasks_than_bdf() {
        // Figure 8(a): BDF steals locality; EDF preserves it.
        let mut bdf_remote = 0usize;
        let mut edf_remote = 0usize;
        for seed in 1..6 {
            let bdf = run(
                Box::new(DegradedFirst::basic()),
                single_failure(0),
                seed,
                100,
            );
            let edf = run(
                Box::new(DegradedFirst::enhanced()),
                single_failure(0),
                seed,
                100,
            );
            bdf_remote +=
                bdf.map_count(MapLocality::Remote) + bdf.map_count(MapLocality::RackLocal);
            edf_remote +=
                edf.map_count(MapLocality::Remote) + edf.map_count(MapLocality::RackLocal);
        }
        assert!(
            edf_remote <= bdf_remote,
            "EDF non-local {edf_remote} > BDF non-local {bdf_remote}"
        );
    }

    #[test]
    fn all_policies_complete_every_task() {
        for sched in [
            Box::new(LocalityFirst::new()) as Box<dyn MapScheduler>,
            Box::new(DegradedFirst::basic()),
            Box::new(DegradedFirst::enhanced()),
        ] {
            let result = run(sched, single_failure(1), 9, 250);
            assert_eq!(result.tasks.len(), 240);
            assert_eq!(result.jobs.len(), 1);
        }
    }
}

#[cfg(test)]
mod delay_tests {
    use super::*;
    use cluster::{FailureScenario, Topology};
    use ecstore::placement::RackAwarePlacement;
    use erasure::CodeParams;
    use mapreduce::engine::{Engine, EngineConfig};
    use mapreduce::job::JobSpec;
    use mapreduce::{MapLocality, RunResult};
    use simkit::time::SimDuration;

    fn run(scheduler: Box<dyn MapScheduler>, seed: u64) -> RunResult {
        let topo = Topology::homogeneous(4, 4, 2, 1);
        Engine::builder(topo.clone())
            .code(CodeParams::new(8, 6).unwrap(), 240)
            .placement(&RackAwarePlacement)
            .failure(FailureScenario::nodes([topo.node(0)]))
            .config(EngineConfig::default())
            .seed(seed)
            .job(
                JobSpec::builder("delay")
                    .map_time(SimDuration::from_secs(10), SimDuration::from_secs(1))
                    .map_only()
                    .build(),
            )
            .build()
            .unwrap()
            .run(scheduler)
            .unwrap()
    }

    #[test]
    fn delay_scheduling_completes_everything() {
        let result = run(Box::new(DelayScheduling::new(SimDuration::from_secs(6))), 1);
        assert_eq!(result.tasks.len(), 240);
        assert_eq!(DelayScheduling::new(SimDuration::ZERO).name(), "LF+delay");
    }

    #[test]
    fn delay_scheduling_improves_locality_over_lf() {
        let mut lf_non_local = 0usize;
        let mut delay_non_local = 0usize;
        for seed in 0..4 {
            let lf = run(Box::new(LocalityFirst::new()), seed);
            let delay = run(
                Box::new(DelayScheduling::new(SimDuration::from_secs(6))),
                seed,
            );
            lf_non_local +=
                lf.map_count(MapLocality::Remote) + lf.map_count(MapLocality::RackLocal);
            delay_non_local +=
                delay.map_count(MapLocality::Remote) + delay.map_count(MapLocality::RackLocal);
        }
        assert!(
            delay_non_local <= lf_non_local,
            "delay scheduling lost locality: {delay_non_local} > {lf_non_local}"
        );
    }

    #[test]
    fn zero_wait_behaves_like_locality_first() {
        for seed in 0..2 {
            let lf = run(Box::new(LocalityFirst::new()), seed);
            let delay = run(Box::new(DelayScheduling::new(SimDuration::ZERO)), seed);
            assert_eq!(lf, delay, "seed {seed}");
        }
    }
}
