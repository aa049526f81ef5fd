//! The map-attempt lifecycle.
//!
//! A map task runs as up to two [`Attempt`]s: the primary the scheduler
//! assigns, and a speculative backup launched on another node when the
//! primary straggles. This module holds everything that happens to an
//! attempt between its hand-off and its end: launch, input fetch (one
//! flow, or a degraded read's quorum of flows with straggler
//! cancellation), processing, speculative backup, and what a mid-run
//! node failure does to it — kill, prune, or re-queue the task. The
//! event loop in [`crate::engine`] drives these steps; the first attempt
//! to finish wins there.

use cluster::NodeId;
use ecstore::{DegradedReadPlan, FetchPolicy};
use netsim::FlowId;
use obs::event::{DegradedPhase, SimEvent};
use obs::sink::Recorder;
use simkit::time::SimTime;

use crate::engine::{obs_locality, Engine, Event, FlowPurpose, MapRt, RunError};
use crate::job::{JobId, MapLocality, MapTaskId};

/// One attempt of a map task: the primary or its speculative backup.
#[derive(Debug, Clone)]
pub(crate) struct Attempt {
    pub(crate) node: NodeId,
    pub(crate) assigned_at: SimTime,
    pub(crate) input_ready_at: SimTime,
    /// Fetch flows that must still complete before the input is ready.
    pub(crate) pending_flows: usize,
    pub(crate) locality: MapLocality,
    /// In-flight fetch flows (for loser and straggler cancellation).
    pub(crate) flows: Vec<FlowId>,
    /// Scheduled completion once processing.
    pub(crate) proc_event: Option<simkit::EventId>,
}

impl Attempt {
    fn new(node: NodeId, locality: MapLocality, now: SimTime) -> Self {
        Attempt {
            node,
            assigned_at: now,
            input_ready_at: now,
            pending_flows: 0,
            locality,
            flows: Vec::new(),
            proc_event: None,
        }
    }
}

impl MapRt {
    pub(crate) fn attempt(&self, speculative: bool) -> &Attempt {
        self.attempts[usize::from(speculative)]
            .as_ref()
            .expect("attempt is live")
    }

    pub(crate) fn attempt_mut(&mut self, speculative: bool) -> &mut Attempt {
        self.attempts[usize::from(speculative)]
            .as_mut()
            .expect("attempt is live")
    }
}

/// What a node failure means for one map attempt: untouched, killable
/// (on the dead node or short of its fetch quorum), or merely pruned
/// (a redundant fetch with enough surviving sources to decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptFate {
    Unaffected,
    Prune,
    Kill,
}

impl Engine {
    // ---- scheduler hand-off and launch --------------------------------

    /// Hands a task the scheduler claimed to `slave`: creates its
    /// primary attempt and takes one map slot.
    pub(crate) fn mark_assigned(
        &mut self,
        job: JobId,
        task: MapTaskId,
        slave: NodeId,
        locality: MapLocality,
    ) {
        let j = &mut self.jobs[job.index()];
        if j.started_at.is_none() {
            j.started_at = Some(self.now);
        }
        j.launched_maps += 1;
        let primary = &mut j.maps[task.0].attempts[0];
        debug_assert!(primary.is_none(), "double assignment of {task}");
        *primary = Some(Attempt::new(slave, locality, self.now));
        self.free_map[slave.index()] -= 1;
    }

    /// Starts the primary attempt [`Engine::mark_assigned`] created.
    pub(crate) fn start_map_task(&mut self, job: JobId, task: MapTaskId, rec: &mut Recorder<'_>) {
        if rec.is_enabled() && !self.obs_job_started[job.index()] {
            self.obs_job_started[job.index()] = true;
            rec.emit(self.now, || SimEvent::JobStarted { job: job.0 });
        }
        self.start_map_attempt(job, task, false, rec);
    }

    /// Starts one attempt (primary or speculative backup) of a map task:
    /// fetch the input if it is not node-local, then process.
    fn start_map_attempt(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        rec: &mut Recorder<'_>,
    ) {
        let (slave, locality) = {
            let a = self.jobs[job.index()].maps[task.0].attempt(speculative);
            (a.node, a.locality)
        };
        rec.emit(self.now, || SimEvent::MapLaunched {
            job: job.0,
            task: task.0 as u32,
            node: slave.0,
            locality: obs_locality(locality),
            speculative,
        });
        match locality {
            MapLocality::NodeLocal => self.input_ready(job, task, speculative, rec),
            MapLocality::RackLocal | MapLocality::Remote => {
                let holder = self.jobs[job.index()].maps[task.0].holder;
                let fetch = (
                    holder.index(),
                    slave.index(),
                    fetch_bytes(self.cfg.block_bytes, self.speeds.disk[holder.index()]),
                    FlowPurpose::MapFetch {
                        job,
                        task,
                        speculative,
                    },
                );
                let flows = self.net.start_tagged(self.now, [fetch]).collect();
                self.set_attempt_pending(job, task, speculative, flows, 1);
            }
            MapLocality::Degraded => {
                let block = self.jobs[job.index()].maps[task.0].block;
                let need = self
                    .cfg
                    .degraded_fetch_blocks
                    .unwrap_or_else(|| self.store.layout().params().k());
                let plan = match self.cfg.fetch_policy {
                    FetchPolicy::Exact => DegradedReadPlan::plan_with_fetch_count(
                        &self.store,
                        &self.topo,
                        &self.cstate,
                        block,
                        slave,
                        self.cfg.source_selection,
                        &mut self.rng,
                        need,
                    ),
                    FetchPolicy::Redundant { extra } => DegradedReadPlan::plan_redundant(
                        &self.store,
                        &self.topo,
                        &self.cstate,
                        block,
                        slave,
                        self.cfg.source_selection,
                        &mut self.rng,
                        need,
                        extra,
                        &self.speeds.disk,
                    ),
                };
                let plan = match plan {
                    Ok(plan) => plan,
                    Err(error) => {
                        // Build-time validation bounds the fetch count,
                        // but mid-run churn can still shrink a stripe's
                        // survivor set below it. Abort cleanly instead
                        // of panicking.
                        self.fatal = Some(RunError::DegradedPlan {
                            error,
                            at: self.now,
                        });
                        return;
                    }
                };
                if rec.is_enabled() {
                    let (local, same_rack, cross_rack) = plan.source_breakdown(&self.topo);
                    rec.emit(self.now, || SimEvent::DegradedPlan {
                        job: job.0,
                        task: task.0 as u32,
                        node: slave.0,
                        local: local as u32,
                        same_rack: same_rack as u32,
                        cross_rack: cross_rack as u32,
                    });
                }
                rec.emit(self.now, || SimEvent::PhaseBegin {
                    job: job.0,
                    task: task.0 as u32,
                    node: slave.0,
                    speculative,
                    phase: DegradedPhase::FetchK,
                });
                let purpose = FlowPurpose::MapFetch {
                    job,
                    task,
                    speculative,
                };
                let (block_bytes, disk) = (self.cfg.block_bytes, &self.speeds.disk);
                let fetches = plan.network_sources().map(|(_, holder)| {
                    let bytes = fetch_bytes(block_bytes, disk[holder.index()]);
                    (holder.index(), slave.index(), bytes, purpose)
                });
                let flows: Vec<FlowId> = self.net.start_tagged(self.now, fetches).collect();
                // Decode needs `need` source blocks; local ones count
                // immediately, so the quorum of *network* completions is
                // the shortfall. Exact plans fetch precisely the quorum;
                // redundant plans over-fetch and cancel the stragglers
                // when the quorum completes.
                let local = plan.sources.len() - flows.len();
                let pending = need.saturating_sub(local).min(flows.len());
                let extra_issued = flows.len() - pending;
                if extra_issued > 0 {
                    rec.emit(self.now, || SimEvent::RedundantFetchIssued {
                        job: job.0,
                        task: task.0 as u32,
                        node: slave.0,
                        speculative,
                        extra: extra_issued as u32,
                    });
                }
                let none_pending = pending == 0;
                self.set_attempt_pending(job, task, speculative, flows, pending);
                if none_pending {
                    self.input_ready(job, task, speculative, rec);
                }
            }
        }
    }

    /// Registers an attempt's in-flight fetch flows. `pending` is the
    /// completion quorum: how many of `flows` must finish before the
    /// input is ready. Redundant degraded fetches set `pending` below
    /// `flows.len()`; the surplus flows are stragglers cancelled once
    /// the quorum completes.
    fn set_attempt_pending(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        flows: Vec<FlowId>,
        pending: usize,
    ) {
        debug_assert!(pending <= flows.len());
        let a = self.jobs[job.index()].maps[task.0].attempt_mut(speculative);
        a.pending_flows = pending;
        a.flows = flows;
    }

    /// An attempt's input is complete: cancel its straggler fetches,
    /// then process.
    pub(crate) fn input_ready(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        rec: &mut Recorder<'_>,
    ) {
        self.cancel_straggler_fetches(job, task, speculative, rec);
        self.schedule_map_processing(job, task, speculative, rec);
    }

    /// Cancels an attempt's surviving in-flight fetch flows after its
    /// completion quorum was reached. Exact-policy attempts have no
    /// surviving flows at that point, so this is a no-op for them; for
    /// redundant degraded fetches it is the "cancel the stragglers"
    /// half of the fetch-k-of-(k + r) bargain. Cancellation order is
    /// FlowId-sorted for determinism, and `FetchCancelled` is emitted
    /// before the flow log records the cancelled flow so downstream
    /// consumers can attribute the wasted bytes.
    fn cancel_straggler_fetches(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        rec: &mut Recorder<'_>,
    ) {
        let (node, mut flows) = {
            let a = self.jobs[job.index()].maps[task.0].attempt_mut(speculative);
            (a.node, std::mem::take(&mut a.flows))
        };
        flows.sort_unstable();
        for flow in flows {
            // An extra that completed at the same instant as the quorum
            // flow is still queued in the current drain batch: it already
            // delivered (and its log entry says so), so there is nothing
            // to cancel — `cancel_flow` only drops its surplus
            // completion. Only a flow the network really tears down
            // mid-transfer counts as a cancel win.
            if self.cancel_flow(flow) {
                rec.emit(self.now, || SimEvent::FetchCancelled {
                    job: job.0,
                    task: task.0 as u32,
                    node: node.0,
                    speculative,
                    flow: flow.as_u64(),
                });
            }
        }
    }

    fn schedule_map_processing(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        rec: &mut Recorder<'_>,
    ) {
        let (mean, std) = {
            let spec = &self.jobs[job.index()].spec;
            (spec.map_time_mean, spec.map_time_std)
        };
        let node = {
            let a = self.jobs[job.index()].maps[task.0].attempt_mut(speculative);
            a.input_ready_at = self.now;
            a.node
        };
        if self.jobs[job.index()].maps[task.0].degraded {
            // Input is complete: close the fetch, decode instantaneously
            // (the simulator does not model decode CPU time), process.
            for (phase, begin) in [
                (DegradedPhase::FetchK, false),
                (DegradedPhase::Decode, true),
                (DegradedPhase::Decode, false),
                (DegradedPhase::Process, true),
            ] {
                rec.emit(self.now, || {
                    let (job, task, node) = (job.0, task.0 as u32, node.0);
                    if begin {
                        SimEvent::PhaseBegin {
                            job,
                            task,
                            node,
                            speculative,
                            phase,
                        }
                    } else {
                        SimEvent::PhaseEnd {
                            job,
                            task,
                            node,
                            speculative,
                            phase,
                        }
                    }
                });
            }
        }
        let duration = self.sample_task_time(mean, std, node);
        let ev = self.cal.schedule(
            self.now + duration,
            Event::MapDone {
                job,
                task,
                speculative,
            },
        );
        self.jobs[job.index()].maps[task.0]
            .attempt_mut(speculative)
            .proc_event = Some(ev);
    }

    /// Hadoop-style speculation: when a slave has free slots and the
    /// FIFO head has nothing left to assign, launch a backup copy of the
    /// slowest running map whose elapsed time exceeds
    /// `speculative_threshold x` the job's mean completed-map runtime.
    pub(crate) fn assign_speculative(&mut self, slave: NodeId, rec: &mut Recorder<'_>) {
        while self.free_map[slave.index()] > 0 {
            let mut candidate: Option<(JobId, MapTaskId, f64)> = None;
            for &job in &self.fifo {
                let j = &self.jobs[job.index()];
                if !j.degraded_pool.is_empty() || j.normal.total() > 0 {
                    break; // assignable work exists; no speculation yet
                }
                if j.completed_maps == 0 {
                    continue; // no runtime estimate yet
                }
                let mean = j.completed_map_runtime_secs / j.completed_maps as f64;
                let threshold = self.cfg.speculative_threshold * mean;
                for (i, m) in j.maps.iter().enumerate() {
                    let [Some(primary), None] = &m.attempts else {
                        continue; // done, unassigned, or already backed up
                    };
                    if primary.node == slave {
                        continue; // back up on a different node
                    }
                    let elapsed = self.now.duration_since(primary.assigned_at).as_secs_f64();
                    if elapsed > threshold && candidate.is_none_or(|(_, _, best)| elapsed > best) {
                        candidate = Some((job, MapTaskId(i), elapsed));
                    }
                }
                break; // only the head job speculates, as in FIFO Hadoop
            }
            let Some((job, task, _)) = candidate else {
                break;
            };
            let degraded = self.jobs[job.index()].maps[task.0].degraded;
            let locality = if degraded {
                MapLocality::Degraded
            } else {
                let holder = self.jobs[job.index()].maps[task.0].holder;
                self.classify(holder, slave)
            };
            self.free_map[slave.index()] -= 1;
            self.jobs[job.index()].maps[task.0].attempts[1] =
                Some(Attempt::new(slave, locality, self.now));
            self.start_map_attempt(job, task, true, rec);
        }
    }

    // ---- mid-run churn ---------------------------------------------------

    /// Unassigned tasks whose input block lived on the failed node can
    /// no longer run node-local: move them to the degraded pool.
    pub(crate) fn fail_unassigned_maps(
        &mut self,
        job: JobId,
        node: NodeId,
        rec: &mut Recorder<'_>,
    ) {
        let now = self.now;
        let (moved, submitted) = {
            let j = &mut self.jobs[job.index()];
            let moved = j.normal.take_all(&self.topo, node);
            if moved.is_empty() {
                return;
            }
            for &task in &moved {
                j.maps[task.0].degraded = true;
                j.degraded_pool.push(task);
            }
            (moved, j.submitted)
        };
        if submitted {
            self.tasks_queued_degraded += moved.len();
            for task in moved {
                rec.emit(now, || SimEvent::TaskQueued {
                    job: job.0,
                    task: task.0 as u32,
                    degraded: true,
                });
            }
        }
    }

    /// Kills every map attempt that ran on the failed node or was
    /// fetching input from it, then re-queues tasks left with no live
    /// attempt.
    pub(crate) fn kill_map_attempts(&mut self, job: JobId, node: NodeId, rec: &mut Recorder<'_>) {
        let num_maps = self.jobs[job.index()].maps.len();
        for t in 0..num_maps {
            let task = MapTaskId(t);
            let fates = {
                let m = &self.jobs[job.index()].maps[t];
                // An attempt on a live node is doomed if its input flows
                // from the dead node leave it short of the completion
                // quorum. A redundant degraded fetch may still hold
                // enough live sources to decode — prune the dead flows
                // and let it proceed rather than cancelling AND
                // requeueing the same task.
                m.attempts.each_ref().map(|a| {
                    let Some(a) = a else {
                        return AttemptFate::Unaffected;
                    };
                    if a.node == node {
                        return AttemptFate::Kill;
                    }
                    let mut dead_inflight = false;
                    let mut live_inflight = 0usize;
                    for &f in &a.flows {
                        match self.net.flow_endpoints(f) {
                            Some((src, _)) if src == node.index() => dead_inflight = true,
                            Some(_) => live_inflight += 1,
                            None => {}
                        }
                    }
                    if !dead_inflight {
                        AttemptFate::Unaffected
                    } else if a.pending_flows > 0 && live_inflight >= a.pending_flows {
                        AttemptFate::Prune
                    } else {
                        AttemptFate::Kill
                    }
                })
            };
            // Primary before backup: the kills reach the network and the
            // calendar in this order.
            for (speculative, fate) in [false, true].into_iter().zip(fates) {
                match fate {
                    AttemptFate::Kill => self.kill_attempt(job, task, speculative, Some(node), rec),
                    AttemptFate::Prune => self.prune_dead_fetches(job, task, speculative, node),
                    AttemptFate::Unaffected => {}
                }
            }
            if fates.contains(&AttemptFate::Kill) {
                let m = &self.jobs[job.index()].maps[t];
                if m.attempts.iter().all(Option::is_none) {
                    self.requeue_map(job, task, rec);
                }
            }
        }
    }

    /// Drops an attempt's fetch flows that originate at a dead node
    /// without touching the completion quorum: only call this when
    /// enough live in-flight sources remain to satisfy `pending_flows`
    /// (a redundant over-fetch absorbing the failure). The doomed flows
    /// are cancelled in FlowId order and removed from the attempt's
    /// bookkeeping so a later straggler sweep does not see them again.
    fn prune_dead_fetches(&mut self, job: JobId, task: MapTaskId, speculative: bool, dead: NodeId) {
        let mut doomed: Vec<FlowId> = self.jobs[job.index()].maps[task.0]
            .attempt(speculative)
            .flows
            .iter()
            .copied()
            .filter(|&f| {
                self.net
                    .flow_endpoints(f)
                    .is_some_and(|(src, _)| src == dead.index())
            })
            .collect();
        doomed.sort_unstable();
        self.cancel_attempt_flows(doomed.iter().copied());
        self.jobs[job.index()].maps[task.0]
            .attempt_mut(speculative)
            .flows
            .retain(|f| !doomed.contains(f));
    }

    /// Ends a live attempt that did not finish: the loser of a
    /// speculative race, or an attempt a node failure doomed. Its flows
    /// are cancelled in their stored order and its slot is refunded
    /// unless it ran on `dead`, the failed node whose slots are gone.
    pub(crate) fn kill_attempt(
        &mut self,
        job: JobId,
        task: MapTaskId,
        speculative: bool,
        dead: Option<NodeId>,
        rec: &mut Recorder<'_>,
    ) {
        let now = self.now;
        let (a, degraded) = {
            let m = &mut self.jobs[job.index()].maps[task.0];
            let a = m.attempts[usize::from(speculative)]
                .take()
                .expect("killing a live attempt");
            (a, m.degraded)
        };
        self.cancel_attempt_flows(a.flows);
        if let Some(ev) = a.proc_event {
            self.cal.cancel(ev);
        }
        if dead != Some(a.node) {
            self.free_map[a.node.index()] += 1;
        }
        if degraded {
            // The open phase: still fetching if flows were pending,
            // otherwise it had begun processing.
            let phase = if a.pending_flows > 0 {
                DegradedPhase::FetchK
            } else {
                DegradedPhase::Process
            };
            rec.emit(now, || SimEvent::PhaseEnd {
                job: job.0,
                task: task.0 as u32,
                node: a.node.0,
                speculative,
                phase,
            });
        }
        rec.emit(now, || SimEvent::MapCancelled {
            job: job.0,
            task: task.0 as u32,
            node: a.node.0,
            speculative,
        });
    }

    /// Cancels the flows that are still in flight; a flow that has
    /// already completed is skipped.
    pub(crate) fn cancel_attempt_flows(&mut self, flows: impl IntoIterator<Item = FlowId>) {
        for flow in flows {
            self.cancel_flow(flow);
        }
    }

    /// Puts a previously launched (or completed-then-invalidated) map
    /// back in the scheduling pools, re-classifying it against the
    /// current cluster state.
    pub(crate) fn requeue_map(&mut self, job: JobId, task: MapTaskId, rec: &mut Recorder<'_>) {
        let now = self.now;
        let holder = self.jobs[job.index()].maps[task.0].holder;
        let degraded = !self.cstate.is_alive(holder);
        let submitted = {
            let j = &mut self.jobs[job.index()];
            let was_degraded = j.maps[task.0].degraded;
            j.launched_maps -= 1;
            if was_degraded {
                j.launched_degraded -= 1;
            }
            j.maps[task.0].degraded = degraded;
            if degraded {
                j.degraded_pool.push(task);
            } else {
                j.normal.push(&self.topo, holder, task);
            }
            j.submitted
        };
        if submitted {
            self.tasks_queued_degraded += usize::from(degraded);
            rec.emit(now, || SimEvent::TaskQueued {
                job: job.0,
                task: task.0 as u32,
                degraded,
            });
        }
    }
}

/// Bytes to request for a block fetch served by a holder whose disk
/// runs at `disk` times the nominal speed: a slow disk (a multiplier
/// below one) stretches the transfer by inflating the effective size,
/// which the fluid network model turns into a proportionally longer
/// service time. Shuffle flows are not scaled — the heterogeneity
/// models block-serving I/O contention.
fn fetch_bytes(block_bytes: u64, disk: f64) -> u64 {
    if disk == 1.0 {
        block_bytes
    } else {
        (block_bytes as f64 / disk).round() as u64
    }
}
