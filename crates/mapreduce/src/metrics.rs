//! Run results: per-job runtimes and per-task records, plus the
//! aggregations the paper's figures report (remote-task counts, degraded
//! read times, per-type mean task runtimes).

use cluster::NodeId;
use ecstore::BlockRef;
use netsim::UtilizationSample;
use simkit::time::{SimDuration, SimTime};

use crate::job::{JobId, MapLocality};

/// What one finished task did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskDetail {
    /// A map task over `block` with the given launch locality.
    Map {
        /// Input block.
        block: BlockRef,
        /// Locality class at launch.
        locality: MapLocality,
    },
    /// A reduce task.
    Reduce {
        /// Reduce partition index within the job.
        index: usize,
    },
}

/// Timing record of one finished task.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskRecord {
    /// Owning job.
    pub job: JobId,
    /// What the task was.
    pub detail: TaskDetail,
    /// Node that executed the task.
    pub node: NodeId,
    /// When the task was assigned a slot (its launch).
    pub assigned_at: SimTime,
    /// When its input was available (block fetched / degraded read done /
    /// all shuffle data received). Equals `assigned_at` for node-local
    /// maps.
    pub input_ready_at: SimTime,
    /// When the task finished.
    pub completed_at: SimTime,
}

impl TaskRecord {
    /// Total task runtime (launch to completion) — Table I's definition.
    pub fn runtime(&self) -> SimDuration {
        self.completed_at.duration_since(self.assigned_at)
    }

    /// Time spent acquiring input (degraded read time for degraded
    /// tasks, fetch time for remote tasks, shuffle wait for reducers).
    pub fn input_wait(&self) -> SimDuration {
        self.input_ready_at.duration_since(self.assigned_at)
    }

    /// The locality if this is a map record.
    pub fn map_locality(&self) -> Option<MapLocality> {
        match self.detail {
            TaskDetail::Map { locality, .. } => Some(locality),
            TaskDetail::Reduce { .. } => None,
        }
    }
}

/// Outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The job.
    pub id: JobId,
    /// Its name.
    pub name: String,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Launch of its first map task.
    pub started_at: SimTime,
    /// Completion of its last task.
    pub finished_at: SimTime,
}

impl JobResult {
    /// The paper's runtime metric: first map launch → last task
    /// completion.
    pub fn runtime(&self) -> SimDuration {
        self.finished_at.duration_since(self.started_at)
    }

    /// Queueing + execution as seen by the submitter.
    pub fn turnaround(&self) -> SimDuration {
        self.finished_at.duration_since(self.submitted_at)
    }
}

/// Everything measured in one simulation run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunResult {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// Every finished task.
    pub tasks: Vec<TaskRecord>,
    /// End of the whole run.
    pub makespan: SimDuration,
    /// Rack-downlink utilization over time (empty unless
    /// [`crate::engine::EngineConfig::log_network_utilization`] is set).
    pub utilization: Vec<UtilizationSample>,
    /// Map tasks queued as degraded: at job submission, and again each
    /// time churn moves unassigned or lost work to the degraded pool of
    /// a submitted job. Counts queueings, not tasks, so it can exceed
    /// the degraded maps that ran.
    pub tasks_queued_degraded: usize,
}

impl RunResult {
    /// Number of launched map tasks with the given locality (Figure 8(a)
    /// counts `Remote`).
    pub fn map_count(&self, locality: MapLocality) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.map_locality() == Some(locality))
            .count()
    }

    /// Degraded read times in seconds — the Figure 8(b) metric ("the time
    /// from issuing a degraded read request until k blocks are
    /// downloaded").
    pub fn degraded_read_secs(&self) -> Vec<f64> {
        self.tasks
            .iter()
            .filter(|t| t.map_locality() == Some(MapLocality::Degraded))
            .map(|t| t.input_wait().as_secs_f64())
            .collect()
    }

    /// Mean runtime in seconds of tasks selected by `filter` — Table I's
    /// per-type breakdown. Returns `None` if nothing matches.
    pub fn mean_task_runtime_secs(&self, filter: impl Fn(&TaskRecord) -> bool) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for t in self.tasks.iter().filter(|t| filter(t)) {
            sum += t.runtime().as_secs_f64();
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Mean runtime of "normal" maps (local + remote, not degraded).
    pub fn mean_normal_map_secs(&self) -> Option<f64> {
        self.mean_task_runtime_secs(
            |t| matches!(t.map_locality(), Some(l) if l != MapLocality::Degraded),
        )
    }

    /// Mean runtime of degraded maps.
    pub fn mean_degraded_map_secs(&self) -> Option<f64> {
        self.mean_task_runtime_secs(|t| t.map_locality() == Some(MapLocality::Degraded))
    }

    /// Mean runtime of reduce tasks.
    pub fn mean_reduce_secs(&self) -> Option<f64> {
        self.mean_task_runtime_secs(|t| matches!(t.detail, TaskDetail::Reduce { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecstore::StripeId;

    fn map_record(job: u32, locality: MapLocality, a: u64, f: u64, c: u64) -> TaskRecord {
        TaskRecord {
            job: JobId(job),
            detail: TaskDetail::Map {
                block: BlockRef {
                    stripe: StripeId(0),
                    pos: 0,
                },
                locality,
            },
            node: NodeId(0),
            assigned_at: SimTime::from_secs(a),
            input_ready_at: SimTime::from_secs(f),
            completed_at: SimTime::from_secs(c),
        }
    }

    #[test]
    fn task_timings() {
        let t = map_record(0, MapLocality::Degraded, 10, 25, 40);
        assert_eq!(t.runtime(), SimDuration::from_secs(30));
        assert_eq!(t.input_wait(), SimDuration::from_secs(15));
        assert_eq!(t.map_locality(), Some(MapLocality::Degraded));
    }

    #[test]
    fn job_timings() {
        let j = JobResult {
            id: JobId(0),
            name: "x".into(),
            submitted_at: SimTime::from_secs(5),
            started_at: SimTime::from_secs(8),
            finished_at: SimTime::from_secs(68),
        };
        assert_eq!(j.runtime(), SimDuration::from_secs(60));
        assert_eq!(j.turnaround(), SimDuration::from_secs(63));
    }

    #[test]
    fn aggregates() {
        let result = RunResult {
            jobs: vec![],
            tasks: vec![
                map_record(0, MapLocality::NodeLocal, 0, 0, 20),
                map_record(0, MapLocality::Remote, 0, 10, 30),
                map_record(0, MapLocality::Degraded, 0, 15, 35),
                map_record(1, MapLocality::Degraded, 5, 10, 25),
                TaskRecord {
                    job: JobId(0),
                    detail: TaskDetail::Reduce { index: 0 },
                    node: NodeId(1),
                    assigned_at: SimTime::ZERO,
                    input_ready_at: SimTime::from_secs(40),
                    completed_at: SimTime::from_secs(70),
                },
            ],
            makespan: SimDuration::from_secs(70),
            utilization: Vec::new(),
            tasks_queued_degraded: 0,
        };
        assert_eq!(result.map_count(MapLocality::Remote), 1);
        assert_eq!(result.map_count(MapLocality::Degraded), 2);
        assert_eq!(result.degraded_read_secs(), vec![15.0, 5.0]);
        assert_eq!(result.mean_normal_map_secs(), Some(25.0));
        assert_eq!(result.mean_degraded_map_secs(), Some((35.0 + 20.0) / 2.0));
        assert_eq!(result.mean_reduce_secs(), Some(70.0));
        assert_eq!(result.mean_task_runtime_secs(|_| false), None);
    }
}
