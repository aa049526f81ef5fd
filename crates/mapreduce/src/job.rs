//! Job and task identifiers and specifications.

use simkit::time::{SimDuration, SimTime};
use std::fmt;

/// Identifies a job; jobs are numbered in submission (FIFO) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u32);

impl JobId {
    /// Dense index of this job.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifies a map task within a job. Map tasks correspond 1:1 to the
/// native blocks of the stored file, so the id doubles as the dense
/// native-block index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MapTaskId(pub usize);

impl fmt::Display for MapTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "map{}", self.0)
    }
}

/// The locality class of a launched map task (Section II-A, plus the
/// paper's new *degraded* class for failure mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapLocality {
    /// Input block stored on the executing node.
    NodeLocal,
    /// Input block stored on another node of the same rack.
    RackLocal,
    /// Input block stored in a different rack.
    Remote,
    /// Input block lost; reconstructed via a degraded read.
    Degraded,
}

impl fmt::Display for MapLocality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapLocality::NodeLocal => "node-local",
            MapLocality::RackLocal => "rack-local",
            MapLocality::Remote => "remote",
            MapLocality::Degraded => "degraded",
        };
        f.write_str(s)
    }
}

/// The workload description of one MapReduce job.
///
/// Map task count is implied by the stored file (one map task per native
/// block). Build with [`JobSpec::builder`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable name (e.g. "WordCount").
    pub name: String,
    /// Mean map-task processing time.
    pub map_time_mean: SimDuration,
    /// Standard deviation of map-task processing time.
    pub map_time_std: SimDuration,
    /// Mean reduce-task processing time.
    pub reduce_time_mean: SimDuration,
    /// Standard deviation of reduce-task processing time.
    pub reduce_time_std: SimDuration,
    /// Number of reduce tasks (0 = map-only job).
    pub num_reduce_tasks: usize,
    /// Intermediate data emitted per map task, as a fraction of the
    /// input block size (the paper's 1%–30% sweep in Figure 7(e)).
    pub shuffle_ratio: f64,
    /// When the job is submitted to the FIFO queue.
    pub submit_at: SimTime,
}

impl JobSpec {
    /// Starts building a job with the paper's Section V-B defaults:
    /// map N(20 s, 1 s), reduce N(30 s, 2 s), 30 reducers, 1% shuffle,
    /// submitted at time zero.
    pub fn builder(name: &str) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec {
                name: name.to_string(),
                map_time_mean: SimDuration::from_secs(20),
                map_time_std: SimDuration::from_secs(1),
                reduce_time_mean: SimDuration::from_secs(30),
                reduce_time_std: SimDuration::from_secs(2),
                num_reduce_tasks: 30,
                shuffle_ratio: 0.01,
                submit_at: SimTime::ZERO,
            },
        }
    }

    /// True if the job has no reduce phase.
    pub fn is_map_only(&self) -> bool {
        self.num_reduce_tasks == 0
    }

    /// Checks the spec for values the engine cannot simulate. Specs can
    /// arrive from hand-edited arrival traces with any field contents,
    /// so [`Engine::builder`](crate::engine) rejects invalid ones at
    /// build time instead of trusting the builder's assertions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.map_time_mean.is_zero() {
            return Err("map_time_mean must be positive".to_string());
        }
        if !self.shuffle_ratio.is_finite() || !(0.0..=1.0).contains(&self.shuffle_ratio) {
            return Err(format!(
                "shuffle_ratio must be a finite fraction in [0, 1], got {}",
                self.shuffle_ratio
            ));
        }
        if self.num_reduce_tasks == 0 && self.shuffle_ratio != 0.0 {
            return Err(format!(
                "a map-only job (0 reduce tasks) cannot shuffle, got shuffle_ratio {}",
                self.shuffle_ratio
            ));
        }
        if self.num_reduce_tasks > 0 && self.reduce_time_mean.is_zero() {
            return Err("reduce_time_mean must be positive when reduce tasks exist".to_string());
        }
        Ok(())
    }
}

/// Builder for [`JobSpec`].
#[derive(Clone, Debug)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Sets the map-task processing time distribution.
    pub fn map_time(mut self, mean: SimDuration, std: SimDuration) -> Self {
        self.spec.map_time_mean = mean;
        self.spec.map_time_std = std;
        self
    }

    /// Sets the reduce-task processing time distribution.
    pub fn reduce_time(mut self, mean: SimDuration, std: SimDuration) -> Self {
        self.spec.reduce_time_mean = mean;
        self.spec.reduce_time_std = std;
        self
    }

    /// Sets the reduce-task count.
    pub fn reduce_tasks(mut self, count: usize) -> Self {
        self.spec.num_reduce_tasks = count;
        self
    }

    /// Makes the job map-only (no reducers, no shuffle).
    pub fn map_only(mut self) -> Self {
        self.spec.num_reduce_tasks = 0;
        self.spec.shuffle_ratio = 0.0;
        self
    }

    /// Sets the shuffle ratio (map output bytes / block bytes).
    ///
    /// # Panics
    ///
    /// Panics if the ratio is negative or not finite.
    pub fn shuffle_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio >= 0.0 && ratio.is_finite(),
            "bad shuffle ratio {ratio}"
        );
        self.spec.shuffle_ratio = ratio;
        self
    }

    /// Sets the submission time.
    pub fn submit_at(mut self, at: SimTime) -> Self {
        self.spec.submit_at = at;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> JobSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let spec = JobSpec::builder("default").build();
        assert_eq!(spec.map_time_mean, SimDuration::from_secs(20));
        assert_eq!(spec.map_time_std, SimDuration::from_secs(1));
        assert_eq!(spec.reduce_time_mean, SimDuration::from_secs(30));
        assert_eq!(spec.reduce_time_std, SimDuration::from_secs(2));
        assert_eq!(spec.num_reduce_tasks, 30);
        assert!((spec.shuffle_ratio - 0.01).abs() < 1e-12);
        assert_eq!(spec.submit_at, SimTime::ZERO);
        assert!(!spec.is_map_only());
    }

    #[test]
    fn map_only_clears_shuffle() {
        let spec = JobSpec::builder("scan").map_only().build();
        assert!(spec.is_map_only());
        assert_eq!(spec.shuffle_ratio, 0.0);
    }

    #[test]
    fn builder_overrides() {
        let spec = JobSpec::builder("x")
            .map_time(SimDuration::from_secs(3), SimDuration::ZERO)
            .reduce_time(SimDuration::from_secs(60), SimDuration::from_secs(5))
            .reduce_tasks(8)
            .shuffle_ratio(0.3)
            .submit_at(SimTime::from_secs(120))
            .build();
        assert_eq!(spec.map_time_mean, SimDuration::from_secs(3));
        assert_eq!(spec.num_reduce_tasks, 8);
        assert_eq!(spec.submit_at, SimTime::from_secs(120));
    }

    #[test]
    fn locality_classes() {
        assert_eq!(MapLocality::Degraded.to_string(), "degraded");
    }

    #[test]
    fn id_display() {
        assert_eq!(JobId(2).to_string(), "job2");
        assert_eq!(MapTaskId(7).to_string(), "map7");
        assert_eq!(JobId(3).index(), 3);
    }

    #[test]
    #[should_panic(expected = "bad shuffle ratio")]
    fn rejects_negative_shuffle() {
        let _ = JobSpec::builder("x").shuffle_ratio(-0.1);
    }

    #[test]
    fn validate_accepts_defaults_and_map_only() {
        assert_eq!(JobSpec::builder("ok").build().validate(), Ok(()));
        assert_eq!(
            JobSpec::builder("scan").map_only().build().validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let mut spec = JobSpec::builder("bad").build();
        spec.shuffle_ratio = 1.5;
        assert_eq!(
            spec.validate().unwrap_err(),
            "shuffle_ratio must be a finite fraction in [0, 1], got 1.5"
        );
        spec.shuffle_ratio = f64::NAN;
        assert!(spec.validate().is_err());

        let mut spec = JobSpec::builder("bad").build();
        spec.map_time_mean = SimDuration::ZERO;
        assert_eq!(
            spec.validate().unwrap_err(),
            "map_time_mean must be positive"
        );

        let mut spec = JobSpec::builder("bad").build();
        spec.num_reduce_tasks = 0; // still has the 1% default shuffle
        assert_eq!(
            spec.validate().unwrap_err(),
            "a map-only job (0 reduce tasks) cannot shuffle, got shuffle_ratio 0.01"
        );

        let mut spec = JobSpec::builder("bad").build();
        spec.reduce_time_mean = SimDuration::ZERO;
        assert_eq!(
            spec.validate().unwrap_err(),
            "reduce_time_mean must be positive when reduce tasks exist"
        );
    }
}
