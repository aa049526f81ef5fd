//! `textlab` — the real-computation substrate that stands in for the
//! paper's Hadoop testbed data path.
//!
//! The paper's Section VI stores 15 GB of Project Gutenberg text in
//! HDFS-RAID and runs three I/O-heavy MapReduce jobs (WordCount, Grep,
//! LineCount) against it, including in failure mode where map tasks must
//! reconstruct their input via degraded reads. We cannot run Hadoop, but
//! we *can* run the identical data path end-to-end in-process:
//!
//! * [`corpus`] generates deterministic English-like text (the Gutenberg
//!   substitute);
//! * [`grid::MiniGrid`] stores the text erasure-coded across simulated
//!   nodes using the real [`erasure`] codec, kills nodes, and serves
//!   degraded reads by actually downloading `k` surviving blocks and
//!   decoding them;
//! * [`jobs`] implements the three workloads as real map/reduce functions
//!   over bytes, with Hadoop-style record splitting across block
//!   boundaries, and reduces each into a [`KeyCounts`] table.
//!
//! # Example
//!
//! ```
//! use textlab::corpus::CorpusBuilder;
//! use textlab::grid::MiniGrid;
//! use textlab::jobs::{run_job, WordCount};
//! use cluster::Topology;
//! use erasure::CodeParams;
//!
//! let text = CorpusBuilder::new(42).lines(2000).build();
//! let topo = Topology::homogeneous(2, 3, 2, 1);
//! let mut grid = MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), 1024, &text, 7).unwrap();
//!
//! let healthy = run_job(&mut grid, &WordCount).unwrap();
//! grid.fail_node(cluster::NodeId(0));
//! let degraded = run_job(&mut grid, &WordCount).unwrap();
//! assert_eq!(healthy.results, degraded.results); // bit-identical output
//! assert!(healthy.results.get("the").is_some_and(|count| count > 0));
//! assert!(degraded.stats.degraded_reads > 0);
//! ```

pub mod corpus;
pub mod grid;
pub mod jobs;

pub use corpus::CorpusBuilder;
pub use grid::{GridError, MiniGrid, ReadStats};
pub use jobs::{run_job, Combiner, Grep, JobOutput, KeyCounts, LineCount, TextJob, WordCount};
