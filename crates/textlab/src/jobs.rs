//! The three testbed workloads as real map/reduce functions, with
//! Hadoop-style record splitting.
//!
//! All three jobs fit the "map emits `(key, count)`; reduce sums per
//! key" shape:
//!
//! * [`WordCount`] — key = word;
//! * [`Grep`] — key = line containing the needle;
//! * [`LineCount`] — key = line.
//!
//! [`run_job`] feeds each job blocks from a [`MiniGrid`] with Hadoop's
//! record-reader convention: the mapper of block `i > 0` skips the bytes
//! up to the first newline (they belong to block `i−1`'s reader, which
//! reads past its block end to finish its last record).
//!
//! # Map, combine, reduce
//!
//! Map emits borrowed keys: a word or a line is a slice of the block it
//! was read from, so mapping a valid UTF-8 record allocates nothing.
//! Each block's pairs go through a combiner, as in Hadoop: a hash map
//! from borrowed key to count, whose hasher takes no random seed, so
//! nothing depends on process randomness. At the end of the block its
//! distinct keys are copied out once, as owned strings, and appended to
//! the job's run. The reduce is one sort of that run by key, a merge of
//! equal neighbours by summing their counts, and a bulk build of the
//! output map from the sorted, unique keys.
//!
//! The output does not depend on the combiner's iteration order: after
//! the merge every key appears once, and a sum of `u64` counts is the
//! same in any order.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::grid::{GridError, MiniGrid, ReadStats};

/// A map/reduce job over text: map one record (line) into `(key, count)`
/// pairs; reduce is summation per key.
pub trait TextJob {
    /// The job's display name.
    fn name(&self) -> &str;

    /// Emits `(key, count)` pairs for one input line (without the
    /// trailing newline). Keys borrow from the line.
    fn map_line<'a>(&self, line: &'a str, emit: &mut dyn FnMut(&'a str, u64));
}

/// Counts the occurrences of each word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordCount;

impl TextJob for WordCount {
    fn name(&self) -> &str {
        "WordCount"
    }

    fn map_line<'a>(&self, line: &'a str, emit: &mut dyn FnMut(&'a str, u64)) {
        for word in line.split_whitespace() {
            emit(word, 1);
        }
    }
}

/// Emits the lines containing a given word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grep {
    needle: String,
}

impl Grep {
    /// Creates a grep for `needle`.
    pub fn new(needle: &str) -> Grep {
        Grep {
            needle: needle.to_string(),
        }
    }
}

impl TextJob for Grep {
    fn name(&self) -> &str {
        "Grep"
    }

    fn map_line<'a>(&self, line: &'a str, emit: &mut dyn FnMut(&'a str, u64)) {
        if line.contains(&self.needle) {
            emit(line, 1);
        }
    }
}

/// Counts the occurrences of each distinct line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCount;

impl TextJob for LineCount {
    fn name(&self) -> &str {
        "LineCount"
    }

    fn map_line<'a>(&self, line: &'a str, emit: &mut dyn FnMut(&'a str, u64)) {
        emit(line, 1);
    }
}

/// The reduced output of a job plus the grid traffic it caused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// Key → summed count, sorted by key.
    pub results: BTreeMap<String, u64>,
    /// Grid read statistics attributable to this job.
    pub stats: ReadStats,
}

impl JobOutput {
    /// Total emitted count across all keys.
    pub fn total(&self) -> u64 {
        self.results.values().sum()
    }
}

/// One block's combiner: borrowed key → summed count.
type Combiner<'a> = HashMap<&'a str, u64, BuildHasherDefault<KeyHasher>>;

/// A multiplicative word-at-a-time hasher (the Fx hash), seeded with
/// zero. Runs must not depend on a random seed, and SipHash with fixed,
/// public keys resists crafted collisions no better, so the faster hash
/// gives up no protection.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap_or_default()));
        }
        let mut tail = [0; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs a [`TextJob`] over every data block of the grid, reconstructing
/// lost blocks via degraded reads, and reduces the intermediate pairs.
///
/// Record splitting follows Hadoop's `TextInputFormat`: each mapper
/// starts after the first newline of its block (except block 0) and
/// reads past the block end into the next block to finish its final
/// record. The records are exactly those of the whole file split on
/// `b'\n'` (a final record without a newline included when non-empty),
/// each decoded with [`String::from_utf8_lossy`].
///
/// # Errors
///
/// Propagates [`GridError`] from block reads.
pub fn run_job(grid: &mut MiniGrid, job: &dyn TextJob) -> Result<JobOutput, GridError> {
    let before = grid.stats();
    let blocks = grid.num_data_blocks();
    let file_len = grid.file_len();
    // Every block's combined pairs, reduced by one sort at the end.
    let mut run: Vec<(String, u64)> = Vec::new();
    let mut distinct = 0;
    // The record that straddles into the current block, as read so far.
    let mut carry: Vec<u8> = Vec::new();
    for i in 0..blocks {
        let mut bytes = grid.read_native(i)?;
        // Trim zero padding on the final block.
        if i == blocks - 1 {
            let block_size = bytes.len();
            let real = file_len - i * block_size;
            bytes.truncate(real.min(block_size));
        }
        let newline = |b: &u8| *b == b'\n';
        let (Some(first), Some(last)) = (
            bytes.iter().position(newline),
            bytes.iter().rposition(newline),
        ) else {
            carry.extend_from_slice(&bytes);
            continue;
        };
        // The carried record ends at this block's first newline; the
        // complete lines after it are mapped in place.
        carry.extend_from_slice(&bytes[..first]);
        let mut combiner = Combiner::with_capacity_and_hasher(distinct, Default::default());
        map_record(job, &carry, &mut combiner, &mut run);
        // `bytes[first..last]` starts with the first newline, so its
        // first piece is empty.
        for line in bytes[first..last].split(newline).skip(1) {
            map_record(job, line, &mut combiner, &mut run);
        }
        distinct = combiner.len();
        run.extend(
            combiner
                .into_iter()
                .map(|(key, count)| (key.to_owned(), count)),
        );
        carry.clear();
        carry.extend_from_slice(&bytes[last + 1..]);
    }
    if !carry.is_empty() {
        let line = String::from_utf8_lossy(&carry);
        job.map_line(&line, &mut |key, count| run.push((key.to_owned(), count)));
    }

    run.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    run.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    let results = BTreeMap::from_iter(run);

    let after = grid.stats();
    let stats = ReadStats {
        direct_reads: after.direct_reads - before.direct_reads,
        degraded_reads: after.degraded_reads - before.degraded_reads,
        blocks_transferred: after.blocks_transferred - before.blocks_transferred,
        cross_rack_transfers: after.cross_rack_transfers - before.cross_rack_transfers,
    };
    Ok(JobOutput { results, stats })
}

/// Maps one record. A valid UTF-8 record's pairs go to the combiner
/// with keys borrowed from `record`; a lossy-decoded one's keys borrow
/// the decoded copy, so its pairs go straight into the run.
fn map_record<'a>(
    job: &dyn TextJob,
    record: &'a [u8],
    combiner: &mut Combiner<'a>,
    run: &mut Vec<(String, u64)>,
) {
    match String::from_utf8_lossy(record) {
        Cow::Borrowed(line) => job.map_line(line, &mut |key, count| {
            *combiner.entry(key).or_default() += count;
        }),
        Cow::Owned(line) => job.map_line(&line, &mut |key, count| {
            run.push((key.to_owned(), count));
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use cluster::{NodeId, Topology};
    use erasure::CodeParams;

    fn make_grid(text: &[u8], block: usize) -> MiniGrid {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), block, text, 11).unwrap()
    }

    #[test]
    fn wordcount_matches_oracle() {
        let text = b"the whale the sea\nthe captain\n".to_vec();
        let mut grid = make_grid(&text, 8); // tiny blocks force splits
        let out = run_job(&mut grid, &WordCount).unwrap();
        assert_eq!(out.results.get("the"), Some(&3));
        assert_eq!(out.results.get("whale"), Some(&1));
        assert_eq!(out.results.get("sea"), Some(&1));
        assert_eq!(out.results.get("captain"), Some(&1));
        assert_eq!(out.total(), 6);
    }

    #[test]
    fn record_splitting_across_blocks_is_exact() {
        // Compare block-wise processing against whole-file processing
        // for many block sizes, including ones that split words and
        // lines arbitrarily.
        let text = CorpusBuilder::new(9).lines(120).build();
        let oracle = {
            let mut counts: BTreeMap<String, u64> = BTreeMap::new();
            for line in String::from_utf8(text.clone()).unwrap().lines() {
                for w in line.split_whitespace() {
                    *counts.entry(w.to_string()).or_default() += 1;
                }
            }
            counts
        };
        for block in [7, 64, 333, 1024, 4096] {
            let mut grid = make_grid(&text, block);
            let out = run_job(&mut grid, &WordCount).unwrap();
            assert_eq!(out.results, oracle, "block size {block}");
        }
    }

    #[test]
    fn grep_finds_matching_lines() {
        let text = b"the whale swims\nno match here\nwhale again\n".to_vec();
        let mut grid = make_grid(&text, 16);
        let out = run_job(&mut grid, &Grep::new("whale")).unwrap();
        assert_eq!(out.results.len(), 2);
        assert!(out.results.contains_key("the whale swims"));
        assert!(out.results.contains_key("whale again"));
    }

    #[test]
    fn linecount_counts_duplicates() {
        let text = b"alpha\nbeta\nalpha\n".to_vec();
        let mut grid = make_grid(&text, 4);
        let out = run_job(&mut grid, &LineCount).unwrap();
        assert_eq!(out.results.get("alpha"), Some(&2));
        assert_eq!(out.results.get("beta"), Some(&1));
    }

    #[test]
    fn failure_mode_output_is_identical() {
        let text = CorpusBuilder::new(13).lines(200).build();
        let mut healthy = make_grid(&text, 512);
        let healthy_out = run_job(&mut healthy, &WordCount).unwrap();
        assert_eq!(healthy_out.stats.degraded_reads, 0);

        let mut degraded = make_grid(&text, 512);
        degraded.fail_node(NodeId(2));
        let degraded_out = run_job(&mut degraded, &WordCount).unwrap();
        assert_eq!(degraded_out.results, healthy_out.results);
        assert!(degraded_out.stats.degraded_reads > 0);
        // Each degraded read downloads k-ish shards.
        assert!(degraded_out.stats.blocks_transferred >= degraded_out.stats.degraded_reads);
    }

    #[test]
    fn job_names() {
        assert_eq!(WordCount.name(), "WordCount");
        assert_eq!(Grep::new("x").name(), "Grep");
        assert_eq!(LineCount.name(), "LineCount");
    }
}
