//! An in-process erasure-coded storage grid with real bytes and real
//! degraded reads.
//!
//! [`MiniGrid`] plays HDFS-RAID's role: it splits a file into fixed-size
//! blocks, groups them into `(n, k)` stripes, encodes each stripe with
//! the Reed–Solomon codec, and scatters the shards across the nodes of a
//! [`cluster::Topology`] under the rack-aware placement policy. Killing
//! a node makes its blocks unreachable; reading one then performs an
//! actual degraded read — download `k` surviving shards, invert the
//! decode matrix, reconstruct the bytes.

use std::borrow::Cow;
use std::collections::BTreeSet;

use cluster::{ClusterState, NodeId, Topology};
use ecstore::placement::RoundRobinPlacement;
use ecstore::{BlockRef, BlockStore, StripeLayout};
use erasure::{CodeConstruction, CodeError, CodeParams, ReedSolomon};
use simkit::SimRng;

/// Placement stream label (DESIGN.md §9, R1): the grid forks a
/// dedicated stream off the seed root for shard placement, matching
/// the engine's label so a textlab grid and a simulated cluster built
/// from the same seed place identically. Frozen — goldens replay it.
const PLACEMENT_STREAM: u64 = 1;

/// Errors from grid construction or reads.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// The file produced zero blocks.
    EmptyFile,
    /// The block size was zero.
    ZeroBlockSize,
    /// Placement or layout failed (message from the underlying error).
    Layout(String),
    /// A stripe lost more than `n − k` shards.
    Unrecoverable {
        /// The stripe that can no longer be decoded.
        stripe: usize,
    },
    /// The erasure codec failed (should not happen for valid grids).
    Codec(CodeError),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyFile => write!(f, "file has no blocks"),
            GridError::ZeroBlockSize => write!(f, "block size must be positive"),
            GridError::Layout(e) => write!(f, "layout failed: {e}"),
            GridError::Unrecoverable { stripe } => {
                write!(
                    f,
                    "stripe {stripe} lost more shards than the code tolerates"
                )
            }
            GridError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<CodeError> for GridError {
    fn from(e: CodeError) -> GridError {
        GridError::Codec(e)
    }
}

/// Transfer accounting for one grid read (or a whole job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadStats {
    /// Reads served directly from the holder node.
    pub direct_reads: usize,
    /// Reads that needed reconstruction.
    pub degraded_reads: usize,
    /// Shards downloaded over the (simulated) network.
    pub blocks_transferred: usize,
    /// How many of those crossed racks.
    pub cross_rack_transfers: usize,
}

impl ReadStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: ReadStats) {
        self.direct_reads += other.direct_reads;
        self.degraded_reads += other.degraded_reads;
        self.blocks_transferred += other.blocks_transferred;
        self.cross_rack_transfers += other.cross_rack_transfers;
    }
}

/// Splits a byte stream into fixed-size blocks, zero-padding the last
/// block — how HDFS-RAID groups a file into native blocks before
/// striping.
fn split_into_blocks(data: &[u8], block_size: usize) -> Result<Vec<Vec<u8>>, GridError> {
    if block_size == 0 {
        return Err(GridError::ZeroBlockSize);
    }
    Ok(data
        .chunks(block_size)
        .map(|chunk| {
            let mut block = chunk.to_vec();
            block.resize(block_size, 0);
            block
        })
        .collect())
}

/// The in-process erasure-coded grid. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct MiniGrid {
    topo: Topology,
    store: BlockStore,
    codec: ReedSolomon,
    state: ClusterState,
    /// Shard bytes by global block index.
    shards: Vec<Vec<u8>>,
    file_len: usize,
    block_size: usize,
    rng: SimRng,
    stats: ReadStats,
}

impl MiniGrid {
    /// Stores `file` erasure-coded across the topology.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::EmptyFile`] for an empty file,
    /// [`GridError::ZeroBlockSize`] for a zero `block_size`, and
    /// [`GridError::Layout`] if placement fails.
    pub fn new(
        topo: Topology,
        params: CodeParams,
        block_size: usize,
        file: &[u8],
        seed: u64,
    ) -> Result<MiniGrid, GridError> {
        if file.is_empty() {
            return Err(GridError::EmptyFile);
        }
        let k = params.k();
        let mut natives = split_into_blocks(file, block_size)?;
        let num_native = natives.len().div_ceil(k) * k;
        // Zero blocks pad the final stripe.
        natives.resize(num_native, vec![0; block_size]);
        let layout =
            StripeLayout::new(params, num_native).map_err(|e| GridError::Layout(e.to_string()))?;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut placement_rng = rng.fork(PLACEMENT_STREAM);
        // Round-robin placement, as on the paper's testbed (the rack
        // constraint is a simulation-side requirement that the (12,10)
        // testbed code cannot satisfy on three racks).
        let store = BlockStore::place(&topo, layout, &RoundRobinPlacement, &mut placement_rng)
            .map_err(|e| GridError::Layout(e.to_string()))?;
        let codec = ReedSolomon::new(params, CodeConstruction::default())?;
        // The natives move into `shards` stripe by stripe, each followed
        // by its parity, so the grid holds the file's bytes only once.
        let mut shards = Vec::with_capacity(store.layout().num_blocks());
        let mut natives = natives.into_iter();
        for _ in 0..num_native / k {
            let start = shards.len();
            shards.extend(natives.by_ref().take(k));
            let parity = codec.encode_parity(&shards[start..])?;
            shards.extend(parity);
        }
        let state = ClusterState::all_alive(&topo);
        Ok(MiniGrid {
            topo,
            store,
            codec,
            state,
            shards,
            file_len: file.len(),
            block_size,
            rng,
            stats: ReadStats::default(),
        })
    }

    /// The stored file's length in bytes (padding excluded).
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// Number of native blocks that contain real file bytes.
    pub fn num_data_blocks(&self) -> usize {
        self.file_len.div_ceil(self.block_size)
    }

    /// Total native blocks including stripe padding.
    pub fn num_native_blocks(&self) -> usize {
        self.store.layout().num_native()
    }

    /// The block→node map.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Cumulative transfer statistics.
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// Kills a node; its shards become unreachable.
    ///
    /// # Panics
    ///
    /// Panics on an unknown node.
    pub fn fail_node(&mut self, node: NodeId) {
        self.state.fail_node(node);
    }

    /// Live/failed view.
    pub fn cluster_state(&self) -> &ClusterState {
        &self.state
    }

    /// Reads native block `i` (dense native index), transparently
    /// performing a degraded read if its holder is down. A live block is
    /// lent, not copied; only a lost one is rebuilt. The read is
    /// attributed to a reader chosen uniformly among live nodes (as a
    /// re-scheduled map task would be).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Unrecoverable`] if the stripe has fewer than
    /// `k` surviving shards.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn read_native(&mut self, i: usize) -> Result<Cow<'_, [u8]>, GridError> {
        let block = self.store.layout().native_at(i);
        let holder = self.store.node_of(block);
        if self.state.is_alive(holder) {
            self.stats.direct_reads += 1;
            return Ok(Cow::Borrowed(
                &self.shards[self.store.layout().global_index(block)],
            ));
        }
        // Degraded read: pick a live reader, download k surviving shards,
        // decode.
        let alive = self.state.alive_nodes();
        let reader = alive[self.rng.below(alive.len())];
        self.degraded_read(block, reader).map(Cow::Owned)
    }

    /// Performs a degraded read of `block` at `reader`, preferring the
    /// reader's own shards as a real HDFS-RAID client would.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::Unrecoverable`] if fewer than `k` shards of
    /// the stripe survive.
    pub fn degraded_read(&mut self, block: BlockRef, reader: NodeId) -> Result<Vec<u8>, GridError> {
        let k = self.store.layout().params().k();
        let survivors = self.store.survivors_of(block.stripe, &self.state);
        if survivors.len() < k {
            return Err(GridError::Unrecoverable {
                stripe: block.stripe.index(),
            });
        }
        // LocalFirst ordering: reader's own shards, then same rack, then
        // remote.
        let reader_rack = self.topo.rack_of(reader);
        let mut ordered: Vec<(usize, NodeId)> = survivors;
        ordered.sort_by_key(|&(pos, node)| {
            let class = if node == reader {
                0
            } else if self.topo.rack_of(node) == reader_rack {
                1
            } else {
                2
            };
            (class, pos)
        });
        ordered.truncate(k);

        // Borrow the source shards straight out of the store — the codec
        // accepts `(index, &[u8])` survivors, so a degraded read no
        // longer clones k shards just to hand them over.
        let mut sources: Vec<(usize, &[u8])> = Vec::with_capacity(k);
        for &(pos, node) in &ordered {
            let src = BlockRef {
                stripe: block.stripe,
                pos,
            };
            if node != reader {
                self.stats.blocks_transferred += 1;
                if self.topo.rack_of(node) != reader_rack {
                    self.stats.cross_rack_transfers += 1;
                }
            }
            sources.push((
                pos,
                self.shards[self.store.layout().global_index(src)].as_slice(),
            ));
        }
        self.stats.degraded_reads += 1;
        Ok(self.codec.reconstruct(&sources, block.pos)?)
    }

    /// Reads the entire file back (for verification), trimming stripe
    /// padding.
    ///
    /// # Errors
    ///
    /// Propagates [`GridError::Unrecoverable`] from degraded reads.
    pub fn read_file(&mut self) -> Result<Vec<u8>, GridError> {
        let file_len = self.file_len;
        let mut out = Vec::with_capacity(file_len);
        for i in 0..self.num_data_blocks() {
            let block = self.read_native(i)?;
            // The final block's padding would overflow the capacity.
            let real = block.len().min(file_len - out.len());
            out.extend_from_slice(&block[..real]);
        }
        Ok(out)
    }

    /// The set of currently failed nodes (diagnostics).
    pub fn failed_nodes(&self) -> BTreeSet<NodeId> {
        self.state.failed_nodes().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn grid(seed: u64) -> (Vec<u8>, MiniGrid) {
        let text = CorpusBuilder::new(seed).lines(300).build();
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let grid = MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), 1024, &text, seed).unwrap();
        (text, grid)
    }

    #[test]
    fn healthy_read_round_trips() {
        let (text, mut grid) = grid(1);
        let back = grid.read_file().unwrap();
        assert_eq!(back, text);
        assert_eq!(grid.stats().degraded_reads, 0);
        assert!(grid.stats().direct_reads > 0);
    }

    #[test]
    fn degraded_read_round_trips() {
        let (text, mut grid) = grid(2);
        grid.fail_node(NodeId(0));
        let back = grid.read_file().unwrap();
        assert_eq!(back, text, "reconstruction must be bit-identical");
        assert!(grid.stats().degraded_reads > 0, "node 0 held some block");
        assert!(grid.stats().blocks_transferred >= grid.stats().degraded_reads);
    }

    #[test]
    fn double_failure_survives_with_two_parities() {
        let (text, mut grid) = grid(3);
        grid.fail_node(NodeId(1));
        grid.fail_node(NodeId(4));
        let back = grid.read_file().unwrap();
        assert_eq!(back, text);
        assert_eq!(grid.failed_nodes().len(), 2);
    }

    #[test]
    fn triple_failure_reports_unrecoverable() {
        // (4,2) tolerates 2; killing 3 of 6 nodes must break some stripe
        // (each stripe uses 4 distinct of 6 nodes, so it loses >= 1; some
        // stripe loses >= 3 by counting: 3 failed nodes hold half of all
        // shards).
        let (_, mut grid) = grid(4);
        grid.fail_node(NodeId(0));
        grid.fail_node(NodeId(2));
        grid.fail_node(NodeId(5));
        let result = grid.read_file();
        if let Err(e) = &result {
            assert!(matches!(e, GridError::Unrecoverable { .. }));
            assert!(!e.to_string().is_empty());
        }
        // Some placements may still survive; either way nothing panics
        // and stats stay consistent.
        let s = grid.stats();
        assert!(s.blocks_transferred >= s.cross_rack_transfers);
    }

    #[test]
    fn empty_file_rejected() {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let err = MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), 1024, &[], 0).unwrap_err();
        assert_eq!(err, GridError::EmptyFile);
    }

    #[test]
    fn zero_block_size_rejected() {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let err = MiniGrid::new(topo, CodeParams::new(6, 4).unwrap(), 0, b"hello", 1).unwrap_err();
        assert_eq!(err, GridError::ZeroBlockSize);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn split_pads_last_block() {
        let data: Vec<u8> = (0..10).collect();
        let blocks = split_into_blocks(&data, 4).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0], vec![0, 1, 2, 3]);
        assert_eq!(blocks[2], vec![8, 9, 0, 0]);
        assert!(split_into_blocks(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, mut a) = grid(6);
        let (_, mut b) = grid(6);
        a.fail_node(NodeId(0));
        b.fail_node(NodeId(0));
        assert_eq!(a.read_file().unwrap(), b.read_file().unwrap());
        assert_eq!(a.stats(), b.stats());
    }
}
