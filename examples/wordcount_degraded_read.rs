//! End-to-end degraded read on real bytes: store a synthetic text
//! corpus erasure-coded across a mini-cluster, kill a node, and run
//! WordCount / Grep / LineCount — the map tasks whose blocks were lost
//! reconstruct them through the actual Reed–Solomon decoder.
//!
//! This is the reproduction's stand-in for the paper's Hadoop testbed
//! data path (Section VI).
//!
//! ```sh
//! cargo run --release -p dfs --example wordcount_degraded_read
//! ```

use dfs::cluster::{NodeId, Topology};
use dfs::erasure::CodeParams;
use dfs::simkit::report::Table;
use dfs::textlab::{run_job, CorpusBuilder, Grep, LineCount, MiniGrid, TextJob, WordCount};

fn main() {
    // ~1 MB of Gutenberg-like text over 12 nodes / 3 racks, (12,10)
    // coding with 16 KiB blocks — the testbed's shape in miniature.
    let text = CorpusBuilder::new(2024).lines(20_000).build();
    println!("corpus: {} bytes, {} lines", text.len(), 20_000);

    let topo = Topology::homogeneous(3, 4, 4, 1);
    let params = CodeParams::new(12, 10).expect("valid (12,10)");
    let make_grid = || MiniGrid::new(topo.clone(), params, 16 * 1024, &text, 7).expect("grid");

    let jobs: Vec<Box<dyn TextJob>> = vec![
        Box::new(WordCount),
        Box::new(Grep::new("whale")),
        Box::new(LineCount),
    ];

    let mut table = Table::new(&[
        "job",
        "keys",
        "total",
        "degraded reads",
        "blocks fetched",
        "cross-rack",
        "output identical",
    ]);
    for job in &jobs {
        // Healthy run.
        let mut healthy = make_grid();
        let healthy_out = run_job(&mut healthy, job.as_ref()).expect("healthy run");
        // Failure-mode run: kill a node, map tasks reconstruct via
        // degraded reads.
        let mut degraded = make_grid();
        degraded.fail_node(NodeId(0));
        let degraded_out = run_job(&mut degraded, job.as_ref()).expect("degraded run");
        table.row(&[
            job.name().to_string(),
            degraded_out.results.len().to_string(),
            degraded_out.total().to_string(),
            degraded_out.stats.degraded_reads.to_string(),
            degraded_out.stats.blocks_transferred.to_string(),
            degraded_out.stats.cross_rack_transfers.to_string(),
            (healthy_out.results == degraded_out.results).to_string(),
        ]);
    }
    table.print("real map/reduce over an erasure-coded store, node0 failed");

    // Show WordCount's head.
    let mut grid = make_grid();
    grid.fail_node(NodeId(0));
    let out = run_job(&mut grid, &WordCount).expect("wordcount");
    let mut top: Vec<(&str, u64)> = out.results.iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut head = Table::new(&["word", "count"]);
    for (word, count) in top.into_iter().take(10) {
        head.row(&[word.to_string(), count.to_string()]);
    }
    head.print("top-10 words (reconstructed data)");
}
