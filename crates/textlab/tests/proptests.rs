//! Property-based tests for the real-bytes data path: Hadoop-style
//! record splitting must be exact for arbitrary corpora and block sizes,
//! in both healthy and failure mode, including bytes that are not
//! valid UTF-8.

use cluster::{NodeId, Topology};
use erasure::CodeParams;
use proptest::prelude::*;
use std::collections::BTreeMap;
use textlab::{run_job, Grep, KeyCounts, LineCount, MiniGrid, TextJob, WordCount};

fn corpus() -> impl Strategy<Value = Vec<u8>> {
    // Arbitrary printable-ish text with whitespace and newlines,
    // including empty lines, no trailing-newline cases, and long words.
    proptest::collection::vec(
        prop_oneof![
            8 => prop_oneof![Just(b'a'), Just(b'b'), Just(b'w'), Just(b'z')],
            2 => Just(b' '),
            1 => Just(b'\n'),
        ],
        1..2000,
    )
}

fn oracle_wordcount(text: &[u8]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for line in String::from_utf8_lossy(text).lines() {
        for w in line.split_whitespace() {
            *counts.entry(w.to_string()).or_default() += 1;
        }
    }
    counts
}

fn oracle_linecount(text: &[u8]) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for line in String::from_utf8_lossy(text).lines() {
        *counts.entry(line.to_string()).or_default() += 1;
    }
    counts
}

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    // Pieces that stress record splitting and the jobs' fast paths:
    // multi-byte UTF-8 (a block boundary may cut any of them), every
    // ASCII whitespace byte and some Unicode whitespace (U+0085, U+00A0,
    // U+2028, U+3000), invalid bytes, NULs, runs of newlines that make
    // empty lines, words around the 8-, 16- and 64-byte marks, and line
    // starts that share a 16-byte prefix, one of them a whole line that
    // repeats (so blocks share long keys the reduce must merge).
    let fixed = |bytes: &'static [u8]| Just(bytes.to_vec());
    let word = |len: std::ops::RangeInclusive<usize>| {
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'z')], len)
    };
    let piece = prop_oneof![
        6 => prop_oneof![fixed(b"a"), fixed(b"b"), fixed(b" ")],
        2 => fixed(b"\n"),
        1 => fixed(b"\r"),
        1 => prop_oneof![fixed(b"\t"), fixed(b"\x0B"), fixed(b"\x0C")],
        1 => fixed(b"\xFF"),
        1 => fixed(b"\0"),
        1 => fixed("\u{e9}".as_bytes()),
        1 => fixed("\u{20ac}".as_bytes()),
        1 => fixed("\u{1d11e}".as_bytes()),
        1 => prop_oneof![
            fixed("\u{85}".as_bytes()),
            fixed("\u{a0}".as_bytes()),
            fixed("\u{2028}".as_bytes()),
            fixed("\u{3000}".as_bytes()),
        ],
        2 => prop_oneof![word(7..=9), word(15..=17), word(63..=65)],
        2 => fixed(b"\nsixteen byte pre"),
        1 => fixed(b"\nsixteen byte prefix of a repeated line\n"),
    ];
    proptest::collection::vec(piece, 1..600).prop_map(|pieces| pieces.concat())
}

/// The records `run_job` documents: the whole file split on `b'\n'`
/// only (a `\r` stays in its line), the empty piece after a final
/// newline dropped, each record decoded with `from_utf8_lossy`.
fn oracle_records(text: &[u8]) -> Vec<String> {
    let mut records: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    if records.last().is_some_and(|r| r.is_empty()) {
        records.pop();
    }
    records
        .into_iter()
        .map(|r| String::from_utf8_lossy(r).into_owned())
        .collect()
}

fn count<'a>(keys: impl Iterator<Item = &'a str>) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for key in keys {
        *counts.entry(key.to_string()).or_default() += 1;
    }
    counts
}

/// A job's output as the map the oracles build.
fn map(counts: &KeyCounts) -> BTreeMap<String, u64> {
    counts
        .iter()
        .map(|(key, count)| (key.to_string(), count))
        .collect()
}

/// Keys on both sides of the 16-byte short-key limit and of 8-byte
/// digits, with shared prefixes, trailing NULs and multi-byte UTF-8.
fn key() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        4 => prop_oneof![Just("a"), Just("b"), Just("z")],
        1 => Just("\0"),
        1 => Just("\u{e9}"),
        1 => Just("\u{1d11e}"),
        1 => Just("sixteen byte pre"),
    ];
    proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
}

proptest! {
    #[test]
    fn record_splitting_is_exact_over_arbitrary_bytes(
        text in arbitrary_bytes(),
        block_size in 1usize..=4096,
        fail in proptest::option::of(0u32..6),
        seed in any::<u64>(),
    ) {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let mut grid = MiniGrid::new(
            topo,
            CodeParams::new(4, 2).unwrap(),
            block_size,
            &text,
            seed,
        )
        .unwrap();
        if let Some(f) = fail {
            grid.fail_node(NodeId(f));
        }
        let records = oracle_records(&text);
        let wc = run_job(&mut grid, &WordCount).unwrap();
        prop_assert_eq!(
            map(&wc.results),
            count(records.iter().flat_map(|r| r.split_whitespace()))
        );
        let lc = run_job(&mut grid, &LineCount).unwrap();
        prop_assert_eq!(map(&lc.results), count(records.iter().map(String::as_str)));
        // A multi-byte needle, ASCII ones that end in the same byte they
        // start with or overlap themselves, and the ones no line can hold
        // (a newline) or every line holds (empty).
        for needle in ["\u{e9}", "aza", "zz", "a b", "pre\n", ""] {
            let grep = run_job(&mut grid, &Grep::new(needle)).unwrap();
            prop_assert_eq!(
                map(&grep.results),
                count(records.iter().map(String::as_str).filter(|r| r.contains(needle)))
            );
        }
    }

    #[test]
    fn block_splitting_never_corrupts_records(
        text in corpus(),
        block_size in 1usize..128,
        fail in proptest::option::of(0u32..6),
        seed in any::<u64>(),
    ) {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let mut grid = MiniGrid::new(
            topo,
            CodeParams::new(4, 2).unwrap(),
            block_size,
            &text,
            seed,
        )
        .unwrap();
        if let Some(f) = fail {
            grid.fail_node(NodeId(f));
        }
        let wc = run_job(&mut grid, &WordCount).unwrap();
        prop_assert_eq!(map(&wc.results), oracle_wordcount(&text));
        let lc = run_job(&mut grid, &LineCount).unwrap();
        prop_assert_eq!(map(&lc.results), oracle_linecount(&text));
    }

    #[test]
    fn grep_agrees_with_linewise_oracle(
        text in corpus(),
        block_size in 1usize..64,
        seed in any::<u64>(),
    ) {
        let needle = "w";
        let topo = Topology::homogeneous(2, 3, 2, 1);
        let mut grid = MiniGrid::new(
            topo,
            CodeParams::new(4, 2).unwrap(),
            block_size,
            &text,
            seed,
        )
        .unwrap();
        grid.fail_node(NodeId(1));
        let out = run_job(&mut grid, &Grep::new(needle)).unwrap();
        let oracle: u64 = String::from_utf8_lossy(&text)
            .lines()
            .filter(|l| l.contains(needle))
            .count() as u64;
        prop_assert_eq!(out.total(), oracle);
    }

    #[test]
    fn file_split_group_preserves_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 1..512),
        block_size in 1usize..64,
        k in 1usize..6,
        fail in proptest::option::of(0u32..8),
        seed in any::<u64>(),
    ) {
        // The grid cuts the file into zero-padded blocks and groups
        // them into (k+2, k) stripes padded with zero blocks; reading
        // back, degraded or not, returns exactly the file's bytes.
        let topo = Topology::homogeneous(2, 4, 2, 1);
        let params = CodeParams::new(k + 2, k).unwrap();
        let mut grid = MiniGrid::new(topo, params, block_size, &bytes, seed).unwrap();
        let expected_blocks = bytes.len().div_ceil(block_size);
        prop_assert_eq!(grid.num_data_blocks(), expected_blocks);
        prop_assert_eq!(grid.num_native_blocks(), expected_blocks.div_ceil(k) * k);
        if let Some(f) = fail {
            grid.fail_node(NodeId(f));
        }
        prop_assert_eq!(grid.read_file().unwrap(), bytes);
    }

    #[test]
    fn key_counts_match_a_btree_map(
        pairs in proptest::collection::vec((key(), 0u64..1 << 40), 0..300),
        absent in proptest::collection::vec(key(), 0..20),
    ) {
        let counts: KeyCounts = pairs.iter().map(|(k, c)| (k.as_str(), *c)).collect();
        let mut oracle: BTreeMap<String, u64> = BTreeMap::new();
        for (key, count) in &pairs {
            *oracle.entry(key.clone()).or_default() += count;
        }
        prop_assert!(counts.iter().eq(oracle.iter().map(|(k, &c)| (k.as_str(), c))));
        prop_assert!(counts.iter().rev().eq(oracle.iter().rev().map(|(k, &c)| (k.as_str(), c))));
        prop_assert_eq!(counts.len(), oracle.len());
        prop_assert_eq!(counts.is_empty(), oracle.is_empty());
        for key in oracle.keys().chain(&absent) {
            prop_assert_eq!(counts.get(key), oracle.get(key).copied());
        }
        prop_assert_eq!(counts.total(), oracle.values().sum::<u64>());
        prop_assert_eq!(format!("{counts:?}"), format!("{oracle:?}"));
        prop_assert_eq!(format!("{counts:#?}"), format!("{oracle:#?}"));
        // Equality is on the pairs, not on how the keys were laid out.
        let reversed: KeyCounts = pairs.iter().rev().map(|(k, c)| (k.as_str(), *c)).collect();
        prop_assert_eq!(&reversed, &counts);
        prop_assert_eq!(&counts.clone(), &counts);
    }

    #[test]
    fn map_line_is_pure(line in "[a-z ]{0,40}") {
        // The same line always emits the same pairs, for every job.
        let jobs: Vec<Box<dyn TextJob>> = vec![
            Box::new(WordCount),
            Box::new(LineCount),
            Box::new(Grep::new("a")),
        ];
        for job in &jobs {
            let collect = || {
                let mut out = Vec::new();
                job.map_line(&line, &mut |k, v| out.push((k, v)));
                out
            };
            prop_assert_eq!(collect(), collect());
        }
    }
}
