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
//! # Map
//!
//! A live block is lent by the grid, not copied; only a lost one is
//! rebuilt. Its complete lines, everything between its first and last
//! newline, are checked as UTF-8 once and handed to
//! [`TextJob::map_lines`] as one `&str`, so keys borrow from the block
//! and mapping allocates nothing. Only the record that straddles a block
//! boundary is copied, and only a block that is not valid UTF-8 is
//! decoded line by line with [`String::from_utf8_lossy`]. WordCount
//! finds the words of ASCII text 64 bytes at a time, from a
//! word-at-a-time whitespace mask; Grep searches the whole run for its
//! needle, eight positions at a time, and widens each match to its line.
//!
//! # Combine
//!
//! Each block's pairs go through a [`Combiner`], as in Hadoop. A key of
//! at most 16 bytes is packed into two zero-padded words plus its length
//! and counted in an open-addressed table: equal keys are equal integers,
//! so a hit hashes, compares and copies no bytes. The table owns its
//! keys and lives for the whole job. A longer key goes to a per-block
//! hash map from borrowed key to count, whose hasher (Fx, word at a
//! time) takes no random seed, so nothing depends on process randomness.
//! At the end of the block the map's distinct keys are copied out once:
//! their bytes to the end of the job's key arena, one string, and an
//! entry per key, holding its offset, length and count, to the job's
//! run. The arena and the run grow to the size projected from the blocks
//! mapped so far, not by doubling, so they are seldom copied and leave
//! no trail of freed buffers.
//!
//! # Reduce
//!
//! The table's keys join the arena and the run, and the run is sorted by
//! key, most significant 8-byte digit first: entries carry their key's
//! current big-endian digit, so most comparisons are between integers,
//! and only a group that ties on a digit reads its keys again, from the
//! arena, for the next one. Equal neighbours merge by summing their
//! counts. The output, a [`KeyCounts`], keeps the arena as it is and
//! takes the unique entries without their digits, converted in the run's
//! own buffer: no key is allocated on its own, and dropping an output
//! frees two buffers.
//!
//! The output does not depend on hash or table order: after the merge
//! every key appears once, and a sum of `u64` counts is the same in any
//! order.

use std::borrow::Cow;
use std::collections::HashMap;
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

    /// Maps a run of complete lines into `combiner`: `lines` is one or
    /// more lines joined by `'\n'`, without a final newline. An override
    /// must add exactly the pairs [`map_line`](TextJob::map_line) emits
    /// for each line, which is what the default does.
    fn map_lines<'a>(&self, lines: &'a str, combiner: &mut Combiner<'a>) {
        map_each_line(self, lines, combiner);
    }
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

    fn map_lines<'a>(&self, lines: &'a str, combiner: &mut Combiner<'a>) {
        // A newline is whitespace, so the run's words are its lines'.
        if lines.is_ascii() {
            for_each_ascii_word(lines.as_bytes(), |start, end| {
                combiner.add_word(lines, start, end);
            });
        } else {
            for word in lines.split_whitespace() {
                combiner.add(word, 1);
            }
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

    fn map_lines<'a>(&self, lines: &'a str, combiner: &mut Combiner<'a>) {
        let needle = self.needle.as_str();
        if needle.is_empty() || needle.contains('\n') {
            // Every line holds an empty needle, and none a newline.
            map_each_line(self, lines, combiner);
            return;
        }
        // Search the whole run; widen each match to its line and go on
        // after that line.
        let mut from = 0;
        while let Some(at) = find(lines.as_bytes(), needle.as_bytes(), from) {
            let start = lines[from..at].rfind('\n').map_or(from, |i| from + i + 1);
            let end = lines[at..].find('\n').map_or(lines.len(), |i| at + i);
            combiner.add(&lines[start..end], 1);
            if end == lines.len() {
                break;
            }
            from = end + 1;
        }
    }
}

/// The first position at or after `from` where the non-empty `needle`
/// occurs in `haystack`. Eight positions are tested at once: a match
/// starts where the byte equals the needle's first byte and the byte
/// `needle.len() − 1` further on equals its last, and only positions
/// that pass both are compared in full.
fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOWS: u64 = !(ONES << 7);
    let last = needle.len() - 1;
    let first_byte = ONES * u64::from(needle[0]);
    let last_byte = ONES * u64::from(needle[last]);
    let word = |at: usize| {
        haystack[at..]
            .first_chunk()
            .map_or(0, |w| u64::from_le_bytes(*w))
    };
    let mut at = from;
    while at + last + 8 <= haystack.len() {
        let x = (word(at) ^ first_byte) | (word(at + last) ^ last_byte);
        // The top bit of each byte that is zero in `x`, exactly.
        let mut hits = !((x & LOWS).wrapping_add(LOWS) | x) & !LOWS;
        while hits != 0 {
            let candidate = at + (hits.trailing_zeros() / 8) as usize;
            if haystack[candidate..].starts_with(needle) {
                return Some(candidate);
            }
            hits &= hits - 1;
        }
        at += 8;
    }
    (at..haystack.len().saturating_sub(last)).find(|&at| haystack[at..].starts_with(needle))
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
    pub results: KeyCounts,
    /// Grid read statistics attributable to this job.
    pub stats: ReadStats,
}

impl JobOutput {
    /// Total emitted count across all keys.
    pub fn total(&self) -> u64 {
        self.results.total()
    }
}

/// A key → count table sorted by key, each key once, whose keys share
/// one string. Equality compares the pairs, and `Debug` prints them as
/// a `BTreeMap<String, u64>` would.
///
/// Collecting `(key, count)` pairs sums the counts of equal keys:
///
/// ```
/// use textlab::KeyCounts;
///
/// let counts: KeyCounts = [("b", 1), ("a", 2), ("b", 3)].into_iter().collect();
/// assert_eq!(counts.iter().collect::<Vec<_>>(), [("a", 2), ("b", 4)]);
/// assert_eq!(counts.get("b"), Some(4));
/// assert_eq!(format!("{counts:?}"), r#"{"a": 2, "b": 4}"#);
/// ```
#[derive(Clone)]
pub struct KeyCounts {
    /// The keys' bytes, at the offsets the entries give. Bytes of keys
    /// merged away stay, unreferenced.
    keys: String,
    /// One entry per key, in key order.
    entries: Vec<KeyCount>,
}

/// A [`KeyCounts`] entry: its key is `keys[offset..offset + len]`.
#[derive(Clone, Copy)]
struct KeyCount {
    offset: u32,
    len: u32,
    count: u64,
}

impl KeyCounts {
    /// The number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(key, count)` pairs in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&str, u64)> + ExactSizeIterator + '_ {
        self.entries
            .iter()
            .map(|entry| (self.key(entry), entry.count))
    }

    /// The count of `key`, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries
            .binary_search_by(|entry| self.key(entry).cmp(key))
            .ok()
            .map(|i| self.entries[i].count)
    }

    /// The sum of all counts.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|entry| entry.count).sum()
    }

    fn key(&self, entry: &KeyCount) -> &str {
        &self.keys[entry.offset as usize..][..entry.len as usize]
    }
}

impl<'a> FromIterator<(&'a str, u64)> for KeyCounts {
    /// Sums the counts of equal keys, through the same reduce as
    /// [`run_job`].
    fn from_iter<I: IntoIterator<Item = (&'a str, u64)>>(pairs: I) -> KeyCounts {
        let mut reduce = Reduce::new(1);
        for (key, count) in pairs {
            reduce.add(key, count);
        }
        reduce.finish()
    }
}

impl PartialEq for KeyCounts {
    fn eq(&self, other: &KeyCounts) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for KeyCounts {}

impl std::fmt::Debug for KeyCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One block's combiner, handed to [`TextJob::map_lines`]: it sums the
/// counts of equal keys before they reach the reduce (see the
/// [module docs](self)).
pub struct Combiner<'a> {
    reduce: &'a mut Reduce,
    /// Keys longer than [`ShortKey`] holds, borrowed from the block.
    long: HashMap<&'a str, u64, BuildHasherDefault<KeyHasher>>,
}

impl<'a> Combiner<'a> {
    fn new(reduce: &'a mut Reduce) -> Combiner<'a> {
        let long = HashMap::with_capacity_and_hasher(reduce.long_distinct, Default::default());
        Combiner { reduce, long }
    }

    /// Adds `count` to `key`.
    #[inline]
    pub fn add(&mut self, key: &'a str, count: u64) {
        match ShortKey::new(key.as_bytes()) {
            Some(short) => self.reduce.short.add(short, count),
            None => *self.long.entry(key).or_default() += count,
        }
    }

    /// Adds one to the word `text[start..end]`. Where `text` has 16
    /// bytes from `start` on, a short word is packed from one load and a
    /// mask instead of a branch per length.
    #[inline]
    fn add_word(&mut self, text: &'a str, start: usize, end: usize) {
        let window = text.as_bytes()[start..].first_chunk::<16>();
        match window {
            Some(window) if end - start <= 16 => self
                .reduce
                .short
                .add(ShortKey::from_window(window, end - start), 1),
            _ => self.add(&text[start..end], 1),
        }
    }

    /// Maps one record outside a valid UTF-8 run, decoded with
    /// [`String::from_utf8_lossy`]. A valid record's keys borrow it; a
    /// decoded copy's keys die with this call, so its long keys go
    /// straight into the arena and the run.
    fn add_record(&mut self, job: &dyn TextJob, record: &'a [u8]) {
        match String::from_utf8_lossy(record) {
            Cow::Borrowed(line) => job.map_line(line, &mut |key, count| self.add(key, count)),
            Cow::Owned(line) => job.map_line(&line, &mut |key, count| self.reduce.add(key, count)),
        }
    }

    /// Ends the block: its long keys join the arena and the run.
    fn finish(self) {
        let reduce = self.reduce;
        reduce.long_distinct = self.long.len();
        reduce.mapped += 1;
        // Grow toward the whole job's run and arena, projected from the
        // blocks mapped so far with an eighth to spare, rather than
        // doubling from empty: each doubling copies the buffer and
        // leaves the old one as a hole in the heap.
        let (blocks, mapped) = (reduce.blocks, reduce.mapped);
        let projected = |len: usize| (len.saturating_mul(blocks) / mapped * 9 / 8).max(len);
        let len = reduce.run.len() + self.long.len();
        if len > reduce.run.capacity() {
            reduce.run.reserve(projected(len) - reduce.run.len());
        }
        let len = reduce.keys.len() + self.long.keys().map(|key| key.len()).sum::<usize>();
        if len > reduce.keys.capacity() {
            reduce.keys.reserve(projected(len) - reduce.keys.len());
        }
        for (key, count) in self.long {
            reduce.push_long(key, count);
        }
    }
}

/// Maps each line of `lines` with [`TextJob::map_line`].
fn map_each_line<'a>(job: &(impl TextJob + ?Sized), lines: &'a str, combiner: &mut Combiner<'a>) {
    for line in lines.split('\n') {
        job.map_line(line, &mut |key, count| combiner.add(key, count));
    }
}

/// A key of at most 16 bytes: its bytes as two zero-padded
/// little-endian words, plus its length (so `"a"` and `"a\0"` differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShortKey {
    lo: u64,
    hi: u64,
    len: u64,
}

impl ShortKey {
    /// The length that marks an empty [`ShortKeys`] slot.
    const VACANT: u64 = u64::MAX;

    /// Packs `key`, or `None` if it is longer than 16 bytes. Each length
    /// class reads the key with at most two overlapping loads, so no
    /// byte is copied one at a time.
    #[inline]
    fn new(key: &[u8]) -> Option<ShortKey> {
        let len = key.len();
        let le32 = |b: &[u8]| {
            b.first_chunk()
                .map_or(0, |w| u64::from(u32::from_le_bytes(*w)))
        };
        let le64 = |b: &[u8]| b.first_chunk().map_or(0, |w| u64::from_le_bytes(*w));
        let (lo, hi) = match len {
            0 => (0, 0),
            1..=3 => (
                u64::from(key[0])
                    | u64::from(key[len / 2]) << (len / 2 * 8)
                    | u64::from(key[len - 1]) << ((len - 1) * 8),
                0,
            ),
            4..=7 => (le32(key) | le32(&key[len - 4..]) << ((len - 4) * 8), 0),
            8..=16 => (
                le64(key),
                le64(&key[len - 8..])
                    .checked_shr((16 - len as u32) * 8)
                    .unwrap_or(0),
            ),
            _ => return None,
        };
        Some(ShortKey {
            lo,
            hi,
            len: len as u64,
        })
    }

    /// Packs the key that is the first `len <= 16` bytes of `window`.
    #[inline]
    fn from_window(window: &[u8; 16], len: usize) -> ShortKey {
        let keep = 1u128
            .checked_shl(len as u32 * 8)
            .map_or(u128::MAX, |bit| bit - 1);
        let bytes = u128::from_le_bytes(*window) & keep;
        ShortKey {
            lo: bytes as u64,
            hi: (bytes >> 64) as u64,
            len: len as u64,
        }
    }

    /// A multiplicative hash; [`ShortKeys`] indexes by its top bits.
    fn hash(&self) -> u64 {
        (self.lo ^ self.hi.rotate_left(29) ^ self.len).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// The key's bytes, zero-padded: the first `len` are the key.
    fn bytes(self) -> [u8; 16] {
        (u128::from(self.hi) << 64 | u128::from(self.lo)).to_le_bytes()
    }
}

/// A job's short keys and their counts: an open-addressed table with
/// linear probing, at most a quarter full (a collision costs a
/// mispredicted branch), that owns its keys and so lives for the whole
/// job.
struct ShortKeys {
    /// Power-of-two many slots; a vacant one has length
    /// [`ShortKey::VACANT`].
    slots: Vec<(ShortKey, u64)>,
    len: usize,
}

impl ShortKeys {
    fn new() -> ShortKeys {
        ShortKeys {
            slots: Self::vacant(64),
            len: 0,
        }
    }

    fn vacant(slots: usize) -> Vec<(ShortKey, u64)> {
        let vacant = ShortKey {
            lo: 0,
            hi: 0,
            len: ShortKey::VACANT,
        };
        vec![(vacant, 0); slots]
    }

    #[inline]
    fn add(&mut self, key: ShortKey, count: u64) {
        let shift = 64 - self.slots.len().trailing_zeros();
        let mask = self.slots.len() - 1;
        let mut i = (key.hash() >> shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                slot.1 += count;
                return;
            }
            if slot.0.len == ShortKey::VACANT {
                *slot = (key, count);
                self.len += 1;
                if self.len * 4 > self.slots.len() {
                    self.grow();
                }
                return;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let slots = Self::vacant(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, slots);
        self.len = 0;
        for (key, count) in old {
            if key.len != ShortKey::VACANT {
                self.add(key, count);
            }
        }
    }

    /// Appends each key's bytes to `keys` and its entry to `run`.
    fn drain_into(self, keys: &mut String, run: &mut Vec<Entry>) {
        let occupied = || {
            self.slots
                .iter()
                .filter(|(key, _)| key.len != ShortKey::VACANT)
        };
        keys.reserve_exact(occupied().map(|(key, _)| key.len as usize).sum());
        run.reserve_exact(self.len);
        for &(key, count) in occupied() {
            // The bytes of a `&str`, so the lossy decode replaces nothing.
            let (offset, len) = push_key(
                keys,
                &String::from_utf8_lossy(&key.bytes()[..key.len as usize]),
            );
            run.push(Entry {
                // The key's first eight bytes, big-endian.
                digit: key.lo.swap_bytes(),
                offset,
                len,
                count,
            });
        }
    }
}

/// A multiplicative word-at-a-time hasher (the Fx hash), seeded with
/// zero, for the keys too long for [`ShortKeys`]. Runs must not depend
/// on a random seed, and SipHash with fixed, public keys resists crafted
/// collisions no better, so the faster hash gives up no protection. The
/// tail of a key is packed like a [`ShortKey`], and `str`'s terminating
/// byte is taken as one word, so no byte goes through `memcpy`.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.add(u64::from_le_bytes(*word));
        }
        self.add(ShortKey::new(tail).map_or(0, |key| key.lo));
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A run entry: the digit its sort compares, where its key lies in the
/// job's key arena, and its count.
struct Entry {
    digit: u64,
    offset: u32,
    len: u32,
    count: u64,
}

impl Entry {
    /// The entry's key in `keys`, the arena.
    fn key<'k>(&self, keys: &'k [u8]) -> &'k [u8] {
        &keys[self.offset as usize..][..self.len as usize]
    }
}

/// Appends `key` to the arena `keys`; returns its offset and length.
fn push_key(keys: &mut String, key: &str) -> (u32, u32) {
    let offset = keys.len();
    keys.push_str(key);
    assert!(u32::try_from(keys.len()).is_ok(), "key arena outgrew 4 GiB");
    (offset as u32, key.len() as u32)
}

/// Bytes `offset..offset + 8` of `key` as a big-endian word, zero past
/// the key's end. Between keys that agree on their first `offset` bytes,
/// a smaller digit means a smaller key; an equal digit decides nothing
/// (`"ab"` and `"ab\0"` share theirs).
fn digit(key: &[u8], offset: usize) -> u64 {
    let tail = key.get(offset..).unwrap_or_default();
    match tail.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
    }
}

/// Groups no larger than this are sorted by comparing keys.
const SMALL_GROUP: usize = 8;

/// The digit offset from which the sort compares keys instead, which
/// bounds its recursion.
const MAX_DIGIT_OFFSET: usize = 64;

/// Sorts `run`, whose keys lie in the arena `keys`, by key, most
/// significant digit first. Every key in `run` agrees on its first
/// `offset` bytes, and each entry's digit is its key's [`digit`] at
/// `offset`. The sort orders by digit; each group of equal digits then
/// gets its next digit and is sorted again. Only a small group, or one
/// whose keys share a long prefix, compares keys.
fn sort_run(run: &mut [Entry], keys: &[u8], offset: usize) {
    run.sort_unstable_by_key(|entry| entry.digit);
    for group in run.chunk_by_mut(|a, b| a.digit == b.digit) {
        if group.len() < 2 {
            continue;
        }
        if group.len() <= SMALL_GROUP || offset + 8 >= MAX_DIGIT_OFFSET {
            group.sort_unstable_by(|a, b| a.key(keys).cmp(b.key(keys)));
        } else {
            for entry in group.iter_mut() {
                entry.digit = digit(entry.key(keys), offset + 8);
            }
            sort_run(group, keys, offset + 8);
        }
    }
}

/// A job's reduce state across blocks.
struct Reduce {
    short: ShortKeys,
    /// The key arena: every block's long keys, back to back, and at the
    /// end the short keys.
    keys: String,
    /// An entry per block and long key.
    run: Vec<Entry>,
    /// The last block's count of distinct long keys, to size the next
    /// block's map.
    long_distinct: usize,
    /// The job's blocks, and how many have been mapped.
    blocks: usize,
    mapped: usize,
}

impl Reduce {
    fn new(blocks: usize) -> Reduce {
        Reduce {
            short: ShortKeys::new(),
            keys: String::new(),
            run: Vec::new(),
            long_distinct: 0,
            blocks,
            mapped: 0,
        }
    }

    /// Adds `count` to `key`, which outlives no block: a short key goes
    /// to the table, a long one to the arena and the run.
    fn add(&mut self, key: &str, count: u64) {
        match ShortKey::new(key.as_bytes()) {
            Some(short) => self.short.add(short, count),
            None => self.push_long(key, count),
        }
    }

    /// Appends a long key to the arena and its entry to the run.
    fn push_long(&mut self, key: &str, count: u64) {
        let (offset, len) = push_key(&mut self.keys, key);
        self.run.push(Entry {
            digit: digit(key.as_bytes(), 0),
            offset,
            len,
            count,
        });
    }

    /// Sorts the run and the table's keys together, merges equal keys
    /// and turns the sorted, unique entries into the output in place.
    fn finish(self) -> KeyCounts {
        let Reduce {
            short,
            mut keys,
            mut run,
            ..
        } = self;
        short.drain_into(&mut keys, &mut run);
        sort_run(&mut run, keys.as_bytes(), 0);
        run.dedup_by(|next, kept| {
            let same = next.key(keys.as_bytes()) == kept.key(keys.as_bytes());
            if same {
                kept.count += next.count;
            }
            same
        });
        // An `Entry` is as aligned as a `KeyCount` and larger, so this
        // collect reuses the run's buffer.
        let entries = run
            .into_iter()
            .map(|entry| KeyCount {
                offset: entry.offset,
                len: entry.len,
                count: entry.count,
            })
            .collect();
        KeyCounts { keys, entries }
    }
}

/// Calls `word(start, end)` for each word of the ASCII text `text`, in
/// order: the maximal runs of bytes other than `\t`, `\n`, `\x0B`,
/// `\x0C`, `\r` and space, which are `split_whitespace`'s ASCII
/// whitespace. Works 64 bytes at a time: in a mask with one bit per
/// whitespace byte, the bits that differ from the bit before them
/// alternate between word starts and word ends.
fn for_each_ascii_word(text: &[u8], mut word: impl FnMut(usize, usize)) {
    let (chunks, rest) = text.as_chunks::<64>();
    // The text is padded to whole chunks with spaces, which also end a
    // word that runs to the text's end.
    let mut tail = [b' '; 64];
    tail[..rest.len()].copy_from_slice(rest);
    let mut start = 0;
    // Bit 0 is set when the byte before the chunk is whitespace; the
    // text's start counts as whitespace.
    let mut space_before = 1;
    for (n, chunk) in chunks.iter().chain([&tail]).enumerate() {
        let space = whitespace_mask(chunk);
        let mut edges = space ^ (space << 1 | space_before);
        space_before = space >> 63;
        while edges != 0 {
            let bit = edges.trailing_zeros();
            let at = n * 64 + bit as usize;
            if space >> bit & 1 == 0 {
                start = at;
            } else {
                word(start, at);
            }
            edges &= edges - 1;
        }
    }
}

/// Bit `i` is set when `chunk[i]` is ASCII whitespace; `chunk` is
/// ASCII. Eight bytes at a time, each byte's test lands in its top bit
/// without carrying into the next byte, and a multiply gathers the
/// eight top bits into one byte.
fn whitespace_mask(chunk: &[u8; 64]) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const TOPS: u64 = ONES << 7;
    let mut mask = 0;
    for (i, word) in chunk.as_chunks::<8>().0.iter().enumerate() {
        let v = u64::from_le_bytes(*word);
        // A byte below 0x80 plus 0x80 − c has its top bit set iff it is
        // at least c: here `\t..=\r` is at least 0x09 and not 0x0E.
        let control = v.wrapping_add(ONES * (0x80 - 0x09)) & !v.wrapping_add(ONES * (0x80 - 0x0E));
        // Spaces are the zero bytes of `v ^ "        "`.
        let x = v ^ (ONES * u64::from(b' '));
        let space = !((x & !TOPS).wrapping_add(!TOPS) | x);
        let tops = (control | space) & TOPS;
        mask |= ((tops >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    mask
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
    let mut reduce = Reduce::new(blocks);
    // The record that straddles into the current block, as read so far.
    let mut carry: Vec<u8> = Vec::new();
    for i in 0..blocks {
        let block = grid.read_native(i)?;
        // Trim zero padding on the final block.
        let bytes = &block[..(file_len - i * block.len()).min(block.len())];
        let newline = |b: &u8| *b == b'\n';
        let (Some(first), Some(last)) = (
            bytes.iter().position(newline),
            bytes.iter().rposition(newline),
        ) else {
            carry.extend_from_slice(bytes);
            continue;
        };
        // The carried record ends at this block's first newline; the
        // complete lines after it are mapped in place.
        carry.extend_from_slice(&bytes[..first]);
        let mut combiner = Combiner::new(&mut reduce);
        combiner.add_record(job, &carry);
        if first < last {
            let lines = &bytes[first + 1..last];
            match std::str::from_utf8(lines) {
                Ok(lines) => job.map_lines(lines, &mut combiner),
                Err(_) => {
                    for line in lines.split(newline) {
                        combiner.add_record(job, line);
                    }
                }
            }
        }
        combiner.finish();
        carry.clear();
        carry.extend_from_slice(&bytes[last + 1..]);
    }
    if !carry.is_empty() {
        let mut combiner = Combiner::new(&mut reduce);
        combiner.add_record(job, &carry);
        combiner.finish();
    }
    let results = reduce.finish();

    let after = grid.stats();
    let stats = ReadStats {
        direct_reads: after.direct_reads - before.direct_reads,
        degraded_reads: after.degraded_reads - before.degraded_reads,
        blocks_transferred: after.blocks_transferred - before.blocks_transferred,
        cross_rack_transfers: after.cross_rack_transfers - before.cross_rack_transfers,
    };
    Ok(JobOutput { results, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use cluster::{NodeId, Topology};
    use erasure::CodeParams;
    use std::collections::BTreeMap;

    fn make_grid(text: &[u8], block: usize) -> MiniGrid {
        let topo = Topology::homogeneous(2, 3, 2, 1);
        MiniGrid::new(topo, CodeParams::new(4, 2).unwrap(), block, text, 11).unwrap()
    }

    #[test]
    fn wordcount_matches_oracle() {
        let text = b"the whale the sea\nthe captain\n".to_vec();
        let mut grid = make_grid(&text, 8); // tiny blocks force splits
        let out = run_job(&mut grid, &WordCount).unwrap();
        assert_eq!(out.results.get("the"), Some(3));
        assert_eq!(out.results.get("whale"), Some(1));
        assert_eq!(out.results.get("sea"), Some(1));
        assert_eq!(out.results.get("captain"), Some(1));
        assert_eq!(out.results.get("ship"), None);
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
            assert!(
                out.results
                    .iter()
                    .eq(oracle.iter().map(|(k, &c)| (k.as_str(), c))),
                "block size {block}"
            );
        }
    }

    #[test]
    fn grep_finds_matching_lines() {
        let text = b"the whale swims\nno match here\nwhale again\n".to_vec();
        let mut grid = make_grid(&text, 16);
        let out = run_job(&mut grid, &Grep::new("whale")).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.results.get("the whale swims"), Some(1));
        assert_eq!(out.results.get("whale again"), Some(1));
    }

    #[test]
    fn linecount_counts_duplicates() {
        let text = b"alpha\nbeta\nalpha\n".to_vec();
        let mut grid = make_grid(&text, 4);
        let out = run_job(&mut grid, &LineCount).unwrap();
        assert_eq!(out.results.get("alpha"), Some(2));
        assert_eq!(out.results.get("beta"), Some(1));
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
    fn sort_run_breaks_digit_ties_by_key() {
        // Keys that tie on one or more 8-byte digits: equal up to
        // trailing NULs, sharing a 16-byte prefix, sharing more than
        // `MAX_DIGIT_OFFSET` bytes, and groups both smaller and larger
        // than `SMALL_GROUP`.
        let long = "x".repeat(MAX_DIGIT_OFFSET + 3);
        let mut keys: Vec<String> = vec![
            "ab".into(),
            "ab\0".into(),
            "ab\0\0\0\0\0\0\0\0".into(),
            "ab\0\0\0\0\0\0\0\0\0".into(),
            "".into(),
            "\0".into(),
            "\u{e9}t\u{e9}".into(),
        ];
        for i in 0..3 * SMALL_GROUP {
            keys.push(format!("sixteen byte pre{}", i % 11));
            keys.push(format!("sixteen byte pre{i}x"));
            keys.push(format!("{long}{}", i % 5));
            keys.push(format!("{long}\0{i}"));
        }
        keys.reverse();
        let mut reduce = Reduce::new(1);
        for key in &keys {
            reduce.push_long(key, 1);
        }
        sort_run(&mut reduce.run, reduce.keys.as_bytes(), 0);
        let sorted: Vec<&[u8]> = reduce
            .run
            .iter()
            .map(|entry| entry.key(reduce.keys.as_bytes()))
            .collect();
        let mut want: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn output_entries_fit_in_run_entries() {
        // `Reduce::finish` collects the output entries in the run's
        // buffer, which needs equal alignment and no larger size.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        assert_eq!(std::mem::size_of::<KeyCount>(), 16);
        assert_eq!(
            std::mem::align_of::<Entry>(),
            std::mem::align_of::<KeyCount>()
        );
    }

    #[test]
    fn short_keys_pack_alike_from_any_source() {
        let text = b"abcdefghijklmnop\0\0qrstuvwxyz0123456789";
        let mut seen = std::collections::HashSet::new();
        for start in 0..8 {
            for len in 0..=16 {
                let key = &text[start..start + len];
                let packed = ShortKey::new(key).unwrap();
                let window = text[start..].first_chunk::<16>().unwrap();
                assert_eq!(ShortKey::from_window(window, len), packed, "{key:?}");
                assert_eq!(&packed.bytes()[..len], key);
                seen.insert((packed.lo, packed.hi, packed.len));
            }
        }
        // Distinct keys pack apart, `"a"` and `"a\0"` included.
        assert_eq!(seen.len(), 8 * 17 - 7);
        assert_ne!(ShortKey::new(b"a"), ShortKey::new(b"a\0"));
        assert_eq!(ShortKey::new(&[b'a'; 17]), None);
    }

    #[test]
    fn whitespace_mask_matches_split_whitespace() {
        for b in 0..0x80u8 {
            for at in [0, 7, 8, 31, 63] {
                let mut chunk = [b'x'; 64];
                chunk[at] = b;
                let want = if char::from(b).is_whitespace() {
                    1 << at
                } else {
                    0
                };
                assert_eq!(whitespace_mask(&chunk), want, "byte {b:#04x} at {at}");
            }
        }
    }

    #[test]
    fn ascii_words_match_split_whitespace() {
        let text = "  one\ttwo\x0Bthree\x0Cfour\r\nfive  \x1Fsix ".repeat(5);
        let mut words = Vec::new();
        for_each_ascii_word(text.as_bytes(), |start, end| words.push(&text[start..end]));
        assert_eq!(words, text.split_whitespace().collect::<Vec<_>>());
        // A word that runs to the end of a text of whole chunks.
        let text = "w".repeat(128);
        let mut words = Vec::new();
        for_each_ascii_word(text.as_bytes(), |start, end| words.push((start, end)));
        assert_eq!(words, [(0, 128)]);
    }

    #[test]
    fn find_matches_naive_search() {
        let hay = b"abaabaaabzzaaaaab0123456789aab";
        for needle in [
            &b"a"[..],
            b"aab",
            b"aaab",
            b"b",
            b"zz",
            b"9aab",
            b"abc",
            b"0123456789aab",
        ] {
            for from in 0..=hay.len() {
                let naive = (from..=hay.len().saturating_sub(needle.len()))
                    .find(|&at| hay[at..].starts_with(needle));
                assert_eq!(find(hay, needle, from), naive, "{needle:?} from {from}");
            }
        }
    }

    #[test]
    fn job_names() {
        assert_eq!(WordCount.name(), "WordCount");
        assert_eq!(Grep::new("x").name(), "Grep");
        assert_eq!(LineCount.name(), "LineCount");
    }
}
