//! Local Reconstruction Codes (LRC), as deployed in Windows Azure
//! Storage (the paper's reference \[20\]).
//!
//! An `LRC(k, l, r)` code splits `k` data blocks into `l` equal local
//! groups, adds one **local parity** per group (the XOR of its members)
//! and `r` **global parities** (Reed–Solomon rows over all `k` data
//! blocks). Total stripe width `n = k + l + r`.
//!
//! The draw is the degraded read: a single lost data block is rebuilt
//! from its local group alone — `k/l` reads instead of the `k` a
//! conventional RS degraded read needs. The paper's footnote 1 notes
//! that degraded-first scheduling "also applies to such erasure code
//! constructions"; the `lrc_study` bench quantifies how the LF/EDF gap
//! shrinks as degraded reads get cheaper.
//!
//! # Example
//!
//! ```
//! use erasure::lrc::LrcParams;
//!
//! # fn main() -> Result<(), erasure::CodeError> {
//! // Azure's production code: 12 data, 2 local, 2 global parities.
//! let lrc = LrcParams::new(12, 2, 2)?.codec()?;
//! let data: Vec<Vec<u8>> = (0..12).map(|i| vec![i as u8; 16]).collect();
//! let stripe = lrc.encode(&data)?;
//! assert_eq!(stripe.len(), 16);
//!
//! // A lost data block needs only its local group: 6 reads, not 12.
//! let sources = lrc.local_repair_group(3);
//! assert_eq!(sources.len(), 6);
//! let survivors: Vec<(usize, Vec<u8>)> =
//!     sources.iter().map(|&i| (i, stripe[i].clone())).collect();
//! assert_eq!(lrc.reconstruct_local(&survivors, 3)?, data[3]);
//! # Ok(())
//! # }
//! ```

use crate::gf256::{mul_acc_slice, Gf256};
use crate::matrix::Matrix;
use crate::CodeError;

/// Parameters of an `LRC(k, l, r)` code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LrcParams {
    k: usize,
    l: usize,
    r: usize,
}

impl LrcParams {
    /// Creates `LRC(k, l, r)` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `l ≥ 1` divides `k`,
    /// `r ≥ 1`, and the stripe fits GF(2^8) (`k + l + r ≤ 255`).
    pub fn new(k: usize, l: usize, r: usize) -> Result<LrcParams, CodeError> {
        let n = k + l + r;
        if k == 0 || l == 0 || r == 0 || !k.is_multiple_of(l) || n > 255 {
            return Err(CodeError::InvalidParams { n, k });
        }
        Ok(LrcParams { k, l, r })
    }

    /// Data blocks per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of local groups (and local parities).
    pub fn l(&self) -> usize {
        self.l
    }

    /// Number of global parities.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Total stripe width `n = k + l + r`.
    pub fn n(&self) -> usize {
        self.k + self.l + self.r
    }

    /// Data blocks per local group.
    pub fn group_size(&self) -> usize {
        self.k / self.l
    }

    /// Builds the codec.
    ///
    /// # Errors
    ///
    /// Propagates matrix construction failures.
    pub fn codec(&self) -> Result<LrcCodec, CodeError> {
        LrcCodec::new(*self)
    }
}

impl std::fmt::Display for LrcParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LRC({},{},{})", self.k, self.l, self.r)
    }
}

/// Encoder/decoder for one LRC. Stripe layout: positions `0..k` data,
/// `k..k+l` local parities (group order), `k+l..n` global parities.
#[derive(Clone, Debug)]
pub struct LrcCodec {
    params: LrcParams,
    /// `r × k` Reed–Solomon rows for the global parities, chosen so any
    /// `r` data erasures are recoverable together with the local rows.
    global_rows: Matrix,
}

impl LrcCodec {
    /// Builds the codec.
    ///
    /// # Errors
    ///
    /// Propagates matrix construction failures.
    pub fn new(params: LrcParams) -> Result<LrcCodec, CodeError> {
        // Vandermonde rows over distinct nonzero points, re-based like
        // the RS construction so they are independent of the XOR rows:
        // row_i[j] = alpha_j^(i+1) with alpha_j distinct. Using exponents
        // >= 1 keeps them linearly independent of the all-ones local
        // parity rows.
        let k = params.k;
        let global_rows = Matrix::from_fn(params.r, k, |i, j| Gf256::new((j + 1) as u8).pow(i + 1));
        Ok(LrcCodec {
            params,
            global_rows,
        })
    }

    /// The code parameters.
    pub fn params(&self) -> LrcParams {
        self.params
    }

    /// The stripe position of group `g`'s local parity.
    ///
    /// # Panics
    ///
    /// Panics if `g >= l`.
    pub fn local_parity_pos(&self, g: usize) -> usize {
        assert!(g < self.params.l, "group {g} out of range");
        self.params.k + g
    }

    /// The local group index of data position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn group_of(&self, i: usize) -> usize {
        assert!(i < self.params.k, "data index {i} out of range");
        i / self.params.group_size()
    }

    /// The stripe positions a *local* repair of data position `i`
    /// reads: the other members of its group plus the group's local
    /// parity — `k/l` positions in total.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn local_repair_group(&self, i: usize) -> Vec<usize> {
        let g = self.group_of(i);
        let size = self.params.group_size();
        let mut out: Vec<usize> = (g * size..(g + 1) * size).filter(|&j| j != i).collect();
        out.push(self.local_parity_pos(g));
        out
    }

    /// Encodes `k` data blocks into the full `n`-block stripe.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`] or
    /// [`CodeError::UnequalShardLengths`] on malformed input.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError> {
        let p = self.params;
        if data.len() != p.k {
            return Err(CodeError::WrongShardCount {
                expected: p.k,
                actual: data.len(),
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(CodeError::UnequalShardLengths);
        }
        let mut stripe = data.to_vec();
        // Local parities: XOR of each group.
        let size = p.group_size();
        for g in 0..p.l {
            let mut parity = vec![0u8; len];
            for member in &data[g * size..(g + 1) * size] {
                mul_acc_slice(&mut parity, member, Gf256::ONE);
            }
            stripe.push(parity);
        }
        // Global parities: RS rows over all data blocks.
        for i in 0..p.r {
            let mut parity = vec![0u8; len];
            for (j, block) in data.iter().enumerate() {
                mul_acc_slice(&mut parity, block, self.global_rows[(i, j)]);
            }
            stripe.push(parity);
        }
        Ok(stripe)
    }

    /// Rebuilds the single lost block at data position `target` from its
    /// local group — the LRC fast path (`k/l` reads).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadShardIndex`] if `target` is not a data
    /// position, or [`CodeError::NotEnoughShards`] if `survivors` does
    /// not contain the full local group.
    pub fn reconstruct_local(
        &self,
        survivors: &[(usize, Vec<u8>)],
        target: usize,
    ) -> Result<Vec<u8>, CodeError> {
        if target >= self.params.k {
            return Err(CodeError::BadShardIndex { index: target });
        }
        let needed = self.local_repair_group(target);
        let mut len = None;
        let mut blocks = Vec::with_capacity(needed.len());
        for pos in &needed {
            let Some((_, bytes)) = survivors.iter().find(|(i, _)| i == pos) else {
                return Err(CodeError::NotEnoughShards {
                    needed: needed.len(),
                    have: blocks.len(),
                });
            };
            if *len.get_or_insert(bytes.len()) != bytes.len() {
                return Err(CodeError::UnequalShardLengths);
            }
            blocks.push(bytes);
        }
        // XOR of the group (minus the target) and the local parity
        // recovers the target.
        let mut out = vec![0u8; len.unwrap_or(0)];
        for block in blocks {
            mul_acc_slice(&mut out, block, Gf256::ONE);
        }
        Ok(out)
    }

    /// Verifies a full stripe (data, local parities, global parities all
    /// consistent).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`] or
    /// [`CodeError::UnequalShardLengths`] on malformed input.
    pub fn verify(&self, stripe: &[Vec<u8>]) -> Result<bool, CodeError> {
        let p = self.params;
        if stripe.len() != p.n() {
            return Err(CodeError::WrongShardCount {
                expected: p.n(),
                actual: stripe.len(),
            });
        }
        let reencoded = self.encode(&stripe[..p.k])?;
        Ok(reencoded[p.k..] == stripe[p.k..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 11 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn azure_shape() {
        let p = LrcParams::new(12, 2, 2).unwrap();
        assert_eq!(p.n(), 16);
        assert_eq!(p.group_size(), 6);
        assert_eq!(p.to_string(), "LRC(12,2,2)");
    }

    #[test]
    fn parameter_validation() {
        assert!(LrcParams::new(12, 5, 2).is_err(), "l must divide k");
        assert!(LrcParams::new(0, 1, 1).is_err());
        assert!(LrcParams::new(12, 0, 2).is_err());
        assert!(LrcParams::new(12, 2, 0).is_err());
        assert!(LrcParams::new(250, 5, 10).is_err(), "stripe too wide");
        assert!(LrcParams::new(6, 2, 2).is_ok());
    }

    #[test]
    fn encode_shapes_and_verify() {
        let lrc = LrcParams::new(6, 2, 2).unwrap().codec().unwrap();
        let data = sample(6, 32);
        let stripe = lrc.encode(&data).unwrap();
        assert_eq!(stripe.len(), 10);
        assert!(lrc.verify(&stripe).unwrap());
        let mut bad = stripe.clone();
        bad[7][0] ^= 1;
        assert!(!lrc.verify(&bad).unwrap());
    }

    #[test]
    fn local_parity_is_group_xor() {
        let lrc = LrcParams::new(4, 2, 1).unwrap().codec().unwrap();
        let data = sample(4, 8);
        let stripe = lrc.encode(&data).unwrap();
        for g in 0..2 {
            let pos = lrc.local_parity_pos(g);
            for byte in 0..8 {
                let expect = data[g * 2][byte] ^ data[g * 2 + 1][byte];
                assert_eq!(stripe[pos][byte], expect, "group {g} byte {byte}");
            }
        }
    }

    #[test]
    fn local_reconstruction_of_every_data_block() {
        let lrc = LrcParams::new(12, 2, 2).unwrap().codec().unwrap();
        let data = sample(12, 64);
        let stripe = lrc.encode(&data).unwrap();
        for (target, expect) in data.iter().enumerate() {
            let group = lrc.local_repair_group(target);
            assert_eq!(group.len(), 6, "k/l reads");
            let survivors: Vec<(usize, Vec<u8>)> =
                group.iter().map(|&i| (i, stripe[i].clone())).collect();
            assert_eq!(
                &lrc.reconstruct_local(&survivors, target).unwrap(),
                expect,
                "target {target}"
            );
        }
    }

    #[test]
    fn local_reconstruction_needs_the_whole_group() {
        let lrc = LrcParams::new(6, 2, 1).unwrap().codec().unwrap();
        let data = sample(6, 8);
        let stripe = lrc.encode(&data).unwrap();
        let mut survivors: Vec<(usize, Vec<u8>)> = lrc
            .local_repair_group(0)
            .into_iter()
            .map(|i| (i, stripe[i].clone()))
            .collect();
        survivors.pop();
        assert!(matches!(
            lrc.reconstruct_local(&survivors, 0).unwrap_err(),
            CodeError::NotEnoughShards { .. }
        ));
        assert!(matches!(
            lrc.reconstruct_local(&survivors, 9).unwrap_err(),
            CodeError::BadShardIndex { index: 9 }
        ));
    }

    #[test]
    fn group_membership() {
        let lrc = LrcParams::new(12, 3, 2).unwrap().codec().unwrap();
        assert_eq!(lrc.group_of(0), 0);
        assert_eq!(lrc.group_of(3), 0);
        assert_eq!(lrc.group_of(4), 1);
        assert_eq!(lrc.group_of(11), 2);
        assert_eq!(lrc.local_parity_pos(2), 14);
        // A block's repair group never contains itself.
        for i in 0..12 {
            assert!(!lrc.local_repair_group(i).contains(&i));
        }
    }

    #[test]
    fn encode_error_cases() {
        let lrc = LrcParams::new(4, 2, 1).unwrap().codec().unwrap();
        assert!(matches!(
            lrc.encode(&sample(3, 8)).unwrap_err(),
            CodeError::WrongShardCount {
                expected: 4,
                actual: 3
            }
        ));
        let mut uneven = sample(4, 8);
        uneven[1].pop();
        assert!(matches!(
            lrc.encode(&uneven).unwrap_err(),
            CodeError::UnequalShardLengths
        ));
        assert!(matches!(
            lrc.verify(&sample(4, 8)).unwrap_err(),
            CodeError::WrongShardCount { .. }
        ));
    }
}
