//! Systematic Reed–Solomon codes over GF(2^8).
//!
//! An `(n, k)` code is described by an `n × k` encoding matrix whose top
//! `k × k` block is the identity (so the first `k` output shards are the
//! data itself — *systematic*), and whose remaining `n − k` rows generate
//! the parity shards. The code is MDS: any `k` of the `n` shards suffice
//! to recover the data, which is exactly the degraded-read contract the
//! paper relies on ("reads the blocks from any k surviving nodes of the
//! same stripe", Section II-B).

use crate::gf256::{mul_acc_multi, mul_slice_in_place, Gf256};
use crate::simd::Term;

/// Builds `Σ row[j] · shard_j` without a zeroed scratch buffer: the
/// first nonzero term seeds the output as a copy (scaled in place unless
/// its coefficient is one — the common case for systematic decode rows),
/// and the remaining nonzero terms are applied by the fused
/// [`mul_acc_multi`] kernel in one cache-blocked pass over the output
/// instead of one full sweep per coefficient. Zeroing a fresh 256 KiB
/// buffer costs as much as the multiplies themselves, so skipping it
/// roughly halves full-stripe decode time; the fusion then keeps each
/// output block L1-resident while every source streams past it.
fn combine_reusing(out: &mut Vec<u8>, row: &[Gf256], shards: &[&[u8]], len: usize) {
    out.clear();
    let Some(j0) = row.iter().position(|c| !c.is_zero()) else {
        out.resize(len, 0);
        return;
    };
    out.extend_from_slice(shards[j0]);
    mul_slice_in_place(out, row[j0]);
    let terms: Vec<Term<'_>> = row
        .iter()
        .zip(shards)
        .skip(j0 + 1)
        .filter(|(c, _)| !c.is_zero())
        .map(|(&c, &s)| (c, s))
        .collect();
    mul_acc_multi(out, &terms);
}
use crate::matrix::Matrix;
use crate::{CodeError, CodeParams};

/// The matrix construction used to build a systematic MDS code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CodeConstruction {
    /// Vandermonde rows re-based so the top block is the identity
    /// (classic Reed–Solomon \[28\]).
    #[default]
    Vandermonde,
    /// Identity over a Cauchy matrix (Cauchy Reed–Solomon \[3\]).
    Cauchy,
}

/// A systematic Reed–Solomon encoder/decoder for fixed `(n, k)`.
///
/// # Example
///
/// ```
/// use erasure::{CodeParams, CodeConstruction, ReedSolomon};
/// # fn main() -> Result<(), erasure::CodeError> {
/// let rs = ReedSolomon::new(CodeParams::new(6, 4)?, CodeConstruction::Cauchy)?;
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
/// let parity = rs.encode_parity(&data)?;
/// assert_eq!(parity.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    params: CodeParams,
    /// The full n×k encoding matrix (top k×k block is the identity).
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Builds the encoding matrix for the given parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`CodeError::SingularMatrix`] if the Vandermonde base
    /// could not be re-based (impossible for valid parameters, but
    /// surfaced rather than unwrapped).
    pub fn new(
        params: CodeParams,
        construction: CodeConstruction,
    ) -> Result<ReedSolomon, CodeError> {
        let (n, k) = (params.n(), params.k());
        let encode_matrix = match construction {
            CodeConstruction::Vandermonde => {
                // V[i][j] = i^j over n distinct evaluation points, then
                // E = V * inv(V_top) so the top block becomes identity.
                // Any k rows of V are invertible (distinct points), and
                // right-multiplying by a fixed invertible matrix preserves
                // that, so E stays MDS.
                let v = Matrix::from_fn(n, k, |r, c| Gf256::new(r as u8).pow(c));
                let top = v.select_rows(&(0..k).collect::<Vec<_>>());
                let top_inv = top.inverted()?;
                v.multiply(&top_inv)
            }
            CodeConstruction::Cauchy => {
                // Identity over C where C[i][j] = 1 / (x_i + y_j) with
                // x_i = k + i and y_j = j, all distinct since n <= 255.
                Matrix::from_fn(n, k, |r, c| {
                    if r < k {
                        if r == c {
                            Gf256::ONE
                        } else {
                            Gf256::ZERO
                        }
                    } else {
                        let x = Gf256::new((k + (r - k)) as u8);
                        let y = Gf256::new(c as u8);
                        (x + y).inverse()
                    }
                })
            }
        };
        Ok(ReedSolomon {
            params,
            encode_matrix,
        })
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The full `n × k` encoding matrix.
    pub fn encode_matrix(&self) -> &Matrix {
        &self.encode_matrix
    }

    /// Computes the `n − k` parity shards for `k` data shards.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::WrongShardCount`] or
    /// [`CodeError::UnequalShardLengths`] on malformed input.
    pub fn encode_parity<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>, CodeError> {
        let k = self.params.k();
        if data.len() != k {
            return Err(CodeError::WrongShardCount {
                expected: k,
                actual: data.len(),
            });
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|s| s.as_ref().len() != len) {
            return Err(CodeError::UnequalShardLengths);
        }
        let refs: Vec<&[u8]> = data.iter().map(AsRef::as_ref).collect();
        let mut out = Vec::new();
        out.resize_with(self.params.parity(), Vec::new);
        for (p, o) in out.iter_mut().enumerate() {
            combine_reusing(o, self.encode_matrix.row(k + p), &refs, len);
        }
        Ok(out)
    }

    /// Recovers the single shard with index `target` (data or parity)
    /// from any `k` distinct shards, given as `(shard_index, bytes)`
    /// pairs. This is the degraded-read primitive: download `k`
    /// surviving blocks, rebuild the lost one. Shard bytes may be owned
    /// (`Vec<u8>`) or borrowed (`&[u8]`) — borrowing lets callers decode
    /// straight out of their stores without cloning.
    ///
    /// Only the one requested shard is computed: the target's
    /// combination row over the survivors is derived from the inverted
    /// decode matrix (composed with the target's encoding row for parity
    /// targets), so reconstruction costs a single `k`-source combine
    /// instead of a full `k`-shard decode — a factor-`k` saving on every
    /// degraded read.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::BadShardIndex`] if `target >= n` or a
    /// survivor index is out of range or duplicated,
    /// [`CodeError::NotEnoughShards`] for fewer than `k` survivors, or
    /// [`CodeError::UnequalShardLengths`].
    pub fn reconstruct<S: AsRef<[u8]>>(
        &self,
        shards: &[(usize, S)],
        target: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let (n, k) = (self.params.n(), self.params.k());
        if target >= n {
            return Err(CodeError::BadShardIndex { index: target });
        }
        let mut out = Vec::new();
        // Fast path: the target is among the supplied shards.
        if let Some((_, s)) = shards.iter().find(|&(i, _)| *i == target) {
            out.extend_from_slice(s.as_ref());
            return Ok(out);
        }
        let (indices, refs, len) = self.validate_survivors(shards)?;
        let sub = self.encode_matrix.select_rows(&indices);
        let inv = sub.inverted()?;
        // The row combining the survivors directly into the target:
        // data[t] = Σⱼ inv[t][j] · survivor_j, and a parity target is
        // G[target] applied on top of that, i.e. (G[target] × inv).
        let mut row = vec![Gf256::ZERO; k];
        if target < k {
            row.copy_from_slice(inv.row(target));
        } else {
            let g = self.encode_matrix.row(target);
            for (j, c) in row.iter_mut().enumerate() {
                let mut acc = Gf256::ZERO;
                for (t, &gt) in g.iter().enumerate() {
                    acc += gt * inv[(t, j)];
                }
                *c = acc;
            }
        }
        combine_reusing(&mut out, &row, &refs, len);
        Ok(out)
    }

    /// Validates the first `k` survivor shards (distinct in-range
    /// indices, equal lengths) and splits them into the pieces the
    /// decode needs.
    #[allow(clippy::type_complexity)]
    fn validate_survivors<'a, S: AsRef<[u8]>>(
        &self,
        shards: &'a [(usize, S)],
    ) -> Result<(Vec<usize>, Vec<&'a [u8]>, usize), CodeError> {
        let k = self.params.k();
        if shards.len() < k {
            return Err(CodeError::NotEnoughShards {
                needed: k,
                have: shards.len(),
            });
        }
        let used = &shards[..k];
        let mut seen = vec![false; self.params.n()];
        for &(idx, _) in used {
            if idx >= self.params.n() || seen[idx] {
                return Err(CodeError::BadShardIndex { index: idx });
            }
            seen[idx] = true;
        }
        let len = used[0].1.as_ref().len();
        if used.iter().any(|(_, s)| s.as_ref().len() != len) {
            return Err(CodeError::UnequalShardLengths);
        }
        let indices: Vec<usize> = used.iter().map(|&(i, _)| i).collect();
        let refs: Vec<&[u8]> = used.iter().map(|(_, s)| s.as_ref()).collect();
        Ok((indices, refs, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize, k: usize, c: CodeConstruction) -> ReedSolomon {
        ReedSolomon::new(CodeParams::new(n, k).unwrap(), c).unwrap()
    }

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systematic_top_block_is_identity() {
        for c in [CodeConstruction::Vandermonde, CodeConstruction::Cauchy] {
            let rs = make(9, 6, c);
            let m = rs.encode_matrix();
            for r in 0..6 {
                for j in 0..6 {
                    let expect = if r == j { Gf256::ONE } else { Gf256::ZERO };
                    assert_eq!(m[(r, j)], expect, "{c:?} ({r},{j})");
                }
            }
        }
    }

    #[test]
    fn any_k_rows_invertible_small_codes() {
        // Exhaustively verify the MDS property for the paper's (4,2) code
        // and a (6,4) code under both constructions.
        for c in [CodeConstruction::Vandermonde, CodeConstruction::Cauchy] {
            for (n, k) in [(4usize, 2usize), (6, 4)] {
                let rs = make(n, k, c);
                let idx: Vec<usize> = (0..n).collect();
                // All k-subsets.
                let mut chosen = vec![0usize; k];
                fn rec(
                    m: &Matrix,
                    idx: &[usize],
                    chosen: &mut Vec<usize>,
                    depth: usize,
                    start: usize,
                    k: usize,
                ) {
                    if depth == k {
                        let sub = m.select_rows(chosen);
                        assert!(sub.inverted().is_ok(), "rows {chosen:?} singular");
                        return;
                    }
                    for i in start..idx.len() {
                        chosen[depth] = idx[i];
                        rec(m, idx, chosen, depth + 1, i + 1, k);
                    }
                }
                rec(rs.encode_matrix(), &idx, &mut chosen, 0, 0, k);
            }
        }
    }

    /// The `k` data shards followed by their `n − k` parity shards.
    fn stripe_of(rs: &ReedSolomon, data: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let parity = rs.encode_parity(&data).unwrap();
        assert_eq!(parity.len(), rs.params().parity());
        let mut stripe = data;
        stripe.extend(parity);
        stripe
    }

    /// Rebuilds every shard of `stripe`, data and parity, from the
    /// survivors at `picks`, handed over both owned and borrowed.
    fn assert_rebuilds_every_shard(rs: &ReedSolomon, stripe: &[Vec<u8>], picks: &[usize]) {
        let owned: Vec<(usize, Vec<u8>)> = picks.iter().map(|&i| (i, stripe[i].clone())).collect();
        let borrowed: Vec<(usize, &[u8])> =
            picks.iter().map(|&i| (i, stripe[i].as_slice())).collect();
        for (target, expect) in stripe.iter().enumerate() {
            assert_eq!(&rs.reconstruct(&owned, target).unwrap(), expect, "{target}");
            assert_eq!(
                &rs.reconstruct(&borrowed, target).unwrap(),
                expect,
                "{target}"
            );
        }
    }

    #[test]
    fn encode_decode_round_trip_paper_codes() {
        // All coding schemes used in the paper's evaluation.
        for (n, k) in [(4, 2), (8, 6), (12, 9), (16, 12), (20, 15), (12, 10)] {
            for c in [CodeConstruction::Vandermonde, CodeConstruction::Cauchy] {
                let rs = make(n, k, c);
                let stripe = stripe_of(&rs, sample_data(k, 64));
                // Decode from the *last* k shards (all parity + tail of data).
                let picks: Vec<usize> = (n - k..n).collect();
                assert_rebuilds_every_shard(&rs, &stripe, &picks);
            }
        }
    }

    #[test]
    fn reconstruct_single_data_and_parity_shard() {
        for c in [CodeConstruction::Vandermonde, CodeConstruction::Cauchy] {
            let rs = make(6, 4, c);
            // Lose shard 2 (data) — rebuild it, parity shard 4, and (fast
            // path: the target is among the survivors) shard 3 from
            // shards {0,1,3,5}.
            let stripe = stripe_of(&rs, sample_data(4, 32));
            assert_rebuilds_every_shard(&rs, &stripe, &[0, 1, 3, 5]);
        }
        // The paper's (4,2) example: native block 0 is lost, and the
        // degraded read downloads the other native and parity P_{i,0}.
        let rs = make(4, 2, CodeConstruction::Vandermonde);
        let stripe = stripe_of(&rs, vec![vec![10u8; 6], vec![20u8; 6]]);
        let survivors = [(1, stripe[1].as_slice()), (2, stripe[2].as_slice())];
        assert_eq!(rs.reconstruct(&survivors, 0).unwrap(), vec![10u8; 6]);
    }

    #[test]
    fn error_cases() {
        let rs = make(6, 4, CodeConstruction::Vandermonde);
        let data = sample_data(3, 8); // wrong count
        assert_eq!(
            rs.encode_parity(&data).unwrap_err(),
            CodeError::WrongShardCount {
                expected: 4,
                actual: 3
            }
        );
        let mut uneven = sample_data(4, 8);
        uneven[2].pop();
        assert_eq!(
            rs.encode_parity(&uneven).unwrap_err(),
            CodeError::UnequalShardLengths
        );

        // Target 5 is never among the survivors, so each call reaches
        // the survivor checks instead of the fast path.
        let shards: Vec<(usize, Vec<u8>)> = vec![(0, vec![0; 8]); 2];
        assert_eq!(
            rs.reconstruct(&shards, 5).unwrap_err(),
            CodeError::NotEnoughShards { needed: 4, have: 2 }
        );
        let dup: Vec<(usize, Vec<u8>)> = vec![
            (0, vec![0; 8]),
            (0, vec![0; 8]),
            (1, vec![0; 8]),
            (2, vec![0; 8]),
        ];
        assert_eq!(
            rs.reconstruct(&dup, 5).unwrap_err(),
            CodeError::BadShardIndex { index: 0 }
        );
        let oob: Vec<(usize, Vec<u8>)> = (0..4).map(|i| (i + 3, vec![0; 8])).collect();
        assert_eq!(
            rs.reconstruct(&oob, 0).unwrap_err(),
            CodeError::BadShardIndex { index: 6 }
        );
        let ragged: Vec<(usize, Vec<u8>)> = (0..4).map(|i| (i, vec![0; 8 - i / 2])).collect();
        assert_eq!(
            rs.reconstruct(&ragged, 5).unwrap_err(),
            CodeError::UnequalShardLengths
        );
        assert_eq!(
            rs.reconstruct::<Vec<u8>>(&[], 9).unwrap_err(),
            CodeError::BadShardIndex { index: 9 }
        );
    }

    #[test]
    fn empty_shards_round_trip() {
        // Zero-length shards are legal (empty file tail).
        let rs = make(4, 2, CodeConstruction::Cauchy);
        let data = vec![Vec::<u8>::new(), Vec::new()];
        let parity = rs.encode_parity(&data).unwrap();
        assert!(parity.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn constructions_differ_but_both_work() {
        let a = make(8, 6, CodeConstruction::Vandermonde);
        let b = make(8, 6, CodeConstruction::Cauchy);
        assert_ne!(a.encode_matrix(), b.encode_matrix());
        assert_eq!(b.params().n(), 8);
    }
}
