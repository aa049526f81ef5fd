//! `erasure` — Reed–Solomon erasure coding over GF(2^8).
//!
//! This crate is the storage-coding substrate of the degraded-first
//! scheduling reproduction. HDFS-RAID (the middleware the paper runs on)
//! encodes each group of `k` native blocks into a *stripe* of `n` blocks
//! (`k` native + `n−k` parity) such that **any** `k` of the `n` blocks
//! recover the originals. The same codec is used here:
//!
//! * by the flow-level simulator, which only needs the `(n, k)` arithmetic
//!   (how many blocks a degraded read must download), and
//! * by the `textlab` crate, which stores real bytes and performs real
//!   degraded reads through [`ReedSolomon::reconstruct`].
//!
//! [`ReedSolomon`] has one encode ([`ReedSolomon::encode_parity`]) and
//! one reconstruct. Two systematic code constructions are provided,
//! matching the paper's background section (Reed–Solomon \[28\] and
//! Cauchy Reed–Solomon \[3\]): [`CodeConstruction::Vandermonde`] and
//! [`CodeConstruction::Cauchy`].
//!
//! # Example
//!
//! ```
//! use erasure::{CodeConstruction, CodeParams, ReedSolomon};
//!
//! # fn main() -> Result<(), erasure::CodeError> {
//! let params = CodeParams::new(4, 2)?; // the paper's motivating (4,2) code
//! let rs = ReedSolomon::new(params, CodeConstruction::default())?;
//! let natives = vec![vec![1u8, 2, 3], vec![4, 5, 6]];
//! let parity = rs.encode_parity(&natives)?;
//! assert_eq!(parity.len(), 2);
//!
//! // Lose the first native block; recover it from blocks {1, 3}.
//! let recovered = rs.reconstruct(&[(1, &natives[1]), (3, &parity[1])], 0)?;
//! assert_eq!(recovered, natives[0]);
//! # Ok(())
//! # }
//! ```

pub mod gf256;
pub mod lrc;
pub mod matrix;
pub mod rs;
pub mod simd;

pub use gf256::Gf256;
pub use lrc::{LrcCodec, LrcParams};
pub use matrix::Matrix;
pub use rs::{CodeConstruction, ReedSolomon};

use std::error::Error;
use std::fmt;

/// Erasure code parameters `(n, k)`: `k` native blocks are encoded into a
/// stripe of `n` total blocks (`n − k` of them parity).
///
/// The paper requires `n − k ≥ 2` (to match 3-way replication's
/// double-fault tolerance); [`CodeParams::new`] enforces `n > k ≥ 1` and
/// `n ≤ 255` (the GF(2^8) field bound), while the stricter placement rule
/// lives in `ecstore`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CodeParams {
    n: usize,
    k: usize,
}

impl CodeParams {
    /// Creates `(n, k)` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `1 ≤ k < n ≤ 255`.
    pub fn new(n: usize, k: usize) -> Result<CodeParams, CodeError> {
        if k == 0 || k >= n || n > 255 {
            return Err(CodeError::InvalidParams { n, k });
        }
        Ok(CodeParams { n, k })
    }

    /// Total number of blocks per stripe.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of native (data) blocks per stripe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity blocks per stripe.
    pub fn parity(&self) -> usize {
        self.n - self.k
    }

    /// Storage redundancy overhead, e.g. 0.333 for (16,12) — the paper's
    /// "reduce the 200% overhead of 3-way replication to 33%".
    pub fn overhead(&self) -> f64 {
        (self.n - self.k) as f64 / self.k as f64
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.n, self.k)
    }
}

/// Errors returned by the erasure-coding APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// `(n, k)` outside `1 ≤ k < n ≤ 255`.
    InvalidParams {
        /// Offending total block count.
        n: usize,
        /// Offending native block count.
        k: usize,
    },
    /// The number of data shards handed to `encode` differs from `k`.
    WrongShardCount {
        /// Expected shard count (`k`).
        expected: usize,
        /// Actual shard count.
        actual: usize,
    },
    /// Shards of unequal length were supplied.
    UnequalShardLengths,
    /// Fewer than `k` distinct surviving shards were supplied to a decode.
    NotEnoughShards {
        /// Shards required (`k`).
        needed: usize,
        /// Distinct shards supplied.
        have: usize,
    },
    /// A shard index outside `0..n`, or a duplicate index.
    BadShardIndex {
        /// The offending index.
        index: usize,
    },
    /// The decode matrix was singular (cannot happen for the provided
    /// constructions; reported rather than panicking for robustness).
    SingularMatrix,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParams { n, k } => {
                write!(
                    f,
                    "invalid code parameters (n={n}, k={k}); need 1 <= k < n <= 255"
                )
            }
            CodeError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} data shards, got {actual}")
            }
            CodeError::UnequalShardLengths => write!(f, "shards have unequal lengths"),
            CodeError::NotEnoughShards { needed, have } => {
                write!(f, "need {needed} distinct shards to decode, have {have}")
            }
            CodeError::BadShardIndex { index } => {
                write!(f, "shard index {index} out of range or duplicated")
            }
            CodeError::SingularMatrix => write!(f, "decode matrix is singular"),
        }
    }
}

impl Error for CodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(4, 2).is_ok());
        assert!(CodeParams::new(255, 254).is_ok());
        assert_eq!(
            CodeParams::new(4, 4).unwrap_err(),
            CodeError::InvalidParams { n: 4, k: 4 }
        );
        assert!(CodeParams::new(4, 0).is_err());
        assert!(CodeParams::new(256, 10).is_err());
        assert!(CodeParams::new(2, 3).is_err());
    }

    #[test]
    fn params_accessors() {
        let p = CodeParams::new(16, 12).unwrap();
        assert_eq!(p.n(), 16);
        assert_eq!(p.k(), 12);
        assert_eq!(p.parity(), 4);
        assert!((p.overhead() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.to_string(), "(16,12)");
    }

    #[test]
    fn error_display() {
        for e in [
            CodeError::InvalidParams { n: 1, k: 1 },
            CodeError::WrongShardCount {
                expected: 2,
                actual: 3,
            },
            CodeError::UnequalShardLengths,
            CodeError::NotEnoughShards { needed: 4, have: 2 },
            CodeError::BadShardIndex { index: 9 },
            CodeError::SingularMatrix,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
