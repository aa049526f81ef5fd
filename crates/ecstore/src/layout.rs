//! Stripe layout: how a file's native blocks map onto `(n, k)` stripes.
//!
//! Stripe `s` holds native blocks `B_{s,0} .. B_{s,k-1}` at positions
//! `0..k` and parity blocks `P_{s,0} .. P_{s,n-k-1}` at positions `k..n`,
//! mirroring the paper's Figure 2 notation.

use erasure::CodeParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a stripe within one file layout.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct StripeId(pub u32);

impl StripeId {
    /// Dense index of this stripe.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StripeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe{}", self.0)
    }
}

/// Addresses one block: a stripe and a position within it
/// (`0..k` native, `k..n` parity).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BlockRef {
    /// The stripe this block belongs to.
    pub stripe: StripeId,
    /// Position within the stripe.
    pub pos: usize,
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.stripe, self.pos)
    }
}

/// The static shape of an erasure-coded file: `(n, k)` parameters and the
/// native block count `F`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    params: CodeParams,
    num_native: usize,
}

/// Errors building a layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// `F` must be a positive multiple of `k` (the paper always processes
    /// whole stripes: 1440 = 96·15, 240 = 24·10, 12 = 6·2).
    NativeCountNotMultipleOfK {
        /// Requested native block count.
        num_native: usize,
        /// The stripe data width `k`.
        k: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NativeCountNotMultipleOfK { num_native, k } => {
                write!(
                    f,
                    "native block count {num_native} is not a positive multiple of k={k}"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl StripeLayout {
    /// Creates a layout for `num_native` native blocks.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::NativeCountNotMultipleOfK`] when
    /// `num_native` is zero or not a multiple of `k`.
    pub fn new(params: CodeParams, num_native: usize) -> Result<StripeLayout, LayoutError> {
        if num_native == 0 || !num_native.is_multiple_of(params.k()) {
            return Err(LayoutError::NativeCountNotMultipleOfK {
                num_native,
                k: params.k(),
            });
        }
        Ok(StripeLayout { params, num_native })
    }

    /// The `(n, k)` code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// Total native blocks `F`.
    pub fn num_native(&self) -> usize {
        self.num_native
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.num_native / self.params.k()
    }

    /// Total blocks including parity.
    pub fn num_blocks(&self) -> usize {
        self.num_stripes() * self.params.n()
    }

    /// True if the position within a stripe is a native (data) position.
    pub fn is_native_pos(&self, pos: usize) -> bool {
        pos < self.params.k()
    }

    /// The dense global index of a block (stripe-major), used to key
    /// side tables.
    ///
    /// # Panics
    ///
    /// Panics if the reference is outside the layout.
    pub fn global_index(&self, block: BlockRef) -> usize {
        assert!(block.stripe.index() < self.num_stripes(), "unknown {block}");
        assert!(block.pos < self.params.n(), "unknown {block}");
        block.stripe.index() * self.params.n() + block.pos
    }

    /// The native block with dense native index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_native()`.
    pub fn native_at(&self, i: usize) -> BlockRef {
        assert!(i < self.num_native, "native index {i} out of range");
        BlockRef {
            stripe: StripeId((i / self.params.k()) as u32),
            pos: i % self.params.k(),
        }
    }

    /// Iterates over all blocks, stripe-major.
    pub fn blocks(&self) -> impl Iterator<Item = BlockRef> + '_ {
        let n = self.params.n();
        (0..self.num_stripes()).flat_map(move |s| {
            (0..n).map(move |pos| BlockRef {
                stripe: StripeId(s as u32),
                pos,
            })
        })
    }

    /// Iterates over all native blocks, stripe-major.
    pub fn native_blocks(&self) -> impl Iterator<Item = BlockRef> + '_ {
        (0..self.num_native).map(|i| self.native_at(i))
    }

    /// Iterates over the blocks of one stripe.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stripe.
    pub fn stripe_blocks(&self, stripe: StripeId) -> impl Iterator<Item = BlockRef> + '_ {
        assert!(stripe.index() < self.num_stripes(), "unknown {stripe}");
        (0..self.params.n()).map(move |pos| BlockRef { stripe, pos })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        StripeLayout::new(CodeParams::new(4, 2).unwrap(), 12).unwrap()
    }

    #[test]
    fn figure2_shape() {
        // The motivating example: 12 native blocks, (4,2) => 6 stripes,
        // 24 blocks total.
        let l = layout();
        assert_eq!(l.num_stripes(), 6);
        assert_eq!(l.num_blocks(), 24);
        assert_eq!(l.num_native(), 12);
    }

    #[test]
    fn rejects_partial_stripes() {
        let params = CodeParams::new(4, 2).unwrap();
        assert!(StripeLayout::new(params, 0).is_err());
        let err = StripeLayout::new(params, 13).unwrap_err();
        assert_eq!(
            err,
            LayoutError::NativeCountNotMultipleOfK {
                num_native: 13,
                k: 2
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn index_round_trips() {
        let l = layout();
        for (i, b) in l.blocks().enumerate() {
            assert_eq!(l.global_index(b), i);
        }
        for (i, b) in l.native_blocks().enumerate() {
            assert_eq!(l.native_at(i), b);
        }
    }

    #[test]
    fn native_vs_parity_positions() {
        let l = layout();
        assert!(l.is_native_pos(0));
        assert!(l.is_native_pos(1));
        assert!(!l.is_native_pos(2));
        assert!(!l.is_native_pos(3));
    }

    #[test]
    fn iterators_sizes() {
        let l = layout();
        assert_eq!(l.blocks().count(), 24);
        assert_eq!(l.native_blocks().count(), 12);
        assert_eq!(l.stripe_blocks(StripeId(3)).count(), 4);
        assert!(l.native_blocks().all(|b| l.is_native_pos(b.pos)));
    }

    #[test]
    fn display() {
        let b = BlockRef {
            stripe: StripeId(2),
            pos: 1,
        };
        assert_eq!(b.to_string(), "stripe2[1]");
    }
}
