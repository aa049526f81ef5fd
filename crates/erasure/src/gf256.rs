//! Arithmetic in GF(2^8) with the AES polynomial `x^8 + x^4 + x^3 + x + 1`
//! (0x11B), implemented with log/antilog tables built at first use.
//!
//! All Reed–Solomon coding in this workspace reduces to [`Gf256`]
//! multiply-accumulate over block buffers.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub};
use std::sync::OnceLock;

/// The reduction polynomial (without the x^8 term bit it is 0x1B; full
/// value 0x11B).
const POLY: u16 = 0x11B;
/// A generator of the multiplicative group for 0x11B (3 is primitive).
const GENERATOR: u8 = 0x03;

struct Tables {
    /// log[x] for x in 1..=255; log[0] is unused.
    log: [u8; 256],
    /// exp[i] = generator^i, doubled to avoid a modular reduction on lookup.
    exp: [u8; 512],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for i in 0..255u16 {
            exp[i as usize] = x as u8;
            log[x as usize] = i as u8;
            // Multiply x by the generator (3 = x + 1): x*3 = (x << 1) ^ x.
            x = (x << 1) ^ x;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        debug_assert_eq!(exp[0], 1);
        Tables { log, exp }
    })
}

/// An element of GF(2^8).
///
/// Addition is XOR; multiplication is via log/antilog tables. The type is
/// `Copy` and zero-cost over `u8`.
///
/// # Example
///
/// ```
/// use erasure::gf256::Gf256;
/// let a = Gf256::new(0x57);
/// let b = Gf256::new(0x83);
/// // A known AES multiplication test vector: 0x57 * 0x83 = 0xC1.
/// assert_eq!((a * b).value(), 0xC1);
/// assert_eq!(a + a, Gf256::ZERO); // characteristic 2
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Wraps a raw byte.
    pub const fn new(value: u8) -> Gf256 {
        Gf256(value)
    }

    /// The raw byte value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// The primitive element used to build the tables.
    pub const fn generator() -> Gf256 {
        Gf256(GENERATOR)
    }

    /// `self` raised to the `e`-th power (`0^0 == 1` by convention).
    pub fn pow(self, e: usize) -> Gf256 {
        if e == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        let log = t.log[self.0 as usize] as usize;
        let exp_index = (log * e) % 255;
        Gf256(t.exp[exp_index])
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn inverse(self) -> Gf256 {
        assert!(self.0 != 0, "inverse of zero in GF(256)");
        let t = tables();
        Gf256(t.exp[255 - t.log[self.0 as usize] as usize])
    }

    /// True for the additive identity.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // GF(2^8) addition is carryless: XOR, not integer +.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    // Subtraction equals addition in characteristic 2.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf256) -> Gf256 {
        self + rhs
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[idx])
    }
}

impl MulAssign for Gf256 {
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inverse()
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Gf256 {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> u8 {
        value.0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// The full 256×256 product table (64 KiB), built lazily from the
/// log/antilog tables. Row `c` maps every byte `s` to `c * s`, letting
/// the slice kernels run one branch-free lookup per byte instead of a
/// zero test plus two table reads and an add.
fn mul_table() -> &'static [[u8; 256]; 256] {
    static MUL: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    MUL.get_or_init(|| {
        let t = tables();
        let mut m = vec![[0u8; 256]; 256].into_boxed_slice();
        for (c, row) in m.iter_mut().enumerate().skip(1) {
            let log_c = t.log[c] as usize;
            for (s, product) in row.iter_mut().enumerate().skip(1) {
                *product = t.exp[log_c + t.log[s] as usize];
            }
        }
        // SAFETY-free conversion: the boxed slice has exactly 256 rows.
        m.try_into().expect("256 rows")
    })
}

/// The premultiplied row for one coefficient: `row[s] == coeff * s`.
///
/// Exposed so batch callers (the RS codec) can hoist the row lookup out
/// of per-shard loops.
pub fn mul_row(coeff: Gf256) -> &'static [u8; 256] {
    &mul_table()[coeff.value() as usize]
}

/// Per-coefficient nibble tables for the SIMD kernels: entry `c` holds
/// `[c * 0x0, .., c * 0xF, c * 0x00, c * 0x10, .., c * 0xF0]` — the
/// products of the low and high nibbles. `c * s` is then
/// `lo[s & 0xF] ^ hi[s >> 4]` by linearity of GF(2^8) multiplication,
/// which `pshufb` evaluates for 16/32 lanes at once. 8 KiB total.
fn nibble_tables() -> &'static [[u8; 32]; 256] {
    static NIB: OnceLock<Box<[[u8; 32]; 256]>> = OnceLock::new();
    NIB.get_or_init(|| {
        let mul = mul_table();
        let mut n = vec![[0u8; 32]; 256].into_boxed_slice();
        for c in 0..256usize {
            let row = &mul[c];
            for i in 0..16usize {
                n[c][i] = row[i];
                n[c][16 + i] = row[i << 4];
            }
        }
        n.try_into().expect("256 rows")
    })
}

/// The nibble-table pair for one coefficient, consumed by the SIMD
/// shuffle kernels in [`crate::simd`].
pub(crate) fn nibble_row(coeff: Gf256) -> &'static [u8; 32] {
    &nibble_tables()[coeff.value() as usize]
}

/// Computes `dst[i] ^= coeff * src[i]` over whole buffers — the inner loop
/// of both encoding and decoding. Dispatches to the fastest kernel tier
/// the host supports (see [`crate::simd`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    crate::simd::active().mul_acc_slice(dst, src, coeff);
}

/// Computes `dst[i] = coeff * src[i]` over whole buffers.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    crate::simd::active().mul_slice(dst, src, coeff);
}

/// Computes `data[i] = coeff * data[i]` in place — lets callers start an
/// accumulation from a copied shard without a zeroed scratch buffer.
pub fn mul_slice_in_place(data: &mut [u8], coeff: Gf256) {
    crate::simd::active().mul_slice_in_place(data, coeff);
}

/// Fused multi-source accumulate over whole buffers:
/// `dst[i] ^= Σⱼ termsⱼ.0 * termsⱼ.1[i]`, applying every source per
/// cache-blocked pass over `dst` instead of one full sweep per
/// coefficient — the inner loop of stripe encode/decode (see
/// [`crate::simd::Kernels::mul_acc_multi`]).
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
pub fn mul_acc_multi(dst: &mut [u8], terms: &[crate::simd::Term<'_>]) {
    crate::simd::active().mul_acc_multi(dst, terms);
}

/// Reference implementation of [`mul_acc_slice`] via log/antilog lookups
/// with a per-byte zero test — the kernel this module shipped before the
/// full product table. Retained as the oracle for property tests and the
/// SIMD kernel cross-checks.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_slice_ref(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    assert_eq!(dst.len(), src.len(), "buffer length mismatch");
    if coeff.is_zero() {
        return;
    }
    if coeff == Gf256::ONE {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[coeff.value() as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= t.exp[log_c + t.log[*s as usize] as usize];
        }
    }
}

/// Reference implementation of [`mul_slice`]; see [`mul_acc_slice_ref`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_slice_ref(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    assert_eq!(dst.len(), src.len(), "buffer length mismatch");
    dst.fill(0);
    mul_acc_slice_ref(dst, src, coeff);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_mul(a: u8, b: u8) -> u8 {
        // Russian-peasant multiplication as an independent oracle.
        let (mut a, mut b, mut acc) = (a as u16, b as u16, 0u16);
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLY;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn table_mul_matches_peasant_mul() {
        for a in 0..=255u8 {
            for b in (0..=255u8).step_by(7) {
                assert_eq!(
                    (Gf256::new(a) * Gf256::new(b)).value(),
                    slow_mul(a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn aes_known_vector() {
        assert_eq!((Gf256::new(0x57) * Gf256::new(0x83)).value(), 0xC1);
        assert_eq!((Gf256::new(0x57) * Gf256::new(0x13)).value(), 0xFE);
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = Gf256::new(0xAB);
        let b = Gf256::new(0xCD);
        assert_eq!((a + b).value(), 0xAB ^ 0xCD);
        assert_eq!(a + a, Gf256::ZERO);
        assert_eq!(a - b, a + b);
    }

    #[test]
    fn inverse_and_division() {
        for x in 1..=255u8 {
            let g = Gf256::new(x);
            assert_eq!(g * g.inverse(), Gf256::ONE, "x={x}");
            assert_eq!(g / g, Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_has_no_inverse() {
        let _ = Gf256::ZERO.inverse();
    }

    #[test]
    fn pow_properties() {
        let g = Gf256::generator();
        assert_eq!(g.pow(0), Gf256::ONE);
        assert_eq!(g.pow(255), Gf256::ONE, "group order is 255");
        assert_eq!(g.pow(1), g);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        // g^(a+b) == g^a * g^b
        assert_eq!(g.pow(100) * g.pow(200), g.pow(300));
    }

    #[test]
    fn generator_is_primitive() {
        // The powers of the generator must enumerate all 255 nonzero elements.
        let mut seen = [false; 256];
        let g = Gf256::generator();
        for e in 0..255 {
            seen[g.pow(e).value() as usize] = true;
        }
        assert!(!seen[0]);
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn mul_is_associative_and_distributive() {
        let samples = [0u8, 1, 2, 3, 0x53, 0xCA, 0xFF];
        for &a in &samples {
            for &b in &samples {
                for &c in &samples {
                    let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
                    assert_eq!((a * b) * c, a * (b * c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn slice_ops() {
        let src = [1u8, 2, 3, 0, 255];
        let mut dst = [9u8, 9, 9, 9, 9];
        let c = Gf256::new(0x1D);
        mul_acc_slice(&mut dst, &src, c);
        for i in 0..src.len() {
            assert_eq!(dst[i], 9 ^ (Gf256::new(src[i]) * c).value());
        }
        let mut out = [0u8; 5];
        mul_slice(&mut out, &src, Gf256::ONE);
        assert_eq!(out, src);
        let mut zero_out = [7u8; 5];
        mul_acc_slice(&mut zero_out, &src, Gf256::ZERO);
        assert_eq!(zero_out, [7u8; 5], "zero coeff must be a no-op");
    }

    #[test]
    fn mul_row_is_the_multiplication_table() {
        for c in 0..=255u8 {
            let row = mul_row(Gf256::new(c));
            for s in 0..=255u8 {
                assert_eq!(row[s as usize], slow_mul(c, s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn table_kernels_match_reference() {
        // Odd length exercises the unrolled body and the remainder tail.
        let mut src = vec![0u8; 1031];
        let mut x = 0x1234_5678_9abc_def0u64;
        for b in src.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8; // includes zeros
        }
        for coeff in [0u8, 1, 2, 3, 0x1D, 0x53, 0xCA, 0xFF] {
            let c = Gf256::new(coeff);
            let mut acc_opt = vec![0xA5u8; src.len()];
            let mut acc_ref = acc_opt.clone();
            mul_acc_slice(&mut acc_opt, &src, c);
            mul_acc_slice_ref(&mut acc_ref, &src, c);
            assert_eq!(acc_opt, acc_ref, "mul_acc coeff={coeff}");

            let mut out_opt = vec![0u8; src.len()];
            let mut out_ref = vec![0u8; src.len()];
            mul_slice(&mut out_opt, &src, c);
            mul_slice_ref(&mut out_ref, &src, c);
            assert_eq!(out_opt, out_ref, "mul coeff={coeff}");
        }
    }

    #[test]
    fn conversions_and_formatting() {
        let g: Gf256 = 0xABu8.into();
        let b: u8 = g.into();
        assert_eq!(b, 0xAB);
        assert_eq!(g.to_string(), "0xab");
        assert_eq!(format!("{g:x}"), "ab");
        assert_eq!(format!("{g:X}"), "AB");
        assert_eq!(format!("{g:?}"), "Gf256(0xab)");
    }
}
