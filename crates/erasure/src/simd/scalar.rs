//! Table-driven scalar kernels — the universal fallback tier.
//!
//! These are the PR 1 kernels verbatim: one branch-free lookup per byte
//! in the 64 KiB product table, 8-way unrolled. They run on any target,
//! serve as the tail handler for every SIMD tier, and are the tier
//! `ERASURE_FORCE_SCALAR=1` pins the dispatcher to.

use crate::gf256::{mul_row, Gf256};

/// `dst ^= src` eight bytes at a time as `u64` words — the coefficient-1
/// fast path shared by every tier.
pub(crate) fn xor_slice(dst: &mut [u8], src: &[u8]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dw, sw) in (&mut d).zip(&mut s) {
        let x =
            u64::from_ne_bytes(dw.try_into().unwrap()) ^ u64::from_ne_bytes(sw.try_into().unwrap());
        dw.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

pub(crate) fn mul_acc(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    let row = mul_row(coeff);
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] ^= row[sc[0] as usize];
        dc[1] ^= row[sc[1] as usize];
        dc[2] ^= row[sc[2] as usize];
        dc[3] ^= row[sc[3] as usize];
        dc[4] ^= row[sc[4] as usize];
        dc[5] ^= row[sc[5] as usize];
        dc[6] ^= row[sc[6] as usize];
        dc[7] ^= row[sc[7] as usize];
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= row[*sb as usize];
    }
}

pub(crate) fn mul_slice(dst: &mut [u8], src: &[u8], coeff: Gf256) {
    let row = mul_row(coeff);
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] = row[sc[0] as usize];
        dc[1] = row[sc[1] as usize];
        dc[2] = row[sc[2] as usize];
        dc[3] = row[sc[3] as usize];
        dc[4] = row[sc[4] as usize];
        dc[5] = row[sc[5] as usize];
        dc[6] = row[sc[6] as usize];
        dc[7] = row[sc[7] as usize];
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db = row[*sb as usize];
    }
}

pub(crate) fn mul_in_place(data: &mut [u8], coeff: Gf256) {
    let row = mul_row(coeff);
    for b in data.iter_mut() {
        *b = row[*b as usize];
    }
}

pub(crate) fn mul_acc_multi(dst: &mut [u8], terms: &[super::Term<'_>]) {
    super::blocked_multi(mul_acc, dst, terms);
}
