//! Property-based tests for the erasure-coding core: field axioms,
//! matrix inversion, and the any-k-of-n MDS recovery contract.

use erasure::gf256::{mul_acc_slice, mul_acc_slice_ref, mul_slice, mul_slice_ref, Gf256};
use erasure::matrix::Matrix;
use erasure::rs::{CodeConstruction, ReedSolomon};
use erasure::CodeParams;
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

fn nonzero_gf() -> impl Strategy<Value = Gf256> {
    (1u8..=255).prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn field_axioms(a in gf(), b in gf(), c in gf()) {
        // Commutativity.
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        // Associativity.
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        // Distributivity.
        prop_assert_eq!(a * (b + c), a * b + a * c);
        // Identities.
        prop_assert_eq!(a + Gf256::ZERO, a);
        prop_assert_eq!(a * Gf256::ONE, a);
        prop_assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        // Additive self-inverse (characteristic 2).
        prop_assert_eq!(a + a, Gf256::ZERO);
    }

    #[test]
    fn division_inverts_multiplication(a in gf(), b in nonzero_gf()) {
        prop_assert_eq!((a * b) / b, a);
        prop_assert_eq!(b * b.inverse(), Gf256::ONE);
    }

    #[test]
    fn pow_is_repeated_multiplication(a in gf(), e in 0usize..20) {
        let mut expect = Gf256::ONE;
        for _ in 0..e {
            expect *= a;
        }
        prop_assert_eq!(a.pow(e), expect);
    }

    #[test]
    fn table_kernels_match_reference_kernels(
        coeff in any::<u8>(),
        src in proptest::collection::vec(any::<u8>(), 0..300),
        fill in any::<u8>(),
    ) {
        // The table-driven / SIMD slice kernels must agree byte-for-byte
        // with the straightforward per-byte reference on every length
        // (covering the vector body and the scalar tail) and every
        // coefficient (including the 0 and 1 fast paths).
        let c = Gf256::new(coeff);
        let mut acc_opt = vec![fill; src.len()];
        let mut acc_ref = acc_opt.clone();
        mul_acc_slice(&mut acc_opt, &src, c);
        mul_acc_slice_ref(&mut acc_ref, &src, c);
        prop_assert_eq!(&acc_opt, &acc_ref);

        let mut dst_opt = vec![fill; src.len()];
        let mut dst_ref = dst_opt.clone();
        mul_slice(&mut dst_opt, &src, c);
        mul_slice_ref(&mut dst_ref, &src, c);
        prop_assert_eq!(&dst_opt, &dst_ref);
    }

    #[test]
    fn vandermonde_matrices_invert(size in 1usize..8) {
        // Distinct evaluation points => invertible; inverse round-trips.
        let m = Matrix::from_fn(size, size, |r, c| Gf256::new((r + 1) as u8).pow(c));
        let inv = m.inverted().unwrap();
        prop_assert_eq!(m.multiply(&inv), Matrix::identity(size));
    }

    #[test]
    fn any_k_of_n_recovers_data(
        seed in any::<u64>(),
        nk_idx in 0usize..5,
        len in 1usize..64,
        construction in prop_oneof![
            Just(CodeConstruction::Vandermonde),
            Just(CodeConstruction::Cauchy)
        ],
    ) {
        // The paper's coding schemes.
        let (n, k) = [(4, 2), (8, 6), (12, 9), (16, 12), (12, 10)][nk_idx];
        let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap(), construction).unwrap();

        // Deterministic pseudo-random data from the seed.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| next() as u8).collect())
            .collect();
        let parity = rs.encode_parity(&data).unwrap();
        let mut stripe = data;
        stripe.extend(parity);

        // Pick a pseudo-random k-subset of shard indices.
        let mut indices: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next() as usize) % (i + 1);
            indices.swap(i, j);
        }
        indices.truncate(k);
        let survivors: Vec<(usize, Vec<u8>)> =
            indices.iter().map(|&i| (i, stripe[i].clone())).collect();

        // Every shard (data or parity) is reconstructible from the
        // subset, from owned and from borrowed survivors alike.
        let borrowed: Vec<(usize, &[u8])> =
            survivors.iter().map(|(i, s)| (*i, s.as_slice())).collect();
        for (target, expect) in stripe.iter().enumerate() {
            prop_assert_eq!(&rs.reconstruct(&survivors, target).unwrap(), expect);
            prop_assert_eq!(&rs.reconstruct(&borrowed, target).unwrap(), expect);
        }
    }
}

proptest! {
    #[test]
    fn lrc_local_repair_recovers_every_block(
        seed in any::<u64>(),
        shape_idx in 0usize..4,
        len in 1usize..64,
    ) {
        use erasure::lrc::LrcParams;
        let (k, l, r) = [(12, 2, 2), (6, 2, 2), (12, 3, 2), (8, 4, 1)][shape_idx];
        let lrc = LrcParams::new(k, l, r).unwrap().codec().unwrap();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..len).map(|_| next() as u8).collect())
            .collect();
        let stripe = lrc.encode(&data).unwrap();
        prop_assert!(lrc.verify(&stripe).unwrap());
        for (target, expect) in data.iter().enumerate() {
            let group = lrc.local_repair_group(target);
            prop_assert_eq!(group.len(), k / l, "k/l reads");
            let survivors: Vec<(usize, Vec<u8>)> =
                group.iter().map(|&i| (i, stripe[i].clone())).collect();
            prop_assert_eq!(&lrc.reconstruct_local(&survivors, target).unwrap(), expect);
        }
    }

    #[test]
    fn lrc_detects_any_single_corruption(
        seed in any::<u64>(),
        shard in 0usize..10,
        byte in 0usize..16,
    ) {
        use erasure::lrc::LrcParams;
        let lrc = LrcParams::new(6, 2, 2).unwrap().codec().unwrap();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<Vec<u8>> = (0..6).map(|_| (0..16).map(|_| next() as u8).collect()).collect();
        let mut stripe = lrc.encode(&data).unwrap();
        stripe[shard % 10][byte] ^= 0x40;
        prop_assert!(!lrc.verify(&stripe).unwrap());
    }
}
