//! The blocked secure-scan pipeline must be **bit-identical** to the
//! monolithic path — not merely close. Fixed-point secure sums are exact
//! per element, PRG masks cancel exactly however the summand vector is
//! split across rounds, and Beaver triples are consumed in the monolithic
//! order; these tests pin that equivalence for every security mode,
//! block size shape (1, odd divisor, non-divisor, M, > M), party count,
//! and thread count.
//!
//! CI bounds the property test's case count via the `DASH_BLOCKED_CASES`
//! environment variable (see `scripts/check.sh`).

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_core::model::{pool_parties, PartyData};
use dash_core::scan::associate;
use dash_core::secure::{
    secure_scan, AggregationMode, RFactorMode, SecureScanConfig, SecureScanOutput,
};
use dash_core::{CoreError, ScanResult};
use dash_linalg::Matrix;
use proptest::prelude::*;

fn gen_parties(sizes: &[usize], m: usize, k: usize, seed: u64) -> Vec<PartyData> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    sizes
        .iter()
        .map(|&n| {
            let y: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = Matrix::from_fn(n, m, |_, _| next());
            let c = Matrix::from_fn(n, k, |_, _| next());
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

/// Bitwise equality, treating NaN (degenerate variants) as equal to
/// itself — `assert_eq!` on f64 would reject NaN == NaN.
fn assert_bits_eq(got: &ScanResult, want: &ScanResult, what: &str) {
    assert_eq!(got.df, want.df, "{what}: df");
    assert_eq!(got.n_degenerate, want.n_degenerate, "{what}: n_degenerate");
    for (name, g, w) in [
        ("beta", &got.beta, &want.beta),
        ("se", &got.se, &want.se),
        ("t", &got.t, &want.t),
        ("p", &got.p, &want.p),
    ] {
        assert_eq!(g.len(), w.len(), "{what}: {name} length");
        for (j, (a, b)) in g.iter().zip(w.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}[{j}] {a} vs {b}");
        }
    }
}

fn run(parties: &[PartyData], cfg: &SecureScanConfig) -> SecureScanOutput {
    secure_scan(parties, cfg).unwrap()
}

const ALL_RF: [RFactorMode; 3] = [
    RFactorMode::PublicStack,
    RFactorMode::PairwiseTree,
    RFactorMode::GramAggregate,
];
const ALL_AGG: [AggregationMode; 5] = [
    AggregationMode::Public,
    AggregationMode::SecureShares,
    AggregationMode::MaskedPrg,
    AggregationMode::MaskedStar,
    AggregationMode::BeaverDots,
];

/// The full mode matrix × block sizes {1, odd divisor, non-divisor, M,
/// larger than M}: every blocked run must reproduce the monolithic run
/// bit for bit.
#[test]
fn blocked_bit_identical_across_modes_and_block_sizes() {
    let m = 6;
    let parties = gen_parties(&[14, 19, 12], m, 2, 41);
    for rf in ALL_RF {
        for agg in ALL_AGG {
            let base = SecureScanConfig {
                rfactor: rf,
                aggregation: agg,
                seed: 23,
                ..SecureScanConfig::default()
            };
            let mono = run(&parties, &base);
            for block in [1, 3, 4, m, m + 3] {
                let blocked = run(
                    &parties,
                    &SecureScanConfig {
                        block_size: Some(block),
                        ..base
                    },
                );
                assert_bits_eq(
                    &blocked.result,
                    &mono.result,
                    &format!("{rf:?}/{agg:?} block={block}"),
                );
                assert_eq!(
                    blocked.per_block_bytes.len(),
                    m.div_ceil(block),
                    "{rf:?}/{agg:?} block={block}: one traffic entry per block"
                );
                assert!(
                    blocked.per_block_bytes.iter().all(|&b| b > 0),
                    "{rf:?}/{agg:?} block={block}: every block round moves bytes"
                );
                assert!(
                    blocked.per_block_bytes.iter().sum::<u64>() < blocked.network.total_bytes,
                    "{rf:?}/{agg:?} block={block}: unscoped phases also move bytes"
                );
            }
            assert!(
                mono.per_block_bytes.is_empty(),
                "monolithic runs report no per-block traffic"
            );
        }
    }
}

/// Party counts 2 and 4 (the matrix above covers 3).
#[test]
fn blocked_bit_identical_for_two_and_four_parties() {
    for (sizes, seed) in [(&[20, 15][..], 7u64), (&[9, 14, 11, 16][..], 8)] {
        let parties = gen_parties(sizes, 5, 2, seed);
        for agg in [AggregationMode::MaskedStar, AggregationMode::BeaverDots] {
            let base = SecureScanConfig {
                rfactor: RFactorMode::GramAggregate,
                aggregation: agg,
                seed,
                ..SecureScanConfig::default()
            };
            let mono = run(&parties, &base);
            let blocked = run(
                &parties,
                &SecureScanConfig {
                    block_size: Some(2),
                    ..base
                },
            );
            assert_bits_eq(
                &blocked.result,
                &mono.result,
                &format!("p={} {agg:?}", sizes.len()),
            );
        }
    }
}

/// The worker-thread count of the block producer must never change the
/// results (each column's dots are computed by exactly one worker, in
/// column order).
#[test]
fn blocked_thread_count_does_not_change_bits() {
    let parties = gen_parties(&[25, 30], 9, 3, 99);
    let base = SecureScanConfig {
        block_size: Some(4),
        seed: 3,
        ..SecureScanConfig::default()
    };
    let one = run(&parties, &base);
    for threads in [2, 3, 8] {
        let multi = run(&parties, &SecureScanConfig { threads, ..base });
        assert_bits_eq(&multi.result, &one.result, &format!("threads={threads}"));
    }
}

/// Blocked runs must also agree with the *plaintext pooled* scan to
/// numerical precision (the end-to-end correctness anchor).
#[test]
fn blocked_matches_pooled_plaintext() {
    let parties = gen_parties(&[22, 17, 21], 7, 2, 55);
    let reference = associate(&pool_parties(&parties).unwrap()).unwrap();
    let cfg = SecureScanConfig {
        aggregation: AggregationMode::BeaverDots,
        rfactor: RFactorMode::GramAggregate,
        block_size: Some(3),
        threads: 2,
        seed: 17,
        ..SecureScanConfig::default()
    };
    let out = run(&parties, &cfg);
    let d = out.result.max_rel_diff(&reference).unwrap();
    assert!(d < 2e-5, "blocked secure vs pooled plaintext: {d}");
}

#[test]
fn zero_block_size_and_zero_threads_rejected() {
    let parties = gen_parties(&[10, 10], 2, 1, 1);
    let cfg = SecureScanConfig {
        block_size: Some(0),
        ..SecureScanConfig::default()
    };
    assert!(matches!(
        secure_scan(&parties, &cfg),
        Err(CoreError::BadConfig { .. })
    ));
    let cfg = SecureScanConfig {
        threads: 0,
        ..SecureScanConfig::default()
    };
    assert!(matches!(
        secure_scan(&parties, &cfg),
        Err(CoreError::BadConfig { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(6, "DASH_BLOCKED_CASES"))]

    /// Randomized partitions, shapes, modes, and block sizes: blocked
    /// results are bit-identical to monolithic ones.
    #[test]
    fn blocked_equals_monolithic_bitwise(
        sizes in proptest::collection::vec(6usize..25, 2..5),
        m in 1usize..11,
        k in 0usize..10,
        block in 1usize..14,
        threads in 1usize..5,
        seed in 0u64..1000,
        agg_idx in 0usize..5,
    ) {
        let total: usize = sizes.iter().sum();
        prop_assume!(total > k + 3);
        let parties = gen_parties(&sizes, m, k, seed);
        let base = SecureScanConfig {
            aggregation: ALL_AGG[agg_idx],
            seed,
            ..SecureScanConfig::default()
        };
        let mono = secure_scan(&parties, &base).unwrap();
        let blocked = secure_scan(&parties, &SecureScanConfig {
            block_size: Some(block),
            threads,
            ..base
        }).unwrap();
        prop_assert_eq!(blocked.result.df, mono.result.df);
        prop_assert_eq!(blocked.result.n_degenerate, mono.result.n_degenerate);
        for j in 0..m {
            prop_assert_eq!(blocked.result.beta[j].to_bits(), mono.result.beta[j].to_bits(),
                "beta[{}] {} vs {}", j, blocked.result.beta[j], mono.result.beta[j]);
            prop_assert_eq!(blocked.result.se[j].to_bits(), mono.result.se[j].to_bits());
            prop_assert_eq!(blocked.result.t[j].to_bits(), mono.result.t[j].to_bits());
            prop_assert_eq!(blocked.result.p[j].to_bits(), mono.result.p[j].to_bits());
        }
    }
}
