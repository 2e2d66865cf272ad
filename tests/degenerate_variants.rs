//! A variant with no variation left after the covariates yields NaN
//! statistics. A multi-party secure scan over such a variant must still
//! succeed — in debug builds too, where every party's result is checked
//! against party 0's — and report the variant as degenerate.

use dash_core::model::PartyData;
use dash_core::secure::{secure_scan, SecureScanConfig};
use dash_gwas::pheno::{normal_matrix, normal_vec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two parties whose variant 1 is all zeros at both.
fn parties_with_zero_variant() -> Vec<PartyData> {
    let mut rng = StdRng::seed_from_u64(17);
    [24, 31]
        .into_iter()
        .map(|n| {
            let y = normal_vec(n, &mut rng);
            let mut x = normal_matrix(n, 5, &mut rng);
            x.col_mut(1).fill(0.0);
            let c = normal_matrix(n, 2, &mut rng);
            PartyData::new(y, x, c).unwrap()
        })
        .collect()
}

fn assert_one_degenerate(cfg: &SecureScanConfig) {
    let out = secure_scan(&parties_with_zero_variant(), cfg).unwrap();
    let r = &out.result;
    assert_eq!(r.n_degenerate, 1, "block_size {:?}", cfg.block_size);
    assert!(r.beta[1].is_nan() && r.p[1].is_nan());
    for j in [0, 2, 3, 4] {
        assert!(r.beta[j].is_finite() && r.p[j].is_finite(), "variant {j}");
    }
}

#[test]
fn degenerate_variant_on_the_monolithic_path() {
    assert_one_degenerate(&SecureScanConfig::default());
}

#[test]
fn degenerate_variant_on_the_blocked_path() {
    assert_one_degenerate(&SecureScanConfig {
        block_size: Some(2),
        ..SecureScanConfig::default()
    });
}
