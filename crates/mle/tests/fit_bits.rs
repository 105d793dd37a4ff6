//! Pins the exact bits of the profile-likelihood fit.
//!
//! Every row is `to_bits()` of a fit's outputs on seeded data. A change to
//! the fit's arithmetic that is meant to be bit-identical (buffer reuse,
//! fused passes) must leave this table unchanged; a change meant to move
//! the numbers regenerates it from the failure message, which prints the
//! whole table as it now comes out.

use mpe_evt::ReversedWeibull;
use mpe_mle::profile::{fit_reversed_weibull, WeibullFit};
use mpe_mle::weibull2::fit_weibull2;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Reversed-Weibull parents `(α, β, μ)` for the m = 10 fits.
const PARENTS: [(f64, f64, f64); 3] = [(1.5, 2.0, 3.0), (3.0, 1.0, 10.0), (5.0, 0.5, 100.0)];
/// Seeds per parent.
const SEEDS: u64 = 11;
/// Hyper-sample size of the paper's pipeline.
const M: usize = 10;

/// `(α̂, β̂, μ̂, mean log-likelihood)` bits of a reversed-Weibull fit.
fn profile_bits(fit: &WeibullFit) -> [u64; 4] {
    [
        fit.distribution.alpha().to_bits(),
        fit.distribution.beta().to_bits(),
        fit.mu_hat().to_bits(),
        fit.mean_log_likelihood.to_bits(),
    ]
}

fn parent_sample(parent: (f64, f64, f64), seed: u64) -> Vec<f64> {
    let (alpha, beta, mu) = parent;
    let truth = ReversedWeibull::new(alpha, beta, mu).unwrap();
    truth.sample_n(&mut SmallRng::seed_from_u64(seed), M)
}

/// One labelled row per fit, in table order.
fn actual_rows() -> Vec<(String, Vec<u64>)> {
    let mut rows = Vec::new();
    for (p, &parent) in PARENTS.iter().enumerate() {
        for seed in 0..SEEDS {
            let data = parent_sample(parent, 1000 * p as u64 + seed);
            let fit = fit_reversed_weibull(&data).unwrap();
            rows.push((
                format!("alpha {} seed {seed}", parent.0),
                profile_bits(&fit).to_vec(),
            ));
        }
    }
    // The jackknife path: one leave-one-out refit on m − 1 = 9 maxima.
    let mut loo = parent_sample(PARENTS[1], 1003);
    loo.remove(4);
    let fit = fit_reversed_weibull(&loo).unwrap();
    rows.push(("loo m=9".to_string(), profile_bits(&fit).to_vec()));
    // The inner two-parameter fit, direct, across scales.
    for scale in [1e-6, 1.0, 1e6] {
        let mut rng = SmallRng::seed_from_u64(77);
        let y: Vec<f64> = (0..M)
            .map(|_| scale * (-rng.gen_range(1e-12..1.0f64).ln()).powf(1.0 / 3.0))
            .collect();
        let fit = fit_weibull2(&y).unwrap();
        let bits = [fit.alpha, fit.beta, fit.mean_log_likelihood].map(f64::to_bits);
        rows.push((format!("weibull2 scale {scale:e}"), bits.to_vec()));
    }
    rows
}

/// Expected bits, generated before the fused inner solve landed.
#[rustfmt::skip]
const EXPECTED: &[&[u64]] = &[
    // alpha 1.5 seed 0
    &[0x402fac913533dfaa, 0x3e8f21266a33ec46, 0x4014a799c82e9d8b, 0x3fcb88f4d585c700],
    // alpha 1.5 seed 1
    &[0x3ffdf92bd0d54160, 0x3ffad3a61a304d7e, 0x400830867e157000, 0xbfd81cbea3538b16],
    // alpha 1.5 seed 2
    &[0x3fe82a8f81ccbf70, 0x3ffe2eab6b2a008c, 0x4006b137bed0d1f5, 0xbfca3d9e4d15c098],
    // alpha 1.5 seed 3
    &[0x3fe9fd4c2bfdebd6, 0x4001fbd63091f04a, 0x400773bc50af0c92, 0xbfa38f405e655890],
    // alpha 1.5 seed 4
    &[0x3ffb244cd396f64c, 0x40080620e59d3b6d, 0x400803687ab10d69, 0xbfb270d22c49f738],
    // alpha 1.5 seed 5
    &[0x3fe31f3349f1c36c, 0x4010fea1255b5f4d, 0x4005e01b56dc05f6, 0x3ff562571d8ab440],
    // alpha 1.5 seed 6
    &[0x3fe66d7c4163ec89, 0x3ffe23371a03b048, 0x40077ee66fb04e2e, 0xbfc382570e92303c],
    // alpha 1.5 seed 7
    &[0x4007cc87614c92e9, 0x3ff88e0f1ea2cb2d, 0x40099ebfa5de6e15, 0xbfc4a3eba4c04234],
    // alpha 1.5 seed 8
    &[0x3ffa187b07e4a16a, 0x40128ca328a23514, 0x40068adc25cac842, 0x3fc86b07e7b4a1f8],
    // alpha 1.5 seed 9
    &[0x3feb85e0ec0f6de0, 0x3ff7e1454e290ed1, 0x400720a7c66d6951, 0xbfe204fd10e26ef9],
    // alpha 1.5 seed 10
    &[0x3fe91046f0c4aeca, 0x40033d99eb0a4f6d, 0x4006569cf111aa9b, 0x3fb282690acebb50],
    // alpha 3 seed 0
    &[0x4008743f943066e5, 0x3fec4bad893d4cba, 0x402402b0511499c3, 0xbfd503438a9c80ae],
    // alpha 3 seed 1
    &[0x3fe5535746486e28, 0x40023bee590e9f93, 0x4023121dac6b25cf, 0x3fc7593feff042a8],
    // alpha 3 seed 2
    &[0x3fe42273932ef136, 0x40031a617a337b4a, 0x4022c3f35b3e13d3, 0x3fd628c0aeab0650],
    // alpha 3 seed 3
    &[0x3fe7196f12bae2f3, 0x400a3cbeefcd2b74, 0x40229d87b4131f56, 0x3fe2b1a7cf076858],
    // alpha 3 seed 4
    &[0x3ffbd708eab9853c, 0x4000045b62332601, 0x40237e813b05a5c4, 0xbfd2c5d8b83ab028],
    // alpha 3 seed 5
    &[0x3ffc504abe9719f0, 0x3ffda7caf2d6ec1f, 0x40234c9dd403979e, 0xbfd619426cac29a2],
    // alpha 3 seed 6
    &[0x3ff8eba45a95dd61, 0x4010db8f0e1a87b8, 0x4022b9a302cc5c72, 0x3fc2d685ab9f8778],
    // alpha 3 seed 7
    &[0x3fe632a1fb3893d8, 0x400563972febc468, 0x4022844004289756, 0x3fd731cd168e90d8],
    // alpha 3 seed 8
    &[0x3fe5bcf1697ca1a0, 0x4006ee94d63d4e61, 0x4022841792359e78, 0x3fded0dcd9b9afa4],
    // alpha 3 seed 9
    &[0x40030ce4c96a1208, 0x3ff57adad548056a, 0x40237adf6d977459, 0xbfd6b6decae41c6e],
    // alpha 3 seed 10
    &[0x402163946566bede, 0x3f47fd66f38539fe, 0x4026f34efdfd4db5, 0xbfc82a87968362e0],
    // alpha 5 seed 0
    &[0x4037b5863248e15d, 0x3cd1e923c5972df5, 0x4059c60f037c75fb, 0x3fae25e7b6dbe000],
    // alpha 5 seed 1
    &[0x40205572d183d014, 0x3fa80bacbf7e0958, 0x40590b8a30b27165, 0x3fcaad24d66ccad0],
    // alpha 5 seed 2
    &[0x3feb2c70c09a53b8, 0x400934c21f5cb3b5, 0x4058cb0d769ec94d, 0x3fd4a538fffa93a8],
    // alpha 5 seed 3
    &[0x4036312b4f9fe9fb, 0x3d59d45feeacd058, 0x4059a45f859acb29, 0x3fc5854c9b08d480],
    // alpha 5 seed 4
    &[0x3fea5e5fdb91c869, 0x4010efdb75ee52bb, 0x4058cd4d5cc882f8, 0x3fe70c49d5e39172],
    // alpha 5 seed 5
    &[0x3fea1f68c16f30d9, 0x4007fc5bb0225644, 0x4058c874dbd6eac7, 0x3fd3bd3e0117ed28],
    // alpha 5 seed 6
    &[0x4034c0d12569b3ee, 0x3d88e8ae4737a1ed, 0x40599e61ca8f7da8, 0x3fc11cbf515d4880],
    // alpha 5 seed 7
    &[0x3ffebb8588fab80f, 0x3ff6299bd26158ec, 0x4058f47af5b3c8c3, 0xbfde5f1a4ef7a318],
    // alpha 5 seed 8
    &[0x3fe227ac3b4f8be2, 0x40052a111512b933, 0x4058cc7ddce5022c, 0x3fe574d6285ac24c],
    // alpha 5 seed 9
    &[0x401b2a6c1975d4f6, 0x3fac188c55be488c, 0x4059160c191e3885, 0xbf9155f53ffa6fc0],
    // alpha 5 seed 10
    &[0x4013fb3b236607a2, 0x403b662d5b57cba4, 0x4058ccf703d9aae7, 0x3fe97e1167fb28e8],
    // loo m=9
    &[0x3fe59257443ea1c4, 0x40083c70422be529, 0x40229d87b4131f56, 0x3fe2a4ecc5f539d0],
    // weibull2 scale 1e-6
    &[0x40072e0f437c6afe, 0x438e0ea1d4802bdb, 0x402b25872ccd815c],
    // weibull2 scale 1e0
    &[0x40072e0f437c6b02, 0x3ff1da6ec1491fef, 0xbfcf00db309f9188],
    // weibull2 scale 1e6
    &[0x40072e0f437c6b1b, 0x3c5535762494d5fc, 0xc02c1d8e06527de6],
];

#[test]
fn fit_bits_are_pinned() {
    let rows = actual_rows();
    let matches = rows.len() == EXPECTED.len()
        && rows
            .iter()
            .zip(EXPECTED)
            .all(|((_, got), want)| got == want);
    if !matches {
        let mut table = String::from("#[rustfmt::skip]\nconst EXPECTED: &[&[u64]] = &[\n");
        for (label, bits) in &rows {
            let hex: Vec<String> = bits.iter().map(|b| format!("0x{b:016x}")).collect();
            table += &format!("    // {label}\n    &[{}],\n", hex.join(", "));
        }
        table += "];\n";
        panic!("fit bits moved; the table now reads:\n{table}");
    }
}
