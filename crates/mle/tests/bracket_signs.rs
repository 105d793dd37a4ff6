//! The inner shape solve decides its bracket-end signs without a `powf`
//! pass where a proof covers them. These tests hold every fit to the bits
//! of a copy of the solve that still runs that pass at every bracket end
//! (and refits the final endpoint), across scales, sample sizes and the
//! data that trips each guard.

use mpe_evt::ReversedWeibull;
use mpe_mle::profile::fit_reversed_weibull;
use mpe_mle::weibull2::fit_weibull2;
use mpe_mle::MleError;
use mpe_stats::optimize::{bisect_newton, golden_section};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sample sizes: the minimum, the paper's `m = 10` and its leave-one-out
/// `m − 1`, and two larger sets.
const SIZES: [usize; 5] = [3, 9, 10, 65, 200];

/// The reference solve: `fit_weibull2` as it was before the bracket-end
/// signs were proven, returning `(α̂, β̂, mean log-likelihood)`.
mod reference {
    use super::*;

    fn power_sums(y: &[f64], ln_y: &[f64], alpha: f64) -> (f64, f64, f64) {
        let (mut s, mut sl, mut sll) = (0.0, 0.0, 0.0);
        for (&v, &l) in y.iter().zip(ln_y) {
            let p = v.powf(alpha);
            s += p;
            sl += p * l;
            sll += p * l * l;
        }
        (s, sl, sll)
    }

    pub fn fit_weibull2(y: &[f64]) -> Result<(f64, f64, f64), MleError> {
        let m = y.len();
        if m < 3 {
            return Err(MleError::InsufficientData { needed: 3, got: m });
        }
        if y.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
            return Err(MleError::DegenerateSample {
                reason: "all observations must be strictly positive and finite",
            });
        }
        let ln_y: Vec<f64> = y.iter().map(|&v| v.max(1e-300).ln()).collect();
        let ln_y = &ln_y[..];
        let mean_ln: f64 = ln_y.iter().sum::<f64>() / m as f64;
        let spread = ln_y
            .iter()
            .map(|&l| (l - mean_ln).abs())
            .fold(0.0, f64::max);
        if spread < 1e-12 {
            return Err(MleError::DegenerateSample {
                reason: "all observations identical; shape is unbounded",
            });
        }
        let mut last = (f64::NAN, 0.0);
        let mut shape = |alpha: f64| -> (f64, f64) {
            let (s, sl, sll) = power_sums(y, ln_y, alpha);
            last = (alpha, s);
            let dg = (sll * s - sl * sl) / (s * s) + 1.0 / (alpha * alpha);
            (sl / s - 1.0 / alpha - mean_ln, dg)
        };
        let mut lo = 1e-3;
        let mut g_lo = shape(lo).0;
        while g_lo > 0.0 && lo > 1e-12 {
            lo /= 10.0;
            g_lo = shape(lo).0;
        }
        let mut hi = 10.0;
        let mut g_hi = shape(hi).0;
        let mut grow = 0;
        while g_hi < 0.0 {
            hi *= 4.0;
            grow += 1;
            if grow > 40 {
                return Err(MleError::NoConvergence {
                    stage: "weibull2 shape bracket",
                });
            }
            g_hi = shape(hi).0;
        }
        let root = bisect_newton(&mut shape, (lo, g_lo), (hi, g_hi), 1e-12).map_err(|_| {
            MleError::NoConvergence {
                stage: "weibull2 shape equation",
            }
        })?;
        let alpha = root.x;
        let sum_pow = if last.0 == alpha {
            last.1
        } else {
            power_sums(y, ln_y, alpha).0
        };
        let beta = m as f64 / sum_pow;
        let mll = alpha.ln() + beta.ln() + (alpha - 1.0) * mean_ln - beta * sum_pow / m as f64;
        if !(beta.is_finite() && mll.is_finite()) {
            return Err(MleError::DegenerateSample {
                reason: "sum of y^alpha under- or overflows; the scale is not representable",
            });
        }
        Ok((alpha, beta, mll))
    }

    fn inner_at(data: &[f64], mu: f64) -> Result<(f64, f64, f64), MleError> {
        let y: Vec<f64> = data.iter().map(|&x| mu - x).collect();
        fit_weibull2(&y)
    }

    fn profile_mll(data: &[f64], mu: f64) -> f64 {
        inner_at(data, mu).map_or(f64::NEG_INFINITY, |fit| fit.2)
    }

    /// The profile fit with default options, returning
    /// `(α̂, β̂, μ̂, mean log-likelihood)`.
    pub fn fit_reversed_weibull(data: &[f64]) -> Result<[f64; 4], MleError> {
        let (grid_points, ln_lo, ln_hi, tolerance) = (48, 1e-4f64.ln(), 4f64.ln(), 1e-10);
        let m = data.len();
        if m < 5 {
            return Err(MleError::InsufficientData { needed: 5, got: m });
        }
        if data.iter().any(|v| !v.is_finite()) {
            return Err(MleError::DegenerateSample {
                reason: "data must be finite",
            });
        }
        let x_max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x_min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let range = x_max - x_min;
        if range <= 0.0 {
            return Err(MleError::DegenerateSample {
                reason: "zero sample range",
            });
        }
        let offsets: Vec<f64> = (0..grid_points)
            .map(|j| {
                let t = j as f64 / (grid_points - 1) as f64;
                range * (ln_lo + t * (ln_hi - ln_lo)).exp()
            })
            .collect();
        let (mut best_j, mut best_ll) = (0usize, f64::NEG_INFINITY);
        for (j, &off) in offsets.iter().enumerate() {
            let ll = profile_mll(data, x_max + off);
            if ll > best_ll {
                best_ll = ll;
                best_j = j;
            }
        }
        if best_ll == f64::NEG_INFINITY {
            return Err(MleError::NoConvergence {
                stage: "profile grid scan",
            });
        }
        let lo = x_max + offsets[best_j.saturating_sub(1)];
        let hi = x_max + offsets[(best_j + 1).min(offsets.len() - 1)];
        let mu_hat = if hi > lo {
            golden_section(|mu| -profile_mll(data, mu), lo, hi, tolerance)
                .map_err(|_| MleError::NoConvergence {
                    stage: "profile refinement",
                })?
                .x
        } else {
            x_max + offsets[best_j]
        };
        let (alpha, beta, mll) = inner_at(data, mu_hat)?;
        let d = ReversedWeibull::new(alpha, beta, mu_hat)?;
        Ok([d.alpha(), d.beta(), d.mu(), mll])
    }
}

fn bits<const N: usize>(values: [f64; N]) -> [u64; N] {
    values.map(f64::to_bits)
}

/// Asserts that the shipped inner fit and the reference agree bit for bit
/// (or fail with the same error) on `y`; returns whether it fitted.
fn check_weibull2(y: &[f64], label: &str) -> bool {
    let got = fit_weibull2(y).map(|f| bits([f.alpha, f.beta, f.mean_log_likelihood]));
    let want = reference::fit_weibull2(y).map(|(a, b, l)| bits([a, b, l]));
    assert_eq!(got, want, "{label}: y = {y:?}");
    got.is_ok()
}

/// As [`check_weibull2`] for the three-parameter profile fit.
fn check_profile(data: &[f64], label: &str) -> bool {
    let got = fit_reversed_weibull(data).map(|f| {
        let d = f.distribution;
        bits([d.alpha(), d.beta(), d.mu(), f.mean_log_likelihood])
    });
    let want = reference::fit_reversed_weibull(data).map(bits);
    assert_eq!(got, want, "{label}: data = {data:?}");
    got.is_ok()
}

/// `10^u` for `u` uniform on `[lo, hi)`.
fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi))
}

/// `m` Weibull variates of shape `alpha` times `scale`.
fn weibull(rng: &mut SmallRng, m: usize, alpha: f64, scale: f64) -> Vec<f64> {
    (0..m)
        .map(|_| scale * (-rng.gen_range(1e-12..1.0f64).ln()).powf(1.0 / alpha))
        .collect()
}

/// `m` values `scale·(1 + δ·u)`: near-constant data with a large root.
fn near_constant(rng: &mut SmallRng, m: usize, delta: f64, scale: f64) -> Vec<f64> {
    (0..m)
        .map(|_| scale * (1.0 + delta * rng.gen_range(0.0..1.0f64)))
        .collect()
}

#[test]
fn weibull2_matches_reference_across_scales() {
    let mut rng = SmallRng::seed_from_u64(0xB5AC_0001);
    let mut fitted = 0;
    for case in 0..6_000 {
        let m = SIZES[case % SIZES.len()];
        let scale = log_uniform(&mut rng, -150.0, 150.0);
        let alpha = log_uniform(&mut rng, -0.7, 1.7);
        let y = weibull(&mut rng, m, alpha, scale);
        fitted += check_weibull2(
            &y,
            &format!("case {case}: weibull α {alpha} scale {scale:e}"),
        ) as usize;
    }
    // Underflow and overflow of Σy^α fail at the extreme scales: the
    // comparison above covers those errors, but most cases must fit.
    assert!(fitted > 3_000, "only {fitted} of 6000 fitted");
}

#[test]
fn weibull2_matches_reference_on_near_constant_data() {
    let mut rng = SmallRng::seed_from_u64(0xB5AC_0002);
    let mut fitted = 0;
    for case in 0..3_000 {
        let m = SIZES[case % SIZES.len()];
        // Half the cases sit at y ≈ 1 (roots up to ~1e10, many growth
        // steps inside the 600 guard); the rest at any scale, where
        // α·max|ln y| ≥ 600 sends most bracket ends back to the pass.
        let scale = if case % 2 == 0 {
            1.0
        } else {
            log_uniform(&mut rng, -150.0, 150.0)
        };
        let delta = log_uniform(&mut rng, -10.0, -1.0);
        let y = near_constant(&mut rng, m, delta, scale);
        fitted += check_weibull2(&y, &format!("case {case}: δ {delta:e} scale {scale:e}")) as usize;
    }
    assert!(fitted > 1_000, "only {fitted} of 3000 fitted");
}

#[test]
fn weibull2_matches_reference_with_roots_at_bracket_ends() {
    // y^c moves the root from α* to α*/c, so c = α*/(10·4^k) puts it on a
    // bracket end, where the residual's sign is decided by rounding: the
    // margin must send every such end back to the pass.
    let mut rng = SmallRng::seed_from_u64(0xB5AC_0003);
    let mut placed = 0;
    for case in 0..1_000 {
        let m = SIZES[case % SIZES.len()];
        let alpha = log_uniform(&mut rng, -0.5, 1.0);
        let y = weibull(&mut rng, m, alpha, 1.0);
        let Ok((root, _, _)) = reference::fit_weibull2(&y) else {
            continue;
        };
        let end = 10.0 * 4f64.powi((case % 4) as i32);
        let scale = [1.0, 1e-3, 1e3][case % 3];
        let moved: Vec<f64> = y.iter().map(|&v| scale * v.powf(root / end)).collect();
        check_weibull2(&moved, &format!("case {case}: root moved to {end}"));
        placed += 1;
    }
    assert!(placed > 900, "only {placed} roots placed");
}

#[test]
fn weibull2_matches_reference_where_guards_trip() {
    let mut rng = SmallRng::seed_from_u64(0xB5AC_0004);
    for case in 0..400 {
        let m = SIZES[case % SIZES.len()];
        // One huge value over tiny ones: max ln y − mean ln y ≥ 999 once
        // m ≥ 10, the widest spread the lower end's sign proof covers.
        let mut y: Vec<f64> = (0..m)
            .map(|_| log_uniform(&mut rng, -300.0, -280.0))
            .collect();
        y[case % m] = log_uniform(&mut rng, 290.0, 308.0);
        check_weibull2(&y, &format!("case {case}: lower end"));
        // Spread over many decades: α·max|ln y| ≥ 600 from the first end.
        let y: Vec<f64> = (0..m).map(|_| log_uniform(&mut rng, -30.0, 30.0)).collect();
        check_weibull2(&y, &format!("case {case}: upper guard"));
    }
    // Identical, too-few and non-positive data fail alike.
    for y in [
        &[2.0, 2.0, 2.0][..],
        &[1.0, 2.0],
        &[1.0, 0.0, 3.0],
        &[1.0, 1.0 + 1e-15, 1.0],
    ] {
        check_weibull2(y, "degenerate");
    }
}

#[test]
fn profile_fit_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0xB5AC_0005);
    let mut fitted = 0;
    // The profile fit needs m ≥ 5; m = 3 checks the error.
    for case in 0..500 {
        let m = SIZES[case % SIZES.len()];
        let scale = log_uniform(&mut rng, -150.0, 150.0);
        let y = if case % 3 < 2 {
            let alpha = log_uniform(&mut rng, 0.0, 1.3);
            weibull(&mut rng, m, alpha, scale)
        } else {
            let delta = log_uniform(&mut rng, -8.0, -1.0);
            near_constant(&mut rng, m, delta, scale)
        };
        let mu = 10.0 * scale;
        let data: Vec<f64> = y.iter().map(|&v| mu - v).collect();
        fitted += check_profile(&data, &format!("case {case}: scale {scale:e}")) as usize;
    }
    assert!(fitted > 250, "only {fitted} of 500 fitted");
}
