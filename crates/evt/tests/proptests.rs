//! Property-based tests for the extreme-value distributions.

use mpe_evt::{Gumbel, ReversedWeibull};
use mpe_stats::dist::ContinuousDistribution;
use rand::{check, Rng};

const CASES: u32 = 256;

#[test]
fn weibull_cdf_bounded_and_monotone() {
    check(CASES, |rng| {
        let alpha = rng.gen_range(0.2f64..20.0);
        let beta = rng.gen_range(0.01f64..100.0);
        let mu = rng.gen_range(-100.0f64..100.0);
        let x = rng.gen_range(-1000.0f64..1000.0);
        let g = ReversedWeibull::new(alpha, beta, mu).unwrap();
        let c = g.cdf(x);
        assert!((0.0..=1.0).contains(&c));
        assert!(g.cdf(x + 0.5) >= c - 1e-12);
        assert!(g.cdf(mu) == 1.0);
    });
}

#[test]
fn weibull_quantile_roundtrip() {
    check(CASES, |rng| {
        let alpha = rng.gen_range(0.5f64..10.0);
        let beta = rng.gen_range(0.05f64..20.0);
        let mu = rng.gen_range(-10.0f64..10.0);
        let q = rng.gen_range(0.001f64..1.0);
        let g = ReversedWeibull::new(alpha, beta, mu).unwrap();
        let x = g.quantile(q).unwrap();
        assert!(x <= mu);
        assert!((g.cdf(x) - q).abs() < 1e-9);
    });
}

#[test]
fn weibull_max_stability() {
    check(CASES, |rng| {
        let alpha = rng.gen_range(0.5f64..10.0);
        let beta = rng.gen_range(0.05f64..20.0);
        let mu = rng.gen_range(-10.0f64..10.0);
        let n = rng.gen_range(2usize..100);
        let x = rng.gen_range(-20.0f64..9.99);
        let g = ReversedWeibull::new(alpha, beta, mu).unwrap();
        let gn = g.maximum_of(n);
        let lhs = gn.cdf(x);
        let rhs = g.cdf(x).powi(n as i32);
        assert!((lhs - rhs).abs() < 1e-9);
    });
}

#[test]
fn gumbel_quantile_roundtrip() {
    check(CASES, |rng| {
        let mu = rng.gen_range(-50.0f64..50.0);
        let sigma = rng.gen_range(0.1f64..20.0);
        let q = rng.gen_range(0.001f64..0.999);
        let g = Gumbel::new(mu, sigma).unwrap();
        assert!((g.cdf(g.quantile(q).unwrap()) - q).abs() < 1e-9);
    });
}

/// GPD: CDF bounded/monotone, quantile roundtrip, endpoint semantics.
#[test]
fn gpd_cdf_properties() {
    check(CASES, |rng| {
        let xi = rng.gen_range(-2.0f64..2.0);
        let sigma = rng.gen_range(0.05f64..20.0);
        let y = rng.gen_range(0.0f64..100.0);
        let g = mpe_evt::GeneralizedPareto::new(xi, sigma).unwrap();
        let c = g.cdf(y);
        assert!((0.0..=1.0).contains(&c));
        assert!(g.cdf(y + 0.5) >= c - 1e-12);
        if xi < 0.0 {
            let endpoint = g.excess_endpoint().unwrap();
            assert!((g.cdf(endpoint) - 1.0).abs() < 1e-9);
        }
    });
}

#[test]
fn gpd_quantile_roundtrip() {
    check(CASES, |rng| {
        let xi = rng.gen_range(-1.5f64..1.5);
        let sigma = rng.gen_range(0.1f64..10.0);
        let p = rng.gen_range(0.0f64..0.999);
        let g = mpe_evt::GeneralizedPareto::new(xi, sigma).unwrap();
        let y = g.inverse_cdf(p).unwrap();
        assert!(y >= 0.0);
        assert!((g.cdf(y) - p).abs() < 1e-8);
    });
}

/// Return levels are monotone in period and always below the endpoint.
#[test]
fn return_levels_monotone() {
    use mpe_evt::return_level::return_level;
    check(CASES, |rng| {
        let alpha = rng.gen_range(0.5f64..10.0);
        let beta = rng.gen_range(0.1f64..10.0);
        let mu = rng.gen_range(-10.0f64..10.0);
        let p1 = rng.gen_range(100u64..100_000);
        let factor = rng.gen_range(2u64..100);
        let w = ReversedWeibull::new(alpha, beta, mu).unwrap();
        let l1 = return_level(&w, 30, p1.max(31)).unwrap();
        let l2 = return_level(&w, 30, p1.max(31) * factor).unwrap();
        assert!(l2 >= l1);
        assert!(l2 < mu);
    });
}
