//! Safeguarded scalar root finding.

use crate::error::StatsError;

/// Result of a [`bisect_newton`] root solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootResult {
    /// The root found.
    pub x: f64,
    /// Residual `f(x)` at the root.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Finds a root of `f` on the bracket `[a, b]` using Newton steps
/// safeguarded by bisection: any Newton step leaving the bracket, or
/// shrinking it too slowly, falls back to a bisection step.
///
/// `fdf(x)` returns `(f(x), f′(x))` in one call, so a residual and its
/// derivative that share work (the Weibull shape equation's sums) cost one
/// pass per iterate. The caller passes the bracket ends with their known
/// residuals `fa = f(a)` and `fb = f(b)`, typically left over from its own
/// bracket search; `fdf` is called exactly once per iterate and never at
/// `a` or `b`. Only the signs of `fa` and `fb` (and whether one is exactly
/// `0`) are read, so a caller that can prove a bracket end's sign may pass
/// `±1` there instead of evaluating `f`: the result is the same.
///
/// This is the textbook-reliable combination used for the Weibull shape
/// equation in `mpe-mle`, whose residual is smooth and monotone but whose
/// derivative can be tiny for large shapes.
///
/// # Errors
///
/// Returns [`StatsError::InvalidArgument`] if the bracket is invalid or
/// `fa` and `fb` have the same sign, and [`StatsError::NoConvergence`]
/// if 200 iterations pass without meeting `tol`.
///
/// # Example
///
/// ```
/// use mpe_stats::optimize::bisect_newton;
/// # fn main() -> Result<(), mpe_stats::StatsError> {
/// // root of x² − 2 on [0, 2], where f(0) = −2 and f(2) = 2
/// let r = bisect_newton(|x| (x * x - 2.0, 2.0 * x), (0.0, -2.0), (2.0, 2.0), 1e-14)?;
/// assert!((r.x - 2f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn bisect_newton<F>(
    mut fdf: F,
    (a, fa): (f64, f64),
    (b, fb): (f64, f64),
    tol: f64,
) -> Result<RootResult, StatsError>
where
    F: FnMut(f64) -> (f64, f64),
{
    if !(a.is_finite() && b.is_finite() && a < b) {
        return Err(StatsError::invalid("a/b", "finite and a < b", b - a));
    }
    if tol <= 0.0 {
        return Err(StatsError::invalid("tol", "tol > 0", tol));
    }
    if fa == 0.0 {
        return Ok(RootResult {
            x: a,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(RootResult {
            x: b,
            residual: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(StatsError::invalid(
            "bracket",
            "f(a) and f(b) must have opposite signs",
            fa * fb,
        ));
    }

    let (mut lo, mut hi) = (a, b);
    let mut flo = fa;
    let mut x = 0.5 * (lo + hi);
    for it in 1..=200 {
        let (fx, d) = fdf(x);
        if fx.abs() < tol || (hi - lo) < tol * (1.0 + x.abs()) {
            return Ok(RootResult {
                x,
                residual: fx,
                iterations: it,
            });
        }
        // Maintain the bracket.
        if fx.signum() == flo.signum() {
            lo = x;
            flo = fx;
        } else {
            hi = x;
        }
        // Attempt a Newton step; fall back to bisection when unusable.
        let newton = x - fx / d;
        x = if d.is_finite() && d != 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(StatsError::NoConvergence {
        routine: "bisect_newton",
        iterations: 200,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves with `f`/`df`, evaluating the bracket ends itself, and checks
    /// that `fdf` runs exactly once per iterate and never at `a` or `b`.
    fn solve(
        f: impl Fn(f64) -> f64,
        df: impl Fn(f64) -> f64,
        a: f64,
        b: f64,
        tol: f64,
    ) -> Result<RootResult, StatsError> {
        let mut calls = 0;
        let result = bisect_newton(
            |x| {
                assert!(x != a && x != b, "fdf called at a bracket end {x}");
                calls += 1;
                (f(x), df(x))
            },
            (a, f(a)),
            (b, f(b)),
            tol,
        );
        let iterations = match &result {
            Ok(r) => r.iterations,
            Err(StatsError::NoConvergence { iterations, .. }) => *iterations,
            Err(_) => 0,
        };
        assert_eq!(calls, iterations, "one fdf call per iterate");
        result
    }

    // Roots and iteration counts below are those of the earlier two-closure
    // `bisect_newton(f, df, a, b, tol)`, which evaluated `f(a)` and `f(b)`
    // itself: the iterates must not change.

    #[test]
    fn sqrt_two() {
        let r = solve(|x| x * x - 2.0, |x| 2.0 * x, 0.0, 2.0, 1e-14).unwrap();
        assert_eq!(r.x, std::f64::consts::SQRT_2);
        assert_eq!(r.iterations, 6);
    }

    #[test]
    fn transcendental_root() {
        // x = cos(x) near 0.739
        let r = solve(|x| x - x.cos(), |x| 1.0 + x.sin(), 0.0, 1.0, 1e-14).unwrap();
        assert_eq!(r.x.to_bits(), 0x3fe7_a695_dd83_ce2e);
        assert_eq!(r.iterations, 5);
    }

    #[test]
    fn endpoint_root_detected() {
        let r = solve(|x| x, |_| 1.0, 0.0, 1.0, 1e-12).unwrap();
        assert_eq!(r.x, 0.0);
        assert_eq!(r.iterations, 0);
        let r = solve(|x| x - 1.0, |_| 1.0, 0.0, 1.0, 1e-12).unwrap();
        assert_eq!(r.x, 1.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn bad_derivative_still_converges() {
        // Supply a garbage derivative; bisection fallback must still work.
        let r = solve(|x| x * x * x - 8.0, |_| 0.0, 0.0, 10.0, 1e-10).unwrap();
        assert_eq!(r.x.to_bits(), 0x3fff_ffff_fffe_0000);
        assert_eq!(r.iterations, 36);
    }

    #[test]
    fn same_sign_bracket_rejected() {
        assert!(matches!(
            solve(|x| x * x + 1.0, |x| 2.0 * x, -1.0, 1.0, 1e-10),
            Err(StatsError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            solve(|x| x, |_| 1.0, 1.0, 0.0, 1e-10),
            Err(StatsError::InvalidArgument { .. })
        ));
        assert!(matches!(
            solve(|x| x, |_| 1.0, -1.0, 1.0, -1e-10),
            Err(StatsError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn bracket_end_signs_suffice() {
        // `±1` in place of the true end residuals: the same iterates.
        fn same(f: impl Fn(f64) -> f64, df: impl Fn(f64) -> f64, a: f64, b: f64) {
            let fdf = |x: f64| (f(x), df(x));
            let full = bisect_newton(fdf, (a, f(a)), (b, f(b)), 1e-12).unwrap();
            let signs = bisect_newton(fdf, (a, f(a).signum()), (b, f(b).signum()), 1e-12);
            assert_eq!(signs.unwrap(), full);
        }
        same(|x| x * x - 2.0, |x| 2.0 * x, 0.0, 2.0);
        same(|x| x - x.cos(), |x| 1.0 + x.sin(), 0.0, 1.0);
        // Decreasing, with a useless derivative: bisection throughout.
        same(|x| 8.0 - x * x * x, |_| 0.0, 0.0, 10.0);
    }

    #[test]
    fn steep_function() {
        // f(x) = tanh(50(x-0.3)) has a very steep root at 0.3
        let r = solve(
            |x| (50.0 * (x - 0.3)).tanh(),
            |x| 50.0 / (50.0 * (x - 0.3)).cosh().powi(2),
            0.0,
            1.0,
            1e-12,
        )
        .unwrap();
        assert_eq!(r.x, 0.3);
        assert_eq!(r.iterations, 8);
    }
}
