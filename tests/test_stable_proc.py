import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import erfc, ndtr

from combwalk import (
    ks_distance,
    sample_positive_stable,
    sample_stable,
    stable_cdf_interp,
    stable_sigma,
)
from combwalk.stable_proc import _standard_cdf

from limit_checks import empirical_char_fn, levy_symbol


# ---------------------------------------------------------------------------
# the limit symbol


def test_levy_symbol_gaussian_and_cauchy_points():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    # default scale at alpha = 2 gives exactly -u^2/2 (unit variance)
    assert np.allclose(levy_symbol(2.0, 0.0, u), -0.5 * u ** 2)
    # alpha = 1, beta = 0: symmetric Cauchy of scale pi/2
    assert np.allclose(levy_symbol(1.0, 0.0, u), -(np.pi / 2) * np.abs(u))
    sym = levy_symbol(1.0, 0.7, u)
    assert np.allclose(sym[:2], np.conj(sym[:2][::-1] * 0 + sym[-2:][::-1]))
    assert sym[2] == 0.0


def test_levy_symbol_tan_form():
    u = np.array([0.3, 1.7])
    a, b = 1.4, -0.6
    # the limit's scale is stable_sigma(a): log phi = -(sigma |u|)^a (...)
    expect = (-(stable_sigma(a) * u) ** a
              * (1 - 1j * b * np.tan(np.pi * a / 2)))
    assert np.allclose(levy_symbol(a, b, u), expect)
    assert np.allclose(levy_symbol(a, b, -u), np.conj(expect))


def test_char_fn_of_samples_matches_symbol():
    u = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
    for alpha in (0.5, 1.0, 1.5, 2.0):
        beta = 0.0 if alpha == 2.0 else 0.5
        x = sample_stable(alpha, beta, 100000, np.random.default_rng(8))
        phi, se = empirical_char_fn(x, u)
        dev = np.abs(phi - np.exp(levy_symbol(alpha, beta, u))) / se
        assert dev.max() < 3.0, f"alpha={alpha}: {dev.max():.2f} SEs"


# ---------------------------------------------------------------------------
# samplers against scipy


@pytest.mark.parametrize("alpha,beta,bound", [
    (1.0, 0.5, 0.006),
    (1.5, 0.5, 0.006),
    (1.2, -0.3, 0.006),
])
def test_sampler_matches_scipy_reference(alpha, beta, bound):
    sig = stable_sigma(alpha)
    x = sample_stable(alpha, beta, 100000, np.random.default_rng(4), scale=sig)
    ks = ks_distance(x, stable_cdf_interp(alpha, beta, sig))
    assert ks < bound


def test_alpha_two_is_gaussian():
    x = sample_stable(2.0, 0.0, 200000, np.random.default_rng(6), scale=np.sqrt(0.5))
    assert abs(x.mean()) < 0.01
    assert x.var() == pytest.approx(1.0, abs=0.01)
    assert ks_distance(x, ndtr) < 0.004


def test_cauchy_closed_form():
    x = sample_stable(1.0, 0.0, 200000, np.random.default_rng(7), scale=np.pi / 2)

    def cdf(v):
        return 0.5 + np.arctan(v / (np.pi / 2)) / np.pi

    assert ks_distance(x, cdf) < 0.004


def test_sampler_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_stable(0.0, 0.0, 10, rng)
    with pytest.raises(ValueError):
        sample_stable(2.2, 0.0, 10, rng)
    with pytest.raises(ValueError):
        sample_stable(1.5, 1.2, 10, rng)
    for scale in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            sample_stable(1.5, 0.0, 10, rng, scale=scale)


@pytest.mark.parametrize("alpha", [1.0 + 1e-7, 1.0 - 1e-9, 1.0 + 1e-12])
@pytest.mark.parametrize("beta", [0.5, -1.0, 1e-300])
def test_skewed_laws_next_to_alpha_one_are_refused(alpha, beta):
    # the location beta tan(pi alpha/2) passes 6e5 scale units: at 1e-8
    # Nolan's integral reads KS 0.08-0.37 against 20 000 draws, and at
    # 1 + 1e-12 three draws in 20 000 were NaN
    with pytest.raises(ValueError, match=r"alpha = .* within 1e-06 of 1"):
        sample_stable(alpha, beta, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"alpha = .* within 1e-06 of 1"):
        stable_cdf_interp(alpha, beta, 1.0)


def test_laws_next_to_alpha_one_that_are_kept():
    # symmetric laws hold there, alpha = 1 has its own form, and the band
    # stops at 1e-6
    rng = np.random.default_rng(0)
    for alpha, beta in ((1.0 + 1e-9, 0.0), (1.0, 0.5), (1.0 - 2e-6, 0.5),
                        (1.0 + 2e-6, -1.0)):
        assert np.all(np.isfinite(sample_stable(alpha, beta, 10, rng)))
        stable_cdf_interp(alpha, beta, 1.0)


@pytest.mark.parametrize("alpha", [0.99, 1.01, 1.0 - 2e-6, 1.0 + 2e-6])
@pytest.mark.parametrize("beta", [1.0, -1.0, 0.5])
def test_skewed_draws_next_to_alpha_one_match_the_reference_grid(alpha, beta):
    # the law's bulk sits near beta tan(pi alpha/2) scale units (-+64 at
    # alpha = 1.01, 3e5 at 1 + 2e-6), where a grid centred on 0 has
    # cells ~100 units wide (KS 0.02-0.25 at 0.99 and 1.01).  Seeds 1-10
    # read KS 0.0037-0.0088 at 20 000 draws; the 1 % point is 0.0115
    scale = stable_sigma(alpha)
    x = sample_stable(alpha, beta, 20_000, np.random.default_rng(1),
                      scale=scale)
    assert ks_distance(x, stable_cdf_interp(alpha, beta, scale)) < 0.012


# ---------------------------------------------------------------------------
# one-sided stable


def test_positive_stable_laplace_transform():
    # near alpha = 1 a form that raises the uniform's factor to 1/(1 - alpha)
    # overflows; the draws must stay finite and keep the Laplace transform
    rng = np.random.default_rng(12)
    for alpha, n in ((0.6, 50_000), (0.99, 200_000), (0.999, 200_000)):
        z = sample_positive_stable(alpha, n, rng)
        assert np.all(np.isfinite(z)) and z.min() > 0
        for lam in (0.5, 1.0, 2.0, 4.0):
            vals = np.exp(-lam * z)
            se = vals.std() / np.sqrt(len(z))
            assert abs(vals.mean() - np.exp(-lam ** alpha)) < 5 * se


def test_positive_stable_validation():
    rng = np.random.default_rng(0)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            sample_positive_stable(bad, 10, rng)
    # a subnormal alpha underflows sin(alpha th) to 0; the smallest normal
    # one is kept
    for bad in (5e-324, 1e-310, np.nextafter(np.finfo(float).tiny, 0.0)):
        with pytest.raises(ValueError, match="smallest normal double"):
            sample_positive_stable(bad, 10, rng)
    with np.errstate(over="ignore"):
        z = sample_positive_stable(np.finfo(float).tiny, 10, rng)
    assert not np.any(np.isnan(z))


# ---------------------------------------------------------------------------
# the gridded reference CDF


def test_cdf_interp_validation():
    for bad in ((0.0, 0.0, 1.0), (2.2, 0.0, 1.0), (1.5, 1.2, 1.0),
                (1.5, 0.0, 0.0), (1.5, 0.0, np.nan)):
        with pytest.raises(ValueError):
            stable_cdf_interp(*bad)


def test_cdf_interp_cauchy_is_the_arctangent():
    cdf = stable_cdf_interp(1.0, 0.0, np.pi / 2)
    x = np.concatenate([cdf.grid, np.linspace(-50.0, 50.0, 1001)])
    want = 0.5 + np.arctan(cdf.grid / (np.pi / 2)) / np.pi
    assert np.array_equal(cdf.values, want)
    # between the nodes, the interpolation stays close to the closed form
    assert_allclose(cdf(x), 0.5 + np.arctan(x / (np.pi / 2)) / np.pi,
                    rtol=0, atol=1e-5)


@pytest.mark.parametrize("beta", [1e-20, 1e-300, 5e-324, -1e-20])
def test_standard_cdf_at_alpha_one_and_a_tiny_beta_is_the_arctangent(beta):
    # the law is Cauchy's to far below 1e-16, and exp(-h) a near-step in
    # theta whose integral is the step's position: y* must be found to the
    # ulp
    half = np.pi / 2.0 - 1e-4
    z = np.tan(np.linspace(-half, half, 3001))
    with np.errstate(over="ignore", under="ignore"):
        F = _standard_cdf(z, 1.0, beta)
    assert_allclose(F, 0.5 + np.arctan(z) / np.pi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale", [0.3, 1.0, 2.5])
def test_cdf_interp_one_sided_levy(scale):
    # alpha = 1/2, beta = +-1 is Levy's law on one half-line:
    # P(X <= x) = erfc(sqrt(scale / (2 x))) for x > 0 when beta = 1
    right = stable_cdf_interp(0.5, 1.0, scale)
    x = right.grid
    assert np.all(right.values[x <= 0] == 0.0)
    assert_allclose(right.values[x > 0], erfc(np.sqrt(scale / (2 * x[x > 0]))),
                    rtol=0, atol=5e-16)
    left = stable_cdf_interp(0.5, -1.0, scale)
    assert np.all(left.values[left.grid > 0] == 1.0)


def test_cdf_interp_grid_quality():
    cdf = stable_cdf_interp(1.0, 0.5, np.pi / 2)
    assert np.all(np.diff(cdf.values) >= 0)
    assert cdf.values[0] < 1e-3 and cdf.values[-1] > 1 - 1e-3
    assert float(cdf(-1e9)) == 0.0 and float(cdf(1e9)) == 1.0
    # tangent warping must keep tail mass beyond the grid negligible
    assert cdf.grid[-1] > 1e3
    dist = stats.levy_stable(1.0, 0.5, loc=0.0, scale=np.pi / 2)
    for x in (-30.0, -2.0, 0.0, 3.0, 55.0):
        assert float(cdf(x)) == pytest.approx(dist.cdf(x), abs=5e-4)


def _nolan_mp(z, alpha, beta):
    """CDF of the standard S1 law at z: Nolan's integral in 20-digit
    mpmath, over t = theta - theta_lo in (0, L), split where h = 1."""
    with mp.workdps(20):
        z, a, b, pi = mp.mpf(z), mp.mpf(alpha), mp.mpf(beta), mp.pi
        if a == 1:
            if b < 0:
                return 1 - _nolan_mp(-z, alpha, -beta)
            L, rising = pi, True

            def log_h(t):
                c = mp.sin(min(t, L - t))               # cos theta
                w = pi / 2 * (1 - b) + b * t            # pi/2 + beta theta
                return (-pi * z / (2 * b) + mp.log(2 / pi * w / c)
                        + w * mp.sin(t - pi / 2) / (c * b))

            def cdf(I):
                return I / pi
        else:
            if z < 0:
                return 1 - _nolan_mp(-z, alpha, -beta)
            th0 = mp.atan(b * mp.tan(pi * a / 2)) / a
            L, rising = pi / 2 + th0, a < 1
            c0 = pi - a * L

            def log_h(t):
                s = L - t
                sat = mp.sin(a * t) if t < s else mp.sin(c0 + a * s)
                return (a / (a - 1) * (mp.log(z) + mp.log(mp.sin(s) / sat))
                        + mp.log(mp.cos(a * th0)) / (a - 1)
                        + mp.log(mp.sin(c0 + (a - 1) * s) / mp.sin(s)))

            def cdf(I):
                return 1 - L / pi + I / pi if a < 1 else 1 - I / pi
        lo, hi = mp.mpf(0), L
        for _ in range(70):
            mid = (lo + hi) / 2
            if (log_h(mid) > 0) == rising:
                hi = mid
            else:
                lo = mid

        def integrand(t):
            if not 0 < t < L:
                return mp.mpf(0)
            v = log_h(t)
            return mp.mpf(0) if v > 60 else mp.exp(-mp.exp(v))

        return float(cdf(mp.quad(integrand, [0, lo, L])))


# both sides of alpha = 1, alpha near 2, and |beta| = 1 (a light tail)
_LAWS = [(1.5, 0.0), (1.9, 0.0), (1.99, 0.2), (1.2, -0.3), (1.05, 0.5),
         (1.5, 1.0), (1.5, -1.0), (1.0, 0.5), (1.0, 0.7)]


def test_cdf_grid_is_centred_on_the_s0_location():
    # x = scale (tan(theta) + beta tan(pi alpha/2)) for alpha != 1, so the
    # middle node (theta = 0) sits at the S0 location; at alpha = 1 and at
    # beta = 0 the grid is scale tan(theta)
    theta = np.linspace(-(np.pi / 2.0 - 1e-4), np.pi / 2.0 - 1e-4, 3001)
    for alpha, beta, scale in ((1.01, 1.0, 1.0), (0.99, -0.5, 2.7),
                               (1.5, 0.3, 0.8), (0.5, 1.0, 1.3)):
        cdf = stable_cdf_interp(alpha, beta, scale)
        centre = beta * np.tan(np.pi * alpha / 2.0)
        assert np.array_equal(cdf.grid, scale * (np.tan(theta) + centre))
    for alpha, beta in ((1.0, 0.7), (1.5, 0.0), (0.7, 0.0)):
        cdf = stable_cdf_interp(alpha, beta, 1.9)
        assert np.array_equal(cdf.grid, 1.9 * np.tan(theta))


# alpha as for _standard_cdf's properties (away from 1, and 1 itself),
# beta anywhere in [-1, 1] with its ends, scales over six decades
@settings(max_examples=30, deadline=None)
@given(st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 2.0), st.just(1.0)),
       st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]),
       st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
# a subnormal beta at alpha = 1 overflowed Nolan's h to inf - inf: NaN
@example(1.0, 2.2250738585e-313, 1.0)
@example(0.12407172047364352, -1.0, 1.9983276762118578)
def test_cdf_grid_values_reflect_under_beta_and_are_monotone(alpha, beta,
                                                             scale):
    # the grids of beta and -beta mirror each other only to the rounding
    # of theta and of the centre, a few 1e-12 of a cell, so a value may
    # move by that share of its neighbouring cells' increments (at
    # alpha = 0.124, beta = -1 the cell next to 0 carries 0.057 of mass,
    # and the values reflect to 2.6e-14 there)
    with np.errstate(over="ignore", under="ignore"):
        F = stable_cdf_interp(alpha, beta, scale, npts=601)
        G = stable_cdf_interp(alpha, -beta, scale, npts=601)
    step = np.diff(F.values)
    assert np.all(step >= 0.0)
    near = np.maximum(np.append(step, 0.0), np.insert(step, 0, 0.0))
    assert np.all(np.abs(F.values + G.values[::-1] - 1.0)
                  <= 1e-14 + 1e-11 * near)


def _law_grid(alpha, beta):
    scale = np.pi / 2 if alpha == 1.0 else stable_sigma(alpha)
    cdf = stable_cdf_interp(alpha, beta, scale)
    shift = 2 / np.pi * beta * scale * np.log(scale) if alpha == 1.0 else 0.0
    return cdf, (cdf.grid - shift) / scale, scale


@pytest.mark.parametrize("alpha,beta", _LAWS)
def test_cdf_grid_matches_mpmath(alpha, beta):
    cdf, z, _ = _law_grid(alpha, beta)
    # the outermost nodes (1e4 scale units either side of the centre),
    # the nodes next to the centre and two in between
    for i in (0, 800, 1499, 1501, 2200, 3000):
        assert abs(cdf.values[i] - _nolan_mp(z[i], alpha, beta)) < 1e-9, i


@pytest.mark.parametrize("alpha,beta", _LAWS + [(0.7, 0.4)])
def test_cdf_grid_matches_scipy_away_from_its_rounding(alpha, beta):
    cdf, z, scale = _law_grid(alpha, beta)
    x, F = cdf.grid[::20], cdf.values[::20]
    ref = stats.levy_stable.cdf(x, alpha, beta, scale=scale)
    # scipy rounds x/scale to zeta (0 in S1 terms) when within
    # 0.005 alpha^(1/alpha) of it (its x_tol_near_zeta), which puts it off
    # by up to 1.8e-3 there at alpha = 1.5; next to alpha = 1 its
    # quadrature errs further out (5e-4 at x/scale = -0.047 for
    # alpha = 1.05); past |x/scale| ~ 1e3 it returns exactly 0 or 1
    keep = (np.abs(z[::20]) > 0.05) & (ref > 0.0) & (ref < 1.0)
    assert keep.sum() > 100
    assert_allclose(F[keep], ref[keep], rtol=0, atol=1e-9)


# alpha in [0.1, 2] away from 1, beta anywhere in [-1, 1] (the ends
# included), and points on both sides of 0 out to the tails
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 2.0)),
       st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]),
       st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16))
@example(0.54, 0.12, [-2.4e-169, 0.0])
@example(0.63, 1.0, [0.0, 0.1])
# one z at two places in one call gave two values an ulp apart
@example(0.25, -0.5, [-454.0, -453.75, -453.75])
@example(0.1, 0.0, [1.0, 770.0, 770.0])
def test_standard_cdf_reflects_under_beta_and_is_monotone(alpha, beta, z):
    # F(z; alpha, beta) = 1 - F(-z; alpha, -beta), and F is nondecreasing,
    # both to rounding.  For alpha < 1 both sides of 0 start from F(0) =
    # (pi - L)/pi, so F is monotone to the last bit; for alpha > 1 they
    # are two formulas, which agree with F(0) = 1 - L/pi to a few ulps
    z = np.sort(np.array(z))
    with np.errstate(over="ignore", under="ignore"):
        F = _standard_cdf(z, alpha, beta)
        G = _standard_cdf(-z, alpha, -beta)
    assert np.all((F >= 0.0) & (F <= 1.0))
    assert np.max(np.abs(F + G - 1.0)) <= 2e-15
    assert np.all(np.diff(F) >= (0.0 if alpha < 1.0 else -1e-15))


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 2.0),
                 st.just(1.0)),
       st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
       st.lists(st.integers(0, 9), max_size=6))
def test_standard_cdf_of_a_point_does_not_depend_on_the_others(
        alpha, beta, z, again):
    # the value at z[i] is that of z[i] alone, bit for bit, wherever it
    # sits and whatever shares its call (repeated points included)
    z = np.array(z + [z[i % len(z)] for i in again])
    with np.errstate(over="ignore", under="ignore"):
        F = _standard_cdf(z, alpha, beta)
        for i in range(len(z)):
            assert F[i] == _standard_cdf(z[i:i + 1], alpha, beta)[0]


@pytest.mark.parametrize("alpha", [0.125, 0.63, 0.92, 0.952, 0.97])
def test_standard_cdf_is_finite_when_totally_skewed(alpha):
    # beta = +-1 with alpha < 1: L rounded past pi, or a large light-tail
    # floor h_end rounded past h, made these NaN (and F(0) negative); the
    # law lives on z >= 0, and F(0) is exactly 0
    z = np.array([-1e3, -5.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 1e3])
    with np.errstate(over="ignore", under="ignore", invalid="raise"):
        F = _standard_cdf(z, alpha, 1.0)
        G = _standard_cdf(-z, alpha, -1.0)
    assert F[z <= 0].tolist() == [0.0] * 5
    assert np.all(np.diff(F) >= 0.0) and np.all(F <= 1.0)
    assert np.max(np.abs(F + G - 1.0)) <= 2e-15
