import numpy as np
import pytest
import mpmath
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from combwalk import (
    DensityEvaluator,
    HazardFamily,
    LabelledSubordinatorPath,
    PersistenceLaw,
    cdf_f,
    constant_comb,
    default_jump_cut,
    density_f,
    double_gf_limit,
    flt_f,
    ks_distance,
    labelled_subordinator,
    lamperti_recursion,
    power_comb,
    sample_anomalous_ensemble,
    sample_marginal,
    sample_positive_stable,
    sample_ratio,
    walk_marginals,
)
from combwalk import lamperti_limit
from combwalk.lamperti_limit import default_t_max, subordinator_jumps
from combwalk.walk_sim import _replicate

from limit_checks import markov_kernel_check


# ---------------------------------------------------------------------------
# the closed-form marginal density


def test_density_symmetric_point_value():
    assert density_f(0.5, 0.0, 1.0, 0.0) == pytest.approx(1.0 / np.pi,
                                                          rel=1e-12)


def test_density_reduces_to_arcsine():
    x = np.linspace(-0.999, 0.999, 41)
    f = density_f(0.5, 0.0, 1.0, x)
    arc = 1.0 / (np.pi * np.sqrt(1.0 - x * x))
    assert np.allclose(f, arc, rtol=1e-12)


def test_density_self_similarity_and_symmetry():
    x = np.array([-2.1, -0.3, 0.0, 1.7])
    assert np.allclose(density_f(0.7, 0.2, 3.0, x),
                       density_f(0.7, 0.2, 1.0, x / 3.0) / 3.0, rtol=1e-14)
    z = np.linspace(-0.95, 0.95, 21)
    assert np.allclose(density_f(0.6, 0.3, 1.0, z),
                       density_f(0.6, -0.3, 1.0, -z), rtol=1e-13)


def test_density_validation():
    with pytest.raises(ValueError):
        density_f(1.2, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        density_f(0.5, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        density_f(0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        density_f(0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        density_f(0.5, 0.0, 2.0, [0.0, -2.5])


def test_density_integrates_to_one_and_mean_m():
    # independent integrator: adaptive quadrature with algebraic endpoint
    # weights, split at zero
    alpha, m = 0.6, 0.3

    def smooth_l(x):
        # quadpack probes the smooth factor at the endpoint itself
        x = float(np.clip(x, -1.0 + 1e-13, 0.0))
        return density_f(alpha, m, 1.0, x) * (1.0 + x) ** (1.0 - alpha)

    def smooth_r(x):
        x = float(np.clip(x, 0.0, 1.0 - 1e-13))
        return density_f(alpha, m, 1.0, x) * (1.0 - x) ** (1.0 - alpha)

    mass_l, _ = integrate.quad(smooth_l, -1.0, 0.0, weight="alg",
                               wvar=(alpha - 1.0, 0.0))
    mass_r, _ = integrate.quad(smooth_r, 0.0, 1.0, weight="alg",
                               wvar=(0.0, alpha - 1.0))
    # quad's default epsabs is 1.49e-8 for each half
    assert mass_l + mass_r == pytest.approx(1.0, abs=5e-8)

    mean_l, _ = integrate.quad(lambda x: x * smooth_l(x), -1.0, 0.0,
                               weight="alg", wvar=(alpha - 1.0, 0.0))
    mean_r, _ = integrate.quad(lambda x: x * smooth_r(x), 0.0, 1.0,
                               weight="alg", wvar=(0.0, alpha - 1.0))
    assert mean_l + mean_r == pytest.approx(m, abs=5e-8)


# ---------------------------------------------------------------------------
# the closed-form CDF and the quadrature check of the density


def test_evaluator_mass_and_mean():
    for alpha, m in ((0.3, 0.0), (0.5, 0.4), (0.7, -0.6), (0.9, 0.2)):
        ev = DensityEvaluator(alpha, m)
        assert ev.mass == pytest.approx(1.0, abs=1e-12)
        assert ev.mean == pytest.approx(m, abs=1e-12)


def test_cdf_matches_arcsine():
    x = np.linspace(-1.0, 1.0, 201)
    closed = 2.0 / np.pi * np.arcsin(np.sqrt((1.0 + x) / 2.0))
    assert np.max(np.abs(cdf_f(0.5, 0.0, 1.0, x) - closed)) < 1e-14
    assert cdf_f(0.5, 0.0, 1.0, -1.0) == 0.0
    assert cdf_f(0.5, 0.0, 1.0, 1.0) == 1.0
    # scipy's Beta(1/2, 1/2) is the same law on (0, 1)
    assert cdf_f(0.5, 0.0, 1.0, 0.36) == pytest.approx(
        special.betainc(0.5, 0.5, (1 + 0.36) / 2), abs=1e-14)


def _mp_cdf(alpha, m, z):
    """Lamperti's arctangent CDF of S(1) at z, in mpmath."""
    a, z = mpmath.mpf(alpha), mpmath.mpf(z)
    r = (1 + mpmath.mpf(m)) / (1 - mpmath.mpf(m))
    tp, tm = (1 + z) ** a, (1 - z) ** a
    return mpmath.atan2(mpmath.sin(mpmath.pi * a) * tp,
                        r * tm + mpmath.cos(mpmath.pi * a) * tp) / (
                            mpmath.pi * a)


def _mp_density(alpha, m, z):
    """density_f's formula at t = 1, in mpmath."""
    a, z = mpmath.mpf(alpha), mpmath.mpf(z)
    r = (1 + mpmath.mpf(m)) / (1 - mpmath.mpf(m))
    tp, tm = (1 + z) ** a, (1 - z) ** a
    den = (r * tm * tm + 2 * mpmath.cos(mpmath.pi * a) * tm * tp
           + tp * tp / r)
    return (2 * mpmath.sin(mpmath.pi * a) / mpmath.pi
            * (1 - z) ** (a - 1) * (1 + z) ** (a - 1) / den)


def test_cdf_is_the_closed_form_antiderivative_of_the_density():
    with mpmath.workdps(50):
        for alpha, m in ((0.01, 0.3), (0.5, 0.0), (0.7, -0.6), (0.995, 0.9)):
            for z in (-0.999, -0.4, 0.0, 0.25, 0.9):
                want = _mp_density(alpha, m, z)
                got = mpmath.diff(lambda v: _mp_cdf(alpha, m, v), z)
                assert abs(got - want) <= mpmath.mpf(10) ** -35 * want
                assert density_f(alpha, m, 1.0, z) == pytest.approx(
                    float(want), rel=1e-12)


def test_cdf_matches_the_closed_form_to_the_edges():
    # the grid reaches within 1e-15 t of each end, where the interpolated
    # CDF of a quadrature table erred by up to 1e-3 (alpha = 0.995)
    edge = np.logspace(-15, 0, 61)
    z = np.concatenate([-1 + edge, np.linspace(-1, 1, 41)[1:-1], 1 - edge])
    worst = 0.0
    with mpmath.workdps(50):
        for alpha in (0.01, 0.5, 0.9, 0.995):
            for m in (-0.9, 0.0, 0.9):
                for t in (1.0, 3.0):
                    x = t * z
                    got = cdf_f(alpha, m, t, x)
                    want = [_mp_cdf(alpha, m, mpmath.mpf(v) / t) for v in x]
                    worst = max(worst, max(abs(float(g - w))
                                           for g, w in zip(got, want)))
                    assert cdf_f(alpha, m, t, -t) == 0.0
                    assert cdf_f(alpha, m, t, t) == 1.0
    assert worst < 1e-12


def test_cdf_outside_the_support_and_at_nan():
    x = np.array([-np.inf, -5.0, -2.0, np.nan, 2.0, 5.0, np.inf])
    F = cdf_f(0.7, 0.3, 2.0, x)
    assert F[[0, 1, 2]].tolist() == [0.0, 0.0, 0.0]
    assert np.isnan(F[3])
    assert F[[4, 5, 6]].tolist() == [1.0, 1.0, 1.0]
    # m -> -m reflects the law: F(x; m) + F(-x; -m) = 1
    x = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(cdf_f(0.7, 0.3, 2.0, x)
                         + cdf_f(0.7, -0.3, 2.0, -x) - 1.0)) < 1e-15


_ALPHAS = st.floats(0.01, 0.99)
_DRIFTS = st.floats(-0.99, 0.99)
_TIMES = st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)     # 1e-3 .. 1e6


@settings(max_examples=300, deadline=None)
@given(_ALPHAS, _DRIFTS, _TIMES,
       st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=16))
def test_cdf_reflects_under_m_and_is_monotone(alpha, m, t, z):
    # F(x; m) = 1 - F(-x; -m), and F is nondecreasing in x, on the whole
    # line (inside the support, at its edges and beyond).  Random draws
    # reflect within 1.7e-15; next to alpha = 1, where sin(pi alpha) is
    # small and r + cos(pi alpha) can cancel, the arctangent loses up to
    # ~25 ulps (5.3e-15 at alpha = 0.99, x = 0, m = -2.5e-4)
    x = np.sort(np.array(z)) * t
    F = cdf_f(alpha, m, t, x)
    assert np.max(np.abs(F + cdf_f(alpha, -m, t, -x) - 1.0)) <= 1e-14
    assert np.all(np.diff(F) >= 0.0)


@settings(max_examples=300, deadline=None)
@given(_ALPHAS, _DRIFTS, _TIMES, st.integers(-10, 20),
       st.lists(st.floats(-1.5, 1.5, allow_subnormal=False), min_size=1,
                max_size=16))
def test_cdf_is_self_similar(alpha, m, t, k, z):
    # F(x; t) = F(x/t; 1): exactly when t is a power of two, which scales
    # without rounding; else within rounding where the density is bounded
    # (next to an edge the slope is unbounded for alpha < 1, and the
    # rounding of x/t alone moves F by up to 1e-2)
    z = np.array(z)
    assert np.array_equal(cdf_f(alpha, m, 2.0 ** k, z * 2.0 ** k),
                          cdf_f(alpha, m, 1.0, z))
    x = np.clip(z, -0.9, 0.9) * t
    assert np.max(np.abs(cdf_f(alpha, m, t, x)
                         - cdf_f(alpha, m, 1.0, x / t))) <= 1.4e-14


def test_evaluator_time_scaling():
    x = np.array([-1.4, 0.2, 2.3])
    assert np.allclose(cdf_f(0.5, 0.2, 3.0, x), cdf_f(0.5, 0.2, 1.0, x / 3.0))


def test_evaluator_sampling():
    # t S(1) by Lamperti's ratio.  Near alpha = 1 the law is a narrow peak
    # around m t; near alpha = 0 most of its mass lies within an ulp of
    # +-t, so draws round to the ends, where cdf_f is 0 and 1: the ECDF is
    # compared on a grid that reaches within 1e-12 t of each end
    edge = np.logspace(-12, 0, 49)
    x = np.concatenate([-1 + edge, np.linspace(-1, 1, 201)[1:-1], 1 - edge])
    for alpha, m in ((0.5, 0.0), (0.01, 0.3), (0.3, 0.3), (0.7, 0.3),
                     (0.995, 0.3)):
        draws = np.sort(sample_marginal(alpha, m, 2.0,
                                        np.random.default_rng(1),
                                        size=20000))
        assert np.all(np.isfinite(draws)) and np.all(np.abs(draws) <= 2.0)
        ecdf = np.searchsorted(draws, 2.0 * x, side="right") / draws.size
        assert np.max(np.abs(ecdf - cdf_f(alpha, m, 2.0, 2.0 * x))) < 0.012
    one = sample_marginal(0.5, 0.0, 1.0, np.random.default_rng(1))
    assert np.isscalar(one)


@pytest.mark.parametrize("alpha, m, message", [
    (1.0, 0.0, "alpha must lie in"), (0.0, 0.0, "alpha must lie in"),
    (0.5, 1.0, "drift must lie in"), (0.5, np.nan, "drift must lie in"),
])
def test_marginal_sampler_checks_the_law(alpha, m, message):
    with pytest.raises(ValueError, match=message):
        sample_marginal(alpha, m, 1.0, np.random.default_rng(0), size=3)


@pytest.mark.parametrize("f", [
    lambda x: density_f(0.5, 0.2, 1.0, x),
    lambda x: cdf_f(0.5, 0.2, 2.0, x),
], ids=["density_f", "cdf_f"])
def test_marginal_law_returns_a_float_at_any_0d_input(f):
    want = f(0.3)
    assert type(want) is float
    for x in (np.float64(0.3), np.array(0.3)):
        got = f(x)
        assert type(got) is float and got == want
    arr = f(np.array([0.3]))
    assert arr.shape == (1,) and arr[0] == want


def test_ratio_sampler_agrees_with_density():
    draws = sample_ratio(0.5, 0.4, np.random.default_rng(7), size=50000)
    assert np.all(np.abs(draws) < 1.0)
    assert ks_distance(draws, lambda v: cdf_f(0.5, 0.4, 1.0, v)) < 0.01
    assert draws.mean() == pytest.approx(0.4, abs=0.02)


def test_ratio_sampler_validation():
    for b in (1.5, -1.01, np.nan):
        with pytest.raises(ValueError, match="label bias"):
            sample_ratio(0.3, b, np.random.default_rng(0), size=3)
    # the ends of [-1, 1] are one-signed laws
    assert np.all(sample_ratio(0.3, 1.0, np.random.default_rng(0), size=3)
                  == 1.0)


# b anywhere in [-1, 1], the one-signed ends included.  alpha stops at
# 1e-300: below ~1e-307 the log draws overflow (log E / alpha) and their
# difference can be inf - inf, a NaN draw
@settings(max_examples=100, deadline=None)
@given(st.floats(1e-300, 1.0, exclude_max=True),
       st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]),
       st.integers(0, 2 ** 32))
def test_ratio_sampler_stays_in_its_support(alpha, b, seed):
    draws = sample_ratio(alpha, b, np.random.default_rng(seed), size=256)
    assert np.all((draws >= -1.0) & (draws <= 1.0))


@pytest.mark.parametrize("t", [-1.0, 0.0, np.nan, np.inf])
def test_marginal_law_checks_the_time(t):
    for call in (lambda: cdf_f(0.5, 0.0, t, 0.3),
                 lambda: sample_marginal(0.5, 0.0, t,
                                         np.random.default_rng(0), size=3),
                 lambda: density_f(0.5, 0.0, t, 0.0)):
        with pytest.raises(ValueError, match="t must be positive"):
            call()


# ---------------------------------------------------------------------------
# Fourier-Laplace transform


def test_transform_at_zero_frequency():
    for s in (0.3, 1.0, 2.7):
        assert flt_f(0.6, 0.3, s, 0.0) == pytest.approx(1.0 / s, rel=1e-14)
    with pytest.raises(ValueError):
        flt_f(0.6, 0.3, 0.0, 1.0)


# E e^{iyS(t)} is 1 at y = 0 and turns into its conjugate under y -> -y
# (S is real), so its Laplace transform in t is 1/s and conjugates too
@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
def test_transform_is_one_over_s_at_zero_and_conjugates(alpha, m, s, y):
    assert flt_f(alpha, m, s, 0.0) == pytest.approx(1.0 / s, rel=1e-14)
    assert flt_f(alpha, m, s, -y) == pytest.approx(
        np.conj(flt_f(alpha, m, s, y)), rel=1e-14)


@pytest.mark.parametrize("alpha, m, s, message", [
    (1.5, 0.3, 1.0, "alpha must lie in"),
    (0.6, 3.0, 1.0, "drift must lie in"),
    (0.6, np.nan, 1.0, "drift must lie in"),
    (0.6, 0.3, -1.0, "Laplace variable"),
    (0.6, 0.3, np.nan, "Laplace variable"),
    (0.6, 0.3, np.inf, "Laplace variable"),
])
def test_transform_checks_its_arguments(alpha, m, s, message):
    with pytest.raises(ValueError, match=message):
        flt_f(alpha, m, s, 0.7)


def test_transform_symmetry_and_drift_slope():
    v = flt_f(0.6, 0.3, 1.2, 0.8)
    assert flt_f(0.6, 0.3, 1.2, -0.8) == pytest.approx(np.conj(v), rel=1e-14)
    # d/dy at 0 is i E int e^{-st} S(t) dt = i m / s^2
    h = 1e-6
    for s, m in ((1.0, 0.3), (2.0, -0.5)):
        der = (flt_f(0.6, m, s, h) - flt_f(0.6, m, s, -h)) / (2 * h)
        assert der == pytest.approx(1j * m / s ** 2, abs=1e-8)


def test_transform_pin_value():
    v = flt_f(0.6, 0.3, 1.0, 1.0)
    assert v.real == pytest.approx(0.726541, abs=1e-6)
    assert v.imag == pytest.approx(0.184628, abs=1e-6)


def test_transform_matches_numeric_double_transform():
    """Quadrature of e^{-st} E e^{iyS(t)} over the closed-form density
    must land on the algebraic transform."""
    alpha, m = 0.6, 0.3
    gx, gw = np.polynomial.legendre.leggauss(10)

    def panel_nodes(a, b, n):
        edges = np.linspace(a, b, n + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        return (mid + half * gx[None, :]).ravel(), (half * gw[None, :]).ravel()

    # nodes of x = +-(1 - y^(1/alpha)) with the substituted weights
    y, wy = panel_nodes(1e-12, 1.0, 300)
    jac = (1.0 / alpha) * y ** (1.0 / alpha - 1.0)
    xl = y ** (1.0 / alpha) - 1.0
    xr = 1.0 - y ** (1.0 / alpha)
    x_nodes = np.concatenate([xl, xr])
    w_nodes = np.concatenate([wy * jac * density_f(alpha, m, 1.0, xl),
                              wy * jac * density_f(alpha, m, 1.0, xr)])
    assert w_nodes.sum() == pytest.approx(1.0, abs=1e-9)

    t, wt = panel_nodes(0.0, 60.0, 600)
    for s, yfreq in ((1.0, 1.0), (1.3, 0.7)):
        phi = np.exp(1j * np.outer(t * yfreq, x_nodes)) @ w_nodes
        val = np.sum(wt * np.exp(-s * t) * phi)
        assert abs(val - flt_f(alpha, m, s, yfreq)) < 1e-5


# ---------------------------------------------------------------------------
# occupation recursion


def enum_occupation(comb, n):
    """Exact up-step-count law over all 2^n step sequences."""
    masks = np.arange(2 ** n, dtype=np.int64)
    prob = np.ones(2 ** n)
    dirn = np.zeros(2 ** n, dtype=np.int64)
    age = np.zeros(2 ** n, dtype=np.int64)
    ups = np.zeros(2 ** n, dtype=np.int64)
    for j in range(n):
        step = (masks >> j) & 1
        ups += step
        stay = step == dirn
        haz_u = comb.up.hazard(np.maximum(age, 1)).astype(float)
        haz_d = comb.down.hazard(np.maximum(age, 1)).astype(float)
        haz = np.where(dirn == 1, haz_u, haz_d)
        new = age == 0
        p_step = np.where(new, np.where(step == 0, 1.0, 0.0),
                          np.where(stay, 1.0 - haz, haz))
        prob *= p_step
        age = np.where(stay & ~new, age + 1, 1)
        dirn = step
    out = np.zeros(n + 1)
    np.add.at(out, ups, prob)
    return out


@pytest.mark.parametrize("comb", [
    power_comb(0.5),
    power_comb(0.5, c=1.4655561545081737, a_d=0.5, c_d=0.0),
    constant_comb(0.3, 0.5),
])
def test_recursion_matches_exhaustive_enumeration(comb):
    p = lamperti_recursion(comb, 12)
    for n in (1, 2, 3, 7, 12):
        assert np.max(np.abs(p[n, :n + 1] - enum_occupation(comb, n))) < 1e-13
        assert np.all(p[n, n + 1:] == 0.0)


def markov_occupation(comb, n_max):
    """Every row of the recursion table by a forward Markov chain over
    (direction, age, up-count) with enum_occupation's semantics: the
    first increment opens the down run, then a run of age a continues
    or turns.  O(n_max^3).

    Continue/turn probabilities are T(a)/T(a-1) and 1 minus it, from the
    run-length laws the recursion reads: for power rules the closed-form
    tail differs from the product of 1 - hazard by ~1e-13 relative at
    age 60, which would swamp the recursion's own rounding.
    """
    out = np.zeros((n_max + 1, n_max + 1))
    out[0, 0] = 1.0
    tails = [law.tail(np.arange(n_max + 1.0))
             for law in (comb.down_law, comb.up_law)]
    keep = [t[1:] / t[:-1] for t in tails]
    turn = [(t[:-1] - t[1:]) / t[:-1] for t in tails]
    # P[dirn][age - 1, ups] after the increments so far
    P = [np.zeros((n_max, n_max + 1)), np.zeros((n_max, n_max + 1))]
    P[0][0, 0] = 1.0
    out[1] = P[0].sum(axis=0)
    for n in range(2, n_max + 1):
        new = [np.zeros_like(P[0]), np.zeros_like(P[1])]
        for dirn in (0, 1):
            stay = P[dirn][:-1] * keep[dirn][:-1, None]
            ended = (P[dirn] * turn[dirn][:, None]).sum(axis=0)
            new[dirn][1:, dirn:] += stay[:, :n_max + 1 - dirn]
            new[1 - dirn][0, 1 - dirn:] += ended[:n_max + dirn]
        P = new
        out[n] = P[0].sum(axis=0) + P[1].sum(axis=0)
    return out


@pytest.mark.parametrize("comb", [
    power_comb(0.5),
    power_comb(0.3),
    power_comb(0.5, c=1.4655561545081737, a_d=0.5, c_d=0.0),
    constant_comb(0.3, 0.5),
    constant_comb(0.05, 0.9),
])
def test_recursion_matches_markov_chain(comb):
    # 63/64/65/128 put the last row on either side of a 64-row block edge
    for n_max in (63, 64, 65, 128, 150):
        p = lamperti_recursion(comb, n_max)
        ref = markov_occupation(comb, n_max)
        assert np.max(np.abs(p - ref)) <= 1e-14
        big = ref > 1e-250
        assert np.max(np.abs(p - ref)[big] / ref[big]) <= 1e-11
        assert np.array_equal(p == 0.0, ref == 0.0)


def test_markov_chain_matches_exhaustive_enumeration():
    comb = power_comb(0.5, c=1.4655561545081737, a_d=0.5, c_d=0.0)
    ref = markov_occupation(comb, 10)
    for n in range(11):
        assert np.max(np.abs(ref[n, :n + 1] - enum_occupation(comb, n))) < 1e-14


def test_recursion_rows_are_distributions():
    p = lamperti_recursion(power_comb(0.5), 200)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
    assert np.min(p) >= -1e-15
    assert p[0, 0] == 1.0
    # the first window increment extends the opening down run
    assert p[1, 0] == 1.0 and p[1, 1] == 0.0


def test_recursion_approaches_arcsine():
    p = lamperti_recursion(power_comb(0.5), 300)
    k = np.arange(301) / 300.0
    ks = np.max(np.abs(np.cumsum(p[300]) - 2 / np.pi * np.arcsin(np.sqrt(k))))
    assert ks < 0.05
    for bad in (6000, -1, 2.7, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lamperti_recursion(power_comb(0.5), bad)
    assert lamperti_recursion(power_comb(0.5), 0).tolist() == [[1.0]]
    assert lamperti_recursion(power_comb(0.5), 3.0).shape == (4, 4)


# ---------------------------------------------------------------------------
# generating-function limit


def test_gf_limit_pin():
    comb = power_comb(0.5, c=3.0, a_d=0.5, c_d=1.0)
    value, target = double_gf_limit(comb, 0.999, 1.0)
    assert value == pytest.approx(0.665529, abs=1e-6)
    assert target == pytest.approx(0.653245, abs=1e-6)


def test_gf_limit_converges_in_x():
    comb = power_comb(0.5)
    devs = [abs(np.subtract(*double_gf_limit(comb, x, 1.0)))
            for x in (0.9, 0.99, 0.999)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.02


def test_gf_limit_validation():
    with pytest.raises(ValueError):
        double_gf_limit(constant_comb(0.3, 0.5), 0.9, 1.0)  # not anomalous
    # unequal indices put all the weight on one side: drift 1
    with pytest.raises(ValueError, match="effective drift"):
        double_gf_limit(power_comb(0.5, a_d=0.7), 0.9, 1.0)
    comb = power_comb(0.5)
    with pytest.raises(ValueError):
        double_gf_limit(comb, 1.2, 1.0)
    for lam in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be positive"):
            double_gf_limit(comb, 0.9, lam)
    # the tail generating functions are closed forms, so x may come as
    # close to 1 as the limit asks; the deviation shrinks like (1-x)^(1/2)
    value, target = double_gf_limit(comb, 1.0 - 1e-9, 1.0)
    assert abs(value - target) < 1e-5


# G(z) = sum_n T(n) z^n: 2F1(1, 1+c-a; 1+c; z) for power(a, c),
# 1 / (1 - (1-p) z) for constant(p), and a prefix polynomial in front of
# either when the family is a table
@pytest.mark.parametrize("family, exact", [
    (HazardFamily.power(0.1, 3.0),
     lambda z: mpmath.hyp2f1(1, 3.9, 4, z)),
    (HazardFamily.power(0.5),
     lambda z: mpmath.hyp2f1(1, 0.5, 1, z)),
    (HazardFamily.power(0.9, 1.0),
     lambda z: mpmath.hyp2f1(1, 1.1, 2, z)),
    (HazardFamily.power(1.5, 1.0),
     lambda z: mpmath.hyp2f1(1, 0.5, 2, z)),
    (HazardFamily.constant(0.3),
     lambda z: 1 / (1 - (1 - mpmath.mpf(0.3)) * z)),
    (HazardFamily.table([0.2, 0.0, 0.6], ("power", 0.5, 1.0)),
     lambda z: (1 + mpmath.mpf(0.8) * z + mpmath.mpf(0.8) * z ** 2
                + mpmath.mpf(0.8) * mpmath.mpf(0.4) * z ** 3
                * mpmath.hyp2f1(1, 4.5, 5, z))),
    (HazardFamily.table([0.5], ("constant", 0.25)),
     lambda z: 1 + mpmath.mpf(0.5) * z / (1 - mpmath.mpf(0.75) * z)),
], ids=["power-0.1-c3", "power-0.5", "power-0.9-c1", "power-1.5-c1",
        "constant", "table-power", "table-constant"])
def test_tail_gf_matches_mpmath(family, exact):
    law = PersistenceLaw(family)
    with mpmath.workdps(40):
        for z in (0.0, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9):
            want = exact(mpmath.mpf(z))
            assert abs(law.tail_gf(z) / want - 1) < 1e-14, z
    for z in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            law.tail_gf(z)


# ---------------------------------------------------------------------------
# labelled paths


def thinned_sum(path, t, sign):
    """T^u(t) (sign=+1) or T^d(t) (sign=-1): labelled jump mass by
    subordinator time t, plus the label-share of drift time.  An oracle
    for S (LabelledSubordinatorPath.evaluate) through
    S(T(t)) = T^u(t) - T^d(t)."""
    t = float(t)
    assert 0.0 <= t <= path.t_max
    k = np.searchsorted(path.times, t, side="right")
    mask = path.labels[:k] == sign
    share = (1.0 + sign * path.b) / 2.0
    return float(path.jumps[:k][mask].sum() + share * path.drift * t)


def hand_path():
    return LabelledSubordinatorPath(
        b=0.3, t_max=1.0,
        times=np.array([0.5]), jumps=np.array([2.0]),
        drift=0.1, labels=np.array([-1.0]))


def test_hand_path_levels_and_positions():
    p = hand_path()
    assert len(p.jumps) == 1
    assert p.total() == pytest.approx(2.1)
    assert p.T_before[0] == pytest.approx(0.05)
    assert p.T_after[0] == pytest.approx(2.05)
    ts = np.array([0.0, 0.02, 0.05, 1.0, 2.05, 2.1])
    expect = np.array([0.0, 0.006, 0.015, -0.935, -1.985, -1.97])
    assert np.allclose(p.evaluate(ts)[0], expect, atol=1e-14)
    # scalar calls agree with the vectorized form
    assert float(p.evaluate(1.0)[0]) == pytest.approx(-0.935)
    with pytest.raises(ValueError):
        p.evaluate(2.2)


def test_hand_path_evaluate_decorations():
    p = hand_path()
    S, x_val, age, exc, lag, lead, G, H, N = p.evaluate(1.0)
    assert S == pytest.approx(-0.935)
    assert x_val == -1.0
    assert age == pytest.approx(0.95)
    assert exc == pytest.approx(1.05)
    assert lag == pytest.approx(0.015)
    assert lead == pytest.approx(-1.985)
    assert (G, H, N) == (pytest.approx(0.05), pytest.approx(2.05), 0)
    # on the range the label value falls back to the residual slope
    S2, x2, a2, e2, lag2, lead2, G2, H2, N2 = p.evaluate(0.02)
    assert (a2, e2) == (0.0, 0.0)
    assert x2 == pytest.approx(0.3)
    assert lag2 == lead2 == pytest.approx(S2)
    assert G2 == H2 == pytest.approx(0.02)


def test_renewal_state_range_points_and_errors():
    p = hand_path()

    def state(t):       # (G, H, N, age, excess)
        v = p.evaluate(t)
        return v[6], v[7], v[8], v[2], v[3]

    assert state(0.05) == (0.05, 0.05, 0, 0.0, 0.0)
    assert state(2.05) == (2.05, 2.05, 1, 0.0, 0.0)
    G, H, N, a, e = state(0.06)
    assert (G, H, N) == (pytest.approx(0.05), pytest.approx(2.05), 0)
    assert a == pytest.approx(0.01) and e == pytest.approx(1.99)
    for bad in (2.2, -0.1, np.nan, [0.0, 2.2], [1.0, np.nan]):
        with pytest.raises(ValueError):
            p.evaluate(bad)
    empty = p.evaluate(np.empty(0))
    assert len(empty) == 9 and all(v.shape == (0,) for v in empty)


@pytest.mark.parametrize("make", [
    hand_path,
    lambda: labelled_subordinator(0.5, 0.3, 3.0, rng=np.random.default_rng(5)),
], ids=["hand", "simulated"])
def test_array_forms_equal_stacked_scalar_calls(make):
    p = make()
    # an even grid, random levels, both ends and every T_before/T_after
    tot = p.total()
    ts = np.concatenate([np.linspace(0.0, tot, 400),
                         np.random.default_rng(0).random(400) * tot,
                         p.T_before, p.T_after, [tot]])
    ts = ts[ts <= tot]
    full = p.evaluate(ts)
    scalar = [p.evaluate(float(t)) for t in ts]
    # N is an int, every other scalar entry a float
    assert all(isinstance(v, float) for row in scalar for v in row[:8])
    assert all(type(row[8]) is int for row in scalar)
    for k, col in enumerate(full):
        assert col.shape == ts.shape
        assert col.tobytes() == np.array([row[k] for row in scalar],
                                         dtype=col.dtype).tobytes()
    # the grid holds range points and excursion points alike
    assert np.any(full[2] == 0.0) and np.any(full[2] > 0.0)


def test_thinned_sums_split_the_path():
    p = hand_path()
    up = thinned_sum(p, 1.0, +1)
    dn = thinned_sum(p, 1.0, -1)
    assert up == pytest.approx(0.065)
    assert dn == pytest.approx(2.035)
    assert up + dn == pytest.approx(p.total())
    assert up - dn == pytest.approx(float(p.evaluate(p.total())[0]))


def test_subordinator_path_structure():
    p = labelled_subordinator(0.5, 0.3, 4.0, epsilon=1e-4,
                              rng=np.random.default_rng(15))
    assert np.all(np.diff(p.times) >= 0)
    assert p.times.min() >= 0 and p.times.max() <= 4.0
    assert np.all(p.jumps >= 1e-4)
    assert p.drift == pytest.approx(0.5 * 1e-4 ** 0.5 / 0.5)
    lam = 4.0 * 1e-4 ** -0.5
    assert abs(len(p.jumps) - lam) < 5 * np.sqrt(lam)
    assert p.total() == pytest.approx(p.jumps.sum() + p.drift * 4.0)
    # the default cut sets the drift rate alpha eps^(1-alpha)/(1-alpha)
    q = labelled_subordinator(0.3, 0.0, 2.0, rng=np.random.default_rng(15))
    eps = default_jump_cut(0.3, 2.0)
    assert q.drift == pytest.approx(0.3 * eps ** 0.7 / 0.7)
    assert np.all(q.jumps >= eps)


def test_subordinator_jump_sizes_are_pareto():
    p = labelled_subordinator(0.7, 0.0, 3.0, epsilon=0.01,
                              rng=np.random.default_rng(16))
    # P(J > x) = (x/eps)^-alpha above the cut
    for x in (0.02, 0.1, 1.0):
        q = (x / 0.01) ** -0.7
        emp = np.mean(p.jumps > x)
        assert abs(emp - q) < 5 * np.sqrt(q * (1 - q) / len(p.jumps))


def test_subordinator_level_law():
    # T(1) is Gamma(1-a)^(1/a) times a standard positive stable variable
    draws = np.array([
        labelled_subordinator(0.5, 0.0, 1.0,
                              rng=np.random.default_rng(100000 + i)).total()
        for i in range(20000)])
    ref = special.gamma(0.5) ** 2 * sample_positive_stable(
        0.5, 20000, np.random.default_rng(13))
    assert ks_distance(draws, ref) < 0.02


def test_subordinator_validation_and_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="subordinator index"):
        labelled_subordinator(1.2, 0.0, 1.0, rng=rng)
    for eps in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="jump cut"):
            labelled_subordinator(0.5, 0.0, 1.0, epsilon=eps, rng=rng)
    # the default cut t_max^(1/alpha) 1e-6 overflows past ~1.8e308
    assert default_jump_cut(0.5, 1e300) == np.inf
    with pytest.raises(ValueError, match="jump cut"):
        labelled_subordinator(0.5, 0.0, 1e300, rng=rng)
    for t_max in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_max must be positive"):
            labelled_subordinator(0.5, 0.0, t_max, rng=rng)
    # the cap is 5e7 expected jumps: t_max eps^-alpha = 5e7 at eps = 4e-16
    assert subordinator_jumps(0.5, 1.0, 4e-16 * 1.001)[1] < 5e7
    for eps in (4e-16 * 0.99, 1e-18):
        with pytest.raises(ValueError, match="exceeds the cap"):
            labelled_subordinator(0.5, 0.0, 1.0, epsilon=eps, rng=rng)
    assert default_jump_cut(0.5, 4.0) == pytest.approx(1e-6 * 16.0)


def test_simulated_path_invariants():
    rng = np.random.default_rng(23)
    p = labelled_subordinator(0.5, 0.4, 4.0, rng=rng)
    assert set(np.unique(p.labels)) <= {-1.0, 1.0}
    frac = np.mean(p.labels == 1.0)
    assert abs(frac - 0.7) < 5 * np.sqrt(0.21 / len(p.jumps))
    t = np.sort(rng.random(2000)) * p.total()
    S = p.evaluate(t)[0]
    assert np.all(np.abs(S) <= t + 1e-12)
    assert np.max(np.abs(np.diff(S)) / np.diff(t)) <= 1.0 + 1e-9
    # thinned identity at an interior subordinator time
    assert (thinned_sum(p, 2.0, 1) - thinned_sum(p, 2.0, -1)
            == pytest.approx(float(p.evaluate(p.drift * 2.0 + p._cum_j[
                np.searchsorted(p.times, 2.0, side="right")])[0])))


def test_degenerate_labels_give_straight_line():
    p = labelled_subordinator(0.5, 1.0, 2.0, rng=np.random.default_rng(3))
    assert np.all(p.labels == 1.0)
    t = np.linspace(0.0, p.total(), 50)
    assert np.allclose(p.evaluate(t)[0], t, atol=1e-12)


def test_interpolation_identity_inside_excursions():
    p = labelled_subordinator(0.4, -0.2, 3.0, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for t in rng.random(40) * p.total():
        S, x_val, age, exc, lag, lead, G, H, N = p.evaluate(float(t))
        if age > 0:
            com = (exc * lag + age * lead) / (age + exc)
            assert S == pytest.approx(com, abs=1e-12)
        else:
            assert lag == lead == pytest.approx(S)


def test_label_validation():
    with pytest.raises(ValueError):
        labelled_subordinator(0.5, 1.5, 1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        LabelledSubordinatorPath(0.0, 1.0, np.array([0.5]),
                                 np.array([1.0, 2.0]), 0.1, np.array([1.0]))


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_shapes_and_support():
    S, A, H = sample_anomalous_ensemble(0.5, 0.4, 500, seed=11)
    assert S.shape == A.shape == H.shape == (500,)
    assert np.all(np.abs(S) <= 1.0 + 1e-12)
    assert np.all(A >= 0.0) and np.all(H >= 0.0)
    # excursions straddling the level dominate; pure range hits are rare
    assert np.mean(A > 0) > 0.95


def test_ensemble_thread_determinism():
    # paths are chunked 64 to a child seed: a shorter ensemble is a prefix
    base = sample_anomalous_ensemble(0.5, 0.0, 300, seed=4)
    small = sample_anomalous_ensemble(0.5, 0.0, 40, seed=4)
    assert np.array_equal(small[0], base[0][:40])


def every_jump_ensemble(alpha, b, n_rep, seed, level=1.0, t_max=None,
                        epsilon=None):
    """The ensemble evaluated over every jump of every path (three
    columns), with each path's crossing index as a fourth column."""
    if t_max is None:
        t_max = default_t_max(alpha, level)

    def work(rng, m):
        out = np.empty((m, 4))
        for r in range(m):
            path = labelled_subordinator(alpha, b, t_max, epsilon, rng=rng)
            s, J, drift, lab = path.times, path.jumps, path.drift, path.labels
            n = len(J)
            cum = np.cumsum(J)
            total = drift * t_max + (cum[-1] if n else 0.0)
            if total < level:
                raise RuntimeError("path did not reach the requested level")
            Tb = drift * s + np.concatenate([[0.0], cum[:-1]])
            Ta = Tb + J
            idx = int(np.searchsorted(Ta, level, side="right"))
            full_lj = float((lab[:idx] * J[:idx]).sum())
            full_j = float(cum[idx - 1]) if idx > 0 else 0.0
            out[r, 3] = idx
            if idx < n and Tb[idx] < level:
                st = level - Tb[idx]
                out[r, 0] = full_lj + lab[idx] * st + b * (level - full_j - st)
                out[r, 1] = st
                out[r, 2] = Ta[idx] - level
            else:
                out[r, 0] = full_lj + b * (level - full_j)
                out[r, 1] = 0.0
                out[r, 2] = 0.0
        return out

    return _replicate(n_rep, 64, seed, 1, work)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_ensemble_equals_every_jump_evaluation(alpha):
    deepest = 0
    for b in (-1.0, 0.4, 1.0):
        for level, t_max in ((1.0, None), (2.0, 8.0)):
            eps = default_jump_cut(
                alpha, default_t_max(alpha, level) if t_max is None else t_max)
            for epsilon in (None, eps / 10.0):
                args = (alpha, b, 12, 3, level, t_max, epsilon)
                want = every_jump_ensemble(*args)
                got = sample_anomalous_ensemble(*args)
                for c in range(3):
                    assert got[c].tobytes() == want[:, c].tobytes()
                deepest = max(deepest, want[:, 3].max())
    if alpha == 0.8:
        # crossings past the first slice of sized jumps are covered
        assert deepest > 4 * lamperti_limit._FIRST_JUMPS


def test_ensemble_raises_exactly_when_every_jump_evaluation_does():
    # t_max = 0.4 leaves 16 of these 30 one-path ensembles short of level 1
    raised = 0
    for seed in range(30):
        try:
            want = every_jump_ensemble(0.5, 0.3, 1, seed, t_max=0.4)
        except RuntimeError:
            raised += 1
            with pytest.raises(RuntimeError, match="did not reach"):
                sample_anomalous_ensemble(0.5, 0.3, 1, seed, t_max=0.4)
            continue
        got = sample_anomalous_ensemble(0.5, 0.3, 1, seed, t_max=0.4)
        assert np.column_stack(got).tobytes() == want[:, :3].tobytes()
    assert 0 < raised < 30


def test_ensemble_matches_labelled_path_evaluation():
    # one chunk: the paths draw in turn from the first child stream,
    # Poisson count, times, sizes, labels, as labelled_subordinator does
    alpha, b, level = 0.6, -0.3, 1.5
    t_max = default_t_max(alpha, level)
    S, A, H = sample_anomalous_ensemble(alpha, b, 60, 9, level=level)
    rng = np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0])
    for r in range(60):
        path = labelled_subordinator(alpha, b, t_max, rng=rng)
        S_t, _, age, excess = path.evaluate(level)[:4]
        assert (A[r], H[r]) == (age, excess)
        # cumsum against pairwise summation of the labelled jumps
        assert abs(S[r] - S_t) < 1e-12


def test_ensemble_checks_its_inputs_before_any_path():
    for kwargs, message in (
            (dict(alpha=1.5), "subordinator index"),
            (dict(b=2.0), "label bias"),
            (dict(level=-1.0), "level must be positive"),
            (dict(level=0.0), "level must be positive"),
            (dict(level=np.inf), "level must be positive"),
            (dict(t_max=0.0), "t_max must be positive"),
            (dict(t_max=np.inf), "t_max must be positive"),
            (dict(epsilon=0.0), "jump cut"),
            (dict(epsilon=1e-15), "exceeds the cap")):
        args = dict(alpha=0.5, b=0.0, n_rep=0, seed=1)
        args.update(kwargs)
        with pytest.raises(ValueError, match=message):
            sample_anomalous_ensemble(**args)


def test_ensemble_marginal_matches_density():
    S, _, _ = sample_anomalous_ensemble(0.5, 0.0, 10000, seed=2)
    assert ks_distance(S, lambda v: cdf_f(0.5, 0.0, 1.0, v)) < 0.02


def test_ensemble_level_too_deep_raises():
    with pytest.raises(RuntimeError):
        sample_anomalous_ensemble(0.5, 0.0, 64, seed=1, level=1.0,
                                  t_max=0.05)


def test_ensemble_enforces_the_jump_cap():
    # ~1.7e8 expected jumps per path, above the 5e7 cap: refused up front
    with pytest.raises(ValueError, match="exceeds the cap"):
        sample_anomalous_ensemble(0.5, 0.0, 64, seed=1, epsilon=1e-15)


def test_default_horizon_formula():
    assert default_t_max(0.5) == pytest.approx(np.sqrt(30.0))
    assert default_t_max(0.3, level=2.0) == pytest.approx(
        2.0 ** 0.3 * 30.0 ** 0.7)


def test_renewal_laws_at_fixed_level():
    # R = age/(age+excess) is Beta(alpha, 1); age/t is Beta(1-alpha, alpha)
    S, A, H = sample_anomalous_ensemble(0.5, 0.0, 10000, seed=6)
    straddle = A > 0
    R = A[straddle] / (A[straddle] + H[straddle])
    assert ks_distance(R, lambda r: np.clip(r, 0, 1) ** 0.5) < 0.02
    assert ks_distance(A[straddle],
                       lambda a: special.betainc(0.5, 0.5, np.clip(a, 0, 1))) < 0.02


# ---------------------------------------------------------------------------
# the walk's law at two times


@pytest.mark.parametrize("comb, alpha", [
    (power_comb(0.3), 0.3),
    (power_comb(0.5), 0.5),
    (power_comb(0.7), 0.7),
    # anomalous-smoke's comb, b = 0.4
    (power_comb(0.5, c=1.4655561545081737, a_d=0.5, c_d=0.0), 0.5),
], ids=["power-0.3", "power-0.5", "power-0.7", "anomalous-smoke"])
def test_walk_keeps_its_direction_over_the_second_half_as_the_limit(
        comb, alpha):
    # the walk keeps its direction over (u/2, u] exactly when
    # |S_u - S_{u/2}| = u/2; in the limit, when the alpha-stable
    # regenerative set misses (1/2, 1], i.e. its last point g_1 before 1
    # is at most 1/2, and g_1 is Beta(alpha, 1 - alpha) whatever b is
    # (Dynkin-Lamperti).  Seeds 8-15 read within 2.4 sigma of it at
    # u = 10^4, so a 4 sigma binomial band holds the pinned seed
    u, n = 10 ** 4, 8192
    S = walk_marginals(comb, [u // 2, u], n, seed=11)
    freq = np.mean(np.abs(S[:, 1] - S[:, 0]) == u // 2)
    p = special.betainc(alpha, 1.0 - alpha, 0.5)
    assert abs(freq - p) < 4.0 * np.sqrt(p * (1.0 - p) / n), (freq, p)


# ---------------------------------------------------------------------------
# kernel check


def test_kernel_check_on_exact_conditional_draws():
    # H | A = a has survival (a/(a+h))^alpha: exact PIT is uniform
    rng = np.random.default_rng(14)
    alpha = 0.6
    A = 0.5 + rng.random(6000)
    H = A * (rng.random(6000) ** (-1.0 / alpha) - 1.0)
    out = markov_kernel_check((A, H), 1.5, (0.5, 1.5), alpha=alpha)
    assert out["n"] == 6000
    assert set(out) == {"n", "ks"}
    assert out["ks"] < 0.02


def test_kernel_check_from_path_objects():
    rng = np.random.default_rng(31)
    paths = [labelled_subordinator(0.5, 0.0, 3.0, rng=rng) for _ in range(900)]
    t = 1.0
    states = [p.evaluate(t) for p in paths]
    A = np.array([s[2] for s in states])
    H = np.array([s[3] for s in states])
    out = markov_kernel_check((A, H), t, (0.0, 2.0), alpha=0.5)
    assert out["n"] >= 800
    assert out["ks"] < 0.06


def test_kernel_check_needs_enough_samples():
    rng = np.random.default_rng(0)
    A = 0.5 + rng.random(100)
    H = A.copy()
    with pytest.raises(ValueError, match="holds 100 samples"):
        markov_kernel_check((A, H), 1.5, (0.5, 1.5), alpha=0.5)
    with pytest.raises(ValueError, match="pair"):
        markov_kernel_check((A, H, A), 1.5, (0.5, 1.5), alpha=0.5)
    # an age at level t lies in [0, t]
    with pytest.raises(ValueError, match="lie in"):
        markov_kernel_check((A, H), 1.0, (0.5, 1.5), alpha=0.5)
    with pytest.raises(ValueError, match="lie in"):
        markov_kernel_check((-A, H), 1.5, (0.5, 1.5), alpha=0.5)
