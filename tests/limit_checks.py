"""Diagnostics that only the tests use: the limit process's Levy symbol,
the empirical characteristic function, the Markov-kernel check of the
anomalous limit's (age, excess) pair and the pointwise check of
vectorized functions."""

import numpy as np

from combwalk import ks_distance
from combwalk.scaling_laws import stable_scale


def levy_symbol(alpha, beta, u):
    """log E exp(iu X_1) for the limit process, of scale
    stable_sigma(alpha), vectorized over u."""
    coef = stable_scale(alpha)
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    if abs(alpha - 1.0) < 1e-12:
        with np.errstate(divide="ignore", invalid="ignore"):
            slip = np.where(au > 0, (2.0 / np.pi) * np.log(au), 0.0)
        return -coef * au * (1.0 + 1j * beta * np.sign(u) * slip)
    t = np.tan(np.pi * alpha / 2.0)
    return -coef * au ** alpha * (1.0 - 1j * beta * np.sign(u) * t)


def empirical_char_fn(samples, u_grid):
    """(phi_hat, se) per grid point: phi_hat = mean e^{iux}, se the
    combined standard error of the real and imaginary parts."""
    x = np.asarray(samples, dtype=float)
    if len(x) == 0:
        raise ValueError("empty sample")
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    ph = np.exp(1j * np.outer(u, x))
    phi = ph.mean(axis=1)
    n = len(x)
    se = np.sqrt((ph.real.var(axis=1) + ph.imag.var(axis=1)) / n)
    return phi, se


def markov_kernel_check(pair, t, a_bin, alpha):
    """Conditional law of the excess given the age at level t against
    the closed-form kernel CDF 1 - (a/(a+h))^alpha.

    `pair` holds the (age, excess) arrays at level t, as read from
    LabelledSubordinatorPath.evaluate or returned by
    sample_anomalous_ensemble; every age must lie in [0, t].  Applying
    each sample's own age to the kernel CDF gives an exact uniform pivot.
    Returns {"n": samples in the age bin, "ks": KS distance of that
    pivot from the uniform law}.
    """
    if len(pair) != 2:
        raise ValueError("expected an (age, excess) pair")
    A, H = np.asarray(pair[0]), np.asarray(pair[1])
    if not np.all((0.0 <= A) & (A <= t)):
        raise ValueError(f"ages at level {t:g} must lie in [0, {t:g}]")
    lo, hi = float(a_bin[0]), float(a_bin[1])
    sel = (A >= lo) & (A <= hi) & (A > 0.0)
    n = int(sel.sum())
    if n < 200:
        raise ValueError(f"age bin holds {n} samples (< 200); "
                         "widen the bin or add replicas")
    a, h = A[sel], H[sel]
    ks = ks_distance(1.0 - (a / (a + h)) ** alpha, lambda u: u)
    return {"n": n, "ks": ks}


def with_repeats(points, again):
    """points followed by the repeats points[i % len(points)], i in again,
    as a float array."""
    return np.array(list(points) + [points[i % len(points)] for i in again],
                    dtype=float)


def assert_pointwise(f, x):
    """f(x)[i] equals f(x[i:i+1])[0] bit for bit at every i: a vectorized
    function gives a point the value it has alone, wherever the point
    sits and whatever shares its call."""
    x = np.asarray(x)
    y = np.asarray(f(x))
    assert y.shape == x.shape
    for i in range(len(x)):
        alone = np.asarray(f(x[i:i + 1]))
        assert alone.tobytes() == y[i:i + 1].tobytes(), (i, x[i], alone, y[i])
