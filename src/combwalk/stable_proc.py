"""Stable limit processes: exact samplers and the limit symbol.

Conventions.  A stable law here is the S1 parametrization: for
alpha != 1 the log characteristic function is

    log E exp(iuX) = -scale^alpha |u|^alpha (1 - i beta sgn(u) tan(pi alpha/2))

and for alpha = 1 the tangent factor is replaced by the usual
(2/pi) log|u| slip.  The comb-walk limits carry scale
stable_sigma(alpha) by default.
"""

import numpy as np
from scipy import stats

from .scaling_laws import stable_scale, stable_sigma


def levy_symbol(alpha, beta, u, scale=None):
    """log E exp(iu X_1) for the limit process, vectorized over u."""
    if scale is None:
        coef = stable_scale(alpha)
    else:
        coef = float(scale) ** alpha
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    if abs(alpha - 1.0) < 1e-12:
        with np.errstate(divide="ignore", invalid="ignore"):
            slip = np.where(au > 0, (2.0 / np.pi) * np.log(au), 0.0)
        return -coef * au * (1.0 + 1j * beta * np.sign(u) * slip)
    t = np.tan(np.pi * alpha / 2.0)
    return -coef * au ** alpha * (1.0 - 1j * beta * np.sign(u) * t)


def sample_stable(alpha, beta, size, rng, scale=None):
    """Chambers-Mallows-Stuck draws from the S1 stable law."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if scale is None:
        scale = stable_sigma(alpha)
    V = (rng.random(size) - 0.5) * np.pi
    W = rng.standard_exponential(size)
    if abs(alpha - 1.0) < 1e-12:
        if beta == 0.0:
            X = np.tan(V)
        else:
            h = np.pi / 2.0 + beta * V
            X = (2.0 / np.pi) * (h * np.tan(V)
                                 - beta * np.log((np.pi / 2.0) * W * np.cos(V) / h))
        # at alpha = 1 scaling slips the location: sigma X is the target
        # law shifted by -(2/pi) beta sigma log sigma
        return scale * X + (2.0 / np.pi) * beta * scale * np.log(scale)
    else:
        t = np.tan(np.pi * alpha / 2.0)
        th0 = np.arctan(beta * t) / alpha
        fac = (1.0 + beta * beta * t * t) ** (1.0 / (2.0 * alpha))
        X = (fac * np.sin(alpha * (V + th0)) / np.cos(V) ** (1.0 / alpha)
             * (np.cos(V - alpha * (V + th0)) / W) ** ((1.0 - alpha) / alpha))
    return scale * X


def sample_positive_stable(alpha, size, rng):
    """Positive strictly stable draws with Laplace transform exp(-lam^alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("positive stable laws need alpha in (0, 1)")
    th = np.pi * rng.random(size)
    E = rng.standard_exponential(size)
    A = (np.sin(alpha * th) ** alpha * np.sin((1.0 - alpha) * th) ** (1.0 - alpha)
         / np.sin(th)) ** (1.0 / (1.0 - alpha))
    return (A / E) ** ((1.0 - alpha) / alpha)


_JUMP_CAP = 50_000_000


def default_jump_cut(alpha, t_max):
    """Resolution below which subordinator jumps are folded into drift."""
    return 1e-6 * t_max ** (1.0 / alpha)


def subordinator_path(alpha, t_max, rng, eps=None):
    """One path of the subordinator with Levy density alpha x^(-1-alpha).

    Jumps above eps are sampled exactly (Poisson number, Pareto sizes);
    the rest enter as the compensating drift rate
    alpha eps^(1-alpha)/(1-alpha).  Returns (times, sizes, drift_rate)
    with times sorted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("subordinator index must lie in (0, 1)")
    if eps is None:
        eps = default_jump_cut(alpha, t_max)
    lam = t_max * eps ** (-alpha)
    if lam > _JUMP_CAP:
        raise ValueError(f"expected jump count {lam:.3g} exceeds the cap; "
                         "raise eps or shorten the path")
    n = rng.poisson(lam)
    s = np.sort(rng.random(n) * t_max)
    J = eps * rng.random(n) ** (-1.0 / alpha)
    drift = alpha * eps ** (1.0 - alpha) / (1.0 - alpha)
    return s, J, drift


def brownian_path(times, rng):
    """Standard Brownian motion on the given increasing times."""
    times = np.asarray(times, dtype=float)
    dt = np.diff(np.concatenate([[0.0], times]))
    if np.any(dt < 0):
        raise ValueError("times must be nondecreasing")
    return np.cumsum(rng.standard_normal(len(times)) * np.sqrt(dt))


def stable_path(alpha, beta, times, rng, scale=None):
    """Stable Levy motion on the given times via independent increments."""
    if scale is None:
        scale = stable_sigma(alpha)
    times = np.asarray(times, dtype=float)
    dt = np.diff(np.concatenate([[0.0], times]))
    if np.any(dt < 0):
        raise ValueError("times must be nondecreasing")
    inc = sample_stable(alpha, beta, len(times), rng, scale=1.0)
    sig = scale * dt ** (1.0 / alpha)
    out = inc * sig
    if abs(alpha - 1.0) < 1e-12 and beta != 0.0:
        # increment scale sig shifts the alpha = 1 location by
        # (2/pi) beta sig log sig; without it increments do not add up
        # to the law of X(t)
        nz = sig > 0.0
        out[nz] += (2.0 / np.pi) * beta * sig[nz] * np.log(sig[nz])
    return np.cumsum(out)


def stable_cdf_interp(alpha, beta, scale, npts=3001):
    """Fast CDF of the S1 stable law via a dense grid (scipy's direct
    cdf is far too slow for 1e4+ evaluation points).

    The grid is tangent-warped: theta uniform, x = scale tan(theta),
    reaching ~1e4 scale units.  Each cell then carries O(1/npts)
    probability even for x^-alpha tails, so the interpolation error is
    uniformly small; a plain linear grid of any practical span clips
    percent-level tail mass near alpha = 1.
    """
    dist = stats.levy_stable(alpha, beta, loc=0.0, scale=scale)
    half = np.pi / 2.0 - 1e-4
    theta = np.linspace(-half, half, npts)
    grid = scale * np.tan(theta)
    cdfg = dist.cdf(grid)

    def cdf(x):
        return np.interp(x, grid, cdfg, left=0.0, right=1.0)

    cdf.grid = grid
    cdf.values = cdfg
    return cdf
