"""Stable limit processes: exact samplers and the reference CDF.

Conventions.  A stable law here is the S1 parametrization: for
alpha != 1 the log characteristic function is

    log E exp(iuX) = -scale^alpha |u|^alpha (1 - i beta sgn(u) tan(pi alpha/2))

and for alpha = 1 the tangent factor is replaced by the usual
(2/pi) log|u| slip.  The comb-walk limits carry scale
stable_sigma(alpha) by default.

The reference CDF of the KS checks is Nolan's one-dimensional integral
(Nolan 1997, "Numerical calculation of stable densities and distribution
functions"), evaluated here for a whole grid of points at once on fixed
Gauss-Legendre panels; see stable_cdf_interp.
"""

import numpy as np

from .scaling_laws import stable_sigma


def sample_stable(alpha, beta, size, rng, scale=None):
    """Chambers-Mallows-Stuck draws from the S1 stable law."""
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if scale is None:
        scale = stable_sigma(alpha)
    if not scale > 0.0:
        raise ValueError("scale must be positive")
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
    """Positive strictly stable draws with Laplace transform exp(-lam^alpha);
    they pass the float range often for alpha below ~0.02."""
    return np.exp(_log_positive_stable(alpha, size, rng))


def _log_positive_stable(alpha, size, rng):
    """Logs of positive stable draws by Kanter's T = B^(1/alpha)
    E^((alpha-1)/alpha), B = sin(alpha th)^alpha sin((1-alpha) th)^(1-alpha)
    / sin th, th ~ U(0, pi), E ~ Exp(1): finite at any alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("positive stable laws need alpha in (0, 1)")
    th = np.pi * rng.random(size)
    E = rng.standard_exponential(size)
    logB = (alpha * np.log(np.sin(alpha * th))
            + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * th))
            - np.log(np.sin(th)))
    return (logB + (alpha - 1.0) * np.log(E)) / alpha


# ---------------------------------------------------------------------------
# the S1 CDF by Nolan's integral
#
# For alpha != 1 and x > 0, with theta0 = arctan(beta tan(pi alpha/2))/alpha
# and the interval (-theta0, pi/2) of length L = pi/2 + theta0,
#   I(x) = int exp(-h(theta)) dtheta,  h = x^(alpha/(alpha-1)) V(theta),
#   V = cos(alpha theta0)^(1/(alpha-1)) (cos th / sin(alpha (theta0+th)))^p
#       cos(alpha theta0 + (alpha-1) th) / cos th,   p = alpha/(alpha-1),
#   F(x) = 1 - I/pi (alpha > 1),  (pi - L)/pi + I/pi (alpha < 1),
# F(0) = (pi - L)/pi and F(x; alpha, beta) = 1 - F(-x; alpha, -beta).  For
# alpha = 1 and beta > 0 the interval is (-pi/2, pi/2), F(x) = I(x)/pi and
#   h = exp(-pi x/(2 beta)) (2/pi) w/cos th exp(w tan th / beta),
#   w = pi/2 + beta th.
# h is monotone in theta, so exp(-h) goes from 0 to 1 (or back) once,
# around the theta* where h = 1.  theta is mapped to y in R by
# theta = theta_lo + L / (1 + e^-y): distances t, s to the two ends are
# both exact, the end behaviours of h (powers of t and s) become
# exponentials in y, and dtheta = t s / L dy.

_Y = 40.0           # y range [-_Y, _Y]: beyond it dtheta/dy < L e^-40
_H_REACH = 40.0     # the rising side stops where h - h_end = 40
_DEV_REACH = 1e-8   # the falling side's fine panels stop where h - h_end = this
_BLOCK = 256        # points per quadrature block


def _gl_panels(edges, n):
    """n-point Gauss-Legendre nodes and weights on each panel of edges."""
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = np.asarray(edges[:-1])[:, None], np.asarray(edges[1:])[:, None]
    return ((a + b) / 2 + (b - a) / 2 * x).ravel(), ((b - a) / 2 * w).ravel()


# panels as fractions of each side's reach from y*: uniform where h rises
# past 1 (the double exponential), graded toward y* where it falls, then
# a coarse tail out to 3.5 times the falling side's reach
_RISE = _gl_panels(np.linspace(0.0, 1.0, 6), 12)
_FALL = _gl_panels(np.array([0.0, 0.06, 0.15, 0.3, 0.55, 1.0]), 12)
_TAIL = _gl_panels(np.array([0.0, 1.0, 3.0, 7.0]) / 7.0, 8)
_TAIL_SPAN = 3.5


def _bisect(f, lo, hi, target, iters):
    """Vectorized bisection for f(v) = target, f increasing in v."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = f(mid) > target
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


class _NolanIntegral:
    """I(u) = int exp(-h) dtheta of one (alpha, beta); u is log x for
    alpha != 1 (x > 0) and x itself for alpha = 1 (beta > 0)."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = alpha, beta
        if alpha == 1.0:
            self.L = np.pi
            self.rising = True          # h grows with theta
            return
        tn = np.tan(np.pi * (1.0 - alpha / 2.0))    # -tan(pi alpha / 2)
        # c0 = pi - alpha L, in forms exact at beta = -1, where c0 = 0
        # (alpha > 1) and L = 0 (alpha < 1: no mass on this side)
        if alpha > 1.0:
            c0 = np.arctan2((1.0 + beta) * tn, 1.0 - beta * tn * tn)
        else:
            c0 = np.pi + np.arctan(tn) + np.arctan(beta * tn)
        self.c0 = c0
        # L <= pi; at beta = 1 and alpha < 1 it is pi, and a rounding past
        # it made pi - L negative: tan and log of it NaN near the far end
        self.L = min((np.pi - c0) / alpha, np.pi)
        self.p = alpha / (alpha - 1.0)
        self.K = -0.5 * np.log1p((beta * tn) ** 2) / (alpha - 1.0)
        self.rising = alpha < 1.0

    def ends(self, y):
        """Distances t, s of theta(y) to the interval's ends, and dtheta/dy."""
        e = np.exp(-y)
        t = self.L / (1.0 + e)
        s = t * e
        return t, s, t * s / self.L

    def log_h(self, y, u):
        a, L = self.alpha, self.L
        t, s, _ = self.ends(y)
        if a == 1.0:
            b = self.beta
            T = np.tan(0.5 * np.minimum(t, s))     # cos th = 2T / (1 + T^2)
            tan_th = np.sign(t - s) * (1.0 - T * T) / (2.0 * T)
            w = 0.5 * np.pi * (1.0 - b) + b * t
            return (-0.5 * np.pi * u / b + np.log(w * (1.0 + T * T) / (np.pi * T))
                    + w * tan_th / b)
        # sines through tan(x/2), of whichever argument is at most pi/2:
        # cos th = sin s, sin(alpha (theta0 + th)) = sin(alpha t) and
        # cos(alpha theta0 + (alpha-1) th) = sin(c0 + (alpha-1) s)
        c0 = self.c0
        T1 = np.tan(0.5 * np.minimum(s, t + (np.pi - L)))
        T2 = np.tan(0.5 * np.minimum(a * t, c0 + a * s))
        if a > 1.0:
            T3 = np.tan(0.5 * (c0 + (a - 1.0) * s))
        else:
            T3 = np.tan(0.5 * np.minimum((np.pi - L) + (1.0 - a) * t,
                                         a * L + (1.0 - a) * s))
        Q1, Q2, Q3 = 1.0 + T1 * T1, 1.0 + T2 * T2, 1.0 + T3 * T3
        return (self.p * (u + np.log(T1 * Q2 / (T2 * Q1))) + self.K
                + np.log(T3 * Q1 / (T1 * Q3)))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.L == 0.0:
            return np.zeros(u.shape)
        d = 1.0 if self.rising else -1.0    # y-direction in which h grows
        # h at its lower end: 0, or the floor of a light tail (|beta| = 1)
        h_end = np.exp(np.minimum(self.log_h(-d * _Y, u), 700.0))
        # y* where h - h_end = 1, then how far each side reaches from it
        ys = _bisect(lambda y: d * self.log_h(y, u), np.full(u.shape, -_Y),
                     np.full(u.shape, _Y), d * np.log1p(h_end), 30)
        room0, room1 = _Y - d * ys, _Y + d * ys
        # a reach is room * e^-r, r in [0, 40]
        r = _bisect(lambda r: -self.log_h(ys + d * room0 * np.exp(-r), u),
                    np.zeros(u.shape), np.full(u.shape, 40.0),
                    -np.log(h_end + _H_REACH), 10)
        reach0 = room0 * np.exp(-r)
        r = _bisect(lambda r: self.log_h(ys - d * room1 * np.exp(-r), u),
                    np.zeros(u.shape), np.full(u.shape, 40.0),
                    np.log(h_end + _DEV_REACH), 10)
        reach1 = room1 * np.exp(-r)
        tail = np.minimum(_TAIL_SPAN * reach1, room1 - reach1)
        t, s, _ = self.ends(ys)
        # exp(-h) = exp(-h_end) (1 - dev) on the falling side, which has
        # length t or s in theta
        flat = t if self.rising else s
        out = np.empty(u.shape)
        for i in range(0, u.size, _BLOCK):
            k = slice(i, i + _BLOCK)
            uk, yk, hk = u[k, None], ys[k, None], h_end[k, None]

            def rising(y):
                return np.exp(-np.exp(self.log_h(y, uk))) * self.ends(y)[2]

            def dev(y):
                # h >= h_end here; a large h_end rounds past h, and the
                # overflowing expm1 made the integral NaN
                return (-np.expm1(np.minimum(hk - np.exp(self.log_h(y, uk)),
                                             0.0)) * self.ends(y)[2])

            r0, r1, rt = reach0[k, None], reach1[k, None], tail[k, None]
            I0 = reach0[k] * (rising(yk + d * r0 * _RISE[0]) @ _RISE[1])
            D = (reach1[k] * (dev(yk - d * r1 * _FALL[0]) @ _FALL[1])
                 + tail[k] * (dev(yk - d * (r1 + rt * _TAIL[0])) @ _TAIL[1]))
            out[k] = I0 + np.exp(-h_end[k]) * (flat[k] - D)
        return out


def _standard_cdf(z, alpha, beta):
    """CDF of the standard (scale 1) S1 law at the points z."""
    if alpha == 1.0:
        if beta == 0.0:
            return 0.5 + np.arctan(z) / np.pi
        I = _NolanIntegral(1.0, abs(beta))(z if beta > 0 else -z)
        return I / np.pi if beta > 0 else 1.0 - I / np.pi
    if alpha < 1.0 and beta > 0.0:
        # by reflection: L is exact (0) at beta = -1, not at beta = 1
        return 1.0 - _standard_cdf(-z, alpha, -beta)
    L = _NolanIntegral(alpha, beta).L
    # F(0); for alpha < 1 both sides start from it, so F is monotone at 0
    out = np.full(z.shape, 1.0 - L / np.pi if alpha > 1.0 else
                  (np.pi - L) / np.pi)
    for sign in (1.0, -1.0):
        side = sign * z > 0
        I = _NolanIntegral(alpha, sign * beta)(np.log(np.abs(z[side]))) / np.pi
        if alpha > 1.0:
            # the upper tail I is kept as is on the negative side
            out[side] = 1.0 - I if sign > 0 else I
        else:
            out[side] += sign * I
    # a far tail's I meets F(0) or 1 - F(0) to rounding, on either side
    return np.clip(out, 0.0, 1.0, out=out)


def stable_cdf_interp(alpha, beta, scale, npts=3001):
    """CDF of the S1 stable law, interpolated on a dense grid.

    The grid is tangent-warped: theta uniform, x = scale tan(theta),
    reaching ~1e4 scale units.  Each cell then carries O(1/npts)
    probability even for x^-alpha tails, so the interpolation error is
    uniformly small; a plain linear grid of any practical span clips
    percent-level tail mass near alpha = 1.  Outside the grid the CDF
    reads 0 and 1.

    The grid values are Nolan's integral, all points at once: a
    vectorized bisection finds each point's transition theta*, and fixed
    Gauss-Legendre panels graded around it do the rest.  Against
    mpmath evaluations at 20+ digits they are within 1e-12 for the laws
    of the bundled scenarios and tests, centre and tails included.  At
    alpha = 1 the grid carries the (2/pi) beta scale log(scale) location
    slip of S1 scaling.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    if not -1.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [-1, 1]")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    half = np.pi / 2.0 - 1e-4
    theta = np.linspace(-half, half, npts)
    grid = scale * np.tan(theta)
    shift = (2.0 / np.pi) * beta * scale * np.log(scale) if alpha == 1.0 else 0.0
    # exp(-h) under- and overflows by design far from each theta*
    with np.errstate(over="ignore", under="ignore"):
        cdfg = _standard_cdf((grid - shift) / scale, float(alpha), float(beta))

    def cdf(x):
        return np.interp(x, grid, cdfg, left=0.0, right=1.0)

    cdf.grid = grid
    cdf.values = cdfg
    return cdf
