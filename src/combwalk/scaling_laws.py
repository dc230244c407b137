"""Drift constants, regime classification and the normalizing sequences.

For a comb walk the centered cycle variable is

    tau_c = (1 - m) tau_u - (1 + m) tau_d,

with m the effective drift.  The walk rescales through three integer
normalizers built from truncated moments of the run laws:

    space(u) = min { n >= 1 : Sigma^2(n) > 0 and n^2 / Sigma^2(n) >= u }
    time(u)  = min { t >= 1 : (Theta_u + Theta_d)(space(t)) * t >= u }
    walk(u)  = space(time(u))

Sigma^2 is Var(tau_c) when both run laws are square integrable, and the
truncated analogue

    Sigma^2(t) = (1-m)^2 V_u(t/(1-m)) + (1+m)^2 V_d(t/(1+m))

otherwise; the squares keep Sigma^2 asymptotic to the truncated second
moment of tau_c, which is what the attraction arguments use.
"""

import numpy as np
from scipy.special import gamma as gamma_fn


def mean_drift(comb):
    """(E tau_u - E tau_d) / (E tau_u + E tau_d), extended to +-1 when
    exactly one run law is integrable."""
    eu, ed = comb.up_law.mean(), comb.down_law.mean()
    if np.isinf(eu) and np.isinf(ed):
        raise ValueError("mean drift undefined: neither run law is integrable")
    if np.isinf(eu):
        return 1.0
    if np.isinf(ed):
        return -1.0
    return (eu - ed) / (eu + ed)


def total_mean_cycle(comb):
    """E tau_u + E tau_d (may be inf)."""
    return comb.up_law.mean() + comb.down_law.mean()


def tail_balance(comb):
    """Limit of (T_u - T_d)/(T_u + T_d); +-1 when one tail dominates."""
    au = comb.up.tail_index
    ad = comb.down.tail_index
    if au is None and ad is None:
        raise ValueError("tail balance undefined: both run laws are "
                         "light-tailed")
    if ad is None or (au is not None and au < ad):
        return 1.0
    if au is None or ad < au:
        return -1.0
    cu = comb.up_law.tail_constant
    cd = comb.down_law.tail_constant
    return (cu - cd) / (cu + cd)


def effective_drift(comb):
    """Limit of (Theta_u - Theta_d)/(Theta_u + Theta_d): the mean drift
    when a run law is integrable, the tail balance otherwise."""
    if comb.up_law.family.integrable or comb.down_law.family.integrable:
        return mean_drift(comb)
    return tail_balance(comb)


def stable_scale(alpha):
    """Coefficient of |u|^alpha in the limit symbol, singularity-free:

        (2-a) Gamma(2-a)/a * sin(pi(a-1)/2)/(a-1)
            = Gamma(3-a)/a * (pi/2) * sinc((a-1)/2).

    Equals pi/2 at alpha=1 (Cauchy) and 1/2 at alpha=2 (variance 1).
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    return float(gamma_fn(3.0 - alpha) / alpha * (np.pi / 2.0)
                 * np.sinc((alpha - 1.0) / 2.0))


def stable_sigma(alpha):
    """Scale parameter: stable_scale(alpha) ** (1/alpha)."""
    return stable_scale(alpha) ** (1.0 / alpha)


def stable_skewness(alpha, m, b):
    """Skewness of the limit law from drift m and tail balance b."""
    if abs(m) >= 1.0:
        raise ValueError("skewness undefined at |drift| = 1")
    if not -1.0 <= b <= 1.0:
        raise ValueError(f"tail balance b = {b} must lie in [-1, 1]")
    wp = (1.0 - m) ** alpha * (1.0 + b)
    wn = (1.0 + m) ** alpha * (1.0 - b)
    return (wp - wn) / (wp + wn)


class RegimeReport:
    def __init__(self, regime, alpha, drift, balance, beta, mean_cycle,
                 var_cycle, notes):
        self.regime = regime
        self.alpha = alpha
        self.drift = drift          # m
        self.balance = balance      # b, None when undefined
        self.beta = beta            # skewness of the limit law
        self.mean_cycle = mean_cycle  # E tau_u + E tau_d
        self.var_cycle = var_cycle  # Var(tau_c); None unless both are L2
        self.notes = notes

    def __repr__(self):
        return (f"RegimeReport(regime={self.regime!r}, alpha={self.alpha:g}, "
                f"drift={self.drift:g}, balance={self.balance}, "
                f"beta={self.beta}, mean_cycle={self.mean_cycle})")


def classify_regime(comb):
    """Which scaling limit the comb walk falls under.

    gaussian   both laws square integrable, or tail index exactly 2
    generic    min tail index in (1, 2)
    cauchy     min tail index exactly 1
    anomalous  min tail index in (0, 1)
    """
    up, dn = comb.up_law, comb.down_law
    notes = []
    heavy = [law.family.tail_index for law in (up, dn)
             if not law.family.square_integrable]
    alpha = min(heavy, default=2.0)
    if alpha >= 2.0:
        regime, alpha = "gaussian", 2.0
        if heavy:
            notes.append("tail index 2: variance slowly varying")
    elif alpha > 1.0:
        regime = "generic"
    elif alpha == 1.0:
        regime = "cauchy"
        notes.append("non-integrable cauchy boundary")
    else:
        regime = "anomalous"
    m = effective_drift(comb)
    if abs(m) >= 1.0:
        raise ValueError(f"effective drift {m:+g}: one direction's runs "
                         "outweigh the other's, so the walk is ballistic "
                         "and has no centred scaling limit")
    try:
        b = tail_balance(comb)
    except ValueError:
        b = None
    beta = 0.0 if regime == "gaussian" else stable_skewness(alpha, m, b)
    vc = None if heavy else ((1.0 - m) ** 2 * up.variance()
                             + (1.0 + m) ** 2 * dn.variance())
    if vc == 0.0:
        notes.append("degenerate: centered cycle variable is constant")
    return RegimeReport(regime, alpha, m, b, beta, total_mean_cycle(comb),
                        vc, notes)


_POWERS = 8         # powers of two asked per call while doubling
_DEPTH = 4          # bisection levels asked per call (2^4 - 1 midpoints)
_TOP = 62           # the doubling gives up past 2^62
_TWOS = 1 << np.arange(_TOP + 1)
_WIDTHS = tuple(2 ** k for k in reversed(range(_DEPTH)))     # 8, 4, 2, 1
# inner point j of a bisection grid halves the interval from j - s to
# j + s, with s the lowest set bit of j
_INNER = np.arange(1, 2 ** _DEPTH)
_LEFT, _RIGHT = _INNER - (_INNER & -_INNER), _INNER + (_INNER & -_INNER)


def _ask(pred, rows, n, valid):
    """pred at the cells `valid` of the candidates n (one line per search
    of `rows`), False at the others."""
    out = np.zeros(n.shape, dtype=bool)
    r, c = np.nonzero(valid)
    if len(r):
        out[r, c] = pred(rows[r], n[r, c])
    return out


def _first(holds):
    """Per line, the column of the first True (0 if none) and whether
    there is one."""
    j = np.argmax(holds, axis=1)
    return j, holds[np.arange(len(j)), j]


def _smallest_int(pred, rows):
    """Smallest n >= 1 with pred(n) for `rows` independent searches, by
    doubling, then integer bisection, then a downward scan of the three
    integers below that guards against local non-monotonicity.  A search
    whose doubling passes 2^62 gives 0.

    pred(i, n) tells for the searches i whether they hold at the
    candidates n (int64 arrays of one length).  The searches run in
    lockstep, and pred is asked in batches: 8 powers of two per call, the
    next 4 levels of the bisection tree (15 midpoints) per call, and the
    3 scan points in one call.  Each search then reads the answers in the
    order of the one-probe-at-a-time search, so the result is that
    search's for any predicate, monotone or not.  Candidates that search
    would not reach are asked too (always within [1, 2^62]); pred must
    answer them without raising.
    """
    hi = np.zeros(rows, dtype=np.int64)
    todo = np.arange(rows)
    for e in range(0, _TOP + 1, _POWERS):
        powers = _TWOS[e:e + _POWERS]
        n = np.broadcast_to(powers, (len(todo), len(powers)))
        j, found = _first(_ask(pred, todo, n, np.ones(n.shape, dtype=bool)))
        hi[todo[found]] = powers[j[found]]
        todo = todo[~found]
        if not len(todo):
            break
    lo = hi // 2
    act = np.flatnonzero(hi - lo > 1)
    while len(act):
        # the grid of the next _DEPTH bisection levels from lo to hi; an
        # interval with hi - lo <= 1 is closed: it is not asked, and its
        # midpoint is lo, so the walk's step right keeps it
        B = np.empty((len(act), 2 ** _DEPTH + 1), dtype=np.int64)
        B[:, 0], B[:, -1] = lo[act], hi[act]
        for w in _WIDTHS:
            B[:, w:-1:2 * w] = (B[:, :-w:2 * w] + B[:, 2 * w::2 * w]) // 2
        holds = _ask(pred, act, B[:, 1:-1], B[:, _RIGHT] - B[:, _LEFT] > 1)
        # each search walks down the grid as its own bisection would,
        # halving (B[p], B[p + 2w]) at B[p + w]
        line = np.arange(len(act))
        p = np.zeros(len(act), dtype=np.intp)
        for w in _WIDTHS:
            p += w * ~holds[line, p + (w - 1)]
        lo[act], hi[act] = B[line, p], B[line, p + 1]
        act = act[hi[act] - lo[act] > 1]
    scan = hi[:, None] - np.arange(3, 0, -1)
    j, found = _first(_ask(pred, np.arange(rows), scan,
                           (scan >= 1) & (hi[:, None] > 0)))
    return np.where(found, scan[np.arange(rows), j], hi)


def _least_double(u):
    """The least doubles >= u (numbers, or an int64 array), so that for
    doubles x, x >= _least_double(u) is Python's exact x >= u."""
    f = np.asarray(u, dtype=float)
    up = f.astype(object) < np.asarray(u, dtype=object)
    return np.where(up, np.nextafter(f, np.inf), f)


def _bounds(u):
    """u as an array of least doubles >= it, once it is checked positive
    and finite."""
    f = np.asarray(u, dtype=float)
    if not np.all((f > 0) & (f < np.inf)):
        raise ValueError("normalizer argument must be positive and finite")
    return np.atleast_1d(_least_double(u))


def _settled(n, u):
    """The normalizers n of the arguments u: an int for a number u."""
    if not n.all():
        raise RuntimeError("normalizer search exceeded 2^62")
    return int(n[0]) if np.ndim(u) == 0 else n


class NormalizerSet:
    """space/time/walk normalizers of a comb, all integer-valued.  Its
    constants are classify_regime's `report`: the drift m, the mean cycle
    (cauchy_norm's D when finite) and, when both run laws are square
    integrable, the cycle variance Sigma^2.  A ballistic or degenerate
    (Sigma^2 = 0) comb is a ValueError."""

    def __init__(self, comb):
        self.comb = comb
        self.report = classify_regime(comb)
        self.m, vc = self.report.drift, self.report.var_cycle
        if vc is not None and vc <= 0.0:
            raise ValueError("degenerate comb: centered cycle variable "
                             "has zero variance")

    def sigma2(self, t):
        if self.report.var_cycle is not None:
            return self.report.var_cycle
        up, dn = self.comb.up_law, self.comb.down_law
        return ((1.0 - self.m) ** 2 * up.truncated_second_moment(t / (1.0 - self.m))
                + (1.0 + self.m) ** 2 * dn.truncated_second_moment(t / (1.0 + self.m)))

    def theta_sum(self, t):
        return (self.comb.up_law.truncated_mean(t)
                + self.comb.down_law.truncated_mean(t))

    def tail_sum(self, t):
        return self.comb.up_law.tail(t) + self.comb.down_law.tail(t)

    def _space(self, lim):
        """space at the bounds lim; 0 where its search passes 2^62."""

        def ok(i, n):
            nf = n.astype(float)
            s2 = self.sigma2(nf)
            sq = nf * nf
            big = n > 1 << 53       # whose float rounds: square exactly
            sq[big] = [float(k * k) for k in n[big].tolist()]
            with np.errstate(divide="ignore"):
                return (s2 > 0.0) & (sq / s2 >= lim[i])

        return _smallest_int(ok, len(lim))

    def space(self, u):
        """Smallest n with Sigma^2(n) > 0 and n^2/Sigma^2(n) >= u; at
        every entry of an array u, all searched in lockstep."""
        return _settled(self._space(_bounds(u)), u)

    def time(self, u):
        """Smallest t with theta_sum(space(t)) * t >= u (elementwise)."""
        lim = _bounds(u)

        def ok(i, t):
            # a probe whose space search fails (n = 0) does not hold; as
            # space fails at every t past one where it fails, time's own
            # search then fails too, where the scalar search raises
            n = self._space(_least_double(t))
            return self.theta_sum(n.astype(float)) * t.astype(float) >= lim[i]

        return _settled(_smallest_int(ok, len(lim)), u)

    def walk(self, u):
        return self.space(self.time(u))

    def cauchy_norm(self, u):
        """Exact spatial prefactor in the Cauchy regime:
        u * Xi_1(time(u)) / D(u), with D(u) the total cycle mean when
        finite and (Theta_u + Theta_d)(walk(u)) otherwise; Xi_1(time(u))
        is walk(u) (T_u + T_d)(walk(u)), so walk(u) is searched once."""
        n = self.walk(u)
        dT = self.report.mean_cycle
        den = dT if np.isfinite(dT) else self.theta_sum(float(n))
        return u * (n * self.tail_sum(float(n))) / den
