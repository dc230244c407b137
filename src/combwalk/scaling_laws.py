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
    wp = (1.0 - m) ** alpha * (1.0 + b)
    wn = (1.0 + m) ** alpha * (1.0 - b)
    if wp + wn == 0.0:
        raise ValueError("degenerate weights in skewness")
    return (wp - wn) / (wp + wn)


class RegimeReport:
    def __init__(self, regime, alpha, drift, balance, beta, mean_cycle, notes):
        self.regime = regime
        self.alpha = alpha
        self.drift = drift          # m
        self.balance = balance      # b, None when undefined
        self.beta = beta            # skewness of the limit law
        self.mean_cycle = mean_cycle  # E tau_u + E tau_d
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
    heavy = []
    for law in (up, dn):
        if not law.family.square_integrable:
            idx = law.family.tail_index
            if idx is None:
                raise ValueError("non-square-integrable law without a tail "
                                 "index; cannot classify")
            heavy.append(idx)
    if not heavy:
        alpha = 2.0
        regime = "gaussian"
    else:
        alpha = min(heavy)
        if alpha >= 2.0:
            regime = "gaussian"
            alpha = 2.0
            notes.append("tail index 2: variance slowly varying")
        elif alpha > 1.0:
            regime = "generic"
        elif alpha == 1.0:
            regime = "cauchy"
            if np.isfinite(total_mean_cycle(comb)):
                notes.append("integrable cauchy boundary")
            else:
                notes.append("non-integrable cauchy boundary")
        else:
            regime = "anomalous"
    m = effective_drift(comb)
    try:
        b = tail_balance(comb)
    except ValueError:
        b = None
    if regime == "gaussian":
        beta = 0.0
    else:
        beta = stable_skewness(alpha, m, b)
    dT = total_mean_cycle(comb)
    if regime == "gaussian":
        vc = _var_cycle(comb, m)
        if vc == 0.0:
            notes.append("degenerate: centered cycle variable is constant")
    return RegimeReport(regime, alpha, m, b, beta, dT, notes)


def _var_cycle(comb, m):
    vu = comb.up_law.variance()
    vd = comb.down_law.variance()
    return (1.0 - m) ** 2 * vu + (1.0 + m) ** 2 * vd


def _smallest_int(pred):
    """Smallest n >= 1 with pred(n), by doubling then integer bisection.
    A short downward scan guards against local non-monotonicity."""
    hi = 1
    while not pred(hi):
        hi *= 2
        if hi > 1 << 62:
            raise RuntimeError("normalizer search exceeded 2^62")
    if hi > 1:
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pred(mid):
                hi = mid
            else:
                lo = mid
    for k in range(max(1, hi - 3), hi):
        if pred(k):
            return k
    return hi


class NormalizerSet:
    """space/time/walk normalizers of a comb, all integer-valued."""

    def __init__(self, comb):
        self.comb = comb
        self.m = effective_drift(comb)
        if abs(self.m) >= 1.0:
            raise ValueError("normalizers need |effective drift| < 1")
        up, dn = comb.up_law, comb.down_law
        self._both_l2 = (up.family.square_integrable
                         and dn.family.square_integrable)
        if self._both_l2:
            self._var_c = _var_cycle(comb, self.m)
            if self._var_c <= 0.0:
                raise ValueError("degenerate comb: centered cycle variable "
                                 "has zero variance")

    def sigma2(self, t):
        if self._both_l2:
            return self._var_c
        up, dn = self.comb.up_law, self.comb.down_law
        return ((1.0 - self.m) ** 2 * up.truncated_second_moment(t / (1.0 - self.m))
                + (1.0 + self.m) ** 2 * dn.truncated_second_moment(t / (1.0 + self.m)))

    def theta_sum(self, t):
        return (self.comb.up_law.truncated_mean(t)
                + self.comb.down_law.truncated_mean(t))

    def tail_sum(self, t):
        return self.comb.up_law.tail(t) + self.comb.down_law.tail(t)

    def space(self, u):
        """Smallest n with Sigma^2(n) > 0 and n^2/Sigma^2(n) >= u."""
        if u <= 0:
            raise ValueError("normalizer argument must be positive")

        def ok(n):
            s2 = self.sigma2(float(n))
            return s2 > 0.0 and n * n / s2 >= u

        return _smallest_int(ok)

    def time(self, u):
        """Smallest t with theta_sum(space(t)) * t >= u."""
        if u <= 0:
            raise ValueError("normalizer argument must be positive")

        def ok(t):
            return self.theta_sum(float(self.space(t))) * t >= u

        return _smallest_int(ok)

    def walk(self, u):
        return self.space(self.time(u))

    def xi1(self, v):
        """a(v) * (T_u + T_d)(a(v)) -- the Cauchy-regime space scale."""
        n = self.space(v)
        return n * self.tail_sum(float(n))

    def cauchy_norm(self, u):
        """Exact spatial prefactor in the Cauchy regime:
        u * Xi_1(time(u)) / D(u), with D(u) the total cycle mean when
        finite and (Theta_u + Theta_d)(walk(u)) otherwise."""
        dT = total_mean_cycle(self.comb)
        if np.isfinite(dT):
            den = dT
        else:
            den = self.theta_sum(float(self.walk(u)))
        return u * self.xi1(self.time(u)) / den
