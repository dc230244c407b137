"""Hazard families and run-length laws for walks with run-length memory.

A walk with run-length memory is driven, in each direction ell in {u, d},
by a hazard sequence alpha_k: the probability that a run of age k switches
direction.  The run length tau then has

    P(tau > n)  = T(n)   = prod_{k<=n} (1 - alpha_k)          (tail)
    P(tau = n)  = alpha_n * prod_{k<n} (1 - alpha_k)          (pmf)

Runs are almost surely finite iff some alpha_k = 1 or sum alpha_k = inf;
families here make that decidable analytically.  Truncated moments and
the tail generating function are closed forms, O(1) whatever the argument.
"""

import json
import threading

import numpy as np
from scipy.special import digamma, exprel, gammainc, hyp2f1, poch, zeta

from .scaling_laws import _smallest_int

TAIL_FLOOR = 1e-18
_TABLE_MIN = 4096           # cached cdf entries while no cap is asked for
_TABLE_MAX = 1 << 22        # cached cdf entries at most (32 MB per law)
_BUILD_BLOCK = 1 << 16      # cdf entries computed at a time
_GUIDE = 1 << 14            # guide cells over [0, 1), a power of two
_ONE_BITS = np.float64(1.0).view(np.uint64)     # bit pattern of 1.0


# ---------------------------------------------------------------------------
# hazard families


_RULE_PARAMS = {"constant": ("p",), "power": ("a", "c")}   # names of rule[1:]
_FIELDS = dict(_RULE_PARAMS, table=("values", "tail_rule"))  # of each kind


def _refuse_non_number(kind, key, v):
    """A string or a bool for the field `key` of a `kind` hazard is a
    ValueError naming both: float() would read "0.5" and true as numbers."""
    if isinstance(v, (str, bool, np.bool_)):
        raise ValueError(f"{kind} hazard {key} must be a number, not "
                         f"{type(v).__name__}")


class HazardFamily:
    """One direction's switch-probability sequence alpha_k, k = 1, 2, ...

    Every family is an explicit prefix alpha_1..alpha_L (the array
    `values`, empty for constant and power) followed by a base `rule`
    for ages k > L, both set once from the kind.  One check covers the
    rule of every kind:
      ("constant", p)      alpha_k = p; p in [0, 1]
      ("power", a, c)      alpha_k = min(1, a / (k + c)), tail index a;
                           finite a > 0, c >= 0 and a / (L + 1 + c) < 1, so
                           alpha_{L+1} < 1 (c > a - 1 for power(a, c))

    Kinds (the serialized form, kept in `kind` and `params`, the rule's
    parameters as floats; a field of None is absent, an absent c is 0):
      constant(p)          no prefix, rule ("constant", p)
      power(a, c)          no prefix, rule ("power", a, c)
      table(values, rule)  the listed prefix, then 'rule', by default
                           ("constant", values[-1]): the last hazard on
    """

    def __init__(self, kind, **params):
        if not isinstance(kind, str) or kind not in _FIELDS:
            raise ValueError(f"unknown hazard kind {kind!r}")
        unknown = sorted(set(params) - set(_FIELDS[kind]))
        if unknown:
            raise ValueError(f"unknown {kind} hazard key(s) "
                             f"{', '.join(unknown)}")
        given = {"c": 0.0, **{k: v for k, v in params.items()
                              if v is not None}}
        if kind == "table":
            values = given["values"]
            if isinstance(values, (list, tuple)):
                for v in values:
                    _refuse_non_number(kind, "values", v)
            try:
                values = np.asarray(values, dtype=float)
            except ValueError as e:
                raise ValueError(f"table hazard values: {e}") from None
            if values.ndim != 1 or len(values) == 0:
                raise ValueError("table needs a nonempty 1-d value list")
            if not np.all((values >= 0) & (values <= 1)):   # NaN too
                raise ValueError("table hazards must lie in [0, 1]")
            rule = tuple(given.get("tail_rule", ("constant", values[-1])))
        else:
            values = np.empty(0)
            rule = (kind, *(given[k] for k in _RULE_PARAMS[kind]))
        if (rule[:1] not in (("constant",), ("power",))
                or len(rule) != 1 + len(_RULE_PARAMS[rule[0]])):
            raise ValueError("rule must be ('constant', p) or "
                             "('power', a, c)")
        where = "tail_rule " if kind == "table" else ""
        for k, v in zip(_RULE_PARAMS[rule[0]], rule[1:]):
            _refuse_non_number(kind, where + k, v)
        rule = (rule[0], *(float(v) for v in rule[1:]))
        if rule[0] == "constant":
            if not 0.0 <= rule[1] <= 1.0:
                raise ValueError("constant hazard must lie in [0, 1]")
        else:
            _, a, c = rule
            if not (0 < a < np.inf and 0 <= c < np.inf
                    and a / (len(values) + 1 + c) < 1.0):
                raise ValueError("power hazard needs finite a > 0, c >= 0 "
                                 "and a / (L + 1 + c) < 1, L the prefix "
                                 "length")
        self.kind, self.values, self.rule = kind, values, rule
        self.params = (dict(values=values, tail_rule=rule) if kind == "table"
                       else dict(zip(_RULE_PARAMS[kind], rule[1:])))

    @classmethod
    def constant(cls, p):
        return cls("constant", p=p)

    @classmethod
    def power(cls, a, c=None):
        return cls("power", a=a, c=c)

    @classmethod
    def table(cls, values, tail_rule=None):
        return cls("table", values=values, tail_rule=tail_rule)

    # -- structure ---------------------------------------------------------

    def hazard(self, k):
        """alpha_k for integer ages k >= 1 (vectorized)."""
        k = np.asarray(k, dtype=float)
        if np.any(k < 1):
            raise ValueError("ages start at 1")
        rule, vals = self.rule, self.values
        if rule[0] == "constant":
            out = np.full_like(k, rule[1])
        else:
            out = np.minimum(1.0, rule[1] / (k + rule[2]))
        L = len(vals)
        if L:
            out = np.where(k <= L, vals[np.minimum(k, L).astype(int) - 1], out)
        return out

    def assumption1(self):
        """Almost-surely-finite runs: some alpha_k = 1 or sum alpha_k = inf."""
        rule = self.rule
        # sum a/(k+c) diverges for a > 0
        return bool(np.any(self.values == 1.0) or rule[0] == "power"
                    or rule[1] > 0.0)

    @property
    def tail_index(self):
        """Regular-variation index of the tail, None for light tails and
        for runs that always end inside the prefix (some alpha_k = 1)."""
        rule = self.rule
        if rule[0] != "power" or np.any(self.values == 1.0):
            return None
        return rule[1]

    def _finite_moment(self, order):
        idx = self.tail_index
        return self.assumption1() if idx is None else idx > order

    @property
    def integrable(self):
        return self._finite_moment(1.0)

    @property
    def square_integrable(self):
        return self._finite_moment(2.0)

    def to_dict(self):
        if self.kind == "table":
            return {"kind": "table", "values": [float(v) for v in self.values],
                    "tail_rule": list(self.rule)}
        return dict(zip(("kind",) + _RULE_PARAMS[self.kind], self.rule))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a hazard family must be a JSON object")
        fields = dict(d)
        kind = fields.pop("kind", None)
        try:
            return cls(kind, **fields)
        except KeyError as e:
            raise ValueError(f"{kind} hazard missing key {e}") from None
        except (TypeError, OverflowError) as e:
            raise ValueError(f"{kind} hazard: {e}") from None


# ---------------------------------------------------------------------------
# base rules restarted at age L: tail T'(m), Theta'(m) = sum_{i<m} T'(i),
# D'(m) = sum_{i<m} (i + L) T'(i), and their limits m -> inf


_SMALL_P = 1e-2     # constant hazards 0 < p below this take exp(-m y) tails


class _Geometric:
    """Constant hazard p from age L + 1 on: T'(m) = q^m = e^(-m y) with
    q = 1 - p, y = -log1p(-p).  Theta'(m) = (1 - e^(-m y)) / p and
    sum_{i<m} i T'(i) = (e^-y P(2, m y) - m e^(-m y) P(2, y)) / p^2 with
    P(2, x) = gammainc(2, x) = 1 - (1 + x) e^-x: exact forms that do not
    cancel at small p m, the latter exactly 0 at m <= 1.  Where p^2
    underflows they are m and m (m - 1) / 2 to within ~p m; at p = 1,
    y = inf makes them 1 and 0 for the m >= 1 that PersistenceLaw asks."""

    def __init__(self, p, L):
        self.p, self.q, self.L = p, 1.0 - p, L
        with np.errstate(divide="ignore"):      # y = inf at p = 1
            self.y = -np.log1p(-p)
        self._flat = p * p < np.finfo(float).tiny

    def tail(self, m):
        # q = 1 - p is rounded below p = 1/2, so q ** m is off by ~m eps
        # there; from p = 1/2 on q is exact and q ** m the closer form
        if self.p < _SMALL_P:
            return np.exp(-m * self.y)
        return self.q ** m

    def theta(self, m):
        if self._flat:
            return m
        return -np.expm1(-m * self.y) / self.p

    def dsum(self, m):
        if self._flat:
            d = 0.5 * m * (m - 1.0)
        else:
            y = self.y
            d = (np.exp(-y) * gammainc(2.0, m * y)
                 - m * np.exp(-m * y) * gammainc(2.0, y)) / self.p ** 2
        return d + self.L * self.theta(m) if self.L else d

    def gf(self, z):
        """sum_m T'(m) z^m for 0 <= z < 1."""
        return 1.0 / (1.0 - self.q * z)

    def mean(self):
        return 1.0 / self.p

    def second(self):
        """sum_i (2 (i + L) + 1) T'(i)."""
        return (2.0 - self.p) / self.p ** 2 + 2.0 * self.L / self.p


_NEAR = 0.5         # shifts |e| below this get _RatioSum, not (X - Y) / e
_DIRECT = 64        # leading terms of _RatioSum summed one by one
_ORDERS = 8         # series orders kept; |e| / (x + _DIRECT) < 1/128


class _RatioSum:
    """R(m) = sum_{i<m} G(x+i) / G(x+i+e+1) = (X - Y(m)) / e for small |e|.

    With X = G(x)/G(x+e) and Y(m) = G(x+m)/G(x+m+e), dividing X - Y by e
    loses about eps |log G| / |e| relatively near e = 0.  Instead
    Y/X = exp(-S), S = sum_{i<m} log1p(e/(x+i)), and
    R = X (S/e) (1 - exp(-S)) / S.  The first _DIRECT terms of S/e are
    summed one by one; the rest is the series
    sum_k (-e)^(k-1)/k sum_i (x+i)^-k, through digamma for k = 1 and the
    Hurwitz zeta for k >= 2.  e = 0 gives R = psi(x+m) - psi(x).
    """

    def __init__(self, x, e):
        self.e = e
        self.X = poch(x + e, -e)
        t = 1.0 / (x + np.arange(_DIRECT))
        head = t if e == 0 else np.log1p(e * t) / e
        self._head = np.concatenate([[0.0], np.cumsum(head)])
        self._x = x + _DIRECT
        k = np.arange(2.0, _ORDERS + 1.0)
        self._k, self._coef = k[:, None], (-e) ** (k - 1) / k
        self._zeta0 = zeta(self._k, self._x)
        self._psi0 = digamma(self._x)

    def _far(self, m):
        """S/e for m > _DIRECT."""
        y = self._x + (m - _DIRECT)
        return (self._head[-1] + digamma(y) - self._psi0
                + self._coef @ (self._zeta0 - zeta(self._k, y)))

    def __call__(self, m):
        m = np.asarray(m, dtype=float)
        if m.size and m.min() > _DIRECT:
            s = self._far(m)
        else:
            s = self._head[np.minimum(m, _DIRECT).astype(np.int64)]
            far = m > _DIRECT
            if np.any(far):
                s[far] = self._far(m[far])
        return self.X * s * exprel(-self.e * s)


def _near_ratio_sum(x, e):
    # x + 2e <= 0 leaves X < Y(m)/2 (X = 0 at x + e = 0): no cancellation
    return _RatioSum(x, e) if abs(e) < _NEAR and x + 2.0 * e > 0 else None


class _Power:
    """Hazard a/(k + c) from age L + 1 on, i.e. power(a, c + L) at age
    k - L: T'(m) = K G(m+1+c'-a) / G(m+1+c') with c' = c + L and
    K = G(1+c') / G(1+c'-a).  Each gamma ratio is one poch(z, h) =
    G(z+h) / G(z), which stays accurate at large z, where a log-gamma
    difference loses ~z eps.  Whenever the family validates, z is
    1 + c' - a > 0 or c' + m >= 0, and z = 0 only at c' = 0, where a < 1
    and poch(0, h > 0) = 0."""

    def __init__(self, a, c, L):
        c = c + L
        self.a, self.c, self.L = a, c, L
        self.p = 1 + c - a
        self.tail_constant = poch(self.p, a)     # K
        # Theta' = K R(m) with e = a - 1; dsum's first sum is K R(m), e = a - 2
        self._theta_near = _near_ratio_sum(self.p, a - 1.0)
        self._dsum_near = _near_ratio_sum(self.p + 1.0, a - 2.0)

    def tail(self, m):
        return self.tail_constant * poch(m + 1 + self.c, -self.a)

    def theta(self, m):
        if self._theta_near is not None:
            return self.tail_constant * self._theta_near(m)
        # sum_{i<m} G(i+p+h-1) / G(i+p+a) = (P(0) - P(m)) / (a - h) with
        # P(m) = G(m+p+h-1) / G(m+p+a-1) = poch(m+c, h-a), here h = 1.
        # K P(0) is c' exactly (the mean's numerator); as K poch(c', 1-a)
        # it multiplies p's rounding by the pole of poch at p = 0
        return (self.c - self.tail_constant
                * poch(m + self.c, 1.0 - self.a)) / (self.a - 1.0)

    def dsum(self, m):
        # sum (i+p) T'(i) = K sum G(i+p+1)/G(i+p+a), then i+L = (i+p)-(p-L);
        # away from a = 2 the sum is theta's with h = 2
        if self._dsum_near is not None:
            s = self._dsum_near(m)
        else:
            s = (poch(self.c, 2.0 - self.a)
                 - poch(m + self.c, 2.0 - self.a)) / (self.a - 2.0)
        return self.tail_constant * s - (self.p - self.L) * self.theta(m)

    def gf(self, z):
        """sum_m T'(m) z^m = 2F1(1, p; 1 + c'; z): T'(m) = (p)_m / (1 + c')_m.
        scipy's hyp2f1 cancels for a near (not at) 1 and z near 1: with
        c' = 1, 4e-9 relative at a = 1 - 1e-6, z = 0.999, O(1) at 1 - 1e-9."""
        return hyp2f1(1.0, self.p, 1.0 + self.c, z)

    def mean(self):
        return self.c / (self.a - 1.0)

    def second(self):
        """sum_i (2 (i + L) + 1) T'(i), finite for a > 2."""
        a, m = self.a, self.mean()
        dinf = (self.tail_constant * poch(self.c, 2.0 - a) / (a - 2)
                - (self.p - self.L) * m)
        return 2.0 * dinf + m


# ---------------------------------------------------------------------------
# persistence-time law


class PersistenceLaw:
    """Run-length law of one direction: tails, truncated moments, and the
    one exact inverter `invert` that every run-length draw goes through.

    truncated_mean(t)   Theta(t) = sum_{n=1}^{floor t} T(n-1) = E[tau ^ t]
    truncated_second_moment(t)   V(t) = sum_{n<=t} n^2 pmf(n)
    computed as V = 2*D + Theta - floor(t)^2 T(floor t) with
    D(t) = sum_{j < floor t} j T(j) (Abel summation).

    Up to the prefix length L these are prefix sums; beyond it the base
    rule restarts at age L, T(n) = T(L) T'(n - L), and every sum splits
    the same way, e.g. Theta(N) = Theta(L) + T(L) Theta'(N - L).
    """

    def __init__(self, family):
        if not isinstance(family, HazardFamily):
            raise TypeError("family must be a HazardFamily")
        if not family.assumption1():
            raise ValueError("hazard family has infinite runs with positive "
                             "probability (assumption 1 fails)")
        self.family = family
        vals = family.values
        L = self._L = len(vals)
        self._prefix_tail = np.concatenate([[1.0], np.cumprod(1.0 - vals)])
        self._prefix_theta = np.concatenate(
            [[0.0], np.cumsum(self._prefix_tail)])
        j = np.arange(L + 1, dtype=float)
        self._prefix_dsum = np.concatenate(
            [[0.0], np.cumsum(j * self._prefix_tail)])
        self._TL = self._prefix_tail[L]
        rule = family.rule
        self._base = (_Geometric(rule[1], L) if rule[0] == "constant"
                      else _Power(rule[1], rule[2], L))
        # (cdf table, its guide), replaced as one by invert under the lock
        self._table = (np.zeros(1), None)  # cdf_table(0), no guide yet
        self._grow = threading.Lock()

    # -- tails and moments --------------------------------------------------

    @staticmethod
    def _floor(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.size and not (0.0 <= t.min() and t.max() < np.inf):   # NaN too
            raise ValueError("time must be nonnegative and finite")
        return np.floor(t)

    def _splice(self, N, prefix, ext, head=0.0):
        """prefix[N] for integer N <= L, head + T(L) ext(N - L) beyond."""
        L = self._L
        if N.size and N.min() > L:
            return head + self._TL * ext(N - L)
        out = np.empty_like(N)
        inside = N <= L
        out[inside] = prefix[N[inside].astype(int)]
        if not np.all(inside):
            out[~inside] = head + self._TL * ext(N[~inside] - L)
        return out

    def _tail(self, N):
        return self._splice(N, self._prefix_tail, self._base.tail)

    def _theta(self, N):
        return self._splice(N, self._prefix_theta, self._base.theta,
                            self._prefix_theta[self._L])

    def _dsum(self, N):
        # sum_{j=0}^{N-1} j * T(j)
        return self._splice(N, self._prefix_dsum, self._base.dsum,
                            self._prefix_dsum[self._L])

    def tail(self, t):
        """T(t) = P(tau > t), a right-continuous step function of t."""
        out = self._tail(self._floor(t))
        return float(out[0]) if np.ndim(t) == 0 else out

    def pmf(self, n):
        n = np.asarray(n)
        if np.any(n < 1):
            raise ValueError("run lengths start at 1")
        return self.tail(n - 1) - self.tail(n)

    def truncated_mean(self, t):
        """Theta(t) = E[min(tau, floor t)].  Scalar or array t."""
        out = self._theta(self._floor(t))
        return float(out[0]) if np.ndim(t) == 0 else out

    def truncated_second_moment(self, t):
        """V(t) = E[tau^2 1{tau <= floor t}].  Scalar or array t."""
        N = self._floor(t)
        out = 2.0 * self._dsum(N) + self._theta(N) - N ** 2 * self._tail(N)
        return float(out[0]) if np.ndim(t) == 0 else out

    def tail_gf(self, z):
        """sum_{n>=0} T(n) z^n at a scalar z in [0, 1): the prefix terms
        n < L, then T(L) z^L times the base rule's generating function."""
        if not 0.0 <= z < 1.0:
            raise ValueError("z must lie in [0, 1)")
        L = self._L
        head = self._prefix_tail[:L] @ z ** np.arange(L)
        return float(head + self._TL * z ** L * self._base.gf(z))

    def _complete(self, head, rest):
        """head + T(L) * rest(); nothing is added when runs end in the prefix."""
        return float(head + self._TL * rest()) if self._TL else float(head)

    def mean(self):
        if not self.family.integrable:
            return np.inf
        return self._complete(self._prefix_theta[self._L], self._base.mean)

    def second_moment(self):
        if not self.family.square_integrable:
            return np.inf
        L = self._L
        return self._complete(2.0 * self._prefix_dsum[L]
                              + self._prefix_theta[L], self._base.second)

    def variance(self):
        m = self.mean()
        s2 = self.second_moment()
        if np.isinf(s2):
            return np.inf
        return s2 - m * m

    @property
    def tail_constant(self):
        """C with T(n) ~ C n^{-a} for regularly varying families."""
        if self.family.tail_index is None:
            return None
        return float(self._TL * self._base.tail_constant)

    # -- sampling ------------------------------------------------------------

    def cdf_table(self, max_len):
        """cdf[n] = P(tau <= n) for n = 0..max_len (clipped sampling support),
        built a block at a time and cut where the tail has underflowed.

        The computed power tail wobbles where its step a T(n) / n is below
        its rounding error, ~n log(n) eps relative up to n = 1e4 where poch
        takes a log-gamma difference (power(1e-9) from n = 858); the table
        takes the running maximum, so it is sorted and a search in it does
        not depend on the other keys searched with it."""
        cdf = np.empty(max_len + 1)
        for lo in range(0, max_len + 1, _BUILD_BLOCK):
            block = cdf[lo:lo + _BUILD_BLOCK]
            n = np.arange(lo, lo + len(block), dtype=float)
            block[:] = 1.0 - self.tail(n)
            if lo:
                block[0] = max(block[0], cdf[lo - 1])
            np.maximum.accumulate(block, out=block)
            done = np.nonzero(block >= 1.0 - TAIL_FLOOR)[0]
            if len(done) > 0:
                # 1 - 1e-18 rounds to 1, so the table ends in exactly 1
                return cdf[: lo + done[0] + 1].copy()
        return cdf

    def invert(self, u, cap=None):
        """min(cap, smallest n >= 1 with 1 - T(n) >= u), elementwise: a
        lookup in the law's cached cdf table, grown to cover cap (up to
        _TABLE_MAX entries); draws past the table go through the lockstep
        integer search of scaling_laws on the same predicate, made true
        from cap on, or from 2^53 when there is no cap.  That search
        doubles from 1, so a draw does not depend on the table size.

        The table lookup goes through a guide of _GUIDE cells (Chen and
        Asau 1974): every u in cell k = floor(u _GUIDE) has one answer
        unless a table entry falls inside the cell, and only u in such
        cells are searched in the table.  Every u must lie in [0, 1)
        (ValueError otherwise, NaN included).
        """
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return self.invert(u[None], cap)[0]
        # a double's bits lie below those of 1.0 exactly when it is in
        # [+0, 1), so one max settles every u but -0.0
        if (u.view(np.uint64).max(initial=0) >= _ONE_BITS
                and not (0.0 <= u.min() and u.max() < 1.0)):
            raise ValueError("uniforms must lie in [0, 1)")
        top = 1 << 53 if cap is None else int(cap)
        cdf, guide = self.lookup_table(cap)
        # u _GUIDE is exact and below _GUIDE, so the cast floors it; one
        # array holds the cells and then their answers (every cell is in
        # range, and "clip" lets take write over its own indices)
        out = np.multiply(u, _GUIDE, out=np.empty(u.shape, np.int64),
                          casting="unsafe")
        guide.take(out, out=out, mode="clip")
        cells = np.flatnonzero(out < 0)
        if len(cells):
            # u = 0 falls in the open cell 0 (cdf[0] = 0 is its edge), and
            # every other u is above cdf[0]: runs last at least one step
            out.reshape(-1)[cells] = np.searchsorted(cdf[1:],
                                                     u.take(cells)) + 1
        if len(cdf) >= top or cdf[-1] == 1.0:
            # nothing gets past a table ending in 1; clip a longer one
            return np.minimum(out, top) if len(cdf) > top else out
        past = np.flatnonzero(out == len(cdf))
        if len(past):
            s = u.take(past)

            def reached(i, n):
                t = self.tail(np.minimum(n, top).astype(float))
                return (n >= top) | (1.0 - t >= s[i])
            out.reshape(-1)[past] = _smallest_int(reached, len(s))
        return out

    def lookup_table(self, cap=None):
        """(cdf, guide): the cached cdf table and its guide that
        invert(u, cap) looks u up in, grown first to cover cap (up to
        _TABLE_MAX entries).  invert maps u to 1 exactly when u <= cdf[1]."""
        size = _TABLE_MIN if cap is None else min(int(cap), _TABLE_MAX)
        cdf, guide = self._table
        if guide is None or len(cdf) < size and cdf[-1] < 1.0:
            with self._grow:
                # grow-only; a table ending in 1 already covers every u < 1
                cdf, guide = self._table
                if len(cdf) < size and cdf[-1] < 1.0:
                    cdf, guide = self.cdf_table(size - 1), None
                if guide is None:
                    guide = _guide_table(cdf)
                self._table = cdf, guide
        return cdf, guide


def _guide_table(cdf):
    """guide[k] = searchsorted(cdf, u) for every u in [k, k + 1) / _GUIDE,
    or -1 where a cdf entry falls inside that cell."""
    edges = np.searchsorted(cdf, np.arange(_GUIDE + 1) / _GUIDE)
    guide = edges[:-1].astype(np.int64)
    guide[edges[:-1] != edges[1:]] = -1
    return guide


# ---------------------------------------------------------------------------
# the two-direction comb


class CombSpec:
    """Hazard families for both directions.

    The up law governs up-run lengths (hazards alpha_k^u), the down law
    down-runs.  Both must have a.s. finite runs.  The fully degenerate
    zig-zag comb (both hazards 1) is representable -- it is a standard
    test path -- but the scaling machinery rejects it downstream because
    its centered cycle variable has zero variance.
    """

    def __init__(self, up, down):
        self.up, self.down = up, down
        self.up_law = PersistenceLaw(self.up)
        self.down_law = PersistenceLaw(self.down)

    def to_dict(self):
        return {"up": self.up.to_dict(), "down": self.down.to_dict()}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a comb must be a JSON object")
        unknown = sorted(set(d) - {"up", "down"})
        if unknown:
            raise ValueError(f"unknown comb key(s) {', '.join(unknown)}")
        try:
            return cls(HazardFamily.from_dict(d["up"]),
                       HazardFamily.from_dict(d["down"]))
        except KeyError as e:
            raise ValueError(f"comb config missing key {e}") from e

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def constant_comb(p_u, p_d):
    return CombSpec(HazardFamily.constant(p_u), HazardFamily.constant(p_d))


def power_comb(a, c=0.0, a_d=None, c_d=None):
    """Symmetric power comb, or asymmetric when a_d/c_d are given."""
    if a_d is None:
        a_d = a
    if c_d is None:
        c_d = c
    return CombSpec(HazardFamily.power(a, c), HazardFamily.power(a_d, c_d))

