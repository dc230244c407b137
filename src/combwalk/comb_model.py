"""Hazard families and run-length laws for walks with run-length memory.

A walk with run-length memory is driven, in each direction ell in {u, d},
by a hazard sequence alpha_k: the probability that a run of age k switches
direction.  The run length tau then has

    P(tau > n)  = T(n)   = prod_{k<=n} (1 - alpha_k)          (tail)
    P(tau = n)  = alpha_n * prod_{k<n} (1 - alpha_k)          (pmf)

Runs are almost surely finite iff some alpha_k = 1 or sum alpha_k = inf;
families here make that decidable analytically.  All truncated moments
are evaluated in closed form so they stay O(1) even at arguments ~1e13,
which the normalizing functions require.
"""

import json

import numpy as np
from scipy.special import digamma, gammaln

TAIL_FLOOR = 1e-18


def _floor_int(t):
    t = float(t)
    if t < 0:
        raise ValueError("time must be nonnegative")
    return int(np.floor(t))


# ---------------------------------------------------------------------------
# hazard families


class HazardFamily:
    """One direction's switch-probability sequence alpha_k, k = 1, 2, ...

    Kinds:
      constant(p)          alpha_k = p
      power(a, c)          alpha_k = min(1, a / (k + c)), tail index a
      table(values, rule)  explicit prefix, then 'rule' extends the tail;
                           rule is ("constant", p) or ("power", a, c)
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        if kind == "constant":
            p = params["p"]
            if not 0.0 <= p <= 1.0:
                raise ValueError("constant hazard must lie in [0, 1]")
        elif kind == "power":
            a, c = params["a"], params["c"]
            if a <= 0:
                raise ValueError("power hazard needs a > 0")
            if c < 0:
                raise ValueError("power hazard needs c >= 0")
            if c <= a - 1:
                # would force alpha_1 = 1 and degenerate runs
                raise ValueError("power hazard needs c > a - 1")
        elif kind == "table":
            vals = np.asarray(params["values"], dtype=float)
            if vals.ndim != 1 or len(vals) == 0:
                raise ValueError("table needs a nonempty 1-d value list")
            if np.any((vals < 0) | (vals > 1)):
                raise ValueError("table hazards must lie in [0, 1]")
            rule = params["tail_rule"]
            if rule[0] == "constant":
                p = rule[1]
                if not 0.0 <= p <= 1.0:
                    raise ValueError("extension hazard must lie in [0, 1]")
            elif rule[0] == "power":
                _, a, c = rule
                if a <= 0 or c < 0:
                    raise ValueError("power extension needs a > 0, c >= 0")
                if a / (len(vals) + 1 + c) >= 1.0:
                    raise ValueError("power extension capped at 1 beyond the "
                                     "table; raise c or shorten the table")
            else:
                raise ValueError("tail_rule must be ('constant', p) or "
                                 "('power', a, c)")
            self.params["values"] = vals
        else:
            raise ValueError(f"unknown hazard kind {kind!r}")

    @classmethod
    def constant(cls, p):
        return cls("constant", p=float(p))

    @classmethod
    def power(cls, a, c=0.0):
        return cls("power", a=float(a), c=float(c))

    @classmethod
    def table(cls, values, tail_rule=None):
        if tail_rule is None:
            # continue the last listed hazard forever
            tail_rule = ("constant", float(values[-1]) if len(values) else 0.0)
        return cls("table", values=values, tail_rule=tuple(tail_rule))

    # -- structure ---------------------------------------------------------

    def hazard(self, k):
        """alpha_k for integer ages k >= 1 (vectorized)."""
        k = np.asarray(k, dtype=float)
        if np.any(k < 1):
            raise ValueError("ages start at 1")
        if self.kind == "constant":
            return np.full_like(k, self.params["p"])
        if self.kind == "power":
            return np.minimum(1.0, self.params["a"] / (k + self.params["c"]))
        vals = self.params["values"]
        rule = self.params["tail_rule"]
        L = len(vals)
        out = np.empty_like(k)
        inside = k <= L
        out[inside] = vals[(k[inside] - 1).astype(int)]
        if rule[0] == "constant":
            out[~inside] = rule[1]
        else:
            _, a, c = rule
            out[~inside] = np.minimum(1.0, a / (k[~inside] + c))
        return out

    def assumption1(self):
        """Almost-surely-finite runs: some alpha_k = 1 or sum alpha_k = inf."""
        if self.kind == "constant":
            return self.params["p"] > 0.0
        if self.kind == "power":
            return True  # sum a/(k+c) diverges for a > 0
        vals = self.params["values"]
        if np.any(vals == 1.0):
            return True
        rule = self.params["tail_rule"]
        if rule[0] == "constant":
            return rule[1] > 0.0
        return True

    @property
    def tail_index(self):
        """Regular-variation index of the tail, None for light tails."""
        if self.kind == "power":
            return self.params["a"]
        if self.kind == "table" and self.params["tail_rule"][0] == "power":
            return self.params["tail_rule"][1]
        return None

    @property
    def integrable(self):
        if self.kind == "constant":
            return self.params["p"] > 0.0
        idx = self.tail_index
        if idx is None:  # geometric extension
            return True
        return idx > 1.0

    @property
    def square_integrable(self):
        idx = self.tail_index
        if idx is None:
            return self.assumption1()
        return idx > 2.0

    def to_dict(self):
        if self.kind == "constant":
            return {"kind": "constant", "p": self.params["p"]}
        if self.kind == "power":
            return {"kind": "power", "a": self.params["a"],
                    "c": self.params["c"]}
        return {"kind": "table",
                "values": [float(v) for v in self.params["values"]],
                "tail_rule": list(self.params["tail_rule"])}

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind")
        if kind == "constant":
            return cls.constant(d["p"])
        if kind == "power":
            return cls.power(d["a"], d.get("c", 0.0))
        if kind == "table":
            return cls.table(d["values"], d.get("tail_rule"))
        raise ValueError(f"unknown hazard kind {kind!r}")


# ---------------------------------------------------------------------------
# closed forms for the power family: T, Theta, D := sum_{j<N} j T(j)


def _pow_tail(n, a, c):
    n = np.asarray(n, dtype=float)
    return np.exp(gammaln(n + 1 + c - a) + gammaln(1 + c)
                  - gammaln(1 + c - a) - gammaln(n + 1 + c))


def _pow_theta(N, a, c):
    N = np.asarray(N, dtype=float)
    if abs(a - 1.0) < 1e-12:
        return c * (digamma(N + c) - digamma(c))
    p = 1 + c - a
    K = np.exp(gammaln(1 + c) - gammaln(1 + c - a))
    s = (np.exp(gammaln(p) - gammaln(p + a - 1))
         - np.exp(gammaln(N + p) - gammaln(N + p + a - 1))) / (a - 1)
    return K * s


def _pow_dsum(N, a, c):
    # D(N) = sum_{j=0}^{N-1} j*T(j), via sum (j+p)T(j) = K sum G(j+p+1)/G(j+p+a-1)
    N = np.asarray(N, dtype=float)
    p = 1 + c - a
    K = np.exp(gammaln(1 + c) - gammaln(1 + c - a))
    th = _pow_theta(N, a, c)
    if abs(a - 2.0) < 1e-12:
        # summand degenerates to 1/(j+p+1)
        s = digamma(N + p + 1) - digamma(p + 1)
    else:
        s = (np.exp(gammaln(p + 1) - gammaln(p + a - 1))
             - np.exp(gammaln(N + p + 1) - gammaln(N + p + a - 1))) / (a - 2)
    return K * s - p * th


def _geom_dsum(N, q):
    # sum_{j=0}^{N-1} j * q^j
    N = np.asarray(N, dtype=float)
    if q == 0.0:
        return np.zeros_like(N)
    if q == 1.0:
        return 0.5 * N * (N - 1.0)
    qn1 = q ** (N - 1.0)
    return q * (1.0 - N * qn1 + (N - 1.0) * qn1 * q) / (1.0 - q) ** 2


# ---------------------------------------------------------------------------
# persistence-time law


class PersistenceLaw:
    """Run-length law of one direction: tails, truncated moments, sampling.

    truncated_mean(t)   Theta(t) = sum_{n=1}^{floor t} T(n-1) = E[tau ^ t]
    truncated_second_moment(t)   V(t) = sum_{n<=t} n^2 pmf(n)
    computed as V = 2*D + Theta - floor(t)^2 T(floor t) with
    D(t) = sum_{j < floor t} j T(j) (Abel summation), all closed-form.
    """

    def __init__(self, family):
        if not isinstance(family, HazardFamily):
            raise TypeError("family must be a HazardFamily")
        if not family.assumption1():
            raise ValueError("hazard family has infinite runs with positive "
                             "probability (assumption 1 fails)")
        self.family = family
        if family.kind == "table":
            vals = family.params["values"]
            one_minus = 1.0 - vals
            self._prefix_tail = np.concatenate([[1.0], np.cumprod(one_minus)])
            self._prefix_theta = np.concatenate(
                [[0.0], np.cumsum(self._prefix_tail)])
            j = np.arange(len(vals) + 1, dtype=float)
            self._prefix_dsum = np.concatenate(
                [[0.0], np.cumsum(j * self._prefix_tail)])
            # scale factor linking the extension family to the prefix end
            self._L = len(vals)
            rule = family.params["tail_rule"]
            if rule[0] == "power":
                _, a, c = rule
                self._ext = ("power", a, c)
                self._ext_scale = self._prefix_tail[-1] / _pow_tail(self._L, a, c)
            else:
                self._ext = ("constant", rule[1])

    # -- tails and moments --------------------------------------------------

    def _splice(self, N, prefix, ext):
        """Table law at integer N: prefix[N] up to L, ext(N) beyond it."""
        out = np.empty_like(N)
        L = self._L
        inside = N <= L
        out[inside] = prefix[N[inside].astype(int)]
        if np.any(~inside):
            out[~inside] = ext(N[~inside])
        return out

    def _tail_ext(self, M):
        L = self._L
        if self._ext[0] == "constant":
            p = self._ext[1]
            return self._prefix_tail[-1] * (1 - p) ** (M - L)
        _, a, c = self._ext
        return self._ext_scale * _pow_tail(M, a, c)

    def _theta_ext(self, M):
        L = self._L
        base = self._prefix_theta[L]
        if self._ext[0] == "constant":
            p = self._ext[1]
            TL = self._prefix_tail[-1]
            if p == 0.0:
                return base + TL * (M - L)
            return base + TL * (1.0 - (1.0 - p) ** (M - L)) / p
        _, a, c = self._ext
        return base + self._ext_scale * (
            _pow_theta(M, a, c) - _pow_theta(float(L), a, c))

    def _dsum_ext(self, M):
        L = self._L
        base = self._prefix_dsum[L]
        if self._ext[0] == "constant":
            p = self._ext[1]
            TL = self._prefix_tail[-1]
            q = 1.0 - p
            # sum_{j=L}^{M-1} j TL q^{j-L}, split j = (j-L) + L
            if p == 0.0:
                theta_part = M - L
            else:
                theta_part = (1.0 - q ** (M - L)) / p
            return base + TL * (_geom_dsum(M - L, q) + L * theta_part)
        _, a, c = self._ext
        return base + self._ext_scale * (
            _pow_dsum(M, a, c) - _pow_dsum(float(L), a, c))

    def tail(self, t):
        """T(t) = P(tau > t), a right-continuous step function of t."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0):
            raise ValueError("time must be nonnegative")
        n = np.floor(t)
        fam = self.family
        if fam.kind == "constant":
            out = (1.0 - fam.params["p"]) ** n
        elif fam.kind == "power":
            out = _pow_tail(n, fam.params["a"], fam.params["c"])
        else:
            out = self._splice(n, self._prefix_tail, self._tail_ext)
        return float(out[0]) if scalar else out

    def pmf(self, n):
        n = np.asarray(n)
        if np.any(n < 1):
            raise ValueError("run lengths start at 1")
        return self.tail(n - 1) - self.tail(n)

    def truncated_mean(self, t):
        """Theta(t) = E[min(tau, floor t)].  Scalar or array t."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0):
            raise ValueError("time must be nonnegative")
        N = np.floor(t)
        fam = self.family
        if fam.kind == "constant":
            p = fam.params["p"]
            out = N.copy() if p == 0.0 else (1.0 - (1.0 - p) ** N) / p
        elif fam.kind == "power":
            out = _pow_theta(N, fam.params["a"], fam.params["c"])
        else:
            out = self._splice(N, self._prefix_theta, self._theta_ext)
        return float(out[0]) if scalar else out

    def _dsum(self, t):
        # sum_{j=0}^{floor(t)-1} j * T(j), vectorized like truncated_mean
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0):
            raise ValueError("time must be nonnegative")
        N = np.floor(t)
        fam = self.family
        if fam.kind == "constant":
            q = 1.0 - fam.params["p"]
            out = _geom_dsum(N, q)
        elif fam.kind == "power":
            out = _pow_dsum(N, fam.params["a"], fam.params["c"])
        else:
            out = self._splice(N, self._prefix_dsum, self._dsum_ext)
        return float(out[0]) if scalar else out

    def truncated_second_moment(self, t):
        """V(t) = E[tau^2 1{tau <= floor t}].  Scalar or array t."""
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        N = np.floor(t)
        out = (2.0 * self._dsum(N) + self.truncated_mean(N)
               - N ** 2 * self.tail(N))
        return float(out[0]) if scalar else out

    def mean(self):
        fam = self.family
        if fam.kind == "constant":
            return 1.0 / fam.params["p"]
        if fam.kind == "power":
            a, c = fam.params["a"], fam.params["c"]
            return c / (a - 1.0) if a > 1.0 else np.inf
        if not fam.integrable:
            return np.inf
        L = self._L
        base = self._prefix_theta[L]
        if self._ext[0] == "constant":
            TL = self._prefix_tail[-1]
            return float(base + TL / self._ext[1])
        _, a, c = self._ext
        return float(base + self._ext_scale
                     * (c / (a - 1.0) - _pow_theta(L, a, c)))

    def second_moment(self):
        fam = self.family
        if not fam.square_integrable:
            return np.inf
        if fam.kind == "constant":
            p = fam.params["p"]
            return (2.0 - p) / p ** 2
        if fam.kind == "power":
            a, c = fam.params["a"], fam.params["c"]
            p = 1 + c - a
            K = np.exp(gammaln(1 + c) - gammaln(1 + c - a))
            dinf = (K * np.exp(gammaln(p + 1) - gammaln(p + a - 1)) / (a - 2)
                    - p * self.mean())
            return float(2.0 * dinf + self.mean())
        # table: prefix exactly, extension in closed form
        L = self._L
        base = 2.0 * self._prefix_dsum[L] + self._prefix_theta[L]
        if self._ext[0] == "constant":
            p = self._ext[1]
            TL = self._prefix_tail[-1]
            if TL == 0.0:
                return float(base)
            q = 1.0 - p
            # sum_{j>=L} j TL q^{j-L} and the matching tail of Theta
            dtail = TL * (q / p ** 2 + L / p)
            ttail = TL / p
            return float(base + 2.0 * dtail + ttail)
        _, a, c = self._ext
        pex = 1 + c - a
        K = np.exp(gammaln(1 + c) - gammaln(1 + c - a))
        dinf_ext = (K * np.exp(gammaln(pex + 1) - gammaln(pex + a - 1))
                    / (a - 2) - pex * (c / (a - 1.0)))
        dtail = self._ext_scale * (dinf_ext - _pow_dsum(L, a, c))
        ttail = self._ext_scale * (c / (a - 1.0) - _pow_theta(L, a, c))
        return float(base + 2.0 * dtail + ttail)

    def variance(self):
        m = self.mean()
        s2 = self.second_moment()
        if np.isinf(s2):
            return np.inf
        return s2 - m * m

    @property
    def tail_index(self):
        return self.family.tail_index

    @property
    def tail_constant(self):
        """C with T(n) ~ C n^{-a} for regularly varying families."""
        fam = self.family
        if fam.kind == "power":
            a, c = fam.params["a"], fam.params["c"]
            return float(np.exp(gammaln(1 + c) - gammaln(1 + c - a)))
        if fam.kind == "table" and self._ext[0] == "power":
            _, a, c = self._ext
            return float(self._ext_scale
                         * np.exp(gammaln(1 + c) - gammaln(1 + c - a)))
        return None

    # -- sampling ------------------------------------------------------------

    def cdf_table(self, max_len):
        """cdf[n] = P(tau <= n) for n = 0..max_len (clipped sampling support)."""
        n = np.arange(0, max_len + 1)
        cdf = 1.0 - self.tail(n.astype(float))
        # truncate where the tail has underflowed for light-tailed laws
        done = np.nonzero(cdf >= 1.0 - TAIL_FLOOR)[0]
        if len(done) > 0:
            cdf = cdf[: done[0] + 1].copy()
            cdf[-1] = 1.0
        return cdf

    def sample(self, rng, size=None):
        """Exact draws of tau (unclipped), heavy tails included."""
        fam = self.family
        if fam.kind == "constant":
            return rng.geometric(fam.params["p"], size=size)
        scalar = size is None
        m = 1 if scalar else int(size)
        cdf = self.cdf_table(4096)
        u = rng.random(m)
        out = np.searchsorted(cdf, u, side="left").astype(np.int64)
        L = len(cdf) - 1
        over = out > L
        if np.any(over):
            out[over] = self._invert_tail(1.0 - u[over])
        return int(out[0]) if scalar else out

    def _invert_tail(self, s):
        # smallest n with T(n) <= s, vectorized bisection on the closed form
        lo = np.full(len(s), 1, dtype=np.int64)
        hi = np.full(len(s), 2, dtype=np.int64)
        while True:
            need = self.tail(hi.astype(float)) > s
            if not np.any(need):
                break
            lo[need] = hi[need]
            hi[need] *= 2
        while np.any(hi - lo > 1):
            mid = (lo + hi) // 2
            gt = self.tail(mid.astype(float)) > s
            lo[gt] = mid[gt]
            hi[~gt] = mid[~gt]
        return hi


# ---------------------------------------------------------------------------
# the two-direction comb and finite grafts


class CombSpec:
    """Hazard families for both directions.

    The up law governs up-run lengths (hazards alpha_k^u), the down law
    down-runs.  Both must have a.s. finite runs.  The fully degenerate
    zig-zag comb (both hazards 1) is representable -- it is a standard
    test path -- but the scaling machinery rejects it downstream because
    its centered cycle variable has zero variance.
    """

    def __init__(self, up, down):
        self.up = up if isinstance(up, HazardFamily) else HazardFamily.from_dict(up)
        self.down = (down if isinstance(down, HazardFamily)
                     else HazardFamily.from_dict(down))
        self.up_law = PersistenceLaw(self.up)
        self.down_law = PersistenceLaw(self.down)

    def law(self, direction):
        if direction == "u":
            return self.up_law
        if direction == "d":
            return self.down_law
        raise ValueError("direction must be 'u' or 'd'")

    def to_dict(self):
        return {"up": self.up.to_dict(), "down": self.down.to_dict()}

    @classmethod
    def from_dict(cls, d):
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


class GraftSpec:
    """Finitely many context words (most recent letter first, over 'u'/'d')
    mapped to Bernoulli switch parameters."""

    def __init__(self, entries):
        self.entries = {}
        for word, q in dict(entries).items():
            if not word or any(ch not in "ud" for ch in word):
                raise ValueError(f"bad context word {word!r}")
            if not 0.0 <= q <= 1.0:
                raise ValueError("graft parameters must lie in [0, 1]")
            self.entries[word] = float(q)

    @property
    def depth(self):
        return max((len(w) for w in self.entries), default=0)


def envelope_transitions(comb, graft):
    """Lower/upper comb envelopes of a comb-plus-graft walk.

    For the comb context of an age-k run, collect the graft leaves refining
    it (extensions of the word).  The lower walk switches out of up-runs as
    fast as any refining leaf allows (sup) and stays in down-runs as long
    as possible (inf); the upper walk mirrors this.  Contexts with no
    refining leaves keep the base hazard.
    """
    if graft.depth == 0:
        return comb, comb

    def enveloped(direction, pick):
        fam = comb.up if direction == "u" else comb.down
        depth = graft.depth
        ks = np.arange(1, depth + 1)
        base = fam.hazard(ks)
        vals = base.copy()
        other = "d" if direction == "u" else "u"
        for i, k in enumerate(ks):
            ctx = direction * int(k) + other
            cand = [q for w, q in graft.entries.items() if w.startswith(ctx)]
            if cand:
                vals[i] = pick(cand)
        if fam.kind == "constant":
            rule = ("constant", fam.params["p"])
        elif fam.kind == "power":
            rule = ("power", fam.params["a"], fam.params["c"])
        else:
            raise ValueError("envelopes support constant/power base combs")
        return HazardFamily.table(vals, rule)

    lower = CombSpec(enveloped("u", max), enveloped("d", min))
    upper = CombSpec(enveloped("u", min), enveloped("d", max))
    return lower, upper
