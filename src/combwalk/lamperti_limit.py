"""The anomalous (slow-tail) limit: labelled subordinators, the
arcsine-Lamperti marginal law, and the occupation-number recursion.

The limit path S is built from an alpha-subordinator whose jump
intervals are labelled +-1 (P(+1) = (1+b)/2); S moves with slope equal
to the label across each jump interval and with slope m (the label
mean) across the leftover drift time of the epsilon-approximation, so
it is 1-Lipschitz by construction.

The single-time marginal of S(t)/t has the closed-form density

    f(x) = (2 sin(pi a)/pi) (1-x)^{a-1}(1+x)^{a-1} /
           [r (1-x)^{2a} + 2 cos(pi a)(1-x)^a (1+x)^a + (1+x)^{2a}/r]

on (-1, 1) with r = (1+m)/(1-m), reducing to the arcsine law at
a = 1/2, m = 0.  Its antiderivative is the closed-form CDF (Lamperti 1958)

    F(x) = atan2(sin(pi a) (1+x)^a, r (1-x)^a + cos(pi a) (1+x)^a) / (pi a).

The (1 -+ x)^{a-1} endpoint singularities carry real mass: the
quadrature check of the density's mass and mean runs in the substituted
coordinates y = (1 +- x)^a where the density is tame.

The marginal is sampled exactly by Lamperti's representation S(t) =
t (p^{1/a} T1 - q^{1/a} T2) / (p^{1/a} T1 + q^{1/a} T2), p = (1+m)/2 = 1 - q,
with T1, T2 independent positive a-stable.
"""

import numpy as np

from .scaling_laws import classify_regime
from .stable_proc import _log_positive_stable
from .walk_sim import _replicate

_JUMP_CAP = 50_000_000
_PATHS_PER_CHUNK = 64
_FIRST_JUMPS = 256         # ensemble jumps sized before the first level test
_ROWS_PER_BLOCK = 64       # occupation-recursion rows per GEMM
_CONV_BLOCK = 32           # up-run convolution outputs per GEMM row
_CONV_BANDS = 4            # up-run convolution GEMMs per recursion row


# ---------------------------------------------------------------------------
# labelled subordinator and the limit path


def default_jump_cut(alpha, t_max):
    """Resolution below which jumps are folded into drift; inf on overflow."""
    with np.errstate(over="ignore"):
        return float(1e-6 * np.float64(t_max) ** (1.0 / alpha))


def subordinator_jumps(alpha, t_max, eps=None):
    """(eps, lam, drift_rate) of the epsilon-approximate subordinator with
    Levy density alpha x^(-1-alpha) on [0, t_max]: the jump cut, the
    expected number of jumps above it and the compensating drift rate
    alpha eps^(1-alpha)/(1-alpha).  Checks the inputs and the cap of
    5e7 expected jumps."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("subordinator index must lie in (0, 1)")
    if not 0.0 < t_max < np.inf:
        raise ValueError("t_max must be positive and finite")
    if eps is None:
        eps = default_jump_cut(alpha, t_max)
    if not 0.0 < eps < np.inf:
        raise ValueError("jump cut eps must be positive and finite")
    lam = t_max * eps ** (-alpha)
    if not lam <= _JUMP_CAP:
        raise ValueError(f"expected jump count {lam:.3g} exceeds the cap; "
                         "raise eps or shorten the path")
    drift = alpha * eps ** (1.0 - alpha) / (1.0 - alpha)
    return eps, lam, drift


def _draw_jumps(rng, lam, t_max):
    """A Poisson(lam) count n, then 3n uniforms in one call: the n jump
    times in [0, t_max], sorted, and the n uniforms of the Pareto sizes
    eps u^(-1/alpha) and of the labels."""
    n = rng.poisson(lam)
    u = rng.random(3 * n)
    s = u[:n] * t_max
    s.sort()
    return s, u[n:2 * n], u[2 * n:]


class LabelledSubordinatorPath:
    """Subordinator jumps with i.i.d. +-1 labels; drift (sub-epsilon)
    time is integrated with slope b, the label mean.  evaluate reads the
    limit walk S and its renewal state at levels in [0, T(t_max)]."""

    def __init__(self, b, t_max, times, jumps, drift, labels):
        if len(labels) != len(jumps):
            raise ValueError("labels must match jumps one to one")
        self.b = b
        self.t_max = t_max
        self.times = times
        self.jumps = jumps
        self.drift = drift
        self.labels = labels
        cum = np.concatenate([[0.0], np.cumsum(jumps)])
        self.T_before = drift * times + cum[:-1]   # T(s_i-)
        self.T_after = self.T_before + jumps       # T(s_i)
        self._cum_j = cum
        self._cum_lj = np.concatenate([[0.0], np.cumsum(labels * jumps)])

    def total(self):
        """T(t_max)."""
        return float(self.drift * self.t_max + self._cum_j[-1])

    def evaluate(self, t):
        """(S, label_value, age, excess, lag, lead, G, H, N) at a scalar
        level t or elementwise over an array.

        S is the integral of the label process up to t.  G/H are the
        last/first range points around t, N the number of jump intervals
        closed by t, and lag/lead are S at G/H.  On the
        (epsilon-approximate) range G = H = t, the age and excess vanish
        and the label value is b.
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((0.0 <= t) & (t <= self.total())):
            raise ValueError("level beyond the simulated path")
        N = np.searchsorted(self.T_after, t, side="right")
        G, H = t.copy(), t.copy()
        inside = N < len(self.jumps)
        inside[inside] = self.T_before[N[inside]] < t[inside]
        G[inside] = self.T_before[N[inside]]
        H[inside] = self.T_after[N[inside]]
        age = t - G
        x_val = np.full(t.shape, float(self.b))
        x_val[inside] = self.labels[N[inside]]
        S_t = (self._cum_lj[N] + x_val * age
               + self.b * (t - self._cum_j[N] - age))
        lag = self._cum_lj[N] + self.b * (G - self._cum_j[N])
        lead = lag.copy()
        lead[inside] += x_val[inside] * self.jumps[N[inside]]
        out = (S_t, x_val, age, H - t, lag, lead, G, H, N)
        return tuple(v.item() for v in out) if scalar else out


def labelled_subordinator(alpha, b, t_max, epsilon=None, *, rng):
    """Subordinator path with independent +-1 labels, P(+1) = (1+b)/2;
    jumps below epsilon enter as drift (subordinator_jumps).  Every draw
    comes from the Generator `rng`."""
    if not -1.0 <= b <= 1.0:
        raise ValueError("label bias must lie in [-1, 1]")
    eps, lam, drift = subordinator_jumps(alpha, t_max, epsilon)
    s, u, v = _draw_jumps(rng, lam, t_max)
    lab = np.where(v < (1.0 + b) / 2.0, 1.0, -1.0)
    return LabelledSubordinatorPath(b, t_max, s, eps * u ** (-1.0 / alpha),
                                    drift, lab)


def default_t_max(alpha, level=1.0):
    """Horizon making P(T(t_max) < level) negligible (~exp(-30c))."""
    return float(level ** alpha * 30.0 ** (1.0 - alpha))


def sample_anomalous_ensemble(alpha, b, n_rep, seed, level=1.0, t_max=None,
                              epsilon=None, threads=1):
    """(S(level), age, excess) over n_rep independent labelled paths.

    Paths are chunked like walk_marginals, 64 to a child seed, and the
    chunks run on up to `threads` forked worker processes, at most one
    per usable CPU, or in the calling process (walk_sim._replicate says
    when); the output is identical for any `threads` value.  Each path
    is a string of short numpy calls, which threads sharing the GIL
    would only slow down.

    A path is drawn as labelled_subordinator draws it (_draw_jumps).
    Sizes and their running sum cumJ are formed only until cumJ passes
    the level, and T(s_i-), T(s_i) and the labels only up to
    K = #{cumJ <= level}: T(s_i) >= cumJ_i also holds in floating point,
    so the level is crossed by jump K.  The output is that of evaluating
    every jump (while the smallest jump, epsilon, exceeds a few ulps of
    the level, so that T(s_i) is sorted).
    """
    if not -1.0 <= b <= 1.0:
        raise ValueError("label bias must lie in [-1, 1]")
    if not 0.0 < level < np.inf:
        raise ValueError("level must be positive and finite")
    if t_max is None:
        t_max = default_t_max(alpha, level)
    eps, lam, drift = subordinator_jumps(alpha, t_max, epsilon)
    power = -1.0 / alpha
    p_up = (1.0 + b) / 2.0

    def work(rng, m):
        out = np.empty((m, 3))
        for r in range(m):
            s, u, v = _draw_jumps(rng, lam, t_max)
            n = len(s)
            # sizes and their running sum, a slice at a time until the
            # sum passes the level; accumulate is sequential, so carrying
            # the last sum into the next slice keeps the bytes of one
            # cumsum over all n jumps
            hi = min(n, _FIRST_JUMPS)
            J = u[:hi] ** power
            J *= eps
            cum = np.add.accumulate(J)
            while hi < n and cum[-1] <= level:
                lo, hi = hi, min(n, 2 * hi)
                more = u[lo:hi] ** power
                more *= eps
                J = np.concatenate((J, more))
                more[0] += cum[-1]
                cum = np.concatenate((cum, np.add.accumulate(more)))
            if not n or cum[-1] <= level:   # every jump is sized
                total = drift * t_max + (cum[-1] if n else 0.0)
                if total < level:
                    raise RuntimeError("path did not reach the requested "
                                       "level; increase t_max")
            k = min(n, int(cum.searchsorted(level, side="right")) + 1)
            Tb = drift * s[:k]              # T(s_i-) and T(s_i)
            Tb[1:] += cum[:k - 1]
            Ta = Tb + J[:k]
            idx = int(Ta.searchsorted(level, side="right"))
            lab = v[:idx + 1] < p_up
            full_lj = float(np.add.reduce(np.where(lab[:idx], J[:idx],
                                                   -J[:idx])))
            full_j = float(cum[idx - 1]) if idx > 0 else 0.0
            if idx < n and Tb[idx] < level:
                st = level - Tb[idx]
                x = 1.0 if lab[idx] else -1.0
                out[r, 0] = full_lj + x * st + b * (level - full_j - st)
                out[r, 1] = st
                out[r, 2] = Ta[idx] - level
            else:
                out[r, 0] = full_lj + b * (level - full_j)
                out[r, 1] = 0.0
                out[r, 2] = 0.0
        return out

    S, A, H = np.ascontiguousarray(
        _replicate(n_rep, _PATHS_PER_CHUNK, seed, threads, work).T)
    return S, A, H


# ---------------------------------------------------------------------------
# the marginal law


def _check_law(alpha, m):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not -1.0 < m < 1.0:
        raise ValueError("drift must lie in (-1, 1)")


def _check_time(t):
    if not 0.0 < t < np.inf:
        raise ValueError("t must be positive and finite")


def density_f(alpha, m, t, x):
    """Density of S(t): supported on (-t, t), self-similar of index 1."""
    _check_law(alpha, m)
    _check_time(t)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) >= t):
        raise ValueError("density supported on (-t, t)")
    z = x / t
    r = (1.0 + m) / (1.0 - m)
    tm = (1.0 - z) ** alpha
    tp = (1.0 + z) ** alpha
    den = r * tm * tm + 2.0 * np.cos(np.pi * alpha) * tm * tp + tp * tp / r
    out = (2.0 * np.sin(np.pi * alpha) / (np.pi * t)
           * (1.0 - z) ** (alpha - 1.0) * (1.0 + z) ** (alpha - 1.0) / den)
    return float(out[0]) if scalar else out


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def _edge_integrand(alpha, m, y, side):
    """Density of S(1) in the substituted coordinate y = (1 -+ x)^alpha
    of the nearer endpoint (side -1: x = y^(1/a) - 1, side +1 mirrored).
    The edge singularity cancels against the Jacobian:

        g(y) = (2 sin(pi a)/(pi a)) (2 - y^(1/a))^(a-1) / den(y)

    which is bounded on (0, 1] -- no underflow from forming 1 + x.
    """
    r = (1.0 + m) / (1.0 - m)
    far = (2.0 - y ** (1.0 / alpha)) ** alpha
    if side < 0:
        tm, tp = far, y
    else:
        tm, tp = y, far
    den = r * tm * tm + 2.0 * np.cos(np.pi * alpha) * tm * tp + tp * tp / r
    num = (2.0 * np.sin(np.pi * alpha) / (np.pi * alpha)
           * (2.0 - y ** (1.0 / alpha)) ** (alpha - 1.0))
    return num / den


class DensityEvaluator:
    """Quadrature check of density_f for one (alpha, m): its mass and mean.

    Panels are uniform in the edge coordinate y = (1 -+ x)^alpha of the
    nearer endpoint, where the integrand is bounded, so the edge mass is
    resolved (plain x-space grids lose ~1e-1 of it at alpha = 0.3).
    """

    def __init__(self, alpha, m, nhalf=2500):
        _check_law(alpha, m)
        yb = np.linspace(0.0, 1.0, nhalf + 1)
        # Gauss nodes on every panel, in y
        mid = 0.5 * (yb[1:] + yb[:-1])
        half = 0.5 * (yb[1:] - yb[:-1])
        ynod = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
        wnod = half[:, None] * _GAUSS_W[None, :]
        inv = 1.0 / alpha
        # side -1 (left), +1 (right): x = side (1 - y^(1/a)), |dx| =
        # (1/a) y^(1/a - 1) dy; a side's mass is the running sum of its
        # panels (np.sum's pairwise order would move the last bits)
        mass, mean = [], []
        for side in (-1, +1):
            g = _edge_integrand(alpha, m, ynod, side)
            mass.append(np.cumsum(np.sum(g * wnod, axis=1))[-1])
            x = side * (1.0 - ynod ** inv)
            mean.append(float(np.sum(x * g * wnod)))
        self.mass = float(mass[0] + mass[1])
        self.mean = mean[0] + mean[1]


def cdf_f(alpha, m, t, x):
    """CDF of S(t): Lamperti's arctangent (module docstring) at z = x/t,
    the antiderivative of density_f; 0 below -t and 1 above t.  1 +- z
    is formed as (t +- x)/t after clipping x to [-t, t], which is exact
    next to the edges."""
    _check_law(alpha, m)
    _check_time(t)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xc = np.clip(x, -t, t)
    tp = ((t + xc) / t) ** alpha
    tm = ((t - xc) / t) ** alpha
    r = (1.0 + m) / (1.0 - m)
    out = np.arctan2(np.sin(np.pi * alpha) * tp,
                     r * tm + np.cos(np.pi * alpha) * tp) / (np.pi * alpha)
    out[x >= t] = 1.0
    return float(out[0]) if scalar else out


def sample_marginal(alpha, m, t, rng, size=None):
    """Exact draws of S(t) = t S(1), S(1) by Lamperti's ratio."""
    _check_law(alpha, m)
    _check_time(t)
    return t * sample_ratio(alpha, m, rng, size)


def sample_ratio(alpha, b, rng, size=None):
    """S(1) as (T_u - T_d)/(T_u + T_d), T_u, T_d independent positive stable
    weighted by the label probabilities, formed as tanh((log T_u - log T_d)/2)
    so that it stays finite where T_u or T_d overflows (alpha below ~0.02),
    and divided by alpha last, so that no draw is an inf - inf."""
    if not -1.0 <= b <= 1.0:
        raise ValueError("label bias must lie in [-1, 1]")
    lu = _log_positive_stable(alpha, size, rng)
    ld = _log_positive_stable(alpha, size, rng)
    # b = +-1: one weight is 0; a tiny alpha overflows the quotient to +-inf
    with np.errstate(divide="ignore", over="ignore"):
        return np.tanh((np.log1p(b) - np.log1p(-b) + lu - ld) / (2.0 * alpha))


def flt_f(alpha, m, s, y):
    """Fourier-Laplace transform of the marginal family: time is
    Laplace (s > 0), space is Fourier (frequency y).

        ((1+m)/2 (s-iy)^{a-1} + (1-m)/2 (s+iy)^{a-1}) /
        ((1+m)/2 (s-iy)^a     + (1-m)/2 (s+iy)^a)

    Weights appear in numerator and denominator alike; this is the
    convention that reproduces the numeric transform (y = 0 -> 1/s).
    """
    _check_law(alpha, m)
    if not 0.0 < s < np.inf:
        raise ValueError("Laplace variable must be positive")
    p = (1.0 + m) / 2.0
    q = (1.0 - m) / 2.0
    zm = s - 1j * y
    zp = s + 1j * y
    num = p * zm ** (alpha - 1.0) + q * zp ** (alpha - 1.0)
    den = p * zm ** alpha + q * zp ** alpha
    return num / den


# ---------------------------------------------------------------------------
# occupation-number recursion and its generating-function limit


def lamperti_recursion(comb, n_max):
    """p[n, k] = P(k up-steps among the n window increments), exactly.

    The window starts just after an up-to-down turn.  Cycles are a full
    down run (length l) then a full up run (length m), consuming l+m
    increments and adding m up-steps; partial runs close the window.
    In the coordinates q[j, k] = p[j+k, k] (j down-steps, k up-steps)
    both phases are plain convolutions.  Rows go in blocks of 64: the
    earlier rows' share of a block is one GEMM (~n_max^3/6 multiply-adds
    in all), then each row adds its own block's rows and is convolved
    with the up-run law (_UpRunConv, ~n_max^3/4), all in one
    (n_max+1)^2 buffer.
    """
    if not (0 <= n_max <= 5000 and n_max == int(n_max)):
        raise ValueError("n_max must be an integer in [0, 5000]")
    N = int(n_max)
    Td = comb.down_law.tail(np.arange(N + 2.0))
    Tu = comb.up_law.tail(np.arange(N + 2.0))
    d = np.concatenate([[0.0], Td[:-1] - Td[1:]])
    u = np.concatenate([[0.0], Tu[:-1] - Tu[1:]])
    conv = _UpRunConv(u, N)
    q = np.zeros((N + 1, N + 1))
    q[0, 0] = 1.0
    for j0 in range(1, N + 1, _ROWS_PER_BLOCK):
        j1 = min(j0 + _ROWS_PER_BLOCK, N + 1)
        W = d[np.arange(j0, j1)[:, None] - np.arange(j0)] @ q[:j0, :N + 1 - j0]
        for j in range(j0, j1):
            L = N + 1 - j
            w = W[j - j0, :L] + d[j - j0:0:-1] @ q[j0:j, :L]
            # last run open: j downs then k ups (d[j] Tu[k]), or j downs
            q[j, :L] = conv(w) + d[j] * Tu[:L]
            q[j, 0] += Td[j]
    for k in range(1, N + 1):   # skew in place: q[j, k] -> p[j + k, k]
        q[k:, k] = q[:N + 1 - k, k]
        q[:k, k] = 0.0
    return q


class _UpRunConv:
    """y = convolve(w, u)[:len(w)] for any w of length L <= n_max, as a
    few small GEMMs; y is a view of a buffer that the next call writes
    over.  With h = _CONV_BLOCK, w and u taken as 0 outside their ranges
    and any r > a,

        y[a h + c] = sum_{s < r h} w[(a - r + 1) h + s] G[s, c],
        G[s, c] = u[(r - 1) h + c - s],     c < h.

    Block a of y needs only w[:(a + 1) h], so its P = ceil(L / h) blocks
    go in _CONV_BANDS bands, and a band of blocks below r multiplies the
    last r h rows of one shared (P_max h) x h matrix.  The left factor is
    a view with row stride h of a buffer that holds (P_max - 1) h zeros,
    then w, so nothing is copied per row; what follows w there (zeros, or
    entries of a longer w) meets only zeros of G on the way to y[:L].
    The products are the convolution's own, summed in another order."""

    def __init__(self, u, n_max):
        h = _CONV_BLOCK
        self.P = max(1, -(-n_max // h))
        x = self.P * h - h - np.arange(self.P * h)[:, None] + np.arange(h)
        pad = np.concatenate([u, np.zeros(max(0, self.P * h - len(u)))])
        self.G = np.where(x >= 0, pad[np.maximum(x, 0)], 0.0)
        self.front = (self.P - 1) * h
        self.buf = np.zeros(self.front + self.P * h)
        self.out = np.empty((self.P, h))

    def __call__(self, w):
        h, F, buf = _CONV_BLOCK, self.front, self.buf
        L = len(w)
        P = -(-L // h)
        buf[F:F + L] = w
        step = -(-P // _CONV_BANDS)
        for r0 in range(0, P, step):
            r1 = min(P, r0 + step)
            left = np.lib.stride_tricks.as_strided(
                buf[F - (r1 - r0 - 1) * h:], shape=(r1 - r0, r1 * h),
                strides=(h * buf.itemsize, buf.itemsize), writeable=False)
            np.matmul(left, self.G[(self.P - r1) * h:], out=self.out[r0:r1])
        return self.out[:P].reshape(-1)[:L]


def double_gf_limit(comb, x, lam):
    """(value, target) of the occupation generating-function limit.

    value  = (1-x) * P(x, e^{-lam(1-x)}) with P the joint generating
             function of (window length, up-step count), from tail_gf
    target = ((1+lam)^{a-1} + rho) / ((1+lam)^a + rho),
             rho = (1-b)/(1+b) the down/up tail-constant ratio
    """
    rep = classify_regime(comb)
    if rep.regime != "anomalous":
        raise ValueError("generating-function limit requires the anomalous "
                         "regime (tail index < 1)")
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if not 0.0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    alpha = rep.alpha
    rho = (1.0 - rep.balance) / (1.0 + rep.balance)
    target = ((1.0 + lam) ** (alpha - 1.0) + rho) / ((1.0 + lam) ** alpha + rho)
    y = np.exp(-lam * (1.0 - x))
    t_d = comb.down_law.tail_gf(x)
    t_u = comb.up_law.tail_gf(x * y)
    f_d = 1.0 - (1.0 - x) * t_d            # sum d_n x^n
    f_u = 1.0 - (1.0 - x * y) * t_u
    value = (1.0 - x) * (t_d + y * f_d * t_u) / (1.0 - f_d * f_u)
    return value, target
