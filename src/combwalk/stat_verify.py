"""Statistical machinery turning simulations into theorem checks:
KS distances, tail-index estimation, char.-function diagnostics, and
the end-to-end regime verification scenarios.
"""

import json
import time

import numpy as np
from scipy.special import ndtr

from .comb_model import CombSpec
from .scaling_laws import NormalizerSet, classify_regime, stable_sigma
from .walk_sim import walk_marginals
from .stable_proc import stable_cdf_interp
from . import lamperti_limit


def ks_distance(samples, cdf):
    """sup |ECDF - CDF|.  `cdf` is a callable, or a second sample for
    the two-sample statistic."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 samples")
    if callable(cdf):
        F = np.asarray(cdf(x), dtype=float)
        d_plus = np.max(np.arange(1, n + 1) / n - F)
        d_minus = np.max(F - np.arange(0, n) / n)
        return float(max(d_plus, d_minus))
    y = np.sort(np.asarray(cdf, dtype=float))
    m = len(y)
    if m < 2:
        raise ValueError("need at least 2 samples")
    allv = np.concatenate([x, y])
    cx = np.searchsorted(x, allv, side="right") / n
    cy = np.searchsorted(y, allv, side="right") / m
    return float(np.max(np.abs(cx - cy)))


class HillResult:
    def __init__(self, alpha, ci, k):
        self.alpha = alpha
        self.ci = ci
        self.k = k

    def __repr__(self):
        return (f"HillResult(alpha={self.alpha:.4f}, "
                f"ci=({self.ci[0]:.4f}, {self.ci[1]:.4f}), k={self.k})")


_HILL_BOOT = 200            # bootstrap resamples of the Hill CI
_HILL_SEED = 0              # their seed, so the CI is a function of the data
_HILL_BLOCK = 1 << 20       # bootstrap indices drawn and gathered at a time


def hill_estimate(samples, k_frac):
    """Hill tail-index estimator on the top k = k_frac*n order
    statistics, with a percentile bootstrap CI over the log-spacings.
    Scale-free: built from log-ratios against the k-th largest value.
    """
    if not 0.0 < k_frac <= 0.2:
        raise ValueError("k_frac must lie in (0, 0.2]")
    x = np.asarray(samples, dtype=float)
    x = x[x > 0]
    n = len(x)
    k = int(np.floor(k_frac * n))
    if k < 10:
        raise ValueError(f"only {k} tail exceedances; need at least 10")
    top = np.partition(x, n - k - 1)[n - k - 1:]
    top = np.sort(top)[::-1]            # top[0] largest, top[k] pivot
    logs = np.log(top[:k]) - np.log(top[k])
    if np.all(logs <= 0):
        raise ValueError("degenerate tail: top order statistics are equal, "
                         "heavy-tail estimation declined")
    alpha = 1.0 / float(np.mean(logs))
    # the (_HILL_BOOT, k) index draw in row blocks of at most
    # max(k, _HILL_BLOCK) indices: the same stream and the same row means
    rng = np.random.default_rng(_HILL_SEED)
    rows = max(1, _HILL_BLOCK // k)
    boot = 1.0 / np.concatenate([
        np.mean(logs[rng.integers(0, k, size=(min(rows, _HILL_BOOT - r), k))],
                axis=1)
        for r in range(0, _HILL_BOOT, rows)])
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return HillResult(alpha, (float(lo), float(hi)), k)


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

    `pair` holds the (age, excess) arrays at level t, as returned by
    lamperti_limit.renewal_state or sample_anomalous_ensemble; every
    age must lie in [0, t].  Applying each sample's own age to the
    kernel CDF gives an exact uniform pivot; the KS of that pivot is
    reported, alongside the cruder bin-midpoint comparison.
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
    amid = 0.5 * (lo + hi)
    ks_mid = ks_distance(1.0 - (amid / (amid + h)) ** alpha, lambda u: u)
    return {"n": n, "ks": ks, "ks_midpoint": ks_mid}


# ---------------------------------------------------------------------------
# verification scenarios


class VerificationScenario:
    """One end-to-end regime check: comb, expected regime, rescaling
    scale u, replica count, observation times, KS tolerance.

    `reference` optionally overrides parameters of the comparison law
    (a deliberate-mismatch knob for negative-control scenarios).
    """

    def __init__(self, comb, regime, u, replicas, times, tol_ks,
                 seed=0, name="scenario", reference=None, tol_increment=None):
        if replicas < 1000:
            raise ValueError("need at least 10^3 replicas")
        if u <= 0:
            raise ValueError("scale u must be positive")
        times = sorted(float(t) for t in times)
        if not times or times[0] <= 0:
            raise ValueError("times must be positive")
        if int(u * times[-1]) < 1:
            raise ValueError("u * max(times) must cover at least one step")
        self.comb = comb
        self.regime = regime
        self.u = float(u)
        self.replicas = int(replicas)
        self.times = times
        self.tol_ks = float(tol_ks)
        self.tol_increment = float(tol_increment if tol_increment is not None
                                   else tol_ks)
        self.seed = int(seed)
        self.name = name
        self.reference = dict(reference) if reference else {}

    def to_dict(self):
        d = {"name": self.name, "comb": self.comb.to_dict(),
             "regime": self.regime, "u": self.u, "replicas": self.replicas,
             "times": self.times, "tol_ks": self.tol_ks,
             "tol_increment": self.tol_increment, "seed": self.seed}
        if self.reference:
            d["reference"] = self.reference
        return d

    @classmethod
    def from_dict(cls, d):
        try:
            comb = CombSpec.from_dict(d["comb"])
            return cls(comb, d["regime"], d["u"], d["replicas"], d["times"],
                       d["tol_ks"], seed=d.get("seed", 0),
                       name=d.get("name", "scenario"),
                       reference=d.get("reference"),
                       tol_increment=d.get("tol_increment"))
        except KeyError as e:
            raise ValueError(f"scenario file missing key {e}") from None

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"scenario file is not valid JSON: {e}") \
                    from None
        return cls.from_dict(d)


def verify_regime(scenario, seed=None, threads=1):
    """Simulate the scenario's walk ensemble, rescale the marginals with
    the module-computed normalizers, and KS-test against the regime's
    limit law at every observation time (plus increment checks between
    consecutive times).  Deterministic given (scenario, seed, comb).

    Returns a report dict with one entry per check and an overall flag.
    """
    t0 = time.time()
    comb = scenario.comb
    rep = classify_regime(comb)
    if rep.regime != scenario.regime:
        raise ValueError(f"scenario expects regime '{scenario.regime}' but "
                         f"the comb classifies as '{rep.regime}'")
    if seed is None:
        seed = scenario.seed
    u = scenario.u
    targets = [max(1, int(np.floor(u * t))) for t in scenario.times]
    S = walk_marginals(comb, targets, scenario.replicas, seed,
                       threads=threads)
    ns = NormalizerSet(comb)
    m = ns.m
    ref = scenario.reference
    regime = rep.regime
    alpha = float(ref.get("alpha", rep.alpha if rep.alpha else 2.0))
    beta = float(ref.get("beta", rep.beta))
    sigma = float(ref.get("scale", stable_sigma(alpha) if 1.0 < alpha < 2.0
                          else 1.0))

    checks = []

    def add(name, stat, tol):
        checks.append({"name": name, "ks": float(stat), "tol": float(tol),
                       "pass": bool(stat < tol)})

    # limit law of the rescaled walk: (normalizer, centring, CDF at time s);
    # the anomalous limit carries the drift m itself, so it is not centred
    c0 = float(ref.get("scale", np.pi / 2.0))
    laws = {
        "gaussian": (ns.walk, m, lambda s: lambda x: ndtr(x / np.sqrt(s))),
        "generic": (ns.walk, m, lambda s: stable_cdf_interp(
            alpha, beta, sigma * s ** (1.0 / alpha))),
        "cauchy": (ns.cauchy_norm, m, lambda s: lambda x:
                   0.5 + np.arctan(x / (c0 * s)) / np.pi),
        "anomalous": (lambda u: u, 0.0, lambda s: lambda x:
                      lamperti_limit.cdf_f(alpha, m, s, x)),
    }
    normalizer, centre, law_at = laws[regime]
    lam = normalizer(u)
    for j, t in enumerate(scenario.times):
        z = (S[:, j] - centre * targets[j]) / lam
        add(f"marginal t={t:g}", ks_distance(z, law_at(t)), scenario.tol_ks)
    for j in range(len(targets) - 1):
        dn = targets[j + 1] - targets[j]
        if dn < 1:
            continue
        span = f"t={scenario.times[j]:g}->{scenario.times[j+1]:g}"
        if regime == "anomalous":
            # rescaled paths are 1-Lipschitz exactly; record the modulus
            mod = float(np.max(np.abs(S[:, j + 1] - S[:, j])) / dn)
            checks.append({"name": f"Lipschitz modulus {span}", "ks": mod,
                           "tol": 1.0 + 1e-12,
                           "pass": bool(mod <= 1.0 + 1e-12)})
        else:
            z = (S[:, j + 1] - S[:, j] - centre * dn) / lam
            add(f"increment {span}", ks_distance(z, law_at(dn / u)),
                scenario.tol_increment)

    return {"name": scenario.name, "regime": regime, "u": u,
            "replicas": scenario.replicas, "times": scenario.times,
            "seed": int(seed), "threads": int(threads),
            "checks": checks, "pass": all(c["pass"] for c in checks),
            "runtime_s": round(time.time() - t0, 3)}


def format_report(report):
    """Plain-text rendering of a verify_regime report."""
    lines = [f"scenario : {report['name']}",
             f"regime   : {report['regime']}",
             f"u        : {report['u']:g}   replicas: {report['replicas']}"
             f"   seed: {report['seed']}   threads: {report['threads']}",
             f"runtime  : {report['runtime_s']} s", ""]
    for c in report["checks"]:
        flag = "PASS" if c["pass"] else "FAIL"
        lines.append(f"  [{flag}] {c['name']:<34s} "
                     f"stat={c['ks']:.5f}  tol={c['tol']:.5f}")
    lines.append("")
    lines.append("RESULT: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)
