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


def _check_k_frac(k_frac):
    if not 0.0 < k_frac <= 0.2:
        raise ValueError("k_frac must lie in (0, 0.2]")


def hill_estimate(samples, k_frac):
    """Hill tail-index estimator on the top k = k_frac*n order
    statistics, with a percentile bootstrap CI over the log-spacings.
    Scale-free: built from log-ratios against the k-th largest value.
    """
    _check_k_frac(k_frac)
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

    `pair` holds the (age, excess) arrays at level t, as read from
    LabelledSubordinatorPath.evaluate or returned by
    sample_anomalous_ensemble; every age must lie in [0, t].  Applying
    each sample's own age to the kernel CDF gives an exact uniform pivot;
    the KS of that pivot is reported, alongside the cruder bin-midpoint
    comparison.
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


# the keys of a scenario file, and the `reference` keys that each regime's
# limit law in verify_regime reads
_SCENARIO_KEYS = frozenset(("name", "comb", "regime", "u", "replicas",
                            "times", "tol_ks", "seed", "reference"))
_REFERENCE_KEYS = {"gaussian": (), "generic": ("alpha", "beta", "scale"),
                   "cauchy": ("scale",), "anomalous": ("alpha",)}


class VerificationScenario:
    """One end-to-end regime check: comb, expected regime, rescaling
    scale u, replica count, observation times and the KS tolerance
    `tol_ks` that every check of the report is held to.

    `reference` optionally overrides parameters of the comparison law
    (a deliberate-mismatch knob for negative-control scenarios).  It may
    set only the keys the regime's law reads: alpha, beta and scale
    (generic), scale as the Cauchy c0 (cauchy), alpha (anomalous), none
    (gaussian); any other key is a ValueError.
    """

    def __init__(self, comb, regime, u, replicas, times, tol_ks,
                 seed=0, name="scenario", reference=None):
        if regime not in _REFERENCE_KEYS:
            raise ValueError(f"unknown regime {regime!r}")
        if not 1000 <= replicas < np.inf:
            raise ValueError("need a finite count of at least 10^3 replicas")
        if not 0 < u < np.inf:
            raise ValueError("scale u must be positive and finite")
        times = sorted(float(t) for t in times)
        if not times or times[0] <= 0 or not np.all(np.isfinite(times)):
            raise ValueError("times must be positive and finite")
        tol_ks = float(tol_ks)
        if not np.isfinite(tol_ks):
            raise ValueError("tol_ks must be finite")
        if not 1.0 <= u * times[-1] < np.inf:
            raise ValueError("u * max(times) must cover at least one step "
                             "and be finite")
        if isinstance(seed, float) and not np.isfinite(seed):
            raise ValueError("seed must be finite")
        if reference is not None and not isinstance(reference, dict):
            raise ValueError("reference must be an object of law parameters")
        reference = dict(reference) if reference else {}
        unread = sorted(set(reference) - set(_REFERENCE_KEYS[regime]))
        if unread:
            raise ValueError(f"the {regime} law reads no reference key "
                             f"{', '.join(unread)}")
        if not all(np.isfinite(float(v)) for v in reference.values()):
            raise ValueError("reference-law parameters must be finite")
        self.comb = comb
        self.regime = regime
        self.u = float(u)
        self.replicas = int(replicas)
        self.times = times
        self.tol_ks = tol_ks
        self.seed = int(seed)
        self.name = name
        self.reference = reference

    def to_dict(self):
        d = {"name": self.name, "comb": self.comb.to_dict(),
             "regime": self.regime, "u": self.u, "replicas": self.replicas,
             "times": self.times, "tol_ks": self.tol_ks, "seed": self.seed}
        if self.reference:
            d["reference"] = self.reference
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object")
        unknown = sorted(set(d) - _SCENARIO_KEYS)
        if unknown:
            raise ValueError(f"unknown scenario key(s) {', '.join(unknown)}")
        try:
            comb = CombSpec.from_dict(d["comb"])
            return cls(comb, d["regime"], d["u"], d["replicas"], d["times"],
                       d["tol_ks"], seed=d.get("seed", 0),
                       name=d.get("name", "scenario"),
                       reference=d.get("reference"))
        except KeyError as e:
            raise ValueError(f"scenario file missing key {e}") from None
        except TypeError as e:
            raise ValueError(f"scenario value of the wrong type: {e}") \
                from None

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
    limit law at every observation time, plus the increments between
    consecutive times in the gaussian, generic and cauchy regimes.  Every
    check is a KS distance held to the scenario's `tol_ks`.
    Deterministic given (scenario, seed, comb).

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

    # limit law of the rescaled walk: (normalizer, centring, CDF at time s);
    # the anomalous limit carries the drift m itself, so it is not centred.
    # The reference keys each law reads are _REFERENCE_KEYS[regime].
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
    tol = scenario.tol_ks
    checks = []

    def add(name, z, s):
        stat = ks_distance(z, law_at(s))
        checks.append({"name": name, "ks": float(stat), "tol": tol,
                       "pass": bool(stat < tol)})

    for j, t in enumerate(scenario.times):
        add(f"marginal t={t:g}", (S[:, j] - centre * targets[j]) / lam, t)
    # the three Levy limits have stationary independent increments; the
    # anomalous limit is not a Levy process, so its marginals are its checks
    if regime != "anomalous":
        for j in range(len(targets) - 1):
            dn = targets[j + 1] - targets[j]
            if dn >= 1:
                span = f"t={scenario.times[j]:g}->{scenario.times[j+1]:g}"
                add(f"increment {span}",
                    (S[:, j + 1] - S[:, j] - centre * dn) / lam, dn / u)

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
