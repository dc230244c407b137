"""Statistical machinery turning simulations into theorem checks:
KS distances, tail-index estimation, and the end-to-end regime
verification scenarios.
"""

import inspect
import json
import numbers
import time

import numpy as np
from scipy.special import ndtr

from .comb_model import CombSpec
from .scaling_laws import NormalizerSet, stable_sigma
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
_HILL_BLOCK = 1 << 17       # bootstrap indices drawn and gathered at a time


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
    x = x[x > 0]                        # a copy, partitioned in place
    n = len(x)
    k = int(np.floor(k_frac * n))
    if k < 10:
        raise ValueError(f"only {k} tail exceedances; need at least 10")
    x.partition(n - k - 1)
    top = x[n - k - 1:]
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


# ---------------------------------------------------------------------------
# verification scenarios


def _stable_cdf(m, alpha, beta, scale):
    # strictly stable for alpha != 1: F_s(x) = F_1(x / s^(1/alpha))
    F = stable_cdf_interp(alpha, beta, scale)
    return lambda x, s: F(x / s ** (1.0 / alpha))


def _cauchy_cdf(m, scale):
    if not 0.0 < scale < np.inf:
        raise ValueError("the cauchy scale must be positive and finite")
    return lambda x, s: 0.5 + np.arctan(x / (scale * s)) / np.pi


def _anomalous_cdf(m, alpha):
    lamperti_limit._check_law(alpha, m)
    return lambda x, s: lamperti_limit.cdf_f(alpha, m, s, x)


# Each regime's limit law: (params, norm, levy, build).  params: the law's
# parameters, the only keys `reference` may set, each defaulting to a
# function of the RegimeReport r and the params before it.  norm: the
# NormalizerSet method rescaling the walk (None: u itself).  levy: centre
# the walk by m and check its increments (the anomalous limit carries m
# itself and is not a Levy process).  build(m, **params) checks the params
# and makes the CDF, cdf(x, s) at time s; it looks functions up when run.
_LAWS = {
    "gaussian": ({}, "walk", True,
                 lambda m: lambda x, s: ndtr(x / np.sqrt(s))),
    "generic": ({"alpha": lambda r, p: r.alpha, "beta": lambda r, p: r.beta,
                 "scale": lambda r, p: stable_sigma(p["alpha"])},
                "walk", True, _stable_cdf),
    "cauchy": ({"scale": lambda r, p: np.pi / 2.0}, "cauchy_norm", True,
               _cauchy_cdf),
    "anomalous": ({"alpha": lambda r, p: r.alpha}, None, False,
                  _anomalous_cdf),
}


def _whole(key, v):
    """v as an int when it is an integer or a float that is one; a bool,
    a fraction or anything else is a ValueError naming the key."""
    if not isinstance(v, bool) and (isinstance(v, numbers.Integral) or
                                    isinstance(v, float) and v.is_integer()):
        return int(v)
    raise ValueError(f"{key} must be an integer, not {v!r}")


class VerificationScenario:
    """One end-to-end regime check: comb, expected regime, rescaling
    scale u, replica count, observation times and the KS tolerance
    `tol_ks` that every check of the report is held to.

    `reference` optionally overrides parameters of the comparison law
    (a deliberate-mismatch knob for negative-control scenarios).  It may
    set only the params of the regime's row of `_LAWS`; the generic
    scale defaults to stable_sigma(alpha).  Any other key, and a generic
    alpha of 1 (the S1 location slips with the scale), is a ValueError.
    """

    def __init__(self, comb, regime, u, replicas, times, tol_ks,
                 seed=0, name="scenario", reference=None):
        if regime not in _LAWS:
            raise ValueError(f"unknown regime {regime!r}")
        replicas, seed = _whole("replicas", replicas), _whole("seed", seed)
        if replicas < 1000:
            raise ValueError("need a count of at least 10^3 replicas")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, not {seed}")
        if not 0 < u < np.inf:
            raise ValueError("scale u must be positive and finite")
        times = sorted(float(t) for t in times)
        if not times or times[0] <= 0 or not np.all(np.isfinite(times)):
            raise ValueError("times must be positive and finite")
        tol_ks = float(tol_ks)
        if not 0.0 < tol_ks < 1.0:      # NaN too; a KS distance is <= 1
            raise ValueError(f"tol_ks must lie in (0, 1), not {tol_ks!r}")
        if not (1.0 <= u * times[0] and u * times[-1] < np.inf):
            raise ValueError("u * min(times) must cover at least one step "
                             "and u * max(times) be finite")
        if reference is not None and not isinstance(reference, dict):
            raise ValueError("reference must be an object of law parameters")
        reference = dict(reference) if reference else {}
        unread = sorted(set(reference) - set(_LAWS[regime][0]))
        if unread:
            raise ValueError(f"the {regime} law reads no reference key "
                             f"{', '.join(unread)}")
        if not all(np.isfinite(float(v)) for v in reference.values()):
            raise ValueError("reference-law parameters must be finite")
        if regime == "generic" and float(reference.get("alpha", 0)) == 1.0:
            raise ValueError("the generic law needs a reference alpha "
                             "other than 1")
        self.comb, self.regime, self.name = comb, regime, name
        self.u, self.replicas, self.times = float(u), replicas, times
        self.tol_ks, self.seed, self.reference = tol_ks, seed, reference

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object")
        keys = inspect.signature(cls).parameters
        unknown = sorted(set(d) - set(keys))
        if unknown:
            raise ValueError(f"unknown scenario key(s) {', '.join(unknown)}")
        missing = [k for k, p in keys.items()
                   if p.default is p.empty and k not in d]
        if missing:
            raise ValueError(f"scenario missing key(s) {', '.join(missing)}")
        try:
            return cls(**dict(d, comb=CombSpec.from_dict(d["comb"])))
        except (TypeError, OverflowError) as e:
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
    Deterministic given (scenario, seed, comb).  The law is resolved and
    checked before the draw: NormalizerSet(comb).report gives the regime,
    the centring m and the default alpha and beta of the reference CDF.

    Returns a report dict with one entry per check and an overall flag.
    """
    t0 = time.perf_counter()
    comb, u = scenario.comb, scenario.u
    ns = NormalizerSet(comb)
    rep = ns.report
    if rep.regime != scenario.regime:
        raise ValueError(f"scenario expects regime '{scenario.regime}' but "
                         f"the comb classifies as '{rep.regime}'")
    if rep.regime == "cauchy" and comb.up.to_dict() != comb.down.to_dict():
        raise ValueError("the cauchy check needs identical up and down "
                         "hazard families: with differing laws the "
                         "truncated drift falls only like 1/log n, too "
                         "slowly for any feasible u")
    params, norm, levy, build = _LAWS[rep.regime]
    m, ref, p = ns.m, scenario.reference, {}
    for key, default in params.items():
        p[key] = float(ref[key] if key in ref else default(rep, p))
    cdf = build(m, **p)
    seed = scenario.seed if seed is None else seed
    targets = [int(np.floor(u * t)) for t in scenario.times]
    S = walk_marginals(comb, targets, scenario.replicas, seed,
                       threads=threads)
    lam = getattr(ns, norm)(u) if norm else u
    centre = m if levy else 0.0
    tol, checks = scenario.tol_ks, []

    def add(name, z, s):
        stat = ks_distance(z, lambda x: cdf(x, s))
        checks.append({"name": name, "ks": float(stat), "tol": tol,
                       "pass": bool(stat < tol)})

    for j, t in enumerate(scenario.times):
        add(f"marginal t={t:g}", (S[:, j] - centre * targets[j]) / lam, t)
    if levy:
        for j in range(len(targets) - 1):
            dn = targets[j + 1] - targets[j]
            if dn >= 1:
                span = f"t={scenario.times[j]:g}->{scenario.times[j+1]:g}"
                add(f"increment {span}",
                    (S[:, j + 1] - S[:, j] - centre * dn) / lam, dn / u)

    return {"name": scenario.name, "regime": rep.regime, "u": u,
            "replicas": scenario.replicas, "times": scenario.times,
            "seed": int(seed), "threads": int(threads),
            "checks": checks, "pass": all(c["pass"] for c in checks),
            "runtime_s": round(time.perf_counter() - t0, 3)}


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
