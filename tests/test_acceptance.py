"""End-to-end acceptance checks, one per release criterion.

Each test prints its measured statistic next to the tolerance so a
`pytest tests/test_acceptance.py -v` run reads as a pass/fail table.
Seeds are fixed; every statistic here was calibrated against at least
two neighbouring seeds before freezing.
"""

import json

import numpy as np
import pytest
from scipy.special import ndtr

from combwalk import (
    DensityEvaluator,
    NormalizerSet,
    VerificationScenario,
    cdf_f,
    constant_comb,
    default_jump_cut,
    density_f,
    double_gf_limit,
    ks_distance,
    labelled_subordinator,
    lamperti_recursion,
    power_comb,
    sample_anomalous_ensemble,
    sample_positive_stable,
    sample_ratio,
    sample_stable,
    stable_cdf_interp,
    stable_sigma,
    total_mean_cycle,
    verify_regime,
    walk_marginals,
)

from limit_checks import empirical_char_fn, levy_symbol, markov_kernel_check

C_BALANCED = 1.4655561545081737     # up-comb offset giving tail balance 0.4


def report(name, stat, tol, extra=""):
    print(f"\n  {name}: stat={stat:.3g} tol={tol:.3g} "
          f"{'PASS' if stat < tol else 'FAIL'} {extra}")


def test_01_closed_form_arcsine_reduction():
    x = np.linspace(-1.0, 1.0, 1003)[1:-1]
    f = density_f(0.5, 0.0, 1.0, x)
    arc = 1.0 / (np.pi * np.sqrt(1.0 - x * x))
    err = float(np.max(np.abs(f / arc - 1.0)))
    report("balanced density vs arcsine (rel, 1001 pts)", err, 1e-12)
    assert err < 1e-12


def test_02_density_normalization_and_mean():
    worst_mass = worst_mean = 0.0
    for a in (0.3, 0.5, 0.7):
        for m in (-0.5, 0.0, 0.5):
            ev = DensityEvaluator(a, m)
            worst_mass = max(worst_mass, abs(ev.mass - 1.0))
            worst_mean = max(worst_mean, abs(ev.mean - m))
    report("density mass on 9-point grid", worst_mass, 1e-8)
    report("density mean on 9-point grid", worst_mean, 1e-6)
    assert worst_mass < 1e-8
    assert worst_mean < 1e-6


def test_03_anomalous_walk_marginal_matches_limit_density():
    u = 100_000
    for b, comb in ((0.0, power_comb(0.5)),
                    (0.4, power_comb(0.5, c=C_BALANCED, a_d=0.5, c_d=0.0))):
        S = walk_marginals(comb, [u], 10_000, seed=3, threads=4)
        ks = ks_distance(S[:, 0] / u, lambda x: cdf_f(0.5, b, 1.0, x))
        report(f"rescaled walk vs limit marginal (b={b})", ks, 0.03)
        assert ks < 0.03


def test_04_ratio_sampler_triangulates_the_marginal():
    draws = sample_ratio(0.5, 0.4, np.random.default_rng(7), size=100_000)
    ks = ks_distance(draws, lambda x: cdf_f(0.5, 0.4, 1.0, x))
    report("subordinator-ratio sampler vs closed-form CDF", ks, 0.01)
    assert ks < 0.01


def test_05_gaussian_regime_marginals():
    comb = constant_comb(0.3, 0.5)
    ns = NormalizerSet(comb)
    u = 10_000
    lam, m = ns.walk(u), ns.m
    S = walk_marginals(comb, [5000, 10000], 10_000, seed=16, threads=4)
    ks_half = ks_distance((S[:, 0] - m * 5000) / lam,
                          lambda x: ndtr(x / np.sqrt(0.5)))
    ks_one = ks_distance((S[:, 1] - m * 10000) / lam, ndtr)
    report("gaussian regime, t=0.5", ks_half, 0.02)
    report("gaussian regime, t=1", ks_one, 0.02)
    assert ks_half < 0.02
    assert ks_one < 0.02


def test_06_generic_stable_regime_marginal():
    comb = power_comb(1.5, c=1.0)
    ns = NormalizerSet(comb)
    u = 100_000
    lam, m = ns.walk(u), ns.m
    S = walk_marginals(comb, [u], 10_000, seed=2, threads=4)
    cdf = stable_cdf_interp(1.5, 0.0, stable_sigma(1.5))
    ks = ks_distance((S[:, 0] - m * u) / lam, cdf)
    report("generic regime vs stable(1.5) law", ks, 0.03)
    assert ks < 0.03


def test_07_cauchy_regime_marginal():
    comb = power_comb(1.0, c=0.01)
    ns = NormalizerSet(comb)
    u = 100_000
    norm, m = ns.cauchy_norm(u), ns.m
    S = walk_marginals(comb, [u], 10_000, seed=3, threads=4)
    z = (S[:, 0] - m * u) / norm
    ks = ks_distance(z, lambda x: 0.5 + np.arctan(x / (np.pi / 2)) / np.pi)
    report("cauchy regime vs Cauchy(pi/2)", ks, 0.03,
           extra=f"norm={norm:.1f}")
    assert ks < 0.03


def enum_occupation(comb, n):
    """Exact up-step-count law by brute force over all 2^n paths."""
    masks = np.arange(2 ** n, dtype=np.int64)
    prob = np.ones(2 ** n)
    dirn = np.zeros(2 ** n, dtype=np.int64)
    age = np.zeros(2 ** n, dtype=np.int64)
    ups = np.zeros(2 ** n, dtype=np.int64)
    for j in range(n):
        step = (masks >> j) & 1
        ups += step
        stay = step == dirn
        haz_u = comb.up.hazard(np.maximum(age, 1)).astype(float)
        haz_d = comb.down.hazard(np.maximum(age, 1)).astype(float)
        haz = np.where(dirn == 1, haz_u, haz_d)
        new = age == 0
        p_step = np.where(new, np.where(step == 0, 1.0, 0.0),
                          np.where(stay, 1.0 - haz, haz))
        prob *= p_step
        age = np.where(stay & ~new, age + 1, 1)
        dirn = step
    out = np.zeros(n + 1)
    np.add.at(out, ups, prob)
    return out


def test_08_occupation_recursion_exact_and_asymptotic():
    comb = power_comb(0.5)
    p16 = lamperti_recursion(comb, 16)
    worst = max(float(np.max(np.abs(p16[n, :n + 1] - enum_occupation(comb, n))))
                for n in range(1, 17))
    report("recursion vs exhaustive enumeration (n<=16)", worst, 1e-13)
    assert worst < 1e-13

    p = lamperti_recursion(comb, 2000)
    w = np.arange(2001) / 2000.0
    F = 2.0 / np.pi * np.arcsin(np.sqrt(w))
    cum = np.cumsum(p[2000])
    ks = max(float(np.max(np.abs(cum - F))),
             float(np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - F))))
    report("occupation law vs arcsine CDF (n=2000)", ks, 0.05)
    assert ks < 0.05


def test_09_generating_function_double_limit():
    comb = power_comb(0.5)
    for lam in (0.5, 1.0, 2.0):
        devs = []
        for x in (0.9, 0.99, 0.999):
            value, target = double_gf_limit(comb, x, lam)
            devs.append(abs(value - target))
        report(f"gf deviation at x=0.999 (lambda={lam:g})", devs[2], 0.02,
               extra=f"sequence={[round(d, 5) for d in devs]}")
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 0.02


def test_10_limit_process_invariants():
    # (a) 1-Lipschitz paths
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        p = labelled_subordinator(0.5, 0.3, 3.0, rng=rng)
        ts = np.linspace(0.0, p.total(), 1500)
        worst = max(worst, float(np.max(np.abs(np.diff(p.evaluate(ts)[0]))
                                        / np.diff(ts))))
    report("path slope modulus", worst, 1.0 + 1e-12)
    assert worst <= 1.0 + 1e-12

    # (b) self-similarity: S(2)/2 and S(1) share a law
    S1, _, _ = sample_anomalous_ensemble(0.5, 0.0, 20_000, seed=5)
    S2, _, _ = sample_anomalous_ensemble(0.5, 0.0, 20_000, seed=1005,
                                         level=2.0, t_max=8.0)
    ks = ks_distance(S2 / 2.0, S1)
    report("self-similarity (two-sample)", ks, 0.02)
    assert ks < 0.02

    # (c) insensitivity to the small-jump cutoff
    eps0 = default_jump_cut(0.5, 30.0 ** 0.5)
    Sa, _, _ = sample_anomalous_ensemble(0.5, 0.0, 20_000, seed=5,
                                         epsilon=eps0)
    Sb, _, _ = sample_anomalous_ensemble(0.5, 0.0, 20_000, seed=2005,
                                         epsilon=eps0 / 10.0)
    ks = ks_distance(Sa, Sb)
    report("jump-cutoff robustness (eps vs eps/10)", ks, 0.02,
           extra=f"eps={eps0:.2e}")
    assert ks < 0.02

    # (d) renewal kernel of the age/excess pair
    _, A, H = sample_anomalous_ensemble(0.5, 0.0, 40_000, seed=17)
    out = markov_kernel_check((A, H), 1.0, (0.09, 0.11), alpha=0.5)
    report("conditional excess law in a thin age bin", out["ks"], 0.05,
           extra=f"n={out['n']}")
    assert out["ks"] < 0.05


def test_11_stable_sampler_against_its_own_symbol():
    ugrid = np.array([-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0])
    rng = np.random.default_rng(8)
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        beta = 0.0 if alpha == 2.0 else 0.5
        x = sample_stable(alpha, beta, 400_000, rng)
        phi, se = empirical_char_fn(x, ugrid)
        tgt = np.exp(levy_symbol(alpha, beta, ugrid))
        worst = max(worst, float(np.max(np.abs(phi - tgt) / se)))
    report("char. function deviation (units of SE)", worst, 3.0)
    assert worst < 3.0

    tpos = sample_positive_stable(0.5, 200_000, np.random.default_rng(12))
    lam = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    emp = np.exp(-np.outer(lam, tpos)).mean(axis=1)
    dev = float(np.max(np.abs(emp - np.exp(-np.sqrt(lam)))))
    report("one-sided sampler Laplace transform", dev, 0.005)
    assert dev < 0.005


@pytest.mark.xfail(strict=True, reason=(
    "the published target constant (2-a)(1-a)/a = 1.5 for a=0.5 does not "
    "match the large-u limit of the space normalizer; the measured ratio "
    "converges to a(1-a)/(2-a) = 1/6, verified in the companion test below "
    "-- see notes/decisions.md in the project tracker"))
def test_12a_space_normalizer_ratio_published_constant():
    ns = NormalizerSet(power_comb(0.5))
    ratio = ns.walk(10_000_000) / 10_000_000
    report("lambda(u)/u vs 1.5 (rel)", abs(ratio / 1.5 - 1.0), 0.05,
           extra=f"ratio={ratio:.6f}")
    assert abs(ratio / 1.5 - 1.0) < 0.05


def test_12a_space_normalizer_ratio_consistent_constant():
    ns = NormalizerSet(power_comb(0.5))
    ratio = ns.walk(10_000_000) / 10_000_000
    report("lambda(u)/u vs a(1-a)/(2-a)=1/6 (rel)",
           abs(6.0 * ratio - 1.0), 0.05, extra=f"ratio={ratio:.6f}")
    assert abs(6.0 * ratio - 1.0) < 0.05


def test_12b_time_normalizer_asymptotics():
    comb = power_comb(1.5, c=1.0)
    ns = NormalizerSet(comb)
    dT = total_mean_cycle(comb)
    val = ns.time(10_000_000) * dT / 10_000_000
    report("s(u) d_T / u", abs(val - 1.0), 0.01, extra=f"value={val:.6f}")
    assert abs(val - 1.0) < 0.01


def test_13_thread_count_determinism():
    comb = constant_comb(0.25, 0.4)
    # 8193 replicas are three 4096-lane chunks (the last keeps one lane),
    # so the pool runs several chunks at once and their order can show
    base = walk_marginals(comb, [2000], 8193, seed=9, threads=1).tobytes()
    for th in (2, 4):
        assert walk_marginals(comb, [2000], 8193, seed=9,
                              threads=th).tobytes() == base

    ens = sample_anomalous_ensemble(0.5, 0.3, 2000, seed=11, threads=1)
    for th in (2, 4):
        again = sample_anomalous_ensemble(0.5, 0.3, 2000, seed=11,
                                          threads=th)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ens, again))

    # full verification reports agree byte-for-byte once the wall-clock
    # stamp and the thread count itself are stripped
    sc = VerificationScenario(comb, "gaussian", 500, 8193, [1.0], 0.2,
                              seed=7)
    stripped = []
    for th in (1, 2, 4):
        rep = verify_regime(sc, threads=th)
        rep.pop("runtime_s")
        rep.pop("threads")
        stripped.append(json.dumps(rep, sort_keys=True).encode())
    assert stripped[0] == stripped[1] == stripped[2]
    print("\n  scenario reports byte-identical across 1/2/4 threads: PASS")
