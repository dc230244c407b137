import json
import os

import numpy as np
import pytest
from scipy.special import ndtr

from combwalk import (
    HazardFamily,
    CombSpec,
    VerificationScenario,
    constant_comb,
    format_report,
    hill_estimate,
    ks_distance,
    power_comb,
    tail_balance,
    verify_regime,
)
from combwalk import cli, stat_verify
from combwalk.lamperti_limit import lamperti_recursion
from combwalk.scaling_laws import NormalizerSet, classify_regime, stable_sigma
from combwalk.stable_proc import stable_cdf_interp
from combwalk.walk_sim import walk_marginals

from limit_checks import empirical_char_fn


# ---------------------------------------------------------------------------
# KS distance


def test_ks_exact_on_lattice_sample():
    n = 100
    x = (np.arange(1, n + 1) - 0.5) / n
    assert ks_distance(x, lambda v: v) == pytest.approx(0.5 / n)


def test_ks_detects_location_shift():
    x = np.random.default_rng(0).random(2000)
    assert ks_distance(x, lambda v: np.clip(v - 0.2, 0, 1)) > 0.15


def test_ks_uniform_draws_are_close():
    x = np.random.default_rng(5).random(100000)
    assert ks_distance(x, lambda v: v) < 0.008


def test_ks_two_sample():
    x = np.random.default_rng(1).random(5000)
    assert ks_distance(x, x) == 0.0
    assert ks_distance(x, x + 10.0) == 1.0
    y = np.random.default_rng(2).random(5000)
    d = ks_distance(x, y)
    assert 0.0 < d < 0.04


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_distance([1.0], lambda v: v)
    with pytest.raises(ValueError):
        ks_distance([1.0, 2.0], [3.0])


# ---------------------------------------------------------------------------
# Hill estimator


def test_hill_on_exact_pareto():
    u = np.random.default_rng(3).random(1000000)
    x = u ** (-2.0)                      # tail index 1/2
    res = hill_estimate(x, 0.01)
    assert res.k == 10000
    assert res.alpha == pytest.approx(0.5, abs=0.03)
    assert res.ci[0] < res.alpha < res.ci[1]
    assert res.ci[1] - res.ci[0] < 0.05
    assert "HillResult" in repr(res)


def test_hill_is_scale_free():
    u = np.random.default_rng(4).random(20000)
    x = u ** (-1.0 / 1.3)
    a1 = hill_estimate(x, 0.05).alpha
    a2 = hill_estimate(1e6 * x, 0.05).alpha
    assert a1 == pytest.approx(a2, rel=1e-9)


def test_hill_on_run_length_draws():
    law = power_comb(0.7).down_law
    x = law.invert(np.random.default_rng(6).random(200000))
    res = hill_estimate(x, 0.01)
    assert res.alpha == pytest.approx(0.7, abs=0.06)


def test_hill_ignores_nonpositive_values():
    u = np.random.default_rng(7).random(50000)
    x = u ** (-2.0)
    salted = np.concatenate([x, -np.ones(100000), np.zeros(5000)])
    res = hill_estimate(salted, 0.01)
    assert res.k == 500
    assert res.alpha == pytest.approx(0.5, abs=0.1)


def test_hill_takes_integer_samples_and_leaves_them_be():
    # run lengths come in as integers and are converted once; the
    # partition works on the estimator's own copy, never on the input
    x = power_comb(0.7).down_law.invert(np.random.default_rng(8).random(5000))
    xf = x.astype(float)
    kept = xf.copy()
    got, want = hill_estimate(x[::2], 0.1), hill_estimate(xf[::2], 0.1)
    assert (got.alpha, got.ci, got.k) == (want.alpha, want.ci, want.k)
    assert np.array_equal(xf, kept) and np.array_equal(x, kept)


def one_matrix_hill(samples, k_frac):
    """hill_estimate with its bootstrap drawn as one (_HILL_BOOT, k) index
    matrix: the reference for the row-blocked draw."""
    x = np.asarray(samples, dtype=float)
    x = x[x > 0]
    n = len(x)
    k = int(np.floor(k_frac * n))
    top = np.sort(np.partition(x, n - k - 1)[n - k - 1:])[::-1]
    logs = np.log(top[:k]) - np.log(top[k])
    rng = np.random.default_rng(stat_verify._HILL_SEED)
    idx = rng.integers(0, k, size=(stat_verify._HILL_BOOT, k))
    boot = 1.0 / np.mean(logs[idx], axis=1)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return 1.0 / float(np.mean(logs)), (float(lo), float(hi)), k


@pytest.mark.parametrize("n, block", [
    (170, None),            # k = 17: one block
    (100_000, None),        # k = 10 000: 15 blocks of 13 rows, then 5
    (250_010, None),        # k = 25 001: 40 blocks of 5 rows
    (12_340, 1000),         # k = 1 234 above the block: one row a block
])
def test_hill_blocked_bootstrap_is_the_one_matrix_draw(monkeypatch, n, block):
    if block is not None:
        monkeypatch.setattr(stat_verify, "_HILL_BLOCK", block)
    x = np.random.default_rng(n).random(n) ** -1.5
    got = hill_estimate(x, 0.1)
    assert (got.alpha, got.ci, got.k) == one_matrix_hill(x, 0.1)


def test_hill_validation():
    with pytest.raises(ValueError):
        hill_estimate(np.ones(1000), 0.5)          # k_frac out of range
    with pytest.raises(ValueError, match="tail exceedances"):
        hill_estimate(np.arange(1, 500, dtype=float), 0.01)
    with pytest.raises(ValueError, match="declined"):
        hill_estimate(np.ones(10000), 0.01)        # flat top statistics


# ---------------------------------------------------------------------------
# empirical characteristic function


def test_ecf_trivial_points():
    x = np.random.default_rng(8).normal(size=1000)
    phi, se = empirical_char_fn(x, [0.0])
    assert phi[0] == pytest.approx(1.0 + 0.0j)
    assert se[0] == pytest.approx(0.0, abs=1e-15)


def test_ecf_symmetric_sample_is_real():
    x = np.random.default_rng(9).normal(size=4000)
    sym = np.concatenate([x, -x])
    phi, _ = empirical_char_fn(sym, [0.7, 1.9])
    assert np.max(np.abs(phi.imag)) < 1e-14


def test_ecf_matches_gaussian_within_se():
    x = np.random.default_rng(10).normal(size=200000)
    u = np.array([0.3, 1.0, 2.0])
    phi, se = empirical_char_fn(x, u)
    target = np.exp(-u ** 2 / 2.0)
    assert np.all(np.abs(phi - target) < 4.0 * se)
    assert np.all(se < 0.005)


def test_ecf_validation():
    with pytest.raises(ValueError):
        empirical_char_fn([], [1.0])


# ---------------------------------------------------------------------------
# scenario container


def scenario_dict():
    return {
        "name": "unit",
        "comb": constant_comb(0.5, 0.5).to_dict(),
        "regime": "gaussian",
        "u": 400,
        "replicas": 3000,
        "times": [2.0, 4.0],
        "tol_ks": 0.06,
        "seed": 3,
    }


def test_scenario_roundtrip():
    sc = VerificationScenario.from_dict(scenario_dict())
    assert (sc.name, sc.regime, sc.tol_ks, sc.seed) == ("unit", "gaussian",
                                                        0.06, 3)
    assert sc.u == 400.0 and type(sc.u) is float
    assert sc.replicas == 3000 and sc.times == [2.0, 4.0]
    assert sc.reference == {}
    # the attributes, written back by hand, read as the same scenario
    d = {"name": sc.name, "comb": sc.comb.to_dict(), "regime": sc.regime,
         "u": sc.u, "replicas": sc.replicas, "times": sc.times,
         "tol_ks": sc.tol_ks, "seed": sc.seed}
    assert d == scenario_dict()
    again = VerificationScenario.from_dict(d)
    assert again.comb.to_dict() == sc.comb.to_dict()
    assert ((again.u, again.replicas, again.times, again.seed)
            == (sc.u, sc.replicas, sc.times, sc.seed))


def test_scenario_sorts_times():
    d = scenario_dict()
    d["times"] = [2.0, 0.5, 1.0]
    sc = VerificationScenario.from_dict(d)
    assert sc.times == [0.5, 1.0, 2.0]


def test_scenario_validation():
    base = scenario_dict()
    for key, bad in (("replicas", 999), ("u", 0.0), ("times", []),
                     ("times", [-1.0, 2.0])):
        d = dict(base)
        d[key] = bad
        with pytest.raises(ValueError):
            VerificationScenario.from_dict(d)
    d = dict(base)
    d["u"], d["times"] = 0.5, [1.0]       # covers less than one step
    with pytest.raises(ValueError):
        VerificationScenario.from_dict(d)
    # so does u t < 1 at any time: clamped to step 1, the walk was checked
    # against the law at t = 0.001 (a false FAIL, KS 0.928)
    with pytest.raises(ValueError, match=r"u \* min\(times\) must cover"):
        VerificationScenario.from_dict(dict(base, u=500, times=[0.001, 1.0]))
    assert VerificationScenario.from_dict(
        dict(base, u=500, times=[0.002, 1.0])).times == [0.002, 1.0]
    d = dict(base)
    del d["tol_ks"]
    with pytest.raises(ValueError, match="missing key"):
        VerificationScenario.from_dict(d)
    # a KS distance is at most 1: a tolerance of 1 or more passes every
    # finite check (true reads as 1.0), and one of 0 or less passes none
    for bad in (True, 1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError, match=r"tol_ks must lie in \(0, 1\)"):
            VerificationScenario.from_dict(dict(base, tol_ks=bad))


@pytest.mark.parametrize("key, bad", [
    ("u", float("inf")), ("u", float("nan")),
    ("times", [2.0, float("inf")]), ("times", [float("nan")]),
    ("times", [0.5, float("nan"), 1.0]),
    ("tol_ks", float("nan")), ("tol_ks", float("inf")),
    ("tol_ks", float("-inf")), ("seed", float("nan")),
    ("replicas", float("inf")), ("seed", float("inf")),
    ("reference", {"scale": float("inf")}),
    ("reference", {"alpha": 1.5, "scale": float("nan")}),
    ("u", 1e308), ("times", [1e307]),    # finite, but u * t overflows
])
def test_scenario_refuses_non_finite_values(key, bad):
    # int(u * t) overflows at an infinite product, and a NaN tolerance
    # fails every check: each is a config error
    d = dict(scenario_dict(), **{key: bad})
    if key == "reference":
        d["regime"], d["comb"] = "generic", power_comb(1.5, 1.0).to_dict()
    with pytest.raises(ValueError):
        VerificationScenario.from_dict(d)


@pytest.mark.parametrize("key, bad", [
    ("seed", 3.5), ("seed", True), ("seed", False), ("seed", -2),
    ("seed", "3"), ("seed", None), ("replicas", 1000.7), ("replicas", True),
    ("replicas", "3000"), ("replicas", 2000.5),
])
def test_scenario_refuses_a_seed_or_replica_count_that_is_not_whole(key,
                                                                     bad):
    # a fraction or a bool was once truncated or cast (seed 3.5 ran seed
    # 3, true ran seed 1), and a negative seed was blamed on numpy
    d = dict(scenario_dict(), **{key: bad})
    with pytest.raises(ValueError, match=key):
        VerificationScenario.from_dict(d)


@pytest.mark.parametrize("seed, replicas", [
    (3.0, 3000.0), (np.int64(3), np.int64(3000)), (0, 1000),
])
def test_scenario_takes_whole_seeds_and_replica_counts_as_ints(seed,
                                                               replicas):
    sc = VerificationScenario.from_dict(
        dict(scenario_dict(), seed=seed, replicas=replicas))
    assert (sc.seed, sc.replicas) == (int(seed), int(replicas))
    assert type(sc.seed) is int and type(sc.replicas) is int


@pytest.mark.parametrize("key", ["tol_increment", "tol", "Seed"])
def test_scenario_refuses_keys_outside_the_schema(key):
    # a file that still sets the retired tol_increment, or misspells a
    # key, fails loudly instead of running at some other setting
    d = dict(scenario_dict(), **{key: 0.1})
    with pytest.raises(ValueError, match=f"unknown scenario key.*{key}"):
        VerificationScenario.from_dict(d)


@pytest.mark.parametrize("regime, comb, reference", [
    ("gaussian", constant_comb(0.5, 0.5), {"alpha": 1.2}),
    ("gaussian", constant_comb(0.5, 0.5),
     {"alpha": 1.2, "beta": 0.9, "scale": 7}),
    ("cauchy", power_comb(1.0, 0.01), {"alpha": 1.7, "beta": 1}),
    ("cauchy", power_comb(1.0, 0.01), {"alpha": 1.7}),
    ("anomalous", power_comb(0.5), {"scale": 2.0}),
    ("anomalous", power_comb(0.5), {"alpha": 0.5, "beta": 0.3}),
    ("generic", power_comb(1.5, 1.0), {"alph": 1.9}),
], ids=["gaussian-alpha", "gaussian-every-key", "cauchy-alpha-beta",
        "cauchy-alpha", "anomalous-scale", "anomalous-beta", "generic-typo"])
def test_scenario_refuses_reference_keys_its_law_does_not_read(
        regime, comb, reference):
    # a negative control built on a key the law ignores would pass
    with pytest.raises(ValueError, match="reads no reference key"):
        VerificationScenario(comb, regime, 400, 1000, [1.0], 0.05,
                             reference=reference)


@pytest.mark.parametrize("regime, comb, reference", [
    ("gaussian", constant_comb(0.5, 0.5), {}),
    ("cauchy", power_comb(1.0, 0.01), {"scale": 2.0}),
    ("anomalous", power_comb(0.5), {"alpha": 0.8}),
    ("generic", power_comb(1.5, 1.0), {"alpha": 1.9, "beta": 0.2,
                                       "scale": 1.1}),
], ids=["gaussian", "cauchy", "anomalous", "generic"])
def test_scenario_accepts_the_reference_keys_its_law_reads(
        regime, comb, reference):
    sc = VerificationScenario(comb, regime, 400, 1000, [1.0], 0.05,
                              reference=reference)
    assert sc.reference == reference


def test_generic_reference_alpha_of_one_is_refused():
    # at alpha = 1 the S1 location slips with the scale, so no one table
    # serves every time; the scenario fails when it loads
    with pytest.raises(ValueError, match="alpha other than 1"):
        VerificationScenario(power_comb(1.5, 1.0), "generic", 400, 1000,
                             [1.0], 0.05, reference={"alpha": 1.0})
    d = dict(scenario_dict(), regime="generic",
             comb=power_comb(1.5, 1.0).to_dict(), reference={"alpha": 1})
    with pytest.raises(ValueError, match="alpha other than 1"):
        VerificationScenario.from_dict(d)


@pytest.mark.parametrize("d", [
    [1, 2], "scenario", 3, None,
    dict(scenario_dict(), comb=[1, 2]),
    dict(scenario_dict(), comb={"up": [1], "down": [2]}),
    dict(scenario_dict(), reference=[1]),
    dict(scenario_dict(), times=5),
    dict(scenario_dict(), regime=["gaussian"]),
    dict(scenario_dict(), regime="brownian"),
], ids=["list", "string", "number", "null", "comb-list", "hazard-list",
        "reference-list", "times-number", "regime-list", "regime-unknown"])
def test_scenario_of_the_wrong_shape_is_a_value_error(d):
    with pytest.raises(ValueError):
        VerificationScenario.from_dict(d)


def test_scenario_json_io(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(scenario_dict()))
    sc = VerificationScenario.from_json(p)
    assert sc.name == "unit"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        VerificationScenario.from_json(bad)


# ---------------------------------------------------------------------------
# end-to-end verification


def test_verify_gaussian_scenario_passes():
    sc = VerificationScenario.from_dict(scenario_dict())
    rep = verify_regime(sc)
    assert rep["pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert "marginal t=2" in names
    assert any(n.startswith("increment") for n in names)
    assert all(c["ks"] < c["tol"] for c in rep["checks"])


def test_verify_anomalous_scenario_passes():
    sc = VerificationScenario(power_comb(0.5), "anomalous", 400, 1500,
                              [1.0, 2.0], 0.08, seed=5)
    rep = verify_regime(sc)
    assert rep["pass"] is True
    # the limit is not a Levy process: its checks are its marginals
    assert [c["name"] for c in rep["checks"]] == ["marginal t=1",
                                                  "marginal t=2"]
    assert all(c["tol"] == 0.08 for c in rep["checks"])


_ONE_OF_EACH_REGIME = [
    ("gaussian", constant_comb(0.5, 0.5)),
    ("generic", power_comb(1.5, 1.0)),
    ("cauchy", power_comb(1.0, 0.01)),
    ("anomalous", power_comb(0.5)),
]


@pytest.mark.parametrize("regime, comb", _ONE_OF_EACH_REGIME,
                         ids=[r for r, _ in _ONE_OF_EACH_REGIME])
def test_verify_every_check_is_a_ks_check_at_tol_ks(regime, comb):
    sc = VerificationScenario(comb, regime, 400, 1000, [0.5, 1.0, 2.0],
                              0.5, seed=4)
    checks = verify_regime(sc)["checks"]
    marginals = ["marginal t=0.5", "marginal t=1", "marginal t=2"]
    increments = ["increment t=0.5->1", "increment t=1->2"]
    assert [c["name"] for c in checks] == marginals + (
        increments if regime != "anomalous" else [])
    assert all(c["tol"] == 0.5 for c in checks)


@pytest.mark.parametrize("regime, comb", _ONE_OF_EACH_REGIME,
                         ids=[r for r, _ in _ONE_OF_EACH_REGIME])
def test_verify_fails_on_a_nan_in_the_walk(monkeypatch, regime, comb):
    # a NaN position makes that time's marginal KS read nan, and nan < tol
    # is False at any tolerance, even the largest one allowed: the walk is
    # caught by its marginals in every regime
    real = stat_verify.walk_marginals

    def with_nan(*args, **kwargs):
        S = real(*args, **kwargs).astype(float)
        S[17, -1] = np.nan
        return S

    monkeypatch.setattr(stat_verify, "walk_marginals", with_nan)
    sc = VerificationScenario(comb, regime, 400, 1000, [0.5, 1.0], 0.999,
                              seed=4)
    rep = verify_regime(sc)
    assert rep["pass"] is False
    last = [c for c in rep["checks"] if c["name"] == "marginal t=1"]
    assert np.isnan(last[0]["ks"]) and last[0]["pass"] is False


def test_verify_negative_control_fails():
    sc = VerificationScenario(power_comb(0.5), "anomalous", 400, 1500,
                              [1.0], 0.08, seed=5,
                              reference={"alpha": 0.85})
    rep = verify_regime(sc)
    assert rep["pass"] is False


def bundled(name, **changes):
    path = os.path.join(os.path.dirname(stat_verify.__file__), "scenarios",
                        f"{name}.json")
    with open(path) as fh:
        return VerificationScenario.from_dict(dict(json.load(fh), **changes))


@pytest.mark.parametrize("sc, seed", [
    (bundled("generic-smoke"), 0),
    (bundled("generic-smoke"), 7),
    (VerificationScenario(power_comb(1.5, c=1.0, c_d=3.0), "generic", 20000,
                          3000, [0.5, 1.0, 2.0], 0.06), 5),
], ids=["generic-smoke-seed0", "generic-smoke-seed7", "skewed-three-times"])
def test_generic_checks_equal_per_time_stable_tables(sc, seed):
    # one table at scale sigma, read at x / s^(1/alpha), gives every check
    # the KS it has against a table built at scale sigma s^(1/alpha)
    rep = classify_regime(sc.comb)
    alpha, beta, sigma = rep.alpha, rep.beta, stable_sigma(rep.alpha)
    if len(sc.times) == 3:
        assert beta == pytest.approx(-0.212, abs=5e-4)
    ns = NormalizerSet(sc.comb)
    targets = [max(1, int(np.floor(sc.u * t))) for t in sc.times]
    S = walk_marginals(sc.comb, targets, sc.replicas, seed)
    lam, m = ns.walk(sc.u), ns.m

    def ks(z, s):
        return ks_distance(z, stable_cdf_interp(alpha, beta,
                                                sigma * s ** (1.0 / alpha)))

    want = [ks((S[:, j] - m * targets[j]) / lam, t)
            for j, t in enumerate(sc.times)]
    for j in range(len(targets) - 1):
        dn = targets[j + 1] - targets[j]
        want.append(ks((S[:, j + 1] - S[:, j] - m * dn) / lam, dn / sc.u))
    got = [c["ks"] for c in verify_regime(sc, seed=seed)["checks"]]
    assert len(got) == 2 * len(sc.times) - 1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_verify_refuses_a_critical_comb_whose_laws_differ():
    # with up and down laws that differ, Theta_u - Theta_d tends to a
    # constant, so the truncated drift falls only like 1/log n and shifts
    # the walk by O(1) Cauchy scales; at cauchy-smoke's u no 1-stable law
    # fits such a comb within its tol, even at tail balance 0 (tails
    # 1/(n+1) and 1/(n+4): equal constants, different laws)
    asymmetric = power_comb(1.0, c=0.01, c_d=1.0)
    balanced = CombSpec(HazardFamily.power(1.0, c=1.0),
                        HazardFamily.table([0.8], ("power", 1.0, 4.0)))
    assert classify_regime(asymmetric).drift != 0.0
    assert abs(tail_balance(balanced)) < 1e-12
    for comb in (asymmetric, balanced):
        sc = bundled("cauchy-smoke", comb=comb.to_dict())
        with pytest.raises(ValueError, match="identical up and down"):
            verify_regime(sc)


_ZIGZAG = CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0]))
_OUT_OF_DOMAIN = {
    "generic-alpha": ("generic", power_comb(1.5, 1.0), {"alpha": 2.5},
                      "alpha"),
    "generic-beta": ("generic", power_comb(1.5, 1.0), {"beta": 3}, "beta"),
    # a skewed S1 law within 1e-6 of alpha = 1 but not at it
    "generic-alpha-near-1": ("generic", power_comb(1.5, 1.0),
                             {"alpha": 1.0 + 1e-9, "beta": 0.5},
                             "within 1e-06 of 1"),
    "generic-scale": ("generic", power_comb(1.5, 1.0), {"scale": -1},
                      "scale"),
    "cauchy-scale-0": ("cauchy", power_comb(1.0, 0.01), {"scale": 0},
                       "scale"),
    "cauchy-scale-negative": ("cauchy", power_comb(1.0, 0.01),
                              {"scale": -1}, "scale"),
    "anomalous-alpha-1.5": ("anomalous", power_comb(0.5), {"alpha": 1.5},
                            "alpha"),
    "anomalous-alpha-negative": ("anomalous", power_comb(0.5),
                                 {"alpha": -0.2}, "alpha"),
    "zigzag": ("gaussian", _ZIGZAG, {}, "degenerate comb"),
}


@pytest.mark.parametrize("case", list(_OUT_OF_DOMAIN))
def test_out_of_domain_law_is_refused_before_any_draw(
        monkeypatch, tmp_path, capsys, case):
    # the limit law is resolved, and its parameters checked, before the
    # walk is drawn: a value outside its domain is a config error (exit 2)
    # found at once, and cauchy scale 0 or -1 is not a FAIL at KS nan or
    # 0.997
    regime, comb, reference, name = _OUT_OF_DOMAIN[case]

    def must_not_draw(*args, **kwargs):
        raise AssertionError("walk_marginals ran before the law was resolved")

    monkeypatch.setattr(stat_verify, "walk_marginals", must_not_draw)
    d = dict(scenario_dict(), comb=comb.to_dict(), regime=regime,
             reference=reference)
    with pytest.raises(ValueError, match=name):
        verify_regime(VerificationScenario.from_dict(d))
    path, out = tmp_path / "s.json", tmp_path / "report.txt"
    path.write_text(json.dumps(d))
    out.write_text("an earlier report\n")
    assert cli.main(["verify", "--scenario", str(path), "--out",
                     str(out)]) == 2
    assert "scenario rejected" in capsys.readouterr().err
    assert out.read_text() == "an earlier report\n"


@pytest.mark.parametrize("name, bias", [
    ("gaussian-smoke", [0.026501, 0.019421]),
    ("determinism-smoke", [0.034876]),
])
def test_gaussian_scenarios_finite_n_bias(name, bias):
    # the part of each tolerance that is bias, not noise: the KS distance
    # of the exact law of (S_n - m n) / walk(u), S_n = 2k - n and
    # n = floor(u t), from N(0, t), taking both sides of each atom; no
    # sampling is involved
    sc = bundled(name)
    ns = NormalizerSet(sc.comb)
    lam = ns.walk(sc.u)
    targets = [int(np.floor(sc.u * t)) for t in sc.times]
    p = lamperti_recursion(sc.comb, max(targets))
    got = []
    for n, t in zip(targets, sc.times):
        k = np.arange(n + 1)
        F = ndtr((2 * k - n - ns.m * n) / lam / np.sqrt(t))
        above = np.cumsum(p[n, :n + 1])
        got.append(max(np.abs(above - F).max(),
                       np.abs(above - p[n, :n + 1] - F).max()))
    np.testing.assert_allclose(got, bias, rtol=0, atol=5e-4)
    assert max(got) < sc.tol_ks


def test_verify_regime_mismatch_raises():
    sc = VerificationScenario(constant_comb(0.5, 0.5), "anomalous", 400,
                              1500, [1.0], 0.08)
    with pytest.raises(ValueError, match="classifies as"):
        verify_regime(sc)


def test_verify_deterministic_across_threads():
    sc = VerificationScenario.from_dict(scenario_dict())
    rep1 = verify_regime(sc, threads=1)
    rep2 = verify_regime(sc, threads=4)
    assert [c["ks"] for c in rep1["checks"]] == \
        [c["ks"] for c in rep2["checks"]]
    rep3 = verify_regime(sc, seed=99)
    assert rep3["seed"] == 99
    assert [c["ks"] for c in rep3["checks"]] != \
        [c["ks"] for c in rep1["checks"]]


def test_verify_report_is_the_same_for_any_thread_count_across_chunks():
    # 8193 replicas are three 4096-lane chunks (the last keeps one lane),
    # so the thread pool runs several chunks at once
    sc = VerificationScenario.from_dict(dict(scenario_dict(), replicas=8193))

    def report(threads):
        rep = verify_regime(sc, threads=threads)
        assert rep["threads"] == threads
        del rep["runtime_s"], rep["threads"]
        return json.dumps(rep, sort_keys=True).encode()

    one = report(1)
    assert json.loads(one)["replicas"] == 8193
    for threads in (2, 4):
        assert report(threads) == one


def test_report_formatting():
    sc = VerificationScenario.from_dict(scenario_dict())
    text = format_report(verify_regime(sc))
    assert "scenario : unit" in text
    assert "[PASS]" in text
    assert text.rstrip().endswith("RESULT: PASS")
    fake = {"name": "x", "regime": "gaussian", "u": 1.0, "replicas": 1000,
            "times": [1.0], "seed": 0, "threads": 1, "runtime_s": 0.1,
            "checks": [{"name": "c", "ks": 0.5, "tol": 0.1, "pass": False}],
            "pass": False}
    text = format_report(fake)
    assert "[FAIL]" in text and "RESULT: FAIL" in text
