import concurrent.futures
import glob
import json
import os
import re
import sys
import time
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import chisquare

from combwalk import (
    CombSpec,
    HazardFamily,
    PersistenceLaw,
    comb_model,
    constant_comb,
    power_comb,
)


def brute_tail(fam, n_max):
    """T(n) = prod_{k<=n} (1 - alpha_k) from the raw hazards."""
    alpha = fam.hazard(np.arange(1, n_max + 1))
    return np.concatenate([[1.0], np.cumprod(1.0 - alpha)])


def brute_pmf(fam, n_max):
    T = brute_tail(fam, n_max)
    return T[:-1] - T[1:]


# ---------------------------------------------------------------------------
# hazards


def test_constant_hazard_values():
    fam = HazardFamily.constant(0.3)
    assert_allclose(fam.hazard(np.arange(1, 10)), 0.3)
    assert float(fam.hazard(7)) == 0.3


def test_power_hazard_values_and_clipping():
    fam = HazardFamily.power(0.5)
    ks = np.arange(1, 8)
    assert_allclose(fam.hazard(ks), 0.5 / ks)
    capped = HazardFamily.power(2.0, c=1.5)
    assert float(capped.hazard(1)) == 2.0 / 2.5
    # a/(k+c) > 1 never escapes [0, 1]
    steep = HazardFamily.power(3.0, c=2.5)
    assert float(steep.hazard(1)) == pytest.approx(3.0 / 3.5)
    assert np.all(steep.hazard(np.arange(1, 50)) <= 1.0)


def test_table_hazard_prefix_then_extension():
    fam = HazardFamily.table([0.9, 0.1, 0.5], tail_rule=("constant", 0.25))
    assert_allclose(fam.hazard([1, 2, 3]), [0.9, 0.1, 0.5])
    assert_allclose(fam.hazard([4, 100]), [0.25, 0.25])
    fam2 = HazardFamily.table([0.9], tail_rule=("power", 1.5, 1.0))
    assert_allclose(fam2.hazard([2, 5]), [1.5 / 3.0, 1.5 / 6.0])


def test_table_default_extension_repeats_last_value():
    fam = HazardFamily.table([0.7, 0.2])
    assert_allclose(fam.hazard([3, 40]), [0.2, 0.2])


def test_hazard_validation_errors():
    with pytest.raises(ValueError):
        HazardFamily.constant(1.2)
    with pytest.raises(ValueError):
        HazardFamily.constant(-0.1)
    with pytest.raises(ValueError):
        HazardFamily.power(0.0)
    with pytest.raises(ValueError):
        HazardFamily.power(0.5, c=-1.0)
    with pytest.raises(ValueError):
        # c <= a - 1 forces alpha_1 = 1
        HazardFamily.power(2.0, c=1.0)
    with pytest.raises(ValueError):
        HazardFamily.table([])
    with pytest.raises(ValueError):
        HazardFamily.table([0.5, 1.3])
    with pytest.raises(ValueError):
        HazardFamily.table([0.5], tail_rule=("power", 4.0, 0.0))
    with pytest.raises(ValueError):
        HazardFamily.table([0.5], tail_rule=("gamma", 1.0))
    with pytest.raises(ValueError):
        HazardFamily("weibull", k=2.0)
    with pytest.raises(ValueError):
        HazardFamily.constant(0.5).hazard(0)


@pytest.mark.parametrize("make", [
    lambda: HazardFamily.table([0.2, np.nan, 0.3], ("constant", 0.5)),
    lambda: HazardFamily.table([np.nan]),
    lambda: HazardFamily.power(0.5, c=np.inf),
    lambda: HazardFamily.table([0.5], ("power", 0.4, np.inf)),
    lambda: HazardFamily.power(np.nan),
    lambda: HazardFamily.power(0.5, c=np.nan),
    lambda: HazardFamily.constant(np.nan),
    lambda: HazardFamily.from_dict(json.loads(
        '{"kind": "power", "a": 0.5, "c": Infinity}')),
], ids=["table-nan", "table-nan-default-rule", "power-c-inf",
        "table-power-c-inf", "power-a-nan", "power-c-nan", "constant-nan",
        "json-c-infinity"])
def test_non_finite_hazards_are_refused(make):
    # NaN fails every comparison, so the range tests must fail on it; an
    # infinite c would make every hazard 0 and the tail NaN
    with pytest.raises(ValueError, match="hazard"):
        make()


def _with_prefix(rule, L):
    """The rule on its own (L = 0), or as a table's rule after L hazards."""
    if L == 0:
        keys = comb_model._RULE_PARAMS[rule[0]]
        return HazardFamily(rule[0], **dict(zip(keys, rule[1:])))
    return HazardFamily.table([0.5] * L, rule)


# One check covers every rule, whether it starts at age 1 or after a
# table; a power rule must keep alpha_{L+1} = a / (L + 1 + c) below 1.
@pytest.mark.parametrize("rule, L, ok", [
    (("constant", -0.1), 0, False), (("constant", -0.1), 3, False),
    (("constant", 1.2), 0, False), (("constant", 1.2), 3, False),
    (("constant", 0.0), 0, True), (("constant", 1.0), 3, True),
    (("power", 0.0, 1.0), 0, False), (("power", 0.0, 1.0), 3, False),
    (("power", 0.5, -1.0), 0, False), (("power", 0.5, -1.0), 3, False),
    # c = a - 1 at L = 0, next to a / (L + 1 + c) = 1 at L = 3
    (("power", 2.0, 1.0), 0, False), (("power", 5.0, 1.0), 3, False),
    (("power", 2.0, 1.0 + 1e-9), 0, True),
    (("power", 5.0, 1.0 + 1e-9), 3, True),
    (("power", 2.0, 1.0), 3, True),
])
def test_one_rule_check(rule, L, ok):
    if ok:
        assert _with_prefix(rule, L).rule == rule
    else:
        with pytest.raises(ValueError, match="hazard"):
            _with_prefix(rule, L)


def test_assumption1():
    assert HazardFamily.constant(0.05).assumption1()
    assert not HazardFamily.constant(0.0).assumption1()
    assert HazardFamily.power(0.2).assumption1()
    assert HazardFamily.table([0.0, 1.0, 0.0]).assumption1()
    assert not HazardFamily.table(
        [0.5, 0.5], tail_rule=("constant", 0.0)).assumption1()
    assert HazardFamily.table(
        [0.0], tail_rule=("power", 0.3, 0.0)).assumption1()
    with pytest.raises(ValueError):
        PersistenceLaw(HazardFamily.constant(0.0))


def test_tail_index_flags():
    assert HazardFamily.power(1.3, c=0.5).tail_index == 1.3
    assert HazardFamily.constant(0.4).tail_index is None
    tab = HazardFamily.table([0.2], tail_rule=("power", 0.6, 0.5))
    assert tab.tail_index == 0.6
    assert HazardFamily.power(1.3, c=0.5).integrable
    assert not HazardFamily.power(0.9).integrable
    assert HazardFamily.power(2.5, c=2.0).square_integrable
    assert not HazardFamily.power(2.0, c=1.5).square_integrable
    assert HazardFamily.constant(0.4).integrable


def test_every_family_is_a_prefix_then_a_rule():
    assert HazardFamily.constant(0.4).rule == ("constant", 0.4)
    assert HazardFamily.power(1.3, c=0.5).rule == ("power", 1.3, 0.5)
    assert len(HazardFamily.power(1.3, c=0.5).values) == 0
    tab = HazardFamily("table", values=[0.2, 0.1], tail_rule=["power", 0.6, 0.5])
    assert tab.rule == ("power", 0.6, 0.5)
    assert_allclose(tab.values, [0.2, 0.1])
    assert tab.to_dict()["tail_rule"] == ["power", 0.6, 0.5]


# ---------------------------------------------------------------------------
# tails and moments against brute-force products


FAMILIES = [
    HazardFamily.constant(0.35),
    HazardFamily.power(0.5),
    HazardFamily.power(1.5, c=1.0),
    HazardFamily.power(2.0, c=1.2),
    HazardFamily.power(3.0, c=2.5),
    HazardFamily.table([0.9, 0.05, 0.4], tail_rule=("constant", 0.3)),
    HazardFamily.table([0.6, 0.2], tail_rule=("power", 0.7, 0.2)),
]


@pytest.mark.parametrize("fam", FAMILIES)
def test_tail_matches_hazard_product(fam):
    law = PersistenceLaw(fam)
    n = np.arange(0, 201)
    assert_allclose(law.tail(n.astype(float)), brute_tail(fam, 200),
                    rtol=1e-10, atol=1e-300)


def test_tail_is_a_step_function_in_t():
    law = PersistenceLaw(HazardFamily.power(0.5))
    assert law.tail(3.7) == law.tail(3.0)
    assert law.tail(0.0) == 1.0
    with pytest.raises(ValueError):
        law.tail(-0.5)


@pytest.mark.parametrize("fam", [HazardFamily.power(0.5),
                                 HazardFamily.constant(0.3)],
                         ids=["power", "constant"])
def test_law_refuses_non_finite_and_negative_times(fam):
    law = PersistenceLaw(fam)
    for f in (law.tail, law.truncated_mean, law.truncated_second_moment):
        for t in (np.nan, np.inf, -np.inf, -0.5, [3.0, np.nan], [np.inf, 3.0]):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                f(t)


@pytest.mark.parametrize("fam", FAMILIES)
def test_pmf_matches_tail_differences(fam):
    law = PersistenceLaw(fam)
    n = np.arange(1, 120)
    assert_allclose(law.pmf(n), brute_pmf(fam, 119), rtol=1e-10, atol=1e-300)
    total = law.pmf(n).sum() + law.tail(119.0)
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        law.pmf(0)


@pytest.mark.parametrize("fam", FAMILIES)
def test_truncated_mean_is_expected_min(fam):
    law = PersistenceLaw(fam)
    pmf = brute_pmf(fam, 4000)
    n = np.arange(1, 4001)
    for t in (1, 2, 7, 50, 313):
        brute = np.sum(np.minimum(n, t) * pmf) + t * brute_tail(fam, 4000)[-1]
        assert law.truncated_mean(float(t)) == pytest.approx(brute, rel=1e-9)
    # floor semantics
    assert law.truncated_mean(7.9) == law.truncated_mean(7.0)


@pytest.mark.parametrize("fam", FAMILIES)
def test_truncated_second_moment_is_partial_sum(fam):
    law = PersistenceLaw(fam)
    pmf = brute_pmf(fam, 600)
    n = np.arange(1, 601)
    for t in (1, 2, 9, 64, 417):
        brute = np.sum(n[n <= t] ** 2 * pmf[: t])
        assert law.truncated_second_moment(float(t)) == pytest.approx(
            brute, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("fam", FAMILIES)
def test_moment_increment_identities(fam):
    # Theta(N) - Theta(N-1) = T(N-1) and V(N) - V(N-1) = N^2 pmf(N)
    law = PersistenceLaw(fam)
    N = np.arange(1.0, 40.0)
    dtheta = law.truncated_mean(N) - law.truncated_mean(N - 1)
    assert_allclose(dtheta, law.tail(N - 1), rtol=1e-9, atol=1e-12)
    dv = law.truncated_second_moment(N) - law.truncated_second_moment(N - 1)
    assert_allclose(dv, N ** 2 * law.pmf(N.astype(int)), rtol=1e-8,
                    atol=1e-12)


def test_geometric_moments_closed_form():
    law = PersistenceLaw(HazardFamily.constant(0.4))
    assert law.mean() == pytest.approx(2.5)
    assert law.second_moment() == pytest.approx((2.0 - 0.4) / 0.16)
    assert law.variance() == pytest.approx(0.6 / 0.16)


def test_power_mean_and_divergence():
    assert PersistenceLaw(HazardFamily.power(1.5, c=1.0)).mean() == pytest.approx(2.0)
    assert PersistenceLaw(HazardFamily.power(2.5, c=2.0)).mean() == pytest.approx(2.0 / 1.5)
    assert np.isinf(PersistenceLaw(HazardFamily.power(0.8)).mean())
    assert np.isinf(PersistenceLaw(HazardFamily.power(1.0, c=0.5)).mean())
    assert np.isinf(PersistenceLaw(HazardFamily.power(1.7, c=1.0)).second_moment())


def test_second_moment_is_truncated_limit():
    law = PersistenceLaw(HazardFamily.power(3.0, c=2.5))
    # V(t) -> E[tau^2]; the tail decays like t^{-1}
    v = law.truncated_second_moment(2.0e5)
    s2 = law.second_moment()
    assert 0 < s2 - v < 2e-4 * s2
    assert law.variance() == pytest.approx(s2 - law.mean() ** 2)


def test_power_a2_second_moment_digamma_branch():
    # a = 2 uses a digamma expression for D(N); check against the raw sum
    fam = HazardFamily.power(2.0, c=1.2)
    law = PersistenceLaw(fam)
    pmf = brute_pmf(fam, 500)
    n = np.arange(1, 501)
    brute = np.sum(n ** 2 * pmf)
    assert law.truncated_second_moment(500.0) == pytest.approx(brute, rel=1e-10)


def test_table_moments_match_series():
    for fam in (HazardFamily.table([0.9, 0.05, 0.4], ("constant", 0.3)),
                # T(L) = 0: runs end in the prefix, the extension adds nothing
                HazardFamily.table([0.5, 1.0, 0.25], ("constant", 0.0)),
                HazardFamily.table([0.5, 1.0], ("power", 0.5, 0.0))):
        law = PersistenceLaw(fam)
        T = brute_tail(fam, 3000)          # tail < 1e-400 long before the end
        assert law.mean() == pytest.approx(np.sum(T[:-1]), rel=1e-12)
        j = np.arange(0, 3000)
        s2 = np.sum((2 * j + 1) * T[:-1])
        assert law.second_moment() == pytest.approx(s2, rel=1e-12)


def test_table_power_extension_moments():
    # ("power", 3.0, 2.0) has 1+c-a = 0, a gamma pole unless the extension
    # restarts at the table end
    for rule in (("power", 3.2, 0.5), ("power", 3.0, 2.0)):
        fam = HazardFamily.table([0.6, 0.2], tail_rule=rule)
        law = PersistenceLaw(fam)
        n_max = 400000
        T = brute_tail(fam, n_max)
        assert law.mean() == pytest.approx(np.sum(T[:-1]), rel=1e-6)
        j = np.arange(0, n_max)
        assert law.second_moment() == pytest.approx(
            np.sum((2 * j + 1) * T[:-1]), rel=1e-3)


def test_tail_constant_matches_asymptote():
    law = PersistenceLaw(HazardFamily.power(0.5))
    C = law.tail_constant
    n = 1.0e7
    assert law.tail(n) * n ** 0.5 == pytest.approx(C, rel=1e-6)
    tab = PersistenceLaw(HazardFamily.table([0.5], tail_rule=("power", 0.5, 0.5)))
    assert tab.tail(n) * n ** 0.5 == pytest.approx(tab.tail_constant, rel=1e-6)
    assert PersistenceLaw(HazardFamily.constant(0.2)).tail_constant is None
    # runs of length 1 or 2 only: no heavy tail, whatever the rule says
    ends = HazardFamily.table([0.5, 1.0], ("power", 0.5, 0.0))
    assert ends.tail_index is None
    assert PersistenceLaw(ends).tail_constant is None


def brute_moments(fam, n_max):
    """(T, Theta, V) at N = 0..n_max from the hazard product."""
    T = brute_tail(fam, n_max)
    n = np.arange(1, n_max + 1)
    theta = np.concatenate([[0.0], np.cumsum(T[:-1])])
    V = np.concatenate([[0.0], np.cumsum(n ** 2 * (T[:-1] - T[1:]))])
    return T, theta, V


def _assert_table_moments(fam):
    L = len(fam.params["values"])
    law = PersistenceLaw(fam)
    N = np.arange(0.0, L + 51.0)
    T, theta, V = brute_moments(fam, L + 50)
    # rtol 1e-9: the prefix is summed exactly as in the brute force, and
    # the well-conditioned closed forms agree with it to ~1e-12
    assert_allclose(law.tail(N), T, rtol=1e-9, atol=1e-12)
    assert_allclose(law.truncated_mean(N), theta, rtol=1e-9, atol=1e-12)
    assert_allclose(law.truncated_second_moment(N), V, rtol=1e-9, atol=1e-12)


_PREFIX = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
# tail indices, with extra weight next to the removable singularities of
# the power-law closed forms at a = 1 and a = 2
_INDEX = st.one_of(st.floats(0.05, 4.0), st.floats(0.999, 1.001),
                   st.floats(1.999, 2.001))


# Constant rules take Theta and D in closed forms through expm1 and
# gammainc, which do not cancel where 1 - (1-p)^N does; the strategy draws
# small and large p alike.  Below p ~ 1e-5 a zero prefix leaves V ~ p N^3
# so small that V = 2 D + Theta - N^2 T, which cancels to ~N^2 eps
# absolute, misses atol 1e-12 (test_table_moments_at_small_constant_p goes
# down to 1e-12 with prefixes that keep V away from 0).  1+c-a at a gamma pole
# (0, -1, ...) is ordinary input: the extension restarts at the table end
# as power(a, c+L), and 1+c+L-a > 0 whenever the table validates.
@settings(max_examples=200, deadline=None)
@given(_PREFIX, st.one_of(st.floats(1e-5, 1e-2), st.floats(1e-2, 1.0)))
def test_table_constant_extension_matches_brute_force(values, p):
    _assert_table_moments(HazardFamily.table(values, ("constant", p)))


@settings(max_examples=200, deadline=None)
@given(_PREFIX, _INDEX, st.floats(0.0, 10.0))
# c' = 1 + 1.5e-13 rounds 1 + c' - a = p by 1e-3 relative; Theta' once
# took K P(0) as K poch(c', 1 - a), whose pole at p = 0 kept that error
@example(values=[0.0], a=2.0, c=1.5437259922949236e-13)
def test_table_power_extension_matches_brute_force(values, a, c):
    assume(a / (len(values) + 1 + c) < 1.0)
    _assert_table_moments(HazardFamily.table(values, ("power", a, c)))


# 1 - (1-p)^N and q (1 - N q^(N-1) + (N-1) q^N) cancel for small p
# (p = 1e-3 is where they would fail); Theta and D are formed so that
# they do not, on either side of the tail's switch at p = 1e-2
@pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-6, 1e-3, 9.99e-3])
def test_table_moments_at_small_constant_p(p):
    _assert_table_moments(HazardFamily.table([0.0, 0.3], ("constant", p)))
    _assert_table_moments(HazardFamily.table([0.2], ("constant", p)))


# p^2 is subnormal from p ~ 1.5e-154 and 0 below ~1e-162; 1500 digits
# resolve q^N = (1-p)^N at p = 5e-324 and N = 2^62
_P_GRID = [5e-324, 1e-200, 1e-160, 1.5e-154, 1e-150, 1e-40, 1e-12, 1e-8,
           1e-5, 1e-3, 0.0099, 0.01, 0.05, 0.3, 0.5, 0.9, 1 - 1e-6, 1.0]
_N_GRID = [0, 1, 2, 3, 10, 1e3, 1e6, 1e9, 1e12, 1e15, 2.0 ** 62]


def _exact_theta_dsum(values, p, N):
    """(Theta(N), D(N)) = sum_{j<N} (1, j) T(j) to 1500 digits: the
    prefix terms, then T(L) q^i at j = L + i summed in closed form."""
    with mp.workdps(1500):
        T = [mp.mpf(1)]
        for v in values:
            T.append(T[-1] * (1 - mp.mpf(v)))
        L, N = len(values), int(N)
        theta = mp.fsum(T[:min(N, L)])
        dsum = mp.fsum(j * T[j] for j in range(min(N, L)))
        if N > L:
            p, m = mp.mpf(p), N - L
            q = 1 - p
            th = (1 - q ** m) / p
            d = q * (1 - m * q ** (m - 1) + (m - 1) * q ** m) / p ** 2
            theta += T[L] * th
            dsum += T[L] * (d + L * th)
        return theta, dsum


@pytest.mark.parametrize("values", [[], [0.5, 0.0]], ids=["bare", "prefix"])
def test_constant_theta_and_dsum_match_mpmath(values):
    rtol = 1e-13
    for p in _P_GRID:
        law = PersistenceLaw(HazardFamily.table(values, ("constant", p))
                             if values else HazardFamily.constant(p))
        N = np.array(_N_GRID) + len(values)
        if values:
            N = np.concatenate([np.arange(len(values)), N])
        theta, dsum = law._theta(N), law._dsum(N)
        for n, got_t, got_d in zip(N, theta, dsum):
            want_t, want_d = _exact_theta_dsum(values, p, n)
            assert abs(got_t - want_t) <= rtol * want_t, (p, n)
            assert abs(got_d - want_d) <= rtol * want_d, (p, n)
    # p = 0 has infinite runs, so only the rule itself can be asked
    geo = comb_model._Geometric(0.0, 0)
    m = np.array(_N_GRID)
    assert_array_equal(geo.theta(m), m)
    assert_array_equal(geo.dsum(m), m * (m - 1) / 2)


# q = 1 - p is rounded, so q ** m is off by ~m eps relative; below
# p = 1e-2 the tail is exp(m log1p(-p)), as Theta and D are
@pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
def test_constant_tail_at_small_p_matches_mpmath(p):
    law = PersistenceLaw(HazardFamily.constant(p))
    with mp.workdps(40):
        for m in (np.floor(1.0 / p), np.floor(10.0 / p)):
            exact = mp.power(1 - mp.mpf(p), int(m))
            assert abs(law.tail(m) / exact - 1) < 1e-14


# Theta and D of a power rule divide by a - 1 and a - 2 in closed form;
# next to those shifts they are summed term by term instead
@pytest.mark.parametrize("a", [1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.999, 1.001,
                               2.0 - 1e-9, 2.0, 2.0 + 1e-9, 1.999, 2.001])
def test_table_moments_near_a_one_and_two(a):
    _assert_table_moments(HazardFamily.table([0.0, 0.3], ("power", a, 0.5)))
    _assert_table_moments(HazardFamily.table([0.2], ("power", a, 7.5)))


def _assert_same_law(law, ref, N):
    assert_allclose(law.tail(N), ref.tail(N), rtol=1e-9, atol=1e-12)
    assert_allclose(law.truncated_mean(N), ref.truncated_mean(N),
                    rtol=1e-9, atol=1e-12)
    assert_allclose(law.truncated_second_moment(N),
                    ref.truncated_second_moment(N), rtol=1e-9, atol=1e-12)
    assert_allclose(law.mean(), ref.mean(), rtol=1e-9)
    assert_allclose(law.second_moment(), ref.second_moment(), rtol=1e-9)
    if ref.tail_constant is None:
        assert law.tail_constant is None
    else:
        assert_allclose(law.tail_constant, ref.tail_constant, rtol=1e-9)


_BASE = st.one_of(
    st.floats(1e-2, 1.0).map(HazardFamily.constant),
    st.tuples(_INDEX, st.floats(0.01, 10.0))
    .map(lambda ad: HazardFamily.power(ad[0], max(0.0, ad[0] - 1.0) + ad[1])))


# Every family is a prefix followed by a rule that restarts at the prefix
# end, so listing the first L hazards explicitly must not change the law.
@settings(max_examples=200, deadline=None)
@given(_BASE, st.integers(1, 20))
@example(HazardFamily.power(0.999, 7.5), 1)
def test_explicit_prefix_leaves_the_law_unchanged(fam, L):
    tab = HazardFamily.table(fam.hazard(np.arange(1, L + 1)), fam.rule)
    _assert_same_law(PersistenceLaw(tab), PersistenceLaw(fam),
                     np.arange(0.0, L + 51.0))


# G(z) = sum_n T(n) z^n against its first 400 terms, on constant and
# power rules alone and behind a table prefix.  z stops at 0.9, which
# leaves under 1e-17 past the 400th term and keeps clear of the power
# rule's hyp2f1 cancellation, which needs z near 1 as well as a near 1
# but not 1 (4e-9 relative at a = 1 - 1e-6, c' = 1 and z = 0.999)
@settings(max_examples=100, deadline=None)
@given(st.one_of(_BASE, st.tuples(_PREFIX, _BASE).map(
           lambda vf: HazardFamily.table(vf[0], vf[1].rule))),
       st.floats(0.0, 0.9))
def test_tail_gf_is_the_direct_sum(fam, z):
    law = PersistenceLaw(fam)
    n = np.arange(400)
    direct = np.sum(law.tail(n.astype(float)) * z ** n)
    assert law.tail_gf(z) == pytest.approx(direct, rel=1e-13, abs=0.0)


def test_power_tail_ratio_at_large_n():
    # T(n) ~ C n^{-a} (1 + O(1/n)), so T(2n)/T(n) = 2^{-a} to ~1e-12 here;
    # a difference gammaln(n+1+c-a) - gammaln(n+1+c) of two values near
    # 2.6e13 would leave ~3e-3 of it
    law = PersistenceLaw(HazardFamily.power(0.5))
    n = 1.0e12
    assert law.tail(2 * n) / law.tail(n) == pytest.approx(2 ** -0.5, rel=1e-8)


def _exact_power_moments(a, c, prefix, n):
    """(T, Theta, V) at integer n >= L of table(prefix, ("power", a, c)),
    a not 1 or 2, to 50 digits: the rule restarts at L = len(prefix) as power(a, c + L),
    whose tail K G(m+p)/G(m+p+a) (p = 1 + c + L - a) sums in closed form.
    Every ratio takes rgamma, so c + L = 0 gives G(p)/G(0) = 0."""
    with mp.workdps(50):
        a, L = mp.mpf(a), len(prefix)
        p = 1 + mp.mpf(c) + L - a
        TL, theta_L, V_L = mp.mpf(1), mp.mpf(0), mp.mpf(0)
        for j, h in enumerate(prefix, 1):
            theta_L += TL
            V_L += j ** 2 * TL * mp.mpf(h)
            TL *= 1 - mp.mpf(h)
        m = n - L
        K = TL * mp.gamma(p + a) * mp.rgamma(p)

        def ratio(z, h):        # G(z + h) / G(z + a - 1), z = p or m + p
            return mp.gamma(z + h) * mp.rgamma(z + a - 1)

        theta = K * (ratio(p, 0) - ratio(m + p, 0)) / (a - 1)
        s = (ratio(p, 1) - ratio(m + p, 1)) / (a - 2)
        # sum_{i<m} (i + L) T(L + i) = K s - (p - L) Theta'; then
        # V(n) - V(L) = 2 (D(n) - D(L)) + Theta(n) - Theta(L) - n^2 T(n)
        # + L^2 T(L), Abel summation from L on
        T = K * mp.gamma(m + p) * mp.rgamma(m + p + a)
        dsum = K * s - (p - L) * theta
        V = V_L + 2 * dsum + theta - n ** 2 * T + L ** 2 * TL
        return T, theta_L + theta, V


# a in (0, 1), next to 1, in (1, 2) and above 2; c = 0 puts a gamma pole
# at G(c + L); one rule restarts after a table prefix
@pytest.mark.parametrize("a, c, prefix", [
    (0.3, 0.0, []), (0.5, 0.0, []), (0.8, 0.0, []), (1.0 + 1e-3, 0.5, []),
    (1.5, 1.0, []), (1.9, 2.0, []), (2.5, 3.0, []), (0.5, 0.5, [0.2, 0.6]),
])
def test_power_moments_match_mpmath_up_to_2_to_the_50(a, c, prefix):
    # each gamma ratio is one poch call, which takes a log-gamma
    # difference up to z = 1e4 (~z log(z) eps) and an asymptotic series
    # beyond
    law = PersistenceLaw(HazardFamily.table(prefix, ("power", a, c))
                         if prefix else HazardFamily.power(a, c))
    n = np.unique(np.floor(np.geomspace(len(prefix) + 1, 2.0 ** 50, 60)))
    got = (law.tail(n), law.truncated_mean(n), law.truncated_second_moment(n))
    for k, x in enumerate(n):
        want = _exact_power_moments(a, c, prefix, int(x))
        far = x > 1e4
        for g, w, rtol in zip(got, want, (1e-14, 1e-14, 1e-13) if far
                              else (1e-10, 1e-10, 1e-9)):
            assert abs(g[k] / float(w) - 1) < rtol, (x, g[k], w)


# ---------------------------------------------------------------------------
# sampling


def test_cdf_table_shape_and_truncation():
    heavy = PersistenceLaw(HazardFamily.power(0.5))
    cdf = heavy.cdf_table(100)
    assert len(cdf) == 101
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] < 1.0
    light = PersistenceLaw(HazardFamily.constant(0.5))
    cdf2 = light.cdf_table(10000)
    assert cdf2[-1] == 1.0
    assert len(cdf2) < 10001  # truncated once the tail underflows


def test_geometric_sampling_matches_numpy():
    law = PersistenceLaw(HazardFamily.constant(0.4))
    draws = law.invert(np.random.default_rng(11).random(200000))
    assert draws.min() >= 1
    assert draws.mean() == pytest.approx(2.5, abs=0.02)
    same = np.random.default_rng(11).geometric(0.4, size=200000)
    assert np.array_equal(draws, same)


@pytest.mark.parametrize("p", [0.3, 0.4, 1e-3])
def test_constant_sampling_is_invert(p):
    # one inverter for every law: draws are the full cdf table's inverse
    # of the same uniforms, past the 4096-entry cached table too
    # (p = 1e-3; its table reaches 1 before 50 000 entries)
    law = PersistenceLaw(HazardFamily.constant(p))
    u = np.random.default_rng(8).random(20000)
    draws = law.invert(u)
    assert draws.tobytes() == _full_table_inverse(law, u, 50_000).tobytes()
    assert draws.min() >= 1


def test_constant_sampling_matches_geometric_pmf():
    # below p = 1/3, numpy's geometric draws another stream; this pins
    # the law of the inverted one: bins 1..25 and one tail bin
    n, K = 200_000, 25
    draws = PersistenceLaw(HazardFamily.constant(0.3)).invert(
        np.random.default_rng(0).random(n))
    observed = np.bincount(np.minimum(draws, K + 1), minlength=K + 2)[1:]
    k = np.arange(1, K + 1)
    expected = n * np.append(0.3 * 0.7 ** (k - 1), 0.7 ** K)
    assert chisquare(observed, expected).pvalue > 1e-3


def test_heavy_tail_sampling_frequencies():
    law = PersistenceLaw(HazardFamily.power(0.7))
    draws = law.invert(np.random.default_rng(5).random(200000))
    assert draws.min() >= 1
    for n in (1, 10, 100, 1000, 5000):
        p = law.tail(float(n))
        se = np.sqrt(p * (1 - p) / 200000)
        assert abs(np.mean(draws > n) - p) < 5 * se + 1e-9
    # 5000 is past the 4096-entry cached cdf table, so the integer search
    # past the table ran
    assert draws.max() > 4096


def test_uniform_next_to_one_gives_a_positive_draw():
    # T(n) never falls to 2^-53 below n = 2^53 here; the bracket once
    # doubled past int64 and the tail raised on a negative time
    law = PersistenceLaw(HazardFamily.power(0.3))
    draws = law.invert(np.full(3, 1.0 - 2.0 ** -53))   # largest below 1
    assert np.all((draws > 0) & (draws <= 2 ** 53))


_INVERT_FAMILIES = st.one_of(
    st.floats(1e-3, 1.0).map(HazardFamily.constant),
    st.tuples(st.floats(0.05, 3.0), st.floats(0.0, 5.0))
    .filter(lambda ac: ac[0] / (1.0 + ac[1]) < 1.0)
    .map(lambda ac: HazardFamily.power(*ac)),
    st.tuples(_PREFIX,
              st.sampled_from([("constant", 0.05), ("power", 0.4, 1.0)]))
    .map(lambda vr: HazardFamily.table(*vr)))
_SMALL_TABLE_MAX = 1 << 13
# caps below the 4096-entry default table, up to the (patched) table
# limit, and past it
_CAPS = st.one_of(st.integers(1, 4096), st.integers(4096, _SMALL_TABLE_MAX),
                  st.integers(_SMALL_TABLE_MAX, 30_000))


def _full_table_inverse(law, u, cap):
    # the smallest n >= 1 with cdf[n] >= u, capped
    cdf = law.cdf_table(cap - 1)
    return np.minimum(cap, np.searchsorted(cdf[1:], u) + 1)


@settings(max_examples=200, deadline=None)
@given(_INVERT_FAMILIES, _CAPS, _CAPS,
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
       st.lists(st.integers(0, 30_000), max_size=10),
       st.lists(st.integers(0, comb_model._GUIDE - 1), max_size=10))
def test_invert_matches_a_full_table(fam, cap, first_cap, us, at, cells):
    law = PersistenceLaw(fam)
    # table entries (those just below each cap too), the edges of guide
    # cells and the neighbours of both test the boundaries; 0 and
    # 1 - 2^-53 are the extreme uniforms
    cdf = law.cdf_table(30_000)
    at = at + [c - d for c in (cap, first_cap) for d in (1, 2) if c >= d]
    edges = np.concatenate([cdf[[i for i in at if i < len(cdf)]],
                            np.array(cells) / comb_model._GUIDE])
    u = np.concatenate([us, [0.0, 1.0 - 2.0 ** -53], edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    # only uniforms in [0, 1) take the guide
    u = u[(u >= 0.0) & (u < 1.0)]
    with mock.patch.object(comb_model, "_TABLE_MAX", _SMALL_TABLE_MAX):
        # the table a first cap grew must not change later answers
        assert_array_equal(law.invert(u, first_cap),
                           _full_table_inverse(law, u, first_cap))
        assert_array_equal(law.invert(u, cap),
                           _full_table_inverse(law, u, cap))
        assert_array_equal(np.minimum(law.invert(u), 30_000),
                           _full_table_inverse(law, u, 30_000))


@pytest.mark.parametrize("fam", [
    HazardFamily.constant(0.3),
    HazardFamily.power(0.5),
    HazardFamily.power(1.5, 1.0),
    HazardFamily.table([0.5, 1.0], ("power", 0.5, 0.0)),
], ids=["constant", "power0.5", "power1.5", "hazard1"])
def test_invert_outside_the_unit_interval(fam):
    # a generator never returns these; no n satisfies 1 - T(n) >= u for
    # u >= 1 or NaN, and u < 0 would wrap around the guide
    law = PersistenceLaw(fam)
    ok = np.random.default_rng(2).random(50)
    for bad in (-0.5, -5e-324, -np.inf, 1.0, 1.5, np.inf, np.nan):
        u = np.append(ok, bad)
        for cap in (None, 1, 50, 5000, 30_000):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                law.invert(u, cap)
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                law.invert(bad, cap)
    # -0.0 is a uniform in [0, 1) and, like 0.0, a run of length 1; an
    # empty u gives an empty answer
    for cap in (None, 50):
        u = np.append(ok, -0.0)
        assert_array_equal(law.invert(u, cap), law.invert(np.abs(u), cap))
        assert law.invert(-0.0, cap) == 1
        assert law.invert(0.0, cap) == 1
        assert law.invert(np.nextafter(1.0, 0.0), cap) >= 1
        assert law.invert(np.empty(0), cap).shape == (0,)


def test_cdf_table_is_sorted_where_the_tail_wobbles():
    # for a = 1e-9 the tail's step a T(n) / n falls below the ~n log(n) eps
    # error of the log-gamma difference poch takes up to n = 1e4, and the
    # computed tail moves up and down (first at n = 858); an unsorted
    # table made each draw there depend on the keys searched before it
    law = PersistenceLaw(HazardFamily.power(1e-9))
    cap = 10_000
    cdf = law.cdf_table(cap - 1)
    assert np.all(cdf[1:] >= cdf[:-1])
    raw = 1.0 - law.tail(np.arange(cap, dtype=float))
    assert np.any(raw[1:] < raw[:-1])
    assert_array_equal(cdf, np.maximum.accumulate(raw))
    u = np.random.default_rng(4).uniform(raw[858], cdf[-1], 2000)
    assert_array_equal(law.invert(u, cap),
                       [law.invert(x, cap) for x in u])


def test_draws_do_not_depend_on_the_cached_table():
    # past ~3e10, 1 - T(n) of power(0.5) has flat steps (T's step is below
    # half an ulp of 1), so a search whose brackets started at the table
    # size would move these draws
    law = PersistenceLaw(HazardFamily.power(0.5))
    u = 1.0 - 1e-4 * np.random.default_rng(1).random(2000)
    before = law.invert(u)
    law.invert(u, 30_000)
    assert_array_equal(law.invert(u), before)


def test_cdf_table_growth_is_thread_safe():
    law = PersistenceLaw(HazardFamily.power(0.6))
    build = law.cdf_table

    def slow_small_build(max_len):
        # small tables finish last, so an unguarded check-then-build
        # would replace a larger table with a smaller one
        if max_len < 10_000:
            time.sleep(0.02)
        return build(max_len)

    law.cdf_table = slow_small_build
    u = np.random.default_rng(0).random(2000)
    caps = [10, 5000, 300, 20_000, 4096, 12_000, 7, 15_000] * 2
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda c: law.invert(u, c), caps, timeout=60))
    finally:
        sys.setswitchinterval(old)
    for cap, out in zip(caps, got):
        assert_array_equal(out, _full_table_inverse(law, u, cap))
    # grow-only: the table holds the largest cap asked for
    assert len(law._table[0]) == 20_000


def test_invert_scalar_uniform():
    # a scalar uniform gives one integer draw, that of a one-entry array
    law = PersistenceLaw(HazardFamily.power(0.5))
    u = np.random.default_rng(0).random()
    x = law.invert(u)
    assert isinstance(x, np.integer) and x >= 1
    assert x == law.invert(np.array([u]))[0]


def test_table_sampling_hits_exact_pmf():
    fam = HazardFamily.table([0.5, 1.0])
    law = PersistenceLaw(fam)
    draws = law.invert(np.random.default_rng(3).random(50000))
    assert set(np.unique(draws)) == {1, 2}
    assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# combs, serialization, envelopes


def test_comb_accessors():
    comb = constant_comb(0.3, 0.5)
    assert comb.up.params["p"] == 0.3
    assert comb.down.params["p"] == 0.5


def test_power_comb_defaults():
    comb = power_comb(0.5, c=1.0)
    assert comb.up.params == {"a": 0.5, "c": 1.0}
    assert comb.down.params == {"a": 0.5, "c": 1.0}
    asym = power_comb(0.5, c=1.0, a_d=0.7, c_d=0.2)
    assert asym.down.params == {"a": 0.7, "c": 0.2}


def test_dict_roundtrip_all_kinds():
    for fam in FAMILIES:
        back = HazardFamily.from_dict(fam.to_dict())
        ks = np.arange(1, 30)
        assert_allclose(back.hazard(ks), fam.hazard(ks))
    comb = CombSpec(HazardFamily.power(0.5),
                    HazardFamily.table([0.2], tail_rule=("power", 0.5, 0.5)))
    back = CombSpec.from_dict(comb.to_dict())
    assert back.to_dict() == comb.to_dict()


def test_serialized_text_of_each_kind():
    # scenario files and the benchmark's per-law keys read these
    fams = [HazardFamily.constant(0.3), HazardFamily.power(1.5, 1.0),
            HazardFamily.table([0.2, 1.0], ("power", 0.5, 0.5))]
    assert [json.dumps(f.to_dict()) for f in fams] == [
        '{"kind": "constant", "p": 0.3}',
        '{"kind": "power", "a": 1.5, "c": 1.0}',
        '{"kind": "table", "values": [0.2, 1.0], '
        '"tail_rule": ["power", 0.5, 0.5]}']
    assert fams[0].params == {"p": 0.3}
    assert fams[1].params == {"a": 1.5, "c": 1.0}
    assert list(fams[2].params) == ["values", "tail_rule"]
    assert_array_equal(fams[2].params["values"], [0.2, 1.0])
    assert fams[2].params["tail_rule"] == ("power", 0.5, 0.5)


def test_bundled_scenario_combs_round_trip():
    scenarios = glob.glob(os.path.join(os.path.dirname(comb_model.__file__),
                                       "scenarios", "*.json"))
    assert len(scenarios) == 6
    for path in scenarios:
        with open(path) as fh:
            d = json.load(fh)["comb"]
        assert json.dumps(CombSpec.from_dict(d).to_dict()) == json.dumps(d)


def test_json_file_roundtrip(tmp_path):
    comb = power_comb(1.5, c=1.0, a_d=0.5, c_d=0.0)
    path = tmp_path / "comb.json"
    comb.to_json(path)
    back = CombSpec.from_json(path)
    assert back.to_dict() == comb.to_dict()


def test_from_dict_missing_keys():
    with pytest.raises(ValueError):
        CombSpec.from_dict({"up": {"kind": "constant", "p": 0.5}})
    with pytest.raises(ValueError):
        HazardFamily.from_dict({"kind": "tabel", "values": [0.5]})


@pytest.mark.parametrize("d, message", [
    ({"kind": "power", "a": 0.5, "C": 3}, "unknown power hazard key(s) C"),
    ({"kind": "table", "values": [0.2], "tailrule": ["power", 0.5, 0.5]},
     "unknown table hazard key(s) tailrule"),
    ({"kind": "constant", "p": 0.5, "a": 0.5},
     "unknown constant hazard key(s) a"),
], ids=["power-C", "table-tailrule", "constant-a"])
def test_hazard_from_dict_refuses_unknown_keys(d, message):
    # a misspelt key would otherwise load as its default (c = 0, or the
    # last table hazard continued forever)
    with pytest.raises(ValueError, match=re.escape(message)):
        HazardFamily.from_dict(d)
    with pytest.raises(ValueError, match=re.escape(message)):
        CombSpec.from_dict({"up": d, "down": {"kind": "constant", "p": 0.5}})


def test_comb_from_dict_refuses_unknown_keys():
    d = power_comb(0.5).to_dict()
    d["dwon"] = d["down"]
    with pytest.raises(ValueError, match=r"unknown comb key\(s\) dwon"):
        CombSpec.from_dict(d)


@pytest.mark.parametrize("d", [[1, 2], "constant", 0.5, None],
                         ids=["list", "string", "number", "null"])
def test_from_dict_refuses_what_is_not_an_object(d):
    # a config file of the wrong shape is a ValueError (a config error
    # at the command line), not an AttributeError or a TypeError
    with pytest.raises(ValueError, match="JSON object"):
        HazardFamily.from_dict(d)
    with pytest.raises(ValueError, match="JSON object"):
        CombSpec.from_dict(d)
    with pytest.raises(ValueError, match="JSON object"):
        CombSpec.from_dict({"up": d, "down": {"kind": "constant", "p": 0.5}})


def test_the_constructor_holds_the_defaults_and_the_float_coercion():
    # c = 0 and a table's last hazard forever, whichever entry point is
    # used; None counts as absent; every rule parameter is kept as a float
    same = [HazardFamily("power", a=0.5), HazardFamily("power", a=0.5, c=None),
            HazardFamily.power(0.5), HazardFamily.from_dict(
                {"kind": "power", "a": 0.5})]
    assert [f.params for f in same] == [{"a": 0.5, "c": 0.0}] * 4
    assert HazardFamily("table", values=[0.2, 0.7]).rule == ("constant", 0.7)
    fams = [HazardFamily("constant", p=1), HazardFamily.from_dict(
        {"kind": "table", "values": [0.5], "tail_rule": ["power", 2, 1]})]
    assert [json.dumps(f.to_dict()) for f in fams] == [
        '{"kind": "constant", "p": 1.0}',
        '{"kind": "table", "values": [0.5], "tail_rule": ["power", 2.0, 1.0]}']
    assert all(type(v) is float for f in fams for v in f.rule[1:])
    assert fams[1].params["tail_rule"] == ("power", 2.0, 1.0)


@pytest.mark.parametrize("d, message", [
    ({"kind": "table", "values": [0.5], "tail_rule": []}, "rule must be"),
    ({"kind": "table", "values": [0.5], "tail_rule": ["constant"]},
     "rule must be"),
    ({"kind": "table", "values": [0.5], "tail_rule": ["constant", 0.5, 3]},
     "rule must be"),
    ({"kind": "table", "values": [0.5], "tail_rule": ["power", 0.5]},
     "rule must be"),
    ({"kind": "constant", "p": [0.5]}, "constant hazard: float() argument"),
    ({"kind": "constant"}, "constant hazard missing key 'p'"),
    ({"kind": "power", "a": 10 ** 400}, "power hazard: int too large"),
], ids=["rule-empty", "rule-short", "rule-long", "power-rule-short",
        "p-list", "p-missing", "a-past-float"])
def test_hazard_from_dict_refuses_a_field_of_the_wrong_shape(d, message):
    # each escaped as an IndexError, TypeError, KeyError or OverflowError,
    # or (a long rule) was accepted and written back with its stray entry
    with pytest.raises(ValueError, match=re.escape(message)):
        HazardFamily.from_dict(d)


@pytest.mark.parametrize("d, message", [
    ({"kind": "constant", "p": "0.5"}, "constant hazard p must be a number, "
     "not str"),
    ({"kind": "constant", "p": "abc"}, "constant hazard p must be a number, "
     "not str"),
    ({"kind": "constant", "p": True}, "constant hazard p must be a number, "
     "not bool"),
    ({"kind": "power", "a": "1.5", "c": 1}, "power hazard a must be a "
     "number, not str"),
    ({"kind": "power", "a": 0.5, "c": False}, "power hazard c must be a "
     "number, not bool"),
    ({"kind": "table", "values": [0.5, True]}, "table hazard values must be "
     "a number, not bool"),
    ({"kind": "table", "values": ["0.5"]}, "table hazard values must be a "
     "number, not str"),
    ({"kind": "table", "values": "abc"}, "table hazard values: could not "
     "convert string to float"),
    ({"kind": "table", "values": [[0.5, "a"]]}, "table hazard values: could "
     "not convert string to float"),
    ({"kind": "table", "values": [0.5], "tail_rule": ["power", "1.5", 1]},
     "table hazard tail_rule a must be a number, not str"),
    ({"kind": "table", "values": [0.5], "tail_rule": ["constant", True]},
     "table hazard tail_rule p must be a number, not bool"),
], ids=["p-numeric-string", "p-string", "p-bool", "a-string", "c-bool",
        "values-bool", "values-string", "values-a-string", "values-nested",
        "rule-string", "rule-bool"])
def test_hazard_fields_refuse_strings_and_bools(d, message):
    # float() reads "0.5" and true as numbers, and "abc" failed with a
    # bare "could not convert string to float" naming no kind or field
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        HazardFamily.from_dict(d)


def test_hazard_fields_take_numpy_numbers():
    fams = [HazardFamily.constant(np.float64(0.5)),
            HazardFamily.power(np.int64(2), c=np.float32(1.5)),
            HazardFamily.table(np.array([0.5, 1.0]), ("constant", np.int8(0)))]
    assert [f.rule for f in fams] == [("constant", 0.5), ("power", 2.0, 1.5),
                                      ("constant", 0.0)]
    with pytest.raises(ValueError, match="p must be a number, not bool"):
        HazardFamily.constant(np.True_)


_NUMBER = st.one_of(st.floats(-0.5, 3.0), st.integers(-2, 4), st.floats(),
                    st.integers())
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=2)),
    max_leaves=4)
_FIELD = _NUMBER | _JSON
_SHAPES = {"p": _FIELD, "a": _FIELD, "c": _FIELD,
           "values": st.lists(st.floats(0.0, 1.0) | _NUMBER, max_size=4)
           | _JSON,
           "tail_rule": st.tuples(
               st.sampled_from(["constant", "power", "gamma"]),
               st.lists(_FIELD, max_size=3)).map(lambda kr: [kr[0], *kr[1]])
           | _JSON}


def _hazard_dicts(kind, fields):
    return st.fixed_dictionaries({"kind": kind}, optional={
        f: _SHAPES.get(f, _NUMBER) for f in fields})


# JSON-shaped hazard objects: each known kind with its fields present or
# not, and any kind with any fields and a stray key "C"
_HAZARD_DICTS = st.one_of(
    _hazard_dicts(st.just("constant"), ["p"]),
    _hazard_dicts(st.just("power"), ["a", "c"]),
    _hazard_dicts(st.just("table"), ["values", "tail_rule"]),
    _hazard_dicts(st.sampled_from(["constant", "power", "table", "tabel"])
                  | _JSON, [*_SHAPES, "C"]))


@settings(max_examples=300, deadline=None)
@given(_HAZARD_DICTS)
def test_a_hazard_object_is_refused_by_name_or_round_trips(d):
    # a comb file is refused with a ValueError (exit 2 at the command
    # line), or its family writes JSON text that reads back as itself
    try:
        fam = HazardFamily.from_dict(d)
    except ValueError:
        return
    text = json.dumps(fam.to_dict())
    assert json.dumps(HazardFamily.from_dict(json.loads(text)).to_dict()) \
        == text
    assert all(type(v) is float for v in fam.rule[1:])


@pytest.mark.parametrize("fam", [HazardFamily.power(0.5),
                                 HazardFamily.constant(0.3)],
                         ids=["power", "constant"])
@pytest.mark.parametrize("name", ["tail", "truncated_mean",
                                  "truncated_second_moment"])
def test_law_returns_a_float_at_any_0d_input(fam, name):
    f = getattr(PersistenceLaw(fam), name)
    want = f(7.5)
    assert type(want) is float
    for x in (np.float64(7.5), np.array(7.5), np.array(7)):
        got = f(x)
        assert type(got) is float and got == f(float(x))
    arr = f(np.array([7.5]))
    assert arr.shape == (1,) and arr[0] == want


def test_zigzag_comb_is_representable():
    comb = CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0]))
    assert comb.up_law.pmf(1) == 1.0
    assert comb.up_law.tail(1.0) == 0.0
    assert comb.up_law.mean() == 1.0
