import glob
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import combwalk
from combwalk import (
    CombSpec,
    HazardFamily,
    NormalizerSet,
    classify_regime,
    constant_comb,
    effective_drift,
    mean_drift,
    power_comb,
    stable_scale,
    stable_sigma,
    stable_skewness,
    tail_balance,
    total_mean_cycle,
)
from combwalk.scaling_laws import _smallest_int

from limit_checks import assert_pointwise, with_repeats

# c tuned so the up tail constant is 7/3 times the down one (balance 0.4)
C_BALANCED = 1.4655561545081737


def asym_comb():
    return power_comb(0.5, c=C_BALANCED, a_d=0.5, c_d=0.0)


# ---------------------------------------------------------------------------
# drift and balance constants


def test_mean_drift_values():
    assert mean_drift(constant_comb(0.3, 0.5)) == pytest.approx(0.25)
    assert mean_drift(constant_comb(0.2, 0.4)) == pytest.approx(1.0 / 3.0)
    assert mean_drift(constant_comb(0.5, 0.5)) == 0.0
    # one-sided integrability pushes the drift to the boundary
    up_heavy = CombSpec(HazardFamily.power(0.5), HazardFamily.constant(0.5))
    assert mean_drift(up_heavy) == 1.0
    dn_heavy = CombSpec(HazardFamily.constant(0.5), HazardFamily.power(0.5))
    assert mean_drift(dn_heavy) == -1.0
    with pytest.raises(ValueError):
        mean_drift(power_comb(0.5))


def test_total_mean_cycle():
    assert total_mean_cycle(constant_comb(0.4, 0.5)) == pytest.approx(4.5)
    assert total_mean_cycle(power_comb(1.5, c=1.0)) == pytest.approx(4.0)
    assert np.isinf(total_mean_cycle(power_comb(0.5)))


def test_tail_balance():
    assert tail_balance(power_comb(0.5)) == 0.0
    assert tail_balance(asym_comb()) == pytest.approx(0.4, abs=1e-12)
    # heavier up tail dominates
    mixed = CombSpec(HazardFamily.power(0.5), HazardFamily.power(1.5, c=1.0))
    assert tail_balance(mixed) == 1.0
    mixed2 = CombSpec(HazardFamily.power(1.5, c=1.0), HazardFamily.power(0.5))
    assert tail_balance(mixed2) == -1.0
    light = CombSpec(HazardFamily.power(0.5), HazardFamily.constant(0.5))
    assert tail_balance(light) == 1.0
    with pytest.raises(ValueError):
        tail_balance(constant_comb(0.3, 0.5))


def test_effective_drift_chooses_the_right_constant():
    assert effective_drift(constant_comb(0.3, 0.5)) == pytest.approx(0.25)
    # neither integrable: falls back to the tail balance
    assert effective_drift(power_comb(0.5)) == 0.0
    assert effective_drift(asym_comb()) == pytest.approx(0.4, abs=1e-12)
    # one integrable side keeps the mean drift, here +-1
    onesided = CombSpec(HazardFamily.constant(0.5), HazardFamily.power(0.5))
    assert effective_drift(onesided) == -1.0


# ---------------------------------------------------------------------------
# stable-limit constants


def test_stable_scale_boundary_values():
    assert stable_scale(1.0) == pytest.approx(np.pi / 2.0, rel=1e-15)
    assert stable_scale(2.0) == pytest.approx(0.5, rel=1e-15)
    assert stable_sigma(1.5) == pytest.approx(0.887113359660979, rel=1e-13)
    assert stable_sigma(2.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    # continuous through alpha = 1 (the raw tan-form has a pole there)
    eps = 1e-9
    assert stable_scale(1.0 + eps) == pytest.approx(stable_scale(1.0), rel=1e-6)
    for bad in (0.0, -0.5, 2.1):
        with pytest.raises(ValueError):
            stable_scale(bad)


def test_stable_skewness_formula():
    a, m, b = 0.5, 0.25, 0.4
    wp = (1 - m) ** a * (1 + b)
    wn = (1 + m) ** a * (1 - b)
    assert stable_skewness(a, m, b) == pytest.approx((wp - wn) / (wp + wn))
    assert stable_skewness(1.5, 0.0, 0.0) == 0.0
    assert stable_skewness(0.7, 0.3, 1.0) == 1.0
    assert stable_skewness(0.7, 0.3, -1.0) == -1.0
    with pytest.raises(ValueError):
        stable_skewness(0.5, 1.0, 0.0)
    # a tail balance outside [-1, 1] is refused by name; (1, 0.5, 2) once
    # gave weights 1.5 and -1.5 that summed to 0
    for bad in (2.0, -1.5, np.nan):
        with pytest.raises(ValueError, match="tail balance"):
            stable_skewness(1.0, 0.5, bad)


def test_skewness_beta_of_combs():
    assert classify_regime(constant_comb(0.3, 0.5)).beta == 0.0
    assert classify_regime(power_comb(0.5)).beta == 0.0
    assert classify_regime(power_comb(1.0, c=0.01)).beta == 0.0
    assert classify_regime(asym_comb()).beta == pytest.approx(
        0.20871215252208014, rel=1e-12)


# ---------------------------------------------------------------------------
# regime classification


def test_classify_gaussian_light_tails():
    rep = classify_regime(constant_comb(0.3, 0.5))
    assert rep.regime == "gaussian"
    assert rep.alpha == 2.0
    assert rep.drift == pytest.approx(0.25)
    assert rep.balance is None
    assert rep.beta == 0.0
    assert rep.mean_cycle == pytest.approx(10.0 / 3.0 + 2.0)
    # up-runs of length 1 or 2 only: light-tailed whatever the rule says
    ends = HazardFamily.table([0.5, 1.0], ("power", 0.5, 0.0))
    rep = classify_regime(CombSpec(ends, HazardFamily.constant(0.3)))
    assert rep.regime == "gaussian"


def test_classify_gaussian_heavy_but_square_integrable():
    rep = classify_regime(power_comb(3.0, c=2.5))
    assert rep.regime == "gaussian"
    assert rep.alpha == 2.0


def test_classify_tail_index_two_is_gaussian_with_note():
    rep = classify_regime(power_comb(2.0, c=1.2))
    assert rep.regime == "gaussian"
    assert rep.alpha == 2.0
    assert any("slowly varying" in s for s in rep.notes)


def test_classify_generic():
    rep = classify_regime(power_comb(1.5, c=1.0))
    assert rep.regime == "generic"
    assert rep.alpha == 1.5
    assert rep.drift == 0.0
    assert rep.beta == 0.0


def test_classify_cauchy():
    rep = classify_regime(power_comb(1.0, c=0.01))
    assert rep.regime == "cauchy"
    assert rep.alpha == 1.0
    assert rep.notes == ["non-integrable cauchy boundary"]


def test_classify_anomalous():
    rep = classify_regime(asym_comb())
    assert rep.regime == "anomalous"
    assert rep.alpha == 0.5
    assert rep.drift == pytest.approx(0.4, abs=1e-12)
    assert rep.beta == pytest.approx(0.20871215252208014, rel=1e-12)
    assert "anomalous" in repr(rep)


def test_classify_mixed_indices_takes_the_minimum():
    comb = CombSpec(HazardFamily.power(1.5, c=1.0),
                    HazardFamily.power(1.2, c=0.5))
    rep = classify_regime(comb)
    assert rep.regime == "generic"
    assert rep.alpha == 1.2
    assert rep.balance == -1.0


def test_classify_boundary_drift_raises():
    onesided = CombSpec(HazardFamily.constant(0.5), HazardFamily.power(0.5))
    with pytest.raises(ValueError, match="effective drift -1.*ballistic"):
        classify_regime(onesided)


@pytest.mark.parametrize("comb, sign", [
    (power_comb(0.5, a_d=0.7), "+"),            # unequal indices, tail
    (power_comb(0.7, a_d=0.5), "-"),            # balance decides
    (CombSpec(HazardFamily.power(1.0, c=0.5), HazardFamily.constant(0.2)),
     "+"),                                      # one light law, mean drift
    (power_comb(1.5, c=1.0, a_d=0.8), "-"),
], ids=["anomalous-up", "anomalous-down", "cauchy-light", "generic-anomalous"])
def test_classify_refuses_drift_one_before_the_skewness(comb, sign):
    # unequal tail indices, or one light-tailed law, put all the weight on
    # one side; the refusal names the drift, not the skewness
    with pytest.raises(ValueError, match=rf"effective drift \{sign}1: "):
        classify_regime(comb)


def test_classify_degenerate_zigzag_note():
    zig = CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0]))
    rep = classify_regime(zig)
    assert rep.regime == "gaussian"
    assert any("degenerate" in s for s in rep.notes)


# ---------------------------------------------------------------------------
# normalizers


def test_space_normalizer_light_tails():
    # Var(tau_c) = 0.75^2 * (0.7/0.09) + 1.25^2 * 2 = 7.5 exactly
    ns = NormalizerSet(constant_comb(0.3, 0.5))
    assert ns.sigma2(123.0) == pytest.approx(7.5)
    n = ns.space(10000)
    assert n == 274
    assert n * n / 7.5 >= 10000 > (n - 1) ** 2 / 7.5


def test_time_and_walk_normalizers_light_tails():
    ns = NormalizerSet(constant_comb(0.3, 0.5))
    t = ns.time(10000)
    assert t == 1875
    th = ns.theta_sum(float(ns.space(t)))
    assert th * t >= 10000
    assert ns.theta_sum(float(ns.space(t - 1))) * (t - 1) < 10000
    assert ns.walk(10000) == ns.space(t) == 119


def test_normalizer_minimality_heavy_tails():
    ns = NormalizerSet(power_comb(1.5, c=1.0))
    assert ns.walk(100000) == 1910
    n = ns.space(100000)
    assert n * n / ns.sigma2(float(n)) >= 100000
    assert (n - 1) ** 2 / ns.sigma2(float(n - 1)) < 100000


def test_anomalous_walk_normalizer_value():
    ns = NormalizerSet(power_comb(0.5))
    assert ns.walk(10_000_000) == 1667310


def test_space_normalizer_of_an_infinite_variance_comb_at_large_u():
    # T(n) ~ n^{-1/2} / sqrt(pi) in each direction gives V(t) ~
    # t^{3/2} / (3 sqrt(pi)) and Sigma^2 = 2 V, so space(u) / u^2 ->
    # 4 / (9 pi); the searches probe n ~ 1e17, where a log-gamma
    # difference loses ~n eps
    ns = NormalizerSet(power_comb(0.5))
    for u in (10 ** 7, 10 ** 8, 10 ** 9):
        assert ns.space(u) / u ** 2 == pytest.approx(4 / (9 * np.pi),
                                                     abs=1e-9)


def test_cauchy_norm_and_xi1():
    # cauchy_norm(u) = u * Xi_1(time(u)) / D(u), with Xi_1(v) = a(v) *
    # (T_u + T_d)(a(v)) and a = space; the comb's cycle mean is infinite,
    # so D(u) = (Theta_u + Theta_d)(walk(u))
    ns = NormalizerSet(power_comb(1.0, c=0.01))
    assert np.isinf(total_mean_cycle(ns.comb))
    assert ns.time(100000) == 46515
    n = ns.space(46515)
    assert n == ns.walk(100000)
    xi1 = n * ns.tail_sum(float(n))
    assert xi1 == pytest.approx(0.01999980507011555, rel=1e-12)
    assert ns.cauchy_norm(100000) == pytest.approx(930.2768780486813,
                                                   rel=1e-12)
    assert ns.cauchy_norm(100000) == pytest.approx(
        100000 * xi1 / ns.theta_sum(float(n)), rel=1e-15)


def test_sigma2_truncated_form_uses_rescaled_windows():
    ns = NormalizerSet(power_comb(0.5, c=C_BALANCED, a_d=0.5, c_d=0.0))
    m = ns.m
    up, dn = ns.comb.up_law, ns.comb.down_law
    t = 500.0
    expect = ((1 - m) ** 2 * up.truncated_second_moment(t / (1 - m))
              + (1 + m) ** 2 * dn.truncated_second_moment(t / (1 + m)))
    assert ns.sigma2(t) == pytest.approx(expect, rel=1e-14)


def test_normalizer_validation():
    ns = NormalizerSet(constant_comb(0.3, 0.5))
    with pytest.raises(ValueError):
        ns.space(0)
    with pytest.raises(ValueError):
        ns.time(-3)
    zig = CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0]))
    with pytest.raises(ValueError):
        NormalizerSet(zig)
    onesided = CombSpec(HazardFamily.constant(0.5), HazardFamily.power(0.5))
    with pytest.raises(ValueError):
        NormalizerSet(onesided)


BUNDLED = sorted(glob.glob(os.path.join(os.path.dirname(combwalk.__file__),
                                        "scenarios", "*.json")))


@pytest.mark.parametrize("path", BUNDLED,
                         ids=[os.path.basename(p)[:-5] for p in BUNDLED])
def test_normalizers_take_the_regime_reports_constants(path):
    # m, Sigma^2 and the mean cycle are derived once, by classify_regime,
    # and equal bit for bit the drift and cycle moments of the laws
    with open(path) as fh:
        comb = CombSpec.from_dict(json.load(fh)["comb"])
    rep, ns = classify_regime(comb), NormalizerSet(comb)
    assert ns.m == rep.drift == effective_drift(comb)
    assert ns.report.mean_cycle == rep.mean_cycle == total_mean_cycle(comb)
    up, dn = comb.up_law, comb.down_law
    if up.family.square_integrable and dn.family.square_integrable:
        vc = ((1.0 - ns.m) ** 2 * up.variance()
              + (1.0 + ns.m) ** 2 * dn.variance())
        assert ns.sigma2(123.0) == rep.var_cycle == vc
    else:
        assert rep.var_cycle is None


# power(a, c) needs c > a - 1 (its first hazard a / (1 + c) below 1)
_NORMALIZED_COMBS = st.one_of(
    st.builds(constant_comb, st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
    st.floats(0.5, 3.0).flatmap(lambda a: st.builds(
        power_comb, st.just(a), st.floats(max(0.0, a - 1.0) + 0.01, 5.0))),
)


@settings(max_examples=20, deadline=None)
@given(_NORMALIZED_COMBS,
       st.lists(st.floats(0.0, 9.0), min_size=2, max_size=8))
def test_normalizers_are_nondecreasing_in_u(comb, exponents):
    # u up to 1e9, where space(u) ~ u^(1/a) stays below 2^62 for a >= 1/2
    ns = NormalizerSet(comb)
    u = 10.0 ** np.sort(exponents)
    for f in (ns.space, ns.time, ns.walk):
        assert np.all(np.diff(f(u)) >= 0), f.__name__


@settings(max_examples=20, deadline=None)
@given(_NORMALIZED_COMBS,
       st.lists(st.floats(0.0, 9.0), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), max_size=3))
def test_normalizers_of_a_point_do_not_depend_on_the_others(
        comb, exponents, again):
    # the lockstep searches answer each u as its search alone would,
    # repeated points included (walk is space of time)
    ns = NormalizerSet(comb)
    u = 10.0 ** with_repeats(exponents, again)
    for f in (ns.space, ns.time):
        assert_pointwise(f, u)


@pytest.mark.parametrize("method", ["space", "time", "walk", "cauchy_norm"])
@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf,
                               np.array([10.0, np.nan]),
                               np.array([np.inf, 10.0])],
                         ids=["nan", "inf", "-inf", "array-nan", "array-inf"])
def test_normalizers_refuse_non_finite_arguments(method, u):
    # refused before any search, so nothing warns (a warning would be
    # raised as an error here)
    ns = NormalizerSet(power_comb(1.0, c=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            getattr(ns, method)(u)


# ---------------------------------------------------------------------------
# the batched normalizer search against the one-probe-at-a-time search


def scalar_smallest_int(pred):
    """Smallest n >= 1 with pred(n), by doubling then integer bisection,
    one probe at a time; a short downward scan guards against local
    non-monotonicity.  The oracle of the batched search."""
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


def answer(spec, n):
    """n >= t, with the answers at `flips` flipped and, given a salt,
    those within 64 of t drawn from a hash of n and the salt."""
    t, flips, salt = spec
    if salt is not None and abs(n - t) <= 64:
        return ((n ^ salt) * 2654435761) % (1 << 32) >= 1 << 31
    return (n >= t) != (n in flips)


def oracle(spec):
    try:
        return scalar_smallest_int(lambda n: answer(spec, n))
    except RuntimeError:
        return 0


_NEAR_POWER = st.integers(0, 63).flatmap(
    lambda e: st.integers(max(1, (1 << e) - 3), (1 << e) + 3))
_POINT = st.one_of(_NEAR_POWER, st.integers(1, 1 << 63))


@st.composite
def predicates(draw):
    t = draw(_POINT)
    near = st.one_of(st.integers(max(1, t - 40), t + 40), _NEAR_POWER)
    return (t, draw(st.frozensets(near, max_size=8)),
            draw(st.none() | st.integers(0, 1 << 32)))


@settings(max_examples=300, deadline=None)
@given(st.lists(predicates(), min_size=1, max_size=4))
def test_batched_search_answers_as_the_scalar_search(specs):
    # monotone or not, flipping near a power of two, or passing 2^62
    def pred(i, n):
        return np.array([answer(specs[r], k) for r, k in
                         zip(i.tolist(), n.tolist())], dtype=bool)

    got = _smallest_int(pred, len(specs))
    assert got.tolist() == [oracle(spec) for spec in specs]


# space, time, walk, Xi_1 = space * tail_sum(space) and cauchy_norm at
# u = 10^0 .. 10^9, from the one-probe-at-a-time search
C = C_BALANCED
PINNED_COMBS = {
    "constant(0.3, 0.5)": constant_comb(0.3, 0.5),
    "constant(0.25, 0.4)": constant_comb(0.25, 0.4),
    "power(1.5, c=1)": power_comb(1.5, c=1.0),
    "power(1.0, c=0.01)": power_comb(1.0, c=0.01),
    "power(0.5)": power_comb(0.5),
    "power(0.5, c=C, a_d=0.5, c_d=0)": power_comb(0.5, c=C, a_d=0.5, c_d=0.0),
}
PINNED = {
    'constant(0.3, 0.5)': [
        (3, 1, 3, 1.4039999999999997, 0.26324999999999993),
        (9, 3, 5, 0.3807605879999998, 1.8686249999999993),
        (28, 19, 12, 0.0012880666104536265, 3.1692212608499974),
        (87, 188, 38, 2.904348544332706e-12, 0.009257881236206493),
        (274, 1875, 119, 9.876737848197022e-41, 8.226497975285445e-14),
        (867, 18750, 375, 4.345300242904474e-132, 5.738488889678476e-52),
        (2739, 187500, 1186, 0.0, 4.2989403391133524e-176),
        (8661, 1875000, 3750, 0.0, 0.0),
        (27387, 18750000, 11859, 0.0, 0.0),
        (86603, 187500000, 37500, 0.0, 0.0),
    ],
    'constant(0.25, 0.4)': [
        (4, 1, 4, 1.7840249999999997, 0.27446538461538456),
        (12, 2, 6, 0.40623761232094047, 2.0735493749999994),
        (36, 16, 15, 0.0011445872310168342, 3.19237984493863),
        (114, 154, 45, 6.514616846176361e-13, 0.016522468232795014),
        (358, 1539, 141, 6.695998086416848e-43, 5.247396656551194e-13),
        (1131, 15385, 444, 5.59437405276708e-139, 2.299696686073123e-49),
        (3576, 153847, 1403, 0.0, 1.1094222022928325e-167),
        (11306, 1538462, 4435, 0.0, 0.0),
        (35751, 15384616, 14023, 0.0, 0.0),
        (113054, 153846154, 44344, 0.0, 0.0),
    ],
    'power(1.5, c=1)': [
        (2, 1, 2, 0.5000000000000002, 0.12500000000000006),
        (9, 4, 5, 0.3338470458984373, 1.0253906249999996),
        (44, 29, 18, 0.16585750164059312, 6.255502084968591),
        (214, 267, 87, 0.07673081473827027, 29.857128637290216),
        (1022, 2572, 408, 0.035257519542200515, 139.273594899411),
        (4803, 25327, 1910, 0.016277850339849714, 645.0934646544767),
        (22427, 251504, 8909, 0.007534382820012098, 2988.3107005481293),
        (104391, 2506948, 41445, 0.003492358751537222, 13856.297762286087),
        (485170, 25032183, 192577, 0.0016199704135891955, 64282.13943116621),
        (2253321, 250149239, 894312, 0.000751697854028456, 298297.760291223),
    ],
    'power(1.0, c=0.01)': [
        (2, 1, 2, 0.01990049751243783, 0.009852697297824613),
        (5, 5, 4, 0.019960079840319375, 0.09796776937229484),
        (16, 49, 11, 0.019987507807620254, 0.9708064231255548),
        (57, 481, 37, 0.01999649184353624, 9.598158334147497),
        (276, 4734, 158, 0.019999275388572896, 94.67270899087545),
        (2101, 46515, 1026, 0.01999990480768775, 930.2768780491695),
        (20108, 455829, 9223, 0.01999999005371493, 9116.567512424772),
        (200111, 4465800, 89426, 0.01999999900055476, 89315.97067273298),
        (2000113, 43766219, 875437, 0.019999999900005665, 875324.3594214856),
        (20000116, 429088604, 8581887, 0.019999999990000072, 8581772.065034725),
    ],
    'power(0.5)': [
        (2, 1, 2, 1.5000000000000002, 0.5),
        (18, 3, 4, 4.754181584576139, 4.999999999999999),
        (1419, 11, 21, 42.50186621940668, 50.000000000000014),
        (141475, 35, 177, 424.41871575344345, 499.99999999996953),
        (14147110, 109, 1685, 4244.1323703919015, 5000.000000008469),
        (1414710610, 344, 16745, 42441.31822516939, 49999.99999999999),
        (141471060530, 1086, 166855, 424413.181583819, 500000.0),
        (14147106052617, 3433, 1667310, 4244131.815784451, 4999999.999999999),
        (1414710605261297, 10855, 16669684, 42441318.15783883, 50000000.00000001),
        (141471060526129119, 34324, 166672292, 424413181.5783876, 500000000.00000006),
    ],
    'power(0.5, c=C, a_d=0.5, c_d=0)': [
        (1, 1, 1, 1.2972059978898598, 0.6486029989449298),
        (1, 5, 1, 1.2972059978898598, 6.486029989449297),
        (3161, 14, 60, 105.71300859709311, 54.622678776831236),
        (316318, 23, 165, 1057.7058005768429, 528.9281839105316),
        (31631998, 70, 1548, 10577.112227729029, 5097.631274134534),
        (3163200006, 219, 15169, 105771.12783323445, 50314.9697967601),
        (316320000763, 689, 150161, 1057711.2788160474, 501004.11932304327),
        (31632000076534, 2175, 1496389, 10577112.788220713, 5003183.870722732),
        (3163200007653722, 6877, 14959760, 105771127.88221464, 50010072.70242797),
        (316320000765373076, 21743, 149542824, 1057711278.822148, 500031861.5420266),
    ],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(PINNED))
def test_normalizers_equal_the_scalar_search(name):
    # the bundled scenarios' combs and the benchmark's
    ns = NormalizerSet(PINNED_COMBS[name])

    def xi1(v):
        n = ns.space(v)
        return n * ns.tail_sum(float(n))

    methods = (ns.space, ns.time, ns.walk, xi1, ns.cauchy_norm)
    for k, row in enumerate(PINNED[name]):
        for f, want in zip(methods, row):
            got = f(10 ** k)
            assert type(got) is type(want) and got == want, (f, k)


def test_space_rounds_as_the_scalar_search():
    # past 2^53 not every integer is a double: the scalar search squares
    # n exactly before it rounds, and compares an integer u exactly
    ns = NormalizerSet(constant_comb(0.3, 0.5))
    for u, n in ((2.3284899251731064e+35, 1321501965144142129),
                 (3.1835912524366026e+33, 154521630826478510),
                 (21411991418372523819009, 400736741064),
                 (19202068382395496660993, 379493758669)):
        assert scalar_smallest_int(
            lambda k: k * k / ns.sigma2(float(k)) >= u) == n
        assert ns.space(u) == n


@pytest.mark.filterwarnings("error")
def test_search_fails_only_where_the_scalar_search_does():
    # space(u) ~ 4 u^2 / (9 pi) passes 2^62 above u ~ 5.7e9
    ns = NormalizerSet(power_comb(0.5))
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.space(2 ** 33)
    # time's doubling also asks 2^33 .. 2^39, whose space searches pass
    # 2^62, but the scalar search stops at 2^32
    assert ns.time(10 ** 19) == 3432342124
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.time(10 ** 20)
    assert ns.space([10, 2 ** 20]).tolist() == [18, ns.space(2 ** 20)]
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.space([10, 2 ** 33])
    # the doubling's last probe is 2^62
    assert _smallest_int(lambda i, n: n >= 1 << 62, 1).tolist() == [1 << 62]
    assert _smallest_int(lambda i, n: n > 1 << 62, 1).tolist() == [0]


# ---------------------------------------------------------------------------
# cycle-variable diagnostics: independent oracles for NormalizerSet, from
# the tail-equivalence lemma (P(|tau_c| > t) ~ h * tail_sum(t) and the
# truncated second moment of tau_c ~ Sigma^2(t))


def cycle_tail(comb, t):
    """P(|tau_c| > t) by conditioning each sign on the opposite run of
    length j <= 4t + 10^4, with a rigorous truncation bound.  Returns
    (value, error_bound)."""
    m = effective_drift(comb)
    up, dn = comb.up_law, comb.down_law
    j_max = int(4 * t) + 10_000
    j = np.arange(1, j_max + 1, dtype=float)
    pmf_d = dn.tail(j - 1) - dn.tail(j)
    pos = np.sum(pmf_d * up.tail((t + (1.0 + m) * j) / (1.0 - m)))
    pmf_u = up.tail(j - 1) - up.tail(j)
    neg = np.sum(pmf_u * dn.tail((t + (1.0 - m) * j) / (1.0 + m)))
    err = (dn.tail(float(j_max)) * up.tail(t / (1.0 - m))
           + up.tail(float(j_max)) * dn.tail(t / (1.0 + m)))
    return float(pos + neg), float(err)


def cycle_truncated_second_moment(comb, t):
    """E[tau_c^2 1{|tau_c| <= t}], conditioning on the down run of length
    j <= 4t + 10^4.  Returns (value, error_bound)."""
    m = effective_drift(comb)
    up, dn = comb.up_law, comb.down_law
    j_max = int(4 * t) + 10_000
    j = np.arange(1, j_max + 1, dtype=float)
    pmf_d = dn.tail(j - 1) - dn.tail(j)
    lo = ((1.0 + m) * j - t) / (1.0 - m)
    hi = ((1.0 + m) * j + t) / (1.0 - m)
    lo_i = np.maximum(np.ceil(lo) - 1.0, 0.0)  # window is {lo <= tau_u <= hi}
    s0 = up.tail(lo_i) - up.tail(hi)
    th_hi, th_lo = up.truncated_mean(hi), up.truncated_mean(lo_i)
    s1 = (th_hi - np.floor(hi) * up.tail(hi)) - (th_lo - lo_i * up.tail(lo_i))
    s2 = up.truncated_second_moment(hi) - up.truncated_second_moment(lo_i)
    am, bm = 1.0 - m, 1.0 + m
    inner = am * am * s2 - 2.0 * am * bm * j * s1 + bm * bm * j * j * s0
    val = float(np.sum(pmf_d * inner))
    err = float(dn.tail(float(j_max)) * t * t * up.tail(max(lo[-1], 0.0)))
    return val, err


def equivalence_checks(comb, t):
    """Finite-t diagnostics behind the scaling arguments.

    Returns a dict with the cycle/sum tail ratio and its limit constant
    h = ((1-m)^a (1+b) + (1+m)^a (1-b)) / 2, and the ratio of the
    truncated second moment of tau_c to Sigma^2(t) (limit 1).
    """
    rep = classify_regime(comb)
    m = rep.drift
    ns = NormalizerSet(comb)
    out = {}
    if rep.balance is not None and rep.regime != "gaussian":
        ct, err = cycle_tail(comb, t)
        ts = ns.tail_sum(t)
        out["tail_ratio"] = ct / ts
        out["tail_ratio_err"] = err / ts
        a, b = rep.alpha, rep.balance
        out["tail_ratio_limit"] = ((1.0 - m) ** a * (1.0 + b)
                                   + (1.0 + m) ** a * (1.0 - b)) / 2.0
    v, verr = cycle_truncated_second_moment(comb, t)
    out["v_ratio"] = v / ns.sigma2(t)
    out["v_ratio_err"] = verr / ns.sigma2(t)
    return out


def test_cycle_tail_against_simulation():
    comb = constant_comb(0.3, 0.5)
    m = effective_drift(comb)
    rng = np.random.default_rng(9)
    n = 200000
    tc = ((1 - m) * comb.up_law.invert(rng.random(n))
          - (1 + m) * comb.down_law.invert(rng.random(n)))
    for t in (2.0, 5.0, 12.0):
        val, err = cycle_tail(comb, t)
        emp = np.mean(np.abs(tc) > t)
        se = np.sqrt(emp * (1 - emp) / n)
        assert abs(val - emp) < 5 * se + err + 1e-9
    assert err < 1e-12


def test_cycle_truncated_second_moment_against_simulation():
    comb = power_comb(1.5, c=1.0)
    rng = np.random.default_rng(21)
    n = 400000
    tc = (comb.up_law.invert(rng.random(n)).astype(float)
          - comb.down_law.invert(rng.random(n)))
    t = 10.0
    val, err = cycle_truncated_second_moment(comb, t)
    kept = tc[np.abs(tc) <= t] ** 2
    emp = kept.sum() / n
    se = np.sqrt(np.var(np.where(np.abs(tc) <= t, tc ** 2, 0.0)) / n)
    assert abs(val - emp) < 5 * se + err
    assert err < 1e-6


def test_equivalence_checks_symmetric():
    out = equivalence_checks(power_comb(0.5), 30000.0)
    assert out["tail_ratio_limit"] == pytest.approx(1.0)
    assert abs(out["tail_ratio"] - 1.0) < 0.01
    assert abs(out["v_ratio"] - 1.0) < 0.02
    assert out["tail_ratio_err"] < 0.01
    closer = equivalence_checks(power_comb(0.5), 3000.0)
    assert abs(closer["tail_ratio"] - 1.0) > abs(out["tail_ratio"] - 1.0)


def test_equivalence_checks_skewed_limit():
    comb = power_comb(0.5, c=C_BALANCED, a_d=0.5, c_d=0.0)
    out = equivalence_checks(comb, 30000.0)
    m, b = 0.4, 0.4
    h = ((1 - m) ** 0.5 * (1 + b) + (1 + m) ** 0.5 * (1 - b)) / 2.0
    assert out["tail_ratio_limit"] == pytest.approx(h, abs=1e-12)
    assert abs(out["tail_ratio"] - h) < 0.02


def test_equivalence_checks_tail_index_two():
    comb = power_comb(2.0, c=1.2)
    ratios = [equivalence_checks(comb, t)["v_ratio"]
              for t in (1000.0, 10000.0, 100000.0)]
    # slowly varying variance: the ratio creeps toward 1 logarithmically
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[2] > 0.7
    gauss = equivalence_checks(constant_comb(0.3, 0.5), 200.0)
    assert gauss["v_ratio"] == pytest.approx(1.0, abs=5e-3)
    assert "tail_ratio" not in gauss
