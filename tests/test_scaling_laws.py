import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert any("cauchy boundary" in s for s in rep.notes)


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
    with pytest.raises(ValueError):
        classify_regime(onesided)


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


def test_cauchy_norm_and_xi1():
    ns = NormalizerSet(power_comb(1.0, c=0.01))
    assert ns.time(100000) == 46515
    assert ns.xi1(46515) == pytest.approx(0.01999980507011555, rel=1e-12)
    assert ns.cauchy_norm(100000) == pytest.approx(930.2768780486813,
                                                   rel=1e-12)
    n = ns.space(46515)
    assert ns.xi1(46515) == pytest.approx(n * ns.tail_sum(float(n)), rel=1e-15)


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


@pytest.mark.parametrize("method", ["space", "time", "walk", "xi1",
                                    "cauchy_norm"])
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


# space, time, walk, xi1 and cauchy_norm at u = 10^0 .. 10^9, from the
# one-probe-at-a-time search; None: the search exceeds 2^62
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
        (2, 1, 2, 0.5000000000000001, 0.12500000000000003),
        (9, 4, 5, 0.33384704589843717, 1.0253906250000002),
        (44, 29, 18, 0.1658575016405931, 6.255502084968591),
        (214, 267, 87, 0.07673081473826227, 29.857128637293005),
        (1022, 2572, 408, 0.03525751954219704, 139.27359489939818),
        (4803, 25327, 1910, 0.01627785033979004, 645.0934646552848),
        (22427, 251504, 8909, 0.007534382820065083, 2988.3107005015327),
        (104391, 2506948, 41445, 0.0034923587514445885, 13856.29776261344),
        (485170, 25032183, 192577, 0.0016199704134226144, 64282.139398773485),
        (2253321, 250149239, 894312, 0.0007516978532134353, 298297.76045809564),
    ],
    'power(1.0, c=0.01)': [
        (2, 1, 2, 0.019900497512437828, 0.009852697297824614),
        (5, 5, 4, 0.019960079840319386, 0.09796776937229487),
        (16, 49, 11, 0.019987507807620365, 0.9708064231255554),
        (57, 481, 37, 0.01999649184353669, 9.59815833414755),
        (276, 4734, 158, 0.019999275388572296, 94.67270899087522),
        (2101, 46515, 1026, 0.019999904807679172, 930.2768780486819),
        (20108, 455829, 9223, 0.019999990055196724, 9116.567512263093),
        (200111, 4465800, 89426, 0.019999999013266836, 89315.97066420689),
        (2000113, 43766219, 875437, 0.01999999999976302, 875324.359420733),
        (20000114, 429088604, 8581887, 0.020000000917642827, 8581772.157612922),
    ],
    'power(0.5)': [
        (2, 1, 2, 1.5000000000000002, 0.5),
        (18, 3, 4, 4.754181584576137, 4.999999999999998),
        (1419, 11, 21, 42.501866219370115, 49.99999999999999),
        (141475, 35, 177, 424.41871584116507, 499.9999999999941),
        (14147111, 109, 1685, 4244.132706777854, 5000.000000004167),
        (1414700898, 344, 16745, 42441.20305308519, 49999.99999921565),
        (141168713085, 1086, 166855, 424079.9734455909, 500000.0001852797),
        (14931189565350, 3433, 1667310, 4593351.918745266, 5000000.005545547),
        (134103314528767, 10855, 16669680, 6734666.191284072, 49999999.69540275),
        (None, 34324, 166672065, None, 500000155.5707545),
    ],
    'power(0.5, c=C, a_d=0.5, c_d=0)': [
        (1, 1, 1, 1.29720599788986, 0.6486029989449297),
        (1, 5, 1, 1.29720599788986, 6.486029989449297),
        (3161, 14, 60, 105.71300859709645, 54.62267877683126),
        (316318, 23, 165, 1057.7058008843921, 528.9281839105303),
        (31632017, 70, 1548, 10577.114965061788, 5097.631274131914),
        (3163325446, 219, 15169, 105773.84599570258, 50314.969795584075),
        (319035606782, 689, 150161, 1062766.5235828885, 501004.1193039889),
        (96791600072162, 2175, 1496389, 36215385.78969308, 5003183.870912617),
        (None, 6877, 14959762, None, 50010071.524818726),
        (None, 21743, 149542396, None, 500031908.5687862),
    ],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(PINNED))
def test_normalizers_equal_the_scalar_search(name):
    # the bundled scenarios' combs and the benchmark's
    ns = NormalizerSet(PINNED_COMBS[name])
    for k, row in enumerate(PINNED[name]):
        for f, want in zip(("space", "time", "walk", "xi1", "cauchy_norm"),
                           row):
            if want is None:
                with pytest.raises(RuntimeError, match="exceeded 2"):
                    getattr(ns, f)(10 ** k)
            else:
                got = getattr(ns, f)(10 ** k)
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
    ns = NormalizerSet(power_comb(0.5))
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.space(2 ** 30)
    # time's doubling also asks 2^25 .. 2^31, whose space searches pass
    # 2^62, but the scalar search stops at 2^24
    assert ns.time(2 * 10 ** 14) == 13041354
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.time(10 ** 16)
    assert ns.space([10, 2 ** 20]).tolist() == [18, ns.space(2 ** 20)]
    with pytest.raises(RuntimeError, match="exceeded 2"):
        ns.space([10, 2 ** 30])
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
