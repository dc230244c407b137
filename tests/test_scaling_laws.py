import numpy as np
import pytest

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
    tc = ((1 - m) * comb.up_law.sample(rng, size=n)
          - (1 + m) * comb.down_law.sample(rng, size=n))
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
    tc = (comb.up_law.sample(rng, size=n).astype(float)
          - comb.down_law.sample(rng, size=n))
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
