"""combwalk: persistent random walks with variable-length memory.

A walk on the integers keeps moving in its current direction with a
probability that depends on how long it has been doing so.  When those
persistence times have heavy tails the rescaled walk stops being
Brownian: depending on the tail index it converges to a stable process,
a Cauchy process with slowly-varying normalization, or -- when runs
have infinite mean -- a 1-Lipschitz "telegraph on a subordinator" whose
one-time law is an arcsine-Lamperti distribution.  This package builds
the walks, computes every normalizer in closed form, simulates the
limit objects, and ships statistical checks that verify each regime
end to end.
"""

from .comb_model import (CombSpec, HazardFamily, PersistenceLaw,
                         constant_comb, power_comb)
from .scaling_laws import (NormalizerSet, RegimeReport, classify_regime,
                           effective_drift, mean_drift, stable_scale,
                           stable_sigma, stable_skewness, tail_balance,
                           total_mean_cycle)
from .walk_sim import Trajectory, simulate_prw, walk_marginals
from .stable_proc import (levy_symbol, sample_positive_stable, sample_stable,
                          stable_cdf_interp)
from .lamperti_limit import (DensityEvaluator, LabelledSubordinatorPath,
                             cdf_f, default_jump_cut, density_f,
                             double_gf_limit, flt_f,
                             labelled_subordinator, lamperti_recursion,
                             sample_anomalous_ensemble, sample_marginal,
                             sample_ratio)
from .stat_verify import (HillResult, VerificationScenario,
                          empirical_char_fn, format_report, hill_estimate,
                          ks_distance, markov_kernel_check, verify_regime)

__version__ = "0.1.0"
