"""The four benchmark workloads: their inputs, the timed operations of one
pass, and the untimed checks of each operation's output.

Every operation looks the package's functions up through their module at
call time (``stat_verify.verify_regime``, never a name bound at import), so
the tracer's wrappers see every call.

Seeds.  Workload seed 0 reproduces the pinned seeds of the bundled scenarios
and acceptance tests; any other seed derives each operation's seed from
(seed, operation name).
"""

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

import combwalk
from combwalk import cli, comb_model, lamperti_limit, stat_verify, walk_sim

SCENARIOS = ("determinism-smoke", "gaussian-smoke", "anomalous-smoke",
             "cauchy-smoke", "generic-smoke", "forced-failure")
EXPECTED_FAIL = {"forced-failure"}      # negative control: verify must FAIL

MARGINAL_U = 100_000
MARGINAL_LANES = 4096
MARGINAL_KS_TOL = 0.04      # KS noise at 4096 lanes ~0.014; exceeded p ~1e-5
# (regime, comb, pinned seed) -- the combs of acceptance tests 05, 06, 03
MARGINAL_COMBS = (
    ("gaussian", lambda: comb_model.constant_comb(0.3, 0.5), 16),
    ("generic", lambda: comb_model.power_comb(1.5, c=1.0), 2),
    ("anomalous", lambda: comb_model.power_comb(0.5), 3),
)

SIM_HORIZON = 1_000_000
ENSEMBLE = dict(alpha=0.5, b=0.0, n=20_000, threads=2, seed=5, ks_tol=0.025)
RECURSION_N = 2000
RATIO = dict(alpha=0.5, b=0.4, n=100_000, seed=7, ks_tol=0.01)
PATH = dict(alpha=0.5, b=0.3, t_max=3.0, n=5000, seed=4)


def op_seed(seed, op, pinned):
    """The pinned seed for workload seed 0, else one derived from both."""
    if seed == 0:
        return pinned
    h = hashlib.sha256(f"combwalk-bench/{seed}/{op}".encode()).digest()
    return int.from_bytes(h[:4], "little")


def sha256(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path):
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


def run_cli(argv):
    """combwalk's CLI in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Op:
    """One operation of a pass.  ``run()`` is timed.  ``digest(output)`` and
    ``check(output) -> (ok, detail)`` are not; the check runs once per
    distinct digest."""

    def __init__(self, name, run, digest, check):
        self.name = name
        self.run = run
        self.digest = digest
        self.check = check


class Workload:
    def __init__(self, ops, baseline=None):
        self.ops = ops
        self.baseline = baseline        # traced runs only: () -> dict


# ---------------------------------------------------------------------------
# verify-sweep


def _report_digest(report):
    stable = {k: v for k, v in report.items() if k != "runtime_s"}
    return sha256(json.dumps(stable, sort_keys=True))


def _verify_op(name, scenario, seed):
    expect_pass = name not in EXPECTED_FAIL

    def run():
        report = stat_verify.verify_regime(scenario, seed=seed, threads=1)
        stat_verify.format_report(report)
        return report

    def check(report):
        worst = max(c["ks"] / c["tol"] for c in report["checks"])
        return (report["pass"] == expect_pass,
                f"pass={report['pass']} worst stat/tol={worst:.3f}")

    return Op(f"verify/{name}", run, _report_digest, check)


def _text_digest(out):
    return sha256(out[1])


def _selftest_op():
    def check(out):
        rc, text = out
        return (rc == 0 and text.rstrip().endswith("selftest: PASS"),
                f"exit {rc}")

    return Op("selftest", lambda: run_cli(["selftest"]), _text_digest, check)


def verify_sweep(seed, workdir):
    root = os.path.join(os.path.dirname(combwalk.__file__), "scenarios")
    ops = []
    for name in SCENARIOS:
        scenario = stat_verify.VerificationScenario.from_json(
            os.path.join(root, name + ".json"))
        ops.append(_verify_op(name, scenario,
                              op_seed(seed, f"verify/{name}", None)))
    ops.append(_selftest_op())
    return Workload(ops)


# ---------------------------------------------------------------------------
# marginals-1e5


def _marginal_reference(comb, regime):
    """[(rescaling, limit CDF)] of the marginals at u/2 and u."""
    from scipy.special import ndtr
    from combwalk import scaling_laws, stable_proc
    rep = scaling_laws.classify_regime(comb)
    if rep.regime != regime:
        raise ValueError(f"comb classifies as {rep.regime}, not {regime}")
    ns = scaling_laws.NormalizerSet(comb)
    m, u, a = ns.m, MARGINAL_U, rep.alpha
    if regime == "gaussian":
        lam = ns.walk(u)
        return [(lambda S, t=t: (S - m * u * t) / lam,
                 lambda x, t=t: ndtr(x / np.sqrt(t))) for t in (0.5, 1.0)]
    if regime == "generic":
        lam = ns.walk(u)
        # one grid serves both times: F_t(x) = F_1(x / t^(1/a)) for a != 1
        cdf1 = stable_proc.stable_cdf_interp(a, rep.beta,
                                             scaling_laws.stable_sigma(a))
        return [(lambda S, t=t: (S - m * u * t) / lam,
                 lambda x, t=t: cdf1(x / t ** (1.0 / a))) for t in (0.5, 1.0)]
    return [(lambda S: S / u,
             lambda x, t=t: lamperti_limit.cdf_f(a, m, t, x))
            for t in (0.5, 1.0)]


def _array_digest(x):
    return sha256(x.tobytes())


def _marginal_op(name, make_comb, seed):
    comb = make_comb()
    targets = [MARGINAL_U // 2, MARGINAL_U]

    def run():
        return walk_sim.walk_marginals(comb, targets, MARGINAL_LANES, seed,
                                       threads=1)

    def check(S):
        ks = [stat_verify.ks_distance(scale(S[:, j]), cdf) for j, (scale, cdf)
              in enumerate(_marginal_reference(comb, name))]
        return (S.shape == (MARGINAL_LANES, 2) and max(ks) < MARGINAL_KS_TOL,
                "KS " + " ".join(f"{k:.4f}" for k in ks))

    return Op(f"walk_marginals/{name}", run, _array_digest, check)


def marginals(seed, workdir):
    return Workload([
        _marginal_op(name, make, op_seed(seed, f"walk_marginals/{name}", s))
        for name, make, s in MARGINAL_COMBS])


# ---------------------------------------------------------------------------
# simulate-roundtrip


def simulate_roundtrip(seed, workdir):
    comb_path = os.path.join(workdir, "comb_power_1.5_1.json")
    comb_model.power_comb(1.5, c=1.0).to_json(comb_path)
    traj = os.path.join(workdir, "walk_trajectory.csv")
    runs = os.path.join(workdir, "walk_runs.csv")
    s = op_seed(seed, "simulate", 0)

    def simulate():
        return run_cli(["simulate", "--comb", comb_path, "--horizon",
                        str(SIM_HORIZON), "--seed", str(s),
                        "--trajectory", traj, "--runs", runs])

    def digest_simulate(out):
        # stdout names the output files, whose directory differs per process
        return sha256(out[1].replace(workdir, "<workdir>"), file_sha256(traj),
                      file_sha256(runs))

    def check_simulate(out):
        rc, text = out
        rows = count_lines(traj) - 4            # 3 comment lines + header
        mb = (os.path.getsize(traj) + os.path.getsize(runs)) / 1e6
        return (rc == 0 and rows == SIM_HORIZON
                and f"steps: {SIM_HORIZON}" in text,
                f"exit {rc}, {rows} rows, {mb:.1f} MB written")

    def check_estimate(out):
        rc, text = out
        return rc == 0 and "implied regime : generic" in text, f"exit {rc}"

    return Workload([
        Op("simulate", simulate, digest_simulate, check_simulate),
        Op("estimate", lambda: run_cli(["estimate", "--trajectory", traj]),
           _text_digest, check_estimate)])


# ---------------------------------------------------------------------------
# limit-side


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def limit_side(seed, workdir):
    E, R, P = ENSEMBLE, RATIO, PATH
    ens_csv = os.path.join(workdir, "ensemble.csv")
    path_csv = os.path.join(workdir, "path.csv")
    ens_seed = op_seed(seed, "ensemble", E["seed"])
    ratio_seed = op_seed(seed, "ratio", R["seed"])
    path_seed = op_seed(seed, "path", P["seed"])
    rec_comb = comb_model.power_comb(0.5)

    def ensemble():
        return run_cli(["sample-limit", "--kind", "ensemble",
                        "--alpha", str(E["alpha"]), "--b", str(E["b"]),
                        "--n", str(E["n"]), "--seed", str(ens_seed),
                        "--threads", str(E["threads"]), "--out", ens_csv])

    def check_ensemble(out):
        X = _load_csv(ens_csv)
        ks = stat_verify.ks_distance(X[:, 0], lambda x: lamperti_limit.cdf_f(
            E["alpha"], E["b"], 1.0, x))
        return (out[0] == 0 and X.shape == (E["n"], 3) and ks < E["ks_tol"]
                and bool(np.all(X[:, 1:] >= 0.0)),
                f"exit {out[0]}, KS {ks:.4f}")

    def recursion():
        return lamperti_limit.lamperti_recursion(rec_comb, RECURSION_N)

    def check_recursion(p):
        n = RECURSION_N
        rows = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        cum = np.cumsum(p[n])
        F = 2.0 / np.pi * np.arcsin(np.sqrt(np.arange(n + 1) / n))
        ks = max(float(np.max(np.abs(cum - F))),
                 float(np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - F))))
        return (p.shape == (n + 1, n + 1) and rows < 1e-10 and ks < 0.05,
                f"row-sum error {rows:.1e}, KS vs arcsine {ks:.4f}")

    def ratio():
        return lamperti_limit.sample_ratio(
            R["alpha"], R["b"], np.random.default_rng(ratio_seed),
            size=R["n"])

    def check_ratio(x):
        ks = stat_verify.ks_distance(x, lambda v: lamperti_limit.cdf_f(
            R["alpha"], R["b"], 1.0, v))
        return ks < R["ks_tol"], f"KS {ks:.4f}"

    def path():
        return run_cli(["sample-limit", "--kind", "path",
                        "--alpha", str(P["alpha"]), "--b", str(P["b"]),
                        "--t-max", str(P["t_max"]), "--n", str(P["n"]),
                        "--seed", str(path_seed), "--out", path_csv])

    def check_path(out):
        X = _load_csv(path_csv)
        slope = float(np.max(np.abs(np.diff(X[:, 1])) / np.diff(X[:, 0])))
        return (out[0] == 0 and X.shape == (P["n"], 4) and X[0, 1] == 0.0
                and slope <= 1.0 + 1e-9,
                f"exit {out[0]}, max slope {slope:.6f}")

    def baseline():
        """The ensemble at threads=1: its wall time, and whether its arrays
        equal the threaded run's CSV (exactly: the CSV carries 17 digits)."""
        t0 = time.perf_counter()
        S, A, H = lamperti_limit.sample_anomalous_ensemble(
            E["alpha"], E["b"], E["n"], ens_seed, threads=1)
        wall = time.perf_counter() - t0
        same = bool(np.array_equal(np.column_stack([S, A, H]),
                                   _load_csv(ens_csv)))
        return {"s": wall, "threads": E["threads"], "same_as_threaded": same}

    return Workload([
        Op("sample-limit/ensemble", ensemble,
           lambda out: file_sha256(ens_csv), check_ensemble),
        Op("lamperti_recursion", recursion, _array_digest, check_recursion),
        Op("sample_ratio", ratio, _array_digest, check_ratio),
        Op("sample-limit/path", path,
           lambda out: file_sha256(path_csv), check_path)],
        baseline=baseline)


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "marginals-1e5": marginals,
    "simulate-roundtrip": simulate_roundtrip,
    "limit-side": limit_side,
}


def warm_up():
    """First-call costs users pay once per process: lazy scipy imports and
    the first levy_stable, walk and density evaluations, at tiny sizes."""
    from combwalk import stable_proc
    stat_verify.verify_regime(stat_verify.VerificationScenario(
        comb_model.constant_comb(0.3, 0.5), "gaussian", 100, 1000, [1.0], 0.5))
    stable_proc.stable_cdf_interp(1.5, 0.0, 1.0, npts=5)
    lamperti_limit.DensityEvaluator(0.5, 0.0, nhalf=4)


def clear_caches():
    """Empty the package's memo caches, so every pass does the work of a
    fresh process, as each CLI invocation does."""
    for mod in (comb_model, walk_sim, lamperti_limit, stat_verify, cli,
                combwalk.scaling_laws, combwalk.stable_proc):
        for obj in list(vars(mod).values()):
            for f in (obj, getattr(obj, "__wrapped__", None)):
                if callable(getattr(f, "cache_clear", None)):
                    f.cache_clear()


def build(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
