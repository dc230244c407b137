"""Command-line front end: simulation, limit sampling, density tables,
trajectory estimation, and verification scenarios.

Exit codes: 0 success / criteria pass, 1 criterion failure, 2 usage or
config error.  Every command is a pure function of (flags, input
files); the seed defaults to 0 (verify: the scenario's seed) and is
recorded in every output.  CSV floats carry 17 significant digits so files
round-trip losslessly.
"""

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
import warnings

import numpy as np

from . import lamperti_limit
from .comb_model import CombSpec
from .stable_proc import sample_positive_stable, sample_stable
from .stat_verify import (VerificationScenario, _check_k_frac, format_report,
                          hill_estimate, verify_regime)
from .walk_sim import simulate_prw, walk_marginals


class _CliError(Exception):
    """A refused input or output; main reports it and exits 2."""


def _fmt(x):
    return format(float(x), ".17g")


def _load_comb(path):
    try:
        return CombSpec.from_json(path)
    except OSError as e:
        raise _CliError(f"cannot read comb file: {e}")
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as e:
        raise _CliError(f"bad comb file {path}: {e}")


_CSV_CHUNK = 1 << 16     # rows of CSV text built at a time


@contextlib.contextmanager
def _output(path):
    """The output stream for `path` (stdout for None or "-"), opened
    before a long run so that a path that cannot be written fails at
    once.  The file is opened without truncating: an existing file keeps
    its text until _rewound starts the output, and a file this call
    created is removed if the run fails."""
    if path in (None, "-"):
        yield sys.stdout
        return
    made = not os.path.exists(path)
    try:
        fh = open(path, "a")
    except OSError as e:
        raise _CliError(f"cannot open output file: {e}")
    try:
        with fh:
            yield fh
    except BaseException:
        if made:
            os.remove(path)
        raise


def _rewound(out):
    """`out` emptied if it is a regular file that _output opened (pipes
    and devices cannot be truncated)."""
    if out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.truncate(0)
    return out


def _write_csv(out, preamble, names, *cols):
    """Write `preamble`, the header row `names` and one row per index of
    the equal-length columns to the stream `out` from _output: integer
    columns as %d, floats as %.17g (the text of _fmt), the rest as %s.

    Rows go _CSV_CHUNK at a time.  When every column is an integer or
    one-character ASCII text (simulate's files), _text_rows builds each
    chunk's text with numpy; otherwise one % string formats it (Python's
    float formatter is the only repr-exact one)."""
    cols = [np.asarray(c) for c in cols]
    if all(c.dtype.kind in "iu" or c.dtype == "U1"
           and c.view(np.uint32).max(initial=0) < 128 for c in cols):
        rows = _text_rows
    else:
        row = ",".join("%d" if c.dtype.kind in "iu" else
                       "%.17g" if c.dtype.kind == "f" else "%s"
                       for c in cols) + "\n"

        def rows(chunk):
            chunk = [c.tolist() for c in chunk]
            return (row * len(chunk[0])
                    % tuple(itertools.chain.from_iterable(zip(*chunk))))
    out = _rewound(out)
    out.write(preamble + ",".join(names) + "\n")
    for lo in range(0, len(cols[0]), _CSV_CHUNK):
        out.write(rows([c[lo:lo + _CSV_CHUNK] for c in cols]))
    out.flush()     # before a later _rewound of the same file empties it


# r = 0..99 as two ASCII digits where more digits follow on the left;
# + 100 as the leading pair of a number (no leading zero, and 0 is no
# digit at all); + 200 as the leading pair that is also the last (0 is 0)
_PAIRS = np.tile(np.array([divmod(r, 10) for r in range(100)], np.uint8)
                 + ord("0"), (3, 1))
_PAIRS[100:110, 0] = _PAIRS[200:210, 0] = 0
_PAIRS[100, 1] = 0
_PAIRS = _PAIRS.view(np.uint16).reshape(-1)     # one pair per uint16


def _text_rows(chunk):
    """The CSV text of the rows of integer and one-character ASCII
    columns, built in one uint8 matrix.  A field is a separator byte
    (none before the first), a head byte (the character, or the sign of
    an integer) and the integer's digits right-aligned in pairs, one per
    uint16; "\n" and a 0 end the row.  The bytes that no character
    fills stay 0 and are dropped."""
    fields = []
    for c in chunk:
        if c.dtype.kind == "U":
            fields.append((c.view(np.uint32), None, 0))
            continue
        head = 0
        if c.dtype.kind == "i":
            head = (c < 0) * np.uint8(ord("-"))
            # abs wraps -2^63 to itself, whose uint64 bits are 2^63
            mag = np.abs(c, dtype=np.int64).view(np.uint64)
        else:
            mag = c.astype(np.uint64)
        fields.append((head, mag, len(str(mag.max())) + 1 >> 1))
    M = np.zeros((len(chunk[0]), 2 + sum(2 + 2 * n for _, _, n in fields)),
                 dtype=np.uint8)
    M16 = M.view(np.uint16)
    at = 0                                  # in uint16
    for head, v, pairs in fields:
        if at:
            M[:, 2 * at] = ord(",")
        M[:, 2 * at + 1] = head
        at += 1 + pairs
        for k in range(1, pairs + 1):
            q = v // 100
            r = q * 100
            np.subtract(v, r, out=r)
            # the leading pair is the one that leaves no quotient
            np.add(r, 200 if k == 1 else 100, out=r, where=q == 0)
            M16[:, at - k] = _PAIRS.take(r)
            v = q
    M[:, -2] = ord("\n")
    return M[M != 0].tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    comb = _load_comb(args.comb)
    seed = args.seed
    if args.horizon < 0:
        raise _CliError("horizon must be >= 0")
    if args.horizon > 10_000_000:
        raise _CliError("horizon capped at 10^7 for per-step output")
    traj_path = args.trajectory or (args.out + "_trajectory.csv")
    runs_path = args.runs or (args.out + "_runs.csv")
    header = f"# seed: {seed}\n# comb: {json.dumps(comb.to_dict())}\n"
    with _output(traj_path) as traj_out, _output(runs_path) as runs_out:
        if args.horizon:
            traj = simulate_prw(comb, args.horizon, seed=seed)
            steps = traj.steps()
            pos = traj.positions()[1:]          # S_1..S_horizon
            ages = traj.ages()
            dirs, lengths = traj.directions, traj.lengths
        else:                                   # --horizon 0: headers only
            steps = pos = ages = dirs = lengths = np.zeros(0, dtype=np.int64)
        n = len(steps)
        _write_csv(traj_out, "# combwalk trajectory\n" + header,
                   ["n", "position", "step", "age"],
                   np.arange(1, n + 1), pos, steps, ages)
        _write_csv(runs_out, "# combwalk runs\n" + header,
                   ["index", "direction", "length"],
                   np.arange(len(lengths)), dirs, lengths)
    print(f"steps: {n}")
    if n == 0:
        return 0
    print(f"final position: {int(pos[-1])}")
    print(f"empirical drift: {_fmt(pos[-1] / n)}")
    print(f"wrote {traj_path}, {runs_path}")
    return 0


# ---------------------------------------------------------------------------
# density


def cmd_density(args):
    if args.npoints < 2:
        raise _CliError("need at least 2 grid points")
    t = args.t
    with _output(args.out) as out:
        # interior grid: strictly inside (-t, t), hits x = 0 when npoints
        # is odd; density_f rejects a t that is not positive and finite,
        # so the grid of such a t only must not warn before it does
        with np.errstate(invalid="ignore"):
            x = np.linspace(-t, t, args.npoints + 2)[1:-1]
            x[np.abs(x) < 1e-9 * t] = 0.0
        f = lamperti_limit.density_f(args.alpha, args.m, t, x)
        F = lamperti_limit.cdf_f(args.alpha, args.m, t, x)
        _write_csv(out, f"# combwalk density alpha={_fmt(args.alpha)} "
                   f"m={_fmt(args.m)} t={_fmt(t)}\n", ["x", "f", "F"], x, f, F)
    if args.out not in (None, "-"):
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sample-limit


def cmd_sample_limit(args):
    seed = args.seed
    rng = np.random.default_rng(seed)
    n = args.n
    a, b = _fmt(args.alpha), _fmt(args.b)
    names, tail = ["sample"], ""
    with _output(args.out) as out:
        if args.kind == "marginal":
            cols = [lamperti_limit.sample_marginal(args.alpha, args.b, args.t,
                                                   rng, size=n)]
            tag = f"marginal alpha={a} m={b} t={_fmt(args.t)}"
        elif args.kind == "ratio":
            cols = [lamperti_limit.sample_ratio(args.alpha, args.b, rng,
                                                size=n)]
            tag = f"ratio alpha={a} b={b}"
        elif args.kind == "stable":
            cols = [sample_stable(args.alpha, args.beta, n, rng,
                                  scale=args.scale)]
            tag = f"stable alpha={a} beta={_fmt(args.beta)}"
        elif args.kind == "positive-stable":
            cols = [sample_positive_stable(args.alpha, n, rng)]
            tag = f"positive-stable alpha={a}"
        elif args.kind == "ensemble":
            cols = lamperti_limit.sample_anomalous_ensemble(
                args.alpha, args.b, n, seed, level=args.t, t_max=args.t_max)
            names = ["S", "age", "excess"]
            tag = f"ensemble alpha={a} b={b} level={_fmt(args.t)}"
        elif args.kind == "path":
            t_max = 3.0 if args.t_max is None else args.t_max
            path = lamperti_limit.labelled_subordinator(
                args.alpha, args.b, t_max, rng=rng)
            ts = np.linspace(0.0, path.total(), n)
            cols = [ts, *path.evaluate(ts)[:3]]
            names = ["t", "S", "label", "age"]
            tag = f"path alpha={a} b={b} t_max={_fmt(t_max)}"
            tail = f" T={_fmt(path.total())}"
        _write_csv(out, f"# combwalk sample-limit {tag} seed={seed}{tail}\n",
                   names, *cols)
    if args.out not in (None, "-"):
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _resolve_scenario(name):
    if os.path.exists(name):
        return name
    stem = name if name.endswith(".json") else name + ".json"
    bundled = os.path.join(os.path.dirname(__file__), "scenarios", stem)
    if os.path.exists(bundled):
        return bundled
    raise _CliError(f"scenario '{name}' is neither a file nor bundled "
                    f"(looked at {bundled})")


def cmd_verify(args):
    path = _resolve_scenario(args.scenario)
    try:
        scenario = VerificationScenario.from_json(path)
    except (ValueError, OSError) as e:
        raise _CliError(f"bad scenario file: {e}")
    if args.threads < 1:
        raise _CliError("threads must be >= 1")
    with _output(args.out) as out:
        try:
            report = verify_regime(scenario, seed=args.seed,
                                   threads=args.threads)
        except ValueError as e:
            raise _CliError(f"scenario rejected: {e}")
        _rewound(out).write(format_report(report) + "\n")
    if args.out not in (None, "-"):
        print(f"wrote {args.out}")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# estimate


def _read_trajectory(path):
    """The step column of a trajectory CSV as int64.  The first line that
    is neither blank nor a '#' comment is the header; numpy's C reader
    parses the rows after it, skipping empty lines and '#' comments."""
    try:
        with open(path) as fh:
            for consumed, line in enumerate(fh, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    break
            else:
                raise _CliError("trajectory file has no header row")
    except OSError as e:
        raise _CliError(f"cannot read trajectory: {e}")
    cols = line.split(",")
    if "step" not in cols:
        raise _CliError(f"trajectory header {cols} lacks a 'step' column")
    try:
        with warnings.catch_warnings():
            # a header-only file ends below as "too short", stderr clean
            warnings.filterwarnings("ignore", "loadtxt: input contained no",
                                    UserWarning)
            # the path, not the open handle: numpy reads it ~2x faster
            steps = np.loadtxt(path, skiprows=consumed, delimiter=",",
                               comments="#", usecols=cols.index("step"),
                               dtype=np.int64, ndmin=1)
    except ValueError:
        raise _CliError("malformed trajectory rows")
    if np.any(np.abs(steps) != 1):
        raise _CliError("steps must be +-1")
    return steps


def cmd_estimate(args):
    _check_k_frac(args.k_frac)
    steps = _read_trajectory(args.trajectory)
    if len(steps) < 100:
        raise _CliError("trajectory too short to estimate anything")
    # run-length encode
    change = np.flatnonzero(np.diff(steps) != 0)
    bounds = np.concatenate([[-1], change, [len(steps) - 1]])
    lengths = np.diff(bounds)
    dirs = steps[bounds[1:]]
    # drop the final (possibly clipped) run
    if len(lengths) > 1:
        lengths, dirs = lengths[:-1], dirs[:-1]
    up = lengths[dirs > 0]
    dn = lengths[dirs < 0]
    if len(up) < 5 or len(dn) < 5:
        raise _CliError("needs at least 5 completed runs per direction")
    mu, md = float(np.mean(up)), float(np.mean(dn))
    m_hat = (mu - md) / (mu + md)
    print(f"completed runs : {len(up)} up, {len(dn)} down")
    print(f"mean run length: up {_fmt(mu)}, down {_fmt(md)}")
    print(f"drift estimate : {_fmt(m_hat)}  (truncated-mean ratio)")
    alphas = []
    degenerate = short = False
    for name, arr in (("up", up), ("down", dn)):
        try:
            h = hill_estimate(arr.astype(float), args.k_frac)
        except ValueError as e:
            print(f"tail index {name} : declined ({e})")
            degenerate |= "degenerate" in str(e)
            short |= "exceedances" in str(e)
            continue
        alphas.append(h.alpha)
        print(f"tail index {name} : {h.alpha:.3f}  "
              f"ci=({h.ci[0]:.3f}, {h.ci[1]:.3f})  k={h.k}")
    if not alphas:
        if degenerate and not short:
            print("implied regime : gaussian "
                  "(runs are (near-)deterministic; no heavy tail)")
        else:
            print("implied regime : undetermined "
                  "(too few completed runs for tail estimation; "
                  "lengthen the trajectory or raise --k-frac)")
        return 0
    amin = min(alphas)
    if amin < 0.95:
        regime = "anomalous"
    elif amin < 1.05:
        regime = "cauchy (near the alpha = 1 boundary)"
    elif amin < 1.95:
        regime = "generic"
    else:
        regime = "gaussian"
    print(f"implied regime : {regime}  (min tail index {amin:.3f}; "
          "Hill is biased for light tails -- treat >= 2 as 'not heavy')")
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args):
    from .comb_model import constant_comb, power_comb
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        flag = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"[{flag}] {name}" + (f"  ({detail})" if detail else ""))

    f0 = lamperti_limit.density_f(0.5, 0.0, 1.0, 0.0)
    check("arcsine point value", abs(f0 * np.pi - 1.0) < 1e-12,
          f"f(0)={f0:.12f}")

    worst = 0.0
    for a in (0.3, 0.5, 0.7):
        for m in (-0.5, 0.0, 0.5):
            ev = lamperti_limit.DensityEvaluator(a, m, nhalf=800)
            worst = max(worst, abs(ev.mass - 1.0), abs(ev.mean - m) / 10.0)
    check("density mass and mean (9-point grid)", worst < 1e-7,
          f"worst={worst:.2e}")

    comb = power_comb(0.5)
    p = lamperti_limit.lamperti_recursion(comb, 300)
    rows = np.max(np.abs(p.sum(axis=1) - 1.0))
    cum = np.cumsum(p[300])
    w = np.arange(301) / 300.0
    F = (2.0 / np.pi) * np.arcsin(np.sqrt(w))
    ks = max(np.max(np.abs(cum - F)),
             np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - F)))
    check("occupation recursion rows sum to 1", rows < 1e-12,
          f"max={rows:.2e}")
    check("occupation law near arcsine (n=300)", ks < 0.08, f"KS={ks:.4f}")

    v = lamperti_limit.flt_f(0.6, 0.3, 1.0, 0.0)
    check("transform at zero frequency", abs(v - 1.0) < 1e-12)

    rng = np.random.default_rng(12)
    tpos = sample_positive_stable(0.5, 20_000, rng)
    lam = np.array([0.5, 1.0, 2.0])
    emp = np.exp(-np.outer(lam, tpos)).mean(axis=1)
    dev = np.max(np.abs(emp - np.exp(-np.sqrt(lam))))
    check("one-sided stable Laplace transform", dev < 0.01,
          f"max dev={dev:.4f}")

    # two chunks, so threads=4 runs two tasks; the second keeps one lane
    comb = constant_comb(0.3, 0.5)
    a = walk_marginals(comb, [2000], 4097, seed=9, threads=1)
    b = walk_marginals(comb, [2000], 4097, seed=9, threads=4)
    check("thread-count determinism", np.array_equal(a, b))

    gf_comb = power_comb(0.5, c=3.0, a_d=0.5, c_d=1.0)
    val, _ = lamperti_limit.double_gf_limit(gf_comb, 0.999, 1.0)
    check("generating-function series pin", abs(val - 0.6655291) < 1e-5,
          f"value={val:.7f}")

    print()
    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURE(S)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="combwalk",
        description="Persistent random walks with heavy-tailed memory: "
                    "simulation, limit laws, and verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one walk trajectory")
    p.add_argument("--comb", required=True, help="comb spec JSON file")
    p.add_argument("--horizon", type=int, required=True,
                   help="number of steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="walk",
                   help="output prefix (default 'walk')")
    p.add_argument("--trajectory", default=None,
                   help="explicit trajectory CSV path")
    p.add_argument("--runs", default=None, help="explicit runs CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("density", help="tabulate the anomalous-limit "
                                       "marginal density/CDF")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--npoints", type=int, default=1001)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sample-limit", help="draw from the limit laws")
    p.add_argument("--kind", required=True,
                   choices=["marginal", "ratio", "stable", "positive-stable",
                            "ensemble", "path"])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--b", "--m", dest="b", type=float, default=0.0,
                   help="label bias b, also the marginal's drift m")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--t", type=float, default=1.0,
                   help="time / level of the marginal")
    p.add_argument("--t-max", type=float, default=None,
                   help="subordinator horizon (ensemble, path)")
    p.add_argument("--n", type=int, required=True,
                   help="draws (or grid points for --kind path)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: every kind samples on one "
                        "thread, and the output does not depend on it")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sample_limit)

    p = sub.add_parser("verify", help="run a verification scenario")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or bundled name")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("estimate", help="estimate drift/tails from a "
                                        "trajectory CSV")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--k-frac", type=float, default=0.1,
                   help="Hill top fraction of completed runs (default 0.1)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
