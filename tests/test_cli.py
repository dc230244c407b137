import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import example, given, settings, strategies as st

import combwalk
from combwalk import (HillResult, cli, constant_comb, lamperti_limit,
                      power_comb, walk_sim)


def write_comb(tmp_path, comb, name="comb.json"):
    p = tmp_path / name
    comb.to_json(p)
    return str(p)


def read_rows(path_or_text, from_file=True):
    text = open(path_or_text).read() if from_file else path_or_text
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs ~0.7 s and ~46 MB per process; the package
    # computes its stable CDF itself and keeps scipy.stats to the tests
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(combwalk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, combwalk.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trajectory_and_runs(tmp_path, capsys):
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))
    out = str(tmp_path / "w")
    rc = cli.main(["simulate", "--comb", comb, "--horizon", "5000",
                   "--seed", "3", "--out", out])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "steps: 5000" in msg and "final position:" in msg

    cols, rows = read_rows(out + "_trajectory.csv")
    assert cols == ["n", "position", "step", "age"]
    assert len(rows) == 5000
    steps = np.array([int(r[2]) for r in rows])
    pos = np.array([int(r[1]) for r in rows])
    assert set(np.unique(steps)) <= {-1, 1}
    assert np.array_equal(np.cumsum(steps), pos)
    assert steps[0] == -1                      # opening run heads down

    cols, rows = read_rows(out + "_runs.csv")
    assert cols == ["index", "direction", "length"]
    assert rows[0][1] == "d"
    assert {r[1] for r in rows} == {"u", "d"}
    assert sum(int(r[2]) for r in rows) == 5000
    header = open(out + "_trajectory.csv").read().splitlines()[:3]
    assert header[1] == "# seed: 3"


def test_simulate_is_deterministic(tmp_path, capsys):
    comb = write_comb(tmp_path, power_comb(1.5, c=1.0))
    outs = []
    for tag in ("a", "b"):
        t = str(tmp_path / f"{tag}.csv")
        r = str(tmp_path / f"{tag}_runs.csv")
        rc = cli.main(["simulate", "--comb", comb, "--horizon", "2000",
                       "--seed", "11", "--trajectory", t, "--runs", r])
        assert rc == 0
        outs.append(open(t).read() + open(r).read())
    assert outs[0] == outs[1]
    t2 = str(tmp_path / "c.csv")
    rc = cli.main(["simulate", "--comb", comb, "--horizon", "2000",
                   "--seed", "12", "--trajectory", t2,
                   "--runs", str(tmp_path / "c_runs.csv")])
    assert rc == 0
    assert open(t2).read() != outs[0].split("# combwalk runs")[0]
    capsys.readouterr()


def test_simulate_zero_horizon(tmp_path, capsys):
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))
    out = str(tmp_path / "z")
    rc = cli.main(["simulate", "--comb", comb, "--horizon", "0",
                   "--seed", "0", "--out", out])
    assert rc == 0
    assert "steps: 0" in capsys.readouterr().out
    cols, rows = read_rows(out + "_trajectory.csv")
    assert cols == ["n", "position", "step", "age"] and rows == []
    cols, rows = read_rows(out + "_runs.csv")
    assert cols == ["index", "direction", "length"] and rows == []


def test_simulate_error_paths(tmp_path, capsys):
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = str(tmp_path / "e")
    assert cli.main(["simulate", "--comb", str(bad), "--horizon", "10",
                     "--out", out]) == 2
    assert cli.main(["simulate", "--comb", str(tmp_path / "nope.json"),
                     "--horizon", "10", "--out", out]) == 2
    assert cli.main(["simulate", "--comb", comb, "--horizon", "-1",
                     "--out", out]) == 2
    assert cli.main(["simulate", "--comb", comb, "--horizon", "20000001",
                     "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("hazard", [
    {"kind": "power", "a": 0.5, "c": float("inf")},
    {"kind": "table", "values": [0.2, float("nan"), 0.3],
     "tail_rule": ["constant", 0.5]},
], ids=["power-c-infinity", "table-nan"])
def test_simulate_refuses_non_finite_hazards(tmp_path, capsys, hazard):
    # an infinite c makes every up-hazard 0: a config error, exit 2
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"up": hazard,
                                "down": {"kind": "constant", "p": 0.5}}))
    out = str(tmp_path / "w")
    assert cli.main(["simulate", "--comb", str(comb), "--horizon", "100",
                     "--out", out]) == 2
    assert "hazard" in capsys.readouterr().err
    assert not os.path.exists(out + "_trajectory.csv")


def test_simulate_outputs_are_opened_before_the_run(tmp_path, monkeypatch,
                                                    capsys):
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))
    real = cli._run_batches

    def must_not_run(*args, **kwargs):
        raise AssertionError("simulate drew before the outputs were opened")

    monkeypatch.setattr(cli, "_run_batches", must_not_run)
    missing = str(tmp_path / "missing" / "x.csv")
    t, r = tmp_path / "t.csv", tmp_path / "r.csv"
    for paths in ((missing, str(r)), (str(t), missing)):
        assert cli.main(["simulate", "--comb", comb, "--horizon", "100",
                         "--trajectory", paths[0], "--runs", paths[1]]) == 2
        assert "cannot open output file" in capsys.readouterr().err
        # the file opened before the failing one is not left behind
        assert not t.exists() and not r.exists()
    # an existing file keeps its text
    t.write_text("an earlier trajectory\n")
    assert cli.main(["simulate", "--comb", comb, "--horizon", "100",
                     "--trajectory", str(t), "--runs", missing]) == 2
    assert t.read_text() == "an earlier trajectory\n"
    # and is replaced whole by a run that succeeds
    monkeypatch.setattr(cli, "_run_batches", real)
    t.write_text("an earlier trajectory\n" * 10_000)
    assert cli.main(["simulate", "--comb", comb, "--horizon", "100",
                     "--trajectory", str(t), "--runs", str(r)]) == 0
    capsys.readouterr()
    cols, rows = read_rows(str(t))
    assert cols == ["n", "position", "step", "age"] and len(rows) == 100


def test_simulate_refuses_one_output_for_both_tables(tmp_path, capsys):
    # the two tables are written side by side, a batch of runs at a time,
    # so one file or stdout for both would interleave them
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))
    t = tmp_path / "t.csv"
    for paths in (("-", "-"), (str(t), str(t)),
                  (str(t), str(tmp_path / "." / "t.csv"))):
        assert cli.main(["simulate", "--comb", comb, "--horizon", "100",
                         "--trajectory", paths[0], "--runs", paths[1]]) == 2
        assert capsys.readouterr().err == (
            "error: trajectory and runs need different outputs\n")
        assert not t.exists()
    t.write_text("an earlier trajectory\n")
    assert cli.main(["simulate", "--comb", comb, "--horizon", "100",
                     "--trajectory", str(t), "--runs", str(t)]) == 2
    assert t.read_text() == "an earlier trajectory\n"


def test_seed_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    comb = write_comb(tmp_path, constant_comb(0.5, 0.5))

    def seed_line(extra, tag):
        t = str(tmp_path / f"{tag}.csv")
        rc = cli.main(["simulate", "--comb", comb, "--horizon", "10",
                       "--trajectory", t,
                       "--runs", str(tmp_path / f"{tag}r.csv")] + extra)
        assert rc == 0
        return open(t).read().splitlines()[1]

    assert seed_line([], "d") == "# seed: 0"
    assert seed_line(["--seed", "3"], "f") == "# seed: 3"
    # the environment is no input: every command is a function of its flags
    monkeypatch.setenv("COMBWALK_SEED", "5")
    assert seed_line([], "e") == "# seed: 0"
    assert cli.main(["verify", "--scenario", "determinism-smoke"]) == 0
    assert "seed: 7" in capsys.readouterr().out   # the scenario's own seed


# ---------------------------------------------------------------------------
# density


def test_density_table_to_stdout(capsys):
    rc = cli.main(["density", "--alpha", "0.5", "--m", "0", "--t", "1",
                   "--npoints", "11"])
    assert rc == 0
    cols, rows = read_rows(capsys.readouterr().out, from_file=False)
    assert cols == ["x", "f", "F"]
    assert len(rows) == 11
    x = np.array([float(r[0]) for r in rows])
    f = np.array([float(r[1]) for r in rows])
    F = np.array([float(r[2]) for r in rows])
    assert np.all(np.abs(x) < 1.0)
    assert np.all(np.diff(F) > 0)
    mid = 5
    assert x[mid] == 0.0
    assert f[mid] == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert F[mid] == pytest.approx(0.5, abs=1e-9)


def test_density_to_file(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    rc = cli.main(["density", "--alpha", "0.7", "--m", "0.4", "--t", "2.5",
                   "--npoints", "100", "--out", out])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    cols, rows = read_rows(out)
    assert len(rows) == 100
    assert np.all(np.abs([float(r[0]) for r in rows]) < 2.5)


def test_density_validation(capsys):
    # the library's checks, except --npoints which is the command's; the
    # error line is all that reaches stderr, with no warning before it
    for extra, message in ((["--alpha", "1.2"], "alpha must lie in (0, 1)"),
                           (["--m", "1"], "drift must lie in (-1, 1)"),
                           (["--t", "-1"], "t must be positive"),
                           (["--t", "nan"], "t must be positive"),
                           (["--t", "inf"], "t must be positive"),
                           (["--npoints", "1"], "need at least 2")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["density", "--alpha", "0.5"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


# ---------------------------------------------------------------------------
# sample-limit


def run_sample(capsys, extra):
    rc = cli.main(["sample-limit"] + extra)
    out = capsys.readouterr().out
    assert rc == 0
    return read_rows(out, from_file=False)


def test_sample_limit_marginal(capsys):
    cols, rows = run_sample(capsys, ["--kind", "marginal", "--alpha", "0.5",
                                     "--t", "2", "--n", "50", "--seed", "5"])
    assert cols == ["sample"]
    v = np.array([float(r[0]) for r in rows])
    assert v.shape == (50,) and np.all(np.abs(v) < 2.0)


def test_sample_limit_kinds_and_determinism(capsys):
    for extra, inside in (
            (["--kind", "ratio", "--alpha", "0.5", "--b", "0.4"], 1.0),
            (["--kind", "stable", "--alpha", "1.5", "--beta", "0.3"], None),
            (["--kind", "positive-stable", "--alpha", "0.5"], None),
    ):
        argv = extra + ["--n", "40", "--seed", "2"]
        _, rows = run_sample(capsys, argv)
        v = np.array([float(r[0]) for r in rows])
        assert len(v) == 40 and np.all(np.isfinite(v))
        if inside:
            assert np.all(np.abs(v) < inside)
        if extra[1] == "positive-stable":
            assert np.all(v > 0)
        _, again = run_sample(capsys, argv)
        assert again == rows


def test_sample_limit_marginal_at_t_one_is_the_ratio(capsys):
    # S(t) = t S(1) with S(1) drawn by Lamperti's ratio; --m and --b
    # are one parameter, so either spelling samples the same law
    _, marginal = run_sample(capsys, ["--kind", "marginal", "--alpha", "0.6",
                                      "--m", "0.3", "--t", "1", "--n", "200",
                                      "--seed", "8"])
    _, ratio = run_sample(capsys, ["--kind", "ratio", "--alpha", "0.6",
                                   "--b", "0.3", "--n", "200", "--seed", "8"])
    assert marginal == ratio
    _, ratio_m = run_sample(capsys, ["--kind", "ratio", "--alpha", "0.6",
                                     "--m", "0.3", "--n", "200", "--seed", "8"])
    assert ratio_m == ratio


def test_sample_limit_marginal_tags_its_drift(capsys):
    for flag in ("--m", "--b"):
        assert cli.main(["sample-limit", "--kind", "marginal", "--alpha",
                         "0.5", flag, "0.25", "--t", "2", "--n", "1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ("# combwalk sample-limit marginal alpha=0.5 "
                          "m=0.25 t=2 seed=0")


def test_sample_limit_ensemble(capsys):
    argv = ["--kind", "ensemble", "--alpha", "0.5", "--b", "0.2",
            "--n", "300", "--seed", "2"]
    cols, rows = run_sample(capsys, argv)
    assert cols == ["S", "age", "excess"]
    S = np.array([float(r[0]) for r in rows])
    A = np.array([float(r[1]) for r in rows])
    assert len(rows) == 300
    assert np.all(np.abs(S) <= 1.0) and np.all(A >= 0)
    # five chunks of 64 paths, run by forked workers: the same rows
    for threads in ("2", "4"):
        _, threaded = run_sample(capsys, argv + ["--threads", threads])
        assert threaded == rows
    assert cli.main(["sample-limit"] + argv + ["--threads", "0"]) == 2
    assert capsys.readouterr().err == "error: threads must be >= 1\n"


def test_sample_limit_ensemble_refuses_a_short_horizon(capsys):
    # a chunk's RuntimeError comes back from its worker and exits 2
    assert cli.main(["sample-limit", "--kind", "ensemble", "--alpha", "0.5",
                     "--n", "200", "--t-max", "1e-3", "--threads", "2"]) == 2
    assert capsys.readouterr().err == ("error: path did not reach the "
                                       "requested level; increase t_max\n")


def test_sample_limit_path(capsys):
    cols, rows = run_sample(capsys, ["--kind", "path", "--alpha", "0.5",
                                     "--b", "0", "--n", "100", "--seed", "3"])
    assert cols == ["t", "S", "label", "age"]
    t = np.array([float(r[0]) for r in rows])
    S = np.array([float(r[1]) for r in rows])
    lab = np.array([float(r[2]) for r in rows])
    assert len(rows) == 100
    assert t[0] == 0.0 and np.all(np.diff(t) > 0)
    assert np.all(np.abs(S) <= t + 1e-12)
    assert set(np.unique(lab)) <= {-1.0, 0.0, 1.0}


def test_sample_limit_path_rows_match_scalar_evaluation(capsys):
    # the command evaluates its grid in one call; a point-by-point
    # rendering of the same path must give the same text
    _, rows = run_sample(capsys, ["--kind", "path", "--alpha", "0.4",
                                  "--b", "0.3", "--n", "300", "--seed", "7"])
    path = lamperti_limit.labelled_subordinator(
        0.4, 0.3, 3.0, rng=np.random.default_rng(7))
    expect = []
    for t in np.linspace(0.0, path.total(), 300):
        S_t, lab, age = path.evaluate(float(t))[:3]
        expect.append([cli._fmt(v) for v in (t, S_t, lab, age)])
    assert rows == expect
    # t = 0 is a range point: zero age, label value b
    assert rows[0] == ["0", "0", cli._fmt(0.3), "0"]


def test_sample_limit_validation(tmp_path, capsys):
    assert cli.main(["sample-limit", "--kind", "positive-stable",
                     "--alpha", "1.5", "--n", "10"]) == 2
    capsys.readouterr()
    # a rejected request creates no output file
    out = tmp_path / "f.csv"
    assert cli.main(["sample-limit", "--kind", "positive-stable",
                     "--alpha", "1.5", "--n", "10", "--out", str(out)]) == 2
    assert "positive stable laws need alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--kind", "ensemble", "--t-max", "0"], "t_max must be positive"),
    (["--kind", "ensemble", "--b", "2"], "label bias"),
    (["--kind", "path", "--t-max", "0"], "t_max must be positive"),
    (["--kind", "stable", "--scale", "0"], "scale must be positive"),
    (["--kind", "ratio", "--b", "2"], "label bias"),
    (["--kind", "marginal", "--t", "0"], "t must be positive"),
    (["--kind", "marginal", "--t", "-1"], "t must be positive"),
    (["--kind", "marginal", "--t", "nan"], "t must be positive"),
    # t_max^(1/alpha) overflows: the default jump cut is not finite
    (["--kind", "path", "--t-max", "1e300"], "jump cut"),
    (["--kind", "ensemble", "--t-max", "1e300"], "jump cut"),
    # a subnormal alpha underflows sin(alpha th) to 0 (NaN draws); a
    # skewed S1 law within 1e-6 of alpha = 1 loses its location
    (["--kind", "ratio", "--alpha", "5e-324"],
     "positive stable laws need alpha"),
    (["--kind", "marginal", "--alpha", "5e-324"],
     "positive stable laws need alpha"),
    (["--kind", "positive-stable", "--alpha", "5e-324"],
     "positive stable laws need alpha"),
    (["--kind", "stable", "--alpha", "1.0000001", "--beta", "0.5"],
     "alpha = 1.0000001 lies within 1e-06 of 1"),
])
def test_sample_limit_rejects_bad_arguments(capsys, extra, message):
    argv = ["sample-limit", "--alpha", "0.5", "--n", "20"] + extra
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_sample_limit_writes_its_rows_to_out(tmp_path, capsys):
    argv = ["sample-limit", "--kind", "ratio", "--alpha", "0.5", "--b",
            "0.4", "--n", "30", "--seed", "2"]
    _, rows = run_sample(capsys, argv[1:])
    out = tmp_path / "ratio.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert read_rows(out)[1] == rows


@pytest.mark.parametrize("extra, message", [
    (["--t-max", "0"], "t_max must be positive"),
    (["--t", "-1"], "level must be positive"),
    (["--t", "0"], "level must be positive"),
    (["--t", "inf"], "level must be positive"),
    (["--alpha", "1.5"], "subordinator index"),
])
def test_sample_limit_ensemble_checks_before_any_path(capsys, extra, message):
    # --n 0 samples no path, so only an up-front check can reject these
    argv = ["sample-limit", "--kind", "ensemble", "--alpha", "0.5",
            "--n", "0"] + extra
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("command, sampler", [
    (["sample-limit", "--kind", "ensemble", "--alpha", "0.5", "--n", "10"],
     "sample_anomalous_ensemble"),
    (["density", "--alpha", "0.5"], "density_f"),
])
def test_limit_outputs_are_opened_before_the_run(tmp_path, monkeypatch,
                                                 capsys, command, sampler):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{sampler} ran before --out was opened")

    monkeypatch.setattr(lamperti_limit, sampler, must_not_run)
    assert cli.main(command + ["--out",
                               str(tmp_path / "missing" / "x.csv")]) == 2
    assert "cannot open output file" in capsys.readouterr().err

    # a run that fails after the open leaves no new file, and an old one
    # as it was
    def rejects(*args, **kwargs):
        raise ValueError("rejected")

    monkeypatch.setattr(lamperti_limit, sampler, rejects)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("an earlier table\n")
    for out in (new, old):
        assert cli.main(command + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: rejected\n"
    assert not new.exists()
    assert old.read_text() == "an earlier table\n"


# ---------------------------------------------------------------------------
# the CSV writer


def written_csv(*cols):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), cli._output(None) as out:
        cli._write_csv(out, "# pre\n", ["x", "y"], *cols)
    return buf.getvalue()


def per_row_csv(xs, ys):
    return "# pre\nx,y\n" + "".join(
        f"{format(float(x), '.17g')},{format(float(y), '.17g')}\n"
        for x, y in zip(xs, ys))


_F64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_F64, _F64), max_size=40))
@example([(0.0, -0.0), (-0.0, 0.0), (float("inf"), -float("inf")),
          (float("nan"), 1.0), (5e-324, -5e-324),
          (2.2250738585072009e-308, -2.2250738585072009e-308),
          (1e308, -1e308), (0.1, 1 / 3)])
def test_writer_matches_per_row_text(rows):
    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows], dtype=float)
    assert written_csv(xs, ys) == per_row_csv(xs, ys)


def test_writer_across_a_chunk_edge_and_with_no_rows():
    for n in (0, cli._CSV_CHUNK - 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 3):
        rng = np.random.default_rng(n)
        xs = rng.standard_cauchy(n)
        ys = rng.standard_normal(n) * 10.0**rng.integers(-300, 300, n)
        assert written_csv(xs, ys) == per_row_csv(xs, ys)
    assert written_csv(xs[:0], ys[:0]) == "# pre\nx,y\n"


def per_row_text(*cols):
    return "".join(",".join(str(v) for v in row) + "\n"
                   for row in zip(*(c.tolist() for c in cols)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.sampled_from("ud"),
                          st.integers(-9, 10**6)), min_size=1, max_size=40))
@example([(-2**63, "u", 0), (2**63 - 1, "d", -1), (0, "u", 10**6),
          (-1, "d", 9), (10, "u", -9), (-100, "d", 100)])
def test_integer_rows_match_per_row_text(rows):
    # simulate's columns: signed integers and "u"/"d", built as bytes
    ints = np.array([r[0] for r in rows], dtype=np.int64)
    dirs = np.array([r[1] for r in rows], dtype="<U1")
    small = np.array([r[2] for r in rows], dtype=np.int32)
    assert (cli._text_rows([ints, dirs, small])
            == per_row_text(ints, dirs, small))


def test_integer_rows_of_every_digit_count_and_sign():
    mags = [m for d in range(1, 20) for m in (10**(d - 1), 10**d - 1)]
    ints = np.array([0, -2**63] + [s * min(m, 2**63 - 1)
                                   for m in mags for s in (1, -1)])
    dirs = np.resize(np.array(["u", "d"]), len(ints))
    assert cli._text_rows([ints, dirs]) == per_row_text(ints, dirs)
    tiny = np.array([-128, 127, -1, 0], dtype=np.int8)
    assert cli._text_rows([tiny]) == per_row_text(tiny)


def test_simulate_trajectory_to_stdout(tmp_path, capsys):
    comb = constant_comb(0.3, 0.5)
    path = write_comb(tmp_path, comb)
    rc = cli.main(["simulate", "--comb", path, "--horizon", "3000",
                   "--seed", "4", "--trajectory", "-",
                   "--runs", str(tmp_path / "runs.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    traj = combwalk.simulate_prw(comb, 3000, seed=4)
    rows = per_row_text(np.arange(1, 3001), traj.positions()[1:],
                        traj.steps(), traj.ages())
    assert "\nn,position,step,age\n" + rows + "steps: 3000\n" in out
    runs = per_row_text(np.arange(len(traj.lengths)), traj.directions,
                        traj.lengths)
    assert open(tmp_path / "runs.csv").read().endswith(
        "index,direction,length\n" + runs)


@pytest.mark.parametrize("comb, horizon, longer_than", [
    (constant_comb(0.01, 0.02), 1, 0),
    (constant_comb(0.01, 0.02), 1000, 7),
    (power_comb(0.5), 1000, 7),
    (constant_comb(0.01, 0.02), 65_537, 7),
    (power_comb(0.5), 65_537, 65_536),
], ids=["one-step", "constant", "power0.5", "constant-65537",
        "power0.5-65537"])
def test_simulate_bytes_do_not_depend_on_the_chunk(
        tmp_path, monkeypatch, capsys, comb, horizon, longer_than):
    path = write_comb(tmp_path, comb)
    want_traj, want_runs, final = simulated_text(comb, horizon, 1)
    lengths = combwalk.simulate_prw(comb, horizon, seed=1).lengths
    assert lengths.max() > longer_than          # a run crosses chunk edges
    # one row a chunk costs ~0.1 ms a row; it runs on the short horizons
    for chunk in (1, 7, 65_536) if horizon <= 1000 else (7, 65_536):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        t, r = tmp_path / f"t{chunk}.csv", tmp_path / f"r{chunk}.csv"
        assert cli.main(["simulate", "--comb", path, "--horizon",
                         str(horizon), "--seed", "1", "--trajectory", str(t),
                         "--runs", str(r)]) == 0
        assert f"final position: {final}\n" in capsys.readouterr().out
        assert t.read_text().split("\n", 3)[3] == want_traj
        assert r.read_text().split("\n", 3)[3] == want_runs


def simulated_text(comb, horizon, seed):
    """simulate's two tables (header rows on) and its final position,
    spelt out run by run from simulate_prw's run record; the last run
    may pass the horizon, and is cut from the trajectory only."""
    traj = combwalk.simulate_prw(comb, horizon, seed=seed)
    lengths = np.minimum(traj.lengths, horizon)
    steps = np.repeat(np.where(traj.directions == "u", 1, -1),
                      lengths)[:horizon]
    ages = np.concatenate([np.arange(1, m + 1) for m in lengths])[:horizon]
    return ("n,position,step,age\n" + per_row_text(
                np.arange(1, horizon + 1), np.cumsum(steps), steps, ages),
            "index,direction,length\n" + per_row_text(
                np.arange(len(traj.lengths)), traj.directions, traj.lengths),
            int(np.sum(steps)))


# simulate draws batch k (k = 1, 2, ...) of 64 (2^k - 1) runs a direction,
# so batch k ends after 128 (2^k - 1) runs: the horizon ends on that run's
# last step, or one step past it, so that batch k + 1 is drawn and its
# first run (4 steps, and 27) passes the horizon.  Each walk has a run
# across two chunk edges or more: one of 19 steps at a chunk of 7 rows
# for the constant comb, and one of 67 869 steps at the default chunk for
# the power comb, whose first batch ends at step 86 130
@pytest.mark.parametrize("past", [0, 1], ids=["on", "past"])
@pytest.mark.parametrize("comb, seed, batches, chunk", [
    (constant_comb(0.3, 0.5), 3, 3, 7),
    (power_comb(0.5), 27, 1, None),
], ids=["constant-batch-3", "power0.5-batch-1"])
def test_simulate_streams_the_runs_of_simulate_prw_by_batch(
        tmp_path, monkeypatch, capsys, comb, seed, batches, chunk, past):
    if chunk is not None:
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    first = itertools.islice(walk_sim._run_batches(comb, 1 << 53, seed),
                             batches)
    horizon = int(sum(runs.sum() for runs in first)) + past
    lengths = combwalk.simulate_prw(comb, horizon, seed).lengths
    assert len(lengths) == 128 * (2 ** batches - 1) + past
    assert (lengths.sum() > horizon) == bool(past)
    assert lengths.max() > 2 * cli._CSV_CHUNK
    want_traj, want_runs, final = simulated_text(comb, horizon, seed)
    t, r = tmp_path / "t.csv", tmp_path / "r.csv"
    assert cli.main(["simulate", "--comb", write_comb(tmp_path, comb),
                     "--horizon", str(horizon), "--seed", str(seed),
                     "--trajectory", str(t), "--runs", str(r)]) == 0
    assert f"final position: {final}\n" in capsys.readouterr().out
    assert t.read_text().split("\n", 3)[3] == want_traj
    assert r.read_text().split("\n", 3)[3] == want_runs


def _traced_peak_mb(argv):
    """The peak of traced allocations, in MB, while cli.main(argv) runs."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_simulate_and_estimate_hold_memory_to_the_run_record(tmp_path,
                                                             capsys):
    # 10^6 steps make a 22 MB trajectory file and 8 MB per int64 column:
    # simulate keeps one batch of runs (1 MB) and one chunk of rows (~6 MB;
    # 19 MB when it held the whole run record and its concatenation),
    # estimate the one-byte step column, its one-byte change mask and the
    # run lengths, formed in place of their ends (~8.5 MB; 12 MB with a
    # separate array of ends, 17 MB when the step column was int64)
    path = write_comb(tmp_path, power_comb(1.5, c=1.0))
    t = str(tmp_path / "t.csv")
    sim = _traced_peak_mb(["simulate", "--comb", path, "--horizon",
                           "1000000", "--seed", "0", "--trajectory", t,
                           "--runs", str(tmp_path / "r.csv")])
    est = _traced_peak_mb(["estimate", "--trajectory", t])
    capsys.readouterr()
    assert sim < 12, f"simulate peaked at {sim:.1f} MB"
    assert est < 11, f"estimate peaked at {est:.1f} MB"


# ---------------------------------------------------------------------------
# verify


def test_verify_bundled_scenario(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    rc = cli.main(["verify", "--scenario", "determinism-smoke",
                   "--out", out])
    assert rc == 0
    text = open(out).read()
    assert "RESULT: PASS" in text
    assert "seed: 7" in text                  # scenario's own seed
    rc = cli.main(["verify", "--scenario", "determinism-smoke",
                   "--seed", "8"])
    assert rc == 0
    assert "seed: 8" in capsys.readouterr().out


def test_verify_out_dash_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["verify", "--scenario", "determinism-smoke", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out and "wrote" not in out
    assert not (tmp_path / "-").exists()


def test_verify_forced_failure_exits_one(capsys):
    rc = cli.main(["verify", "--scenario", "forced-failure"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RESULT: FAIL" in out


def test_verify_error_paths(tmp_path, capsys):
    assert cli.main(["verify", "--scenario", "no-such-scenario"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["verify", "--scenario", str(bad)]) == 2
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({
        "name": "mismatch",
        "comb": constant_comb(0.5, 0.5).to_dict(),
        "regime": "anomalous", "u": 500, "replicas": 1000,
        "times": [1.0], "tol_ks": 0.1}))
    assert cli.main(["verify", "--scenario", str(mismatch)]) == 2
    err = capsys.readouterr().err
    assert "scenario rejected" in err


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_verify_refuses_fewer_than_one_thread(tmp_path, capsys, threads):
    out = tmp_path / "report.txt"
    assert cli.main(["verify", "--scenario", "determinism-smoke",
                     "--threads", threads, "--out", str(out)]) == 2
    # a refused flag is not the scenario's fault
    assert capsys.readouterr().err == "error: threads must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_verify_refuses_a_negative_seed_flag(tmp_path, capsys, seed):
    out = tmp_path / "report.txt"
    assert cli.main(["verify", "--scenario", "determinism-smoke",
                     "--seed", seed, "--out", str(out)]) == 2
    # the flag is at fault, not the scenario
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["simulate", "--horizon", "100", "--seed", seed],
                 "seed must be >= 0", id=f"simulate-seed{seed}")
    for seed in ("-1", "-7")
] + [
    pytest.param(["sample-limit", "--kind", kind, "--alpha", "0.5", "--n", n,
                  "--seed", seed], f"{flag} must be >= 0", id=f"{kind}-{flag}")
    for kind in ("marginal", "ratio", "stable", "positive-stable",
                 "ensemble", "path")
    for flag, n, seed in (("seed", "10", "-1"), ("n", "-1", "0"))
])
def test_negative_seed_and_count_flags_are_refused_by_name(
        tmp_path, monkeypatch, capsys, argv, message):
    def must_not_run(*args, **kwargs):
        raise AssertionError("drew before the flags were checked")

    monkeypatch.setattr(cli, "_run_batches", must_not_run)
    monkeypatch.setattr(cli.np.random, "default_rng", must_not_run)
    out = tmp_path / "out.csv"
    if argv[0] == "simulate":
        argv = argv + ["--comb", write_comb(tmp_path, constant_comb(0.3, 0.5)),
                       "--trajectory", str(out),
                       "--runs", str(tmp_path / "runs.csv")]
    else:
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, bad", [
    ("seed", 3.5), ("seed", True), ("seed", -2), ("replicas", 1000.7),
    ("replicas", True),
], ids=["seed-fraction", "seed-bool", "seed-negative", "replicas-fraction",
        "replicas-bool"])
def test_verify_refuses_a_seed_or_replica_count_that_is_not_whole(
        tmp_path, capsys, key, bad):
    # none of these is truncated or cast: the run would not be the one
    # the file asks for
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scenario(**{key: bad})))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad scenario file: ") and key in err


def test_verify_refuses_a_critical_comb_whose_laws_differ(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scenario(
        comb=power_comb(1.0, c=0.01, c_d=1.0).to_dict(), regime="cauchy",
        u=20000)))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    assert "1/log n" in capsys.readouterr().err


@pytest.mark.parametrize("u", [1e19, 1e30])
def test_verify_refuses_times_past_2_to_the_53(tmp_path, capsys, u):
    # exit 1 is a failed criterion; a target time the walk cannot hold
    # exactly is a config error, exit 2
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_scenario(
        comb=constant_comb(0.3, 0.5).to_dict(), u=u)))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    assert "[1, 2^53]" in capsys.readouterr().err


@pytest.mark.parametrize("key, bad", [
    ("u", float("inf")), ("times", [1.0, float("inf")]),
    ("tol_ks", float("nan")),
], ids=["u-infinity", "time-infinity", "tol-nan"])
def test_verify_non_finite_scenario_is_a_config_error(tmp_path, capsys,
                                                      key, bad):
    # exit 1 means a failed criterion; a non-finite value is a config
    # error, exit 2
    scenario = {"name": "non-finite", "comb": constant_comb(0.5, 0.5).to_dict(),
                "regime": "gaussian", "u": 500, "replicas": 1000,
                "times": [1.0], "tol_ks": 0.1}
    scenario[key] = bad
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    assert "bad scenario file" in capsys.readouterr().err


def _scenario(**changes):
    return dict({"name": "shape", "comb": constant_comb(0.5, 0.5).to_dict(),
                 "regime": "gaussian", "u": 500, "replicas": 1000,
                 "times": [1.0], "tol_ks": 0.1}, **changes)


@pytest.mark.parametrize("scenario, message", [
    ([1, 2], "JSON object"),
    (_scenario(comb=[1, 2]), "JSON object"),
    (_scenario(tol_increment=0.1), "unknown scenario key"),
    (_scenario(reference={"alpha": 1.2}), "reads no reference key"),
    (_scenario(tol_ks=1.5), "tol_ks must lie in (0, 1)"),
    (_scenario(tol_ks=True), "tol_ks must lie in (0, 1)"),
], ids=["list", "comb-list", "tol_increment", "gaussian-reference-alpha",
        "tol-above-one", "tol-true"])
def test_verify_scenario_of_the_wrong_shape_is_a_config_error(
        tmp_path, capsys, scenario, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["verify", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad scenario file" in err and message in err


def test_simulate_comb_of_the_wrong_shape_is_a_config_error(tmp_path,
                                                           capsys):
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"up": [1], "down": [2]}))
    out = str(tmp_path / "w")
    assert cli.main(["simulate", "--comb", str(comb), "--horizon", "10",
                     "--out", out]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not os.path.exists(out + "_trajectory.csv")


@pytest.mark.parametrize("comb, message", [
    ({"up": {"kind": "power", "a": 0.5, "C": 3},
      "down": {"kind": "constant", "p": 0.5}}, "unknown power hazard key"),
    ({"up": {"kind": "table", "values": [0.2],
             "tailrule": ["power", 0.5, 0.5]},
      "down": {"kind": "constant", "p": 0.5}}, "unknown table hazard key"),
    ({"up": {"kind": "constant", "p": 0.5},
      "down": {"kind": "constant", "p": 0.5}, "dwon": {}},
     "unknown comb key"),
], ids=["power-C", "table-tailrule", "comb-dwon"])
def test_simulate_comb_with_an_unknown_key_is_a_config_error(
        tmp_path, capsys, comb, message):
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(comb))
    out = str(tmp_path / "w")
    assert cli.main(["simulate", "--comb", str(path), "--horizon", "10",
                     "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out + "_trajectory.csv")


@pytest.mark.parametrize("rule", [[], ["constant"], ["constant", 0.5, 3]],
                         ids=["empty", "short", "long"])
def test_simulate_comb_with_a_tail_rule_of_the_wrong_arity_is_a_config_error(
        tmp_path, capsys, rule):
    # the first two escaped as an IndexError (a traceback, exit 1); the
    # third was accepted and its stray 3 written back into the header
    path = tmp_path / "comb.json"
    path.write_text(json.dumps({
        "up": {"kind": "table", "values": [0.5], "tail_rule": rule},
        "down": {"kind": "constant", "p": 0.5}}))
    out = str(tmp_path / "w")
    assert cli.main(["simulate", "--comb", str(path), "--horizon", "10",
                     "--out", out]) == 2
    assert "rule must be" in capsys.readouterr().err
    assert not os.path.exists(out + "_trajectory.csv")


def test_verify_anomalous_smoke_reports_its_marginals_only(capsys):
    assert cli.main(["verify", "--scenario", "anomalous-smoke"]) == 0
    out = capsys.readouterr().out
    assert "Lipschitz" not in out
    assert [ln.split()[1] for ln in out.splitlines()
            if ln.startswith("  [")] == ["marginal", "marginal"]


def test_verify_out_is_opened_before_the_run(tmp_path, monkeypatch, capsys):
    real = cli.verify_regime

    def must_not_run(*args, **kwargs):
        raise AssertionError("verify_regime ran before --out was opened")

    monkeypatch.setattr(cli, "verify_regime", must_not_run)
    assert cli.main(["verify", "--scenario", "determinism-smoke", "--out",
                     str(tmp_path / "missing" / "r.txt")]) == 2
    assert "cannot open output file" in capsys.readouterr().err
    # a rejected scenario leaves no new file, and an old one as it was
    monkeypatch.setattr(cli, "verify_regime", real)
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({
        "name": "mismatch",
        "comb": constant_comb(0.5, 0.5).to_dict(),
        "regime": "anomalous", "u": 500, "replicas": 1000,
        "times": [1.0], "tol_ks": 0.1}))
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("an earlier report\n")
    for out in (new, old):
        assert cli.main(["verify", "--scenario", str(mismatch),
                         "--out", str(out)]) == 2
        assert "scenario rejected" in capsys.readouterr().err
    assert not new.exists()
    assert old.read_text() == "an earlier report\n"
    # a report replaces a longer file whole; a device takes it as it is
    old.write_text("an earlier report\n" * 10_000)
    for out in (old, os.devnull):
        assert cli.main(["verify", "--scenario", "determinism-smoke",
                         "--out", str(out)]) == 0
    text = old.read_text()
    assert "an earlier report" not in text
    assert text.endswith("RESULT: PASS\n")


# ---------------------------------------------------------------------------
# estimate


def simulate_then_estimate(tmp_path, capsys, comb, horizon, extra=()):
    cpath = write_comb(tmp_path, comb)
    t = str(tmp_path / "traj.csv")
    rc = cli.main(["simulate", "--comb", cpath, "--horizon", str(horizon),
                   "--seed", "5", "--trajectory", t,
                   "--runs", str(tmp_path / "runs.csv")])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["estimate", "--trajectory", t] + list(extra))
    return rc, capsys.readouterr().out


def test_estimate_light_tails_imply_gaussian(tmp_path, capsys):
    rc, out = simulate_then_estimate(tmp_path, capsys,
                                     constant_comb(0.25, 0.5), 20000)
    assert rc == 0
    assert "drift estimate" in out
    assert "implied regime : gaussian" in out
    # mean run lengths 4 (up) and 2 (down) give drift 1/3
    m = float(out.split("drift estimate : ")[1].split()[0])
    assert m == pytest.approx(1.0 / 3.0, abs=0.05)


def test_estimate_heavy_tails_imply_anomalous(tmp_path, capsys):
    rc, out = simulate_then_estimate(tmp_path, capsys, power_comb(0.5),
                                     500000, extra=("--k-frac", "0.2"))
    assert rc == 0
    assert "implied regime : anomalous" in out
    assert "tail index up" in out and "tail index down" in out
    a = float(out.split("min tail index ")[1].split(";")[0])
    assert abs(a - 0.5) < 0.2


def test_estimate_degenerate_runs_decline_hill(tmp_path, capsys):
    rc, out = simulate_then_estimate(tmp_path, capsys,
                                     constant_comb(1.0, 1.0), 5000)
    assert rc == 0
    assert "declined" in out
    assert "implied regime : gaussian" in out
    assert "near-)deterministic" in out


def test_estimate_too_few_exceedances_is_undetermined(tmp_path, capsys):
    # mean runs of 20 steps: ~50 completed runs per direction, so the
    # default --k-frac 0.1 leaves fewer than 10 exceedances in each
    rc, out = simulate_then_estimate(tmp_path, capsys,
                                     constant_comb(0.05, 0.05), 2000)
    assert rc == 0
    assert out.count("exceedances; need at least 10") == 2
    assert "implied regime : undetermined" in out


@pytest.mark.parametrize("alpha, regime", [
    (0.97, "cauchy (near the alpha = 1 boundary)"),
    (1.5, "generic"),
    (2.5, "gaussian"),
])
def test_estimate_labels_the_smallest_tail_index(tmp_path, capsys,
                                                 monkeypatch, alpha, regime):
    # the up runs get the given index and the down runs a lighter one
    fits = iter([alpha, alpha + 1.0])
    monkeypatch.setattr(cli, "hill_estimate", lambda x, k_frac: HillResult(
        next(fits), (0.0, 9.0), 10))
    rc, out = simulate_then_estimate(tmp_path, capsys,
                                     constant_comb(0.25, 0.5), 20000)
    assert rc == 0
    assert f"implied regime : {regime}  (min tail index {alpha:.3f};" in out


def test_estimate_error_paths(tmp_path, capsys):
    assert cli.main(["estimate", "--trajectory",
                     str(tmp_path / "missing.csv")]) == 2
    short = tmp_path / "short.csv"
    short.write_text("n,position,step,age\n1,-1,-1,1\n")
    assert cli.main(["estimate", "--trajectory", str(short)]) == 2
    noheader = tmp_path / "nh.csv"
    noheader.write_text("a,b\n1,2\n")
    assert cli.main(["estimate", "--trajectory", str(noheader)]) == 2
    garbled = tmp_path / "g.csv"
    garbled.write_text("n,position,step,age\n" +
                       "\n".join("1,2,x,4" for _ in range(200)) + "\n")
    assert cli.main(["estimate", "--trajectory", str(garbled)]) == 2
    capsys.readouterr()


def test_estimate_reads_the_completed_runs_of_simulate(tmp_path, capsys):
    # every run that ends before the horizon is completed: a step of the
    # other direction follows it; the run in progress at the horizon is not
    comb, horizon = power_comb(1.5, c=1.0), 200_000
    t = str(tmp_path / "t.csv")
    assert cli.main(["simulate", "--comb", write_comb(tmp_path, comb),
                     "--horizon", str(horizon), "--seed", "2",
                     "--trajectory", t,
                     "--runs", str(tmp_path / "r.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["estimate", "--trajectory", t]) == 0
    out = capsys.readouterr().out.splitlines()
    lengths = combwalk.simulate_prw(comb, horizon, seed=2).lengths
    done = np.cumsum(lengths) < horizon
    up, dn = lengths[1::2][done[1::2]], lengths[0::2][done[0::2]]
    assert out[:2] == [
        f"completed runs : {len(up)} up, {len(dn)} down",
        f"mean run length: up {cli._fmt(np.mean(up))}, "
        f"down {cli._fmt(np.mean(dn))}"]
    for line, runs in zip(out[3:5], (up, dn)):
        h = combwalk.hill_estimate(runs.astype(float), 0.1)
        assert line.endswith(f": {h.alpha:.3f}  ci=({h.ci[0]:.3f}, "
                             f"{h.ci[1]:.3f})  k={h.k}")


def test_estimate_refuses_a_file_of_comments_only(tmp_path, capsys):
    path = tmp_path / "comments.csv"
    path.write_text("# seed: 3\n\n# comb: none\n")
    assert cli.main(["estimate", "--trajectory", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: trajectory file has no header row\n"


@pytest.mark.parametrize("cycles", [4, 5])
def test_estimate_refuses_fewer_than_five_runs_a_direction(tmp_path, capsys,
                                                           cycles):
    # runs of 30 up-steps then 30 down-steps; the last run may be cut, so
    # it is dropped: 4 up and 3 down runs, or 5 up and 4 down
    steps = np.tile(np.repeat([1, -1], 30), cycles)
    path = tmp_path / "few.csv"
    path.write_text("step\n" + "\n".join(map(str, steps)) + "\n")
    assert cli.main(["estimate", "--trajectory", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: needs at least 5 completed runs per direction\n"


@pytest.mark.parametrize("k_frac", ["0.5", "0", "-1", "nan"])
def test_estimate_rejects_k_frac_before_reading(tmp_path, capsys, k_frac):
    # the trajectory does not exist: the value is refused first
    assert cli.main(["estimate", "--trajectory", str(tmp_path / "none.csv"),
                     "--k-frac", k_frac]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k_frac must lie in (0, 0.2]\n"


def python_read_steps(path):
    """The step column parsed line by line in Python, as the reader did
    before numpy's C reader took over the rows: the reference for
    cli._read_trajectory on well-formed files."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    rows = [ln for ln in lines if not ln.startswith("#")]
    j = rows[0].split(",").index("step")
    return np.array([int(r.split(",")[j]) for r in rows[1:]])


def test_reader_matches_the_python_parse(tmp_path, capsys):
    cpath = write_comb(tmp_path, power_comb(0.5))
    t = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--comb", cpath, "--horizon", "30000",
                     "--seed", "2", "--trajectory", str(t),
                     "--runs", str(tmp_path / "runs.csv")]) == 0
    capsys.readouterr()
    got = cli._read_trajectory(str(t))
    assert got.dtype == np.int8 and len(got) == 30000
    assert_array_equal(got, python_read_steps(t))


_HEAD = "# combwalk trajectory\n# seed: 0\n\nn,position,step,age\n"
_ROWS = [f"{n},0,{s},1\n" for n, s in
         enumerate(np.where(np.arange(150) % 7 < 3, 1, -1), 1)]


@pytest.mark.parametrize("name, text", [
    ("comments and blank lines", _HEAD + "".join(_ROWS[:50]) + "\n# mid\n\n"
     + "".join(_ROWS[50:])),
    ("CRLF", (_HEAD + "".join(_ROWS)).replace("\n", "\r\n")),
    ("extra columns", _HEAD.replace("age", "age,x") + "".join(
        r.replace("\n", ",9\n") for r in _ROWS)),
    ("step first", "step,n\n" + "".join(
        f"{r.split(',')[2]},{r.split(',')[0]}\n" for r in _ROWS)),
    ("no final newline", _HEAD + "".join(_ROWS).rstrip("\n")),
])
def test_reader_accepts(tmp_path, name, text):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    got = cli._read_trajectory(str(p))
    assert len(got) == 150
    assert_array_equal(got, python_read_steps(p))


@pytest.mark.parametrize("name, bad, message", [
    ("short row", "151,0\n", "malformed trajectory rows"),
    ("float step", "151,0,-1.0,1\n", "malformed trajectory rows"),
    ("empty step", "151,0,,1\n", "malformed trajectory rows"),
    ("a line of spaces", "   \n", "malformed trajectory rows"),
    ("step of 2", "151,0,2,1\n", "steps must be +-1"),
    ("step past int8", "151,0,200,1\n", "malformed trajectory rows"),
])
def test_reader_rejects(tmp_path, capsys, name, bad, message):
    p = tmp_path / "t.csv"
    p.write_text(_HEAD + "".join(_ROWS[:100]) + bad + "".join(_ROWS[100:]))
    assert cli.main(["estimate", "--trajectory", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_header_only_is_too_short_without_a_warning(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text(_HEAD)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["estimate", "--trajectory", str(p)]) == 2
    assert caught == []
    assert capsys.readouterr().err == (
        "error: trajectory too short to estimate anything\n")


# ---------------------------------------------------------------------------
# selftest and parser


def test_selftest_passes(capsys):
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") >= 8
    assert "FAIL" not in out
    assert out.rstrip().endswith("selftest: PASS")


def test_selftest_counts_a_failed_check_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(lamperti_limit, "flt_f", lambda *args: 2.0)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out.count("[FAIL]") == 1
    assert "[FAIL] transform at zero frequency" in out
    assert out.rstrip().endswith("selftest: 1 FAILURE(S)")


def test_parser_errors():
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["simulate"])                  # missing required flags
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for cmd in ("simulate", "density", "sample-limit", "verify",
                "estimate", "selftest"):
        assert cmd in out
