"""combwalk benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 10
    python3 perfbench/run.py --workload limit-side --trace 1
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the repository root (the package is imported from ``src/``).  One
process runs the workload in-process; BLAS is pinned to one thread before
numpy loads.  A run sets up (imports, inputs, first-call costs), then
repeats whole passes of the workload until ``--seconds`` have gone by (at
least one pass).  Every operation's output is digested and checked after
its pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics: pass_s and cpu_s (medians over
passes), setup_s (median over this run's set-up and SETUP_PROBES fresh
processes that only set up) and peak_rss_mb.  ``--trace 1`` runs one plain
pass, then traced passes that must reproduce its digests, and reports the
per-layer metrics of layertrace.py.  The last line of stdout is the JSON
result; the line before it, starting ``report``, carries the environment,
the digests, each operation's outcome and the raw times.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the keys of workloads.WORKLOADS, listed here because importing that module
# imports the package, which belongs in the timed set-up
WORKLOADS = ("verify-sweep", "marginals-1e5", "simulate-roundtrip",
             "limit-side")
SETUP_PROBES = 2
END_TO_END_UNITS = {"pass_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# environment


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _openblas_threads(numpy):
    """Thread count numpy's bundled OpenBLAS reports, when it can be asked."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS,
            "blas_threads_reported": _openblas_threads(numpy),
            "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
            "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
            "git_commit": _git_commit()}


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed, workdir):
    """Import the package, build the workload's inputs and pay the
    first-call costs; returns (seconds, workloads module, workload)."""
    t0 = time.perf_counter()
    import workloads as wl          # imports combwalk
    w = wl.build(workload, seed, str(workdir))
    wl.warm_up()
    wl.clear_caches()
    return time.perf_counter() - t0, wl, w


def probe_setup(workload, seed):
    """Set-up time of a fresh process that only sets up."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


class Runner:
    """Runs passes of one workload and keeps each operation's outcome.

    Every output is digested; the first digest of an operation is its
    reference, and a later pass (traced or not) that differs fails.  The
    correctness check runs once per distinct digest."""

    def __init__(self, wl, workload):
        self.wl = wl
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.ops = {}                   # name -> outcome of the first pass
        self.op_s = {op.name: [] for op in workload.ops}   # wall s per pass
        self.failures = []

    def run_pass(self, tracer=None):
        self.wl.clear_caches()
        outputs = []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            for op in self.workload.ops:
                t_op = time.perf_counter()
                try:
                    outputs.append(op.run())
                except Exception:       # recorded as the op's failure
                    outputs.append(_Raised(traceback.format_exc()))
                self.op_s[op.name].append(time.perf_counter() - t_op)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        layers = tracer.metrics() if tracer is not None else None
        for op, out in zip(self.workload.ops, outputs):
            self._settle(op, out, "traced" if tracer else "plain")
        return wall, cpu, layers

    def _settle(self, op, out, kind):
        self.attempted += 1
        first = self.ops.get(op.name)
        if isinstance(out, _Raised):
            digest, ok, detail = None, False, out.text
        else:
            try:
                digest = op.digest(out)
                if first is None:
                    ok, detail = op.check(out)
                elif digest == first["digest"]:
                    ok, detail = first["ok"], first["detail"]
                else:
                    ok, detail = False, (f"{kind} pass digest {digest[:16]} "
                                         f"differs from {first['digest']}")
            except Exception:           # a failing check fails the op
                digest, ok, detail = None, False, traceback.format_exc()
        if first is None:
            self.ops[op.name] = {"ok": ok, "digest": digest, "detail": detail}
        if not ok:
            self.failed += 1
            self.failures.append({"op": op.name, "pass": kind,
                                  "detail": detail})

    def extra(self, name, ok, detail):
        """Account for a check made outside the passes."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"op": name, "pass": "baseline",
                                  "detail": detail})


class _Raised:
    def __init__(self, text):
        self.text = text


def _repeat(runner, seconds, tracer=None, once=False):
    """Passes until `seconds` have gone by (at least one).  Whether another
    pass starts does not depend on how fast the last one was."""
    walls, cpus, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        wall, cpu, lay = runner.run_pass(tracer)
        walls.append(wall)
        cpus.append(cpu)
        layers.append(lay)
        if once or time.perf_counter() - t0 >= seconds:
            return walls, cpus, layers


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workdir):
    probes = [probe_setup(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]
    setup_s, wl, w = setup(args.workload, args.seed, workdir)
    setups = probes + [setup_s]
    runner = Runner(wl, w)
    walls, cpus, _ = _repeat(runner, args.seconds, once=bool(args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "setup_s": setups, "pass_s": walls, "cpu_s": cpus}
    if not args.trace:
        metrics = {
            "pass_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k])
                   for k, v in metrics.items()}
    else:
        import combwalk
        import layertrace
        tracer = layertrace.Tracer(combwalk)
        t_walls, _, layers = _repeat(runner, args.seconds, tracer=tracer)
        metrics = {k: _metric(statistics.median(l[k][0] for l in layers),
                              unit) for k, (_, unit) in layers[0].items()}
        metrics["trace_overhead_s"] = _metric(
            statistics.median(t_walls) - walls[0], "s")
        report["traced_pass_s"] = t_walls
        eff = 0.0
        if w.baseline is not None:
            try:
                base = w.baseline()
            except Exception:           # a failing baseline fails the run
                base = {"same_as_threaded": False,
                        "error": traceback.format_exc()}
            runner.extra("baseline/threads=1", base["same_as_threaded"],
                         base.get("error", "threads=1 ensemble differs "
                                           "from the threaded CSV"))
            threaded = metrics["lamperti_limit.ensemble.s"]["value"]
            if "s" in base and threaded > 0:
                eff = base["s"] / (base["threads"] * threaded)
            report["baseline"] = base
        metrics["lamperti_limit.ensemble.parallel_eff"] = _metric(eff, "ratio")
    report.update(ops=runner.ops, op_s=runner.op_s, failures=runner.failures,
                  fail_frac=runner.failed / runner.attempted)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return report, result


# ---------------------------------------------------------------------------
# output


def print_summary(report, result):
    print(f"combwalk benchmark: {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  ({len(report['pass_s'])} plain pass(es)"
          f", {len(report['setup_s'])} set-ups)")
    for name, m in result["metrics"].items():
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<44s} {report['fail_frac']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} operations)")
    for name, op in report["ops"].items():
        flag = "ok  " if op["ok"] else "FAIL"
        print(f"  [{flag}] {name:<26s} {str(op['digest'])[:16]}  "
              f"{op['detail'].splitlines()[-1] if op['detail'] else ''}")
    for f in report["failures"]:
        print(f"  failure in {f['op']} ({f['pass']} pass):\n{f['detail']}")


def run_all(args):
    """Each workload in its own process, then one table of all of them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        print("\n".join(ln for ln in lines[:-1]
                        if not ln.startswith("report ")))
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps the pinned seeds")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time of a run (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "combwalk" / "__init__.py").is_file():
        print(f"error: combwalk sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed,
                                               workdir)[0]}))
            return 0
        report, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_summary(report, result)
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
