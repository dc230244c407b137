"""Outside-in tracing of combwalk's layers, from the benchmark's own files.

``Tracer.install()`` wraps every public function and method (and every
``__init__``) defined in the package's modules, and puts each wrapper in
place of the original wherever the package binds that name -- for example
``stat_verify`` holds its own ``walk_marginals`` and ``cli`` its own
``simulate_prw``.  No file of the package changes; ``uninstall()`` restores
every name.

Each call is a span.  Per span group the tracer keeps the call count, the
busy time (inclusive time of the outermost call of that group on a thread's
stack), and the self time (inclusive time minus the time of wrapped child
calls).  A span belongs to its layer (module) and, where a per-layer metric
names it, to that metric's group.  Hooks add the counts the derived ratios
need.  Spans live on a per-thread stack, totals behind a lock.
"""

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("comb_model", "walk_sim", "scaling_laws", "stable_proc",
          "lamperti_limit", "stat_verify", "cli")

# qualified name (layer.qualname) -> the metric group it also belongs to
GROUPS = {
    "comb_model.PersistenceLaw.sample": "comb_model.sample",
    "comb_model.PersistenceLaw.cdf_table": "comb_model.cdf_table",
    "comb_model.PersistenceLaw.tail": "comb_model.moments",
    "comb_model.PersistenceLaw.truncated_mean": "comb_model.moments",
    "comb_model.PersistenceLaw.truncated_second_moment": "comb_model.moments",
    "walk_sim.walk_marginals": "walk_sim.walk_marginals",
    "walk_sim.simulate_prw": "walk_sim.simulate_prw",
    "walk_sim.Trajectory.ages": "walk_sim.ages",
    "scaling_laws.NormalizerSet.walk": "scaling_laws.normalizer",
    "scaling_laws.NormalizerSet.cauchy_norm": "scaling_laws.normalizer",
    "scaling_laws.NormalizerSet.space": "scaling_laws.space",
    "stable_proc.stable_cdf_interp": "stable_proc.ref_cdf",
    "lamperti_limit.sample_anomalous_ensemble": "lamperti_limit.ensemble",
    "lamperti_limit.lamperti_recursion": "lamperti_limit.recursion",
    "lamperti_limit.DensityEvaluator.__init__": "lamperti_limit.evaluator",
    "stat_verify.ks_distance": "stat_verify.ks",
    "stat_verify.hill_estimate": "stat_verify.hill",
    "stat_verify.verify_regime": "stat_verify.verify_regime",
    "cli.cmd_simulate": "cli.simulate",
    "cli.cmd_estimate": "cli.estimate",
    "cli.cmd_sample_limit": "cli.sample_limit",
}

# busy time of a group leaves out calls made inside these other groups:
# the tail evaluations of a table build are table-building time
BUSY_OUTSIDE = {"comb_model.moments": ("comb_model.cdf_table",
                                       "comb_model.sample")}

# spans that also record process CPU time (all threads)
CPU_GROUPS = ("lamperti_limit.ensemble",)


class _Span:
    __slots__ = ("groups", "child", "cpu0", "counters")

    def __init__(self, groups):
        self.groups = groups
        self.child = 0.0
        self.cpu0 = None
        self.counters = defaultdict(float)


def _bind(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _is_outer(group, stack):
    """True unless an enclosing span already counts toward `group`'s busy
    time, or belongs to a group whose calls `group` leaves out."""
    block = (group,) + BUSY_OUTSIDE.get(group, ())
    return not any(g in s.groups for s in stack for g in block)


def _csv_paths(ns):
    """The two files ``cmd_simulate`` writes, as it names them."""
    return (ns.trajectory or ns.out + "_trajectory.csv",
            ns.runs or ns.out + "_runs.csv")


class Tracer:
    def __init__(self, package):
        self.package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self.reset()

    # -- totals ---------------------------------------------------------------

    def reset(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)         # hook counters
        self.peak = defaultdict(float)          # hook maxima
        self.distinct = defaultdict(set)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, qualname):
        layer = qualname.split(".", 1)[0]
        group = GROUPS.get(qualname)
        groups = (layer, group) if group else (layer,)
        hook = _HOOKS.get(qualname)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = [_is_outer(g, stack) for g in groups]
            span = _Span(groups)
            if group in CPU_GROUPS:
                span.cpu0 = time.process_time()
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += dt
                with tracer._lock:
                    for g, is_outer in zip(groups, outer):
                        tracer.calls[g] += 1
                        tracer.self_time[g] += dt - span.child
                        if is_outer:
                            tracer.busy[g] += dt
            if hook is not None:
                with tracer._lock:
                    hook(tracer, span, stack, _bind(sig, args, kwargs),
                         result)
            return result

        return wrapper

    def install(self):
        pkg = self.package.__name__
        mods = [m for name, m in list(sys.modules.items()) if m is not None
                and (name == pkg or name.startswith(pkg + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{pkg}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapper = self._wrap(obj, f"{layer}.{name}")
                    for m in mods:          # every module that binds the name
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                self._undo.append((m, k, v))
                                setattr(m, k, wrapper)
                elif inspect.isclass(obj) and not name.startswith("_"):
                    for attr, f in list(vars(obj).items()):
                        public = attr == "__init__" or not attr.startswith("_")
                        if inspect.isfunction(f) and public:
                            self._undo.append((obj, attr, f))
                            setattr(obj, attr,
                                    self._wrap(f, f"{layer}.{name}.{attr}"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced since reset(); 0 where the
        workload never entered the layer."""
        c, b, s, n, pk = (self.calls, self.busy, self.self_time, self.count,
                          self.peak)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (b[layer], "s")
            out[f"{layer}.self_s"] = (s[layer], "s")
        ens = "lamperti_limit.ensemble"
        rec = "lamperti_limit.recursion"
        out.update({
            "comb_model.sample.calls": (c["comb_model.sample"], "count"),
            "comb_model.sample.ns_per_draw": (
                ratio(1e9 * b["comb_model.sample"], n["draws"]), "ns"),
            "comb_model.cdf_table.calls": (c["comb_model.cdf_table"], "count"),
            "comb_model.cdf_table.s": (b["comb_model.cdf_table"], "s"),
            "comb_model.cdf_table.distinct_frac": (ratio(
                len(self.distinct["cdf_table"]), c["comb_model.cdf_table"]),
                "ratio"),
            "comb_model.moments.s": (b["comb_model.moments"], "s"),
            "walk_sim.walk_marginals.s": (b["walk_sim.walk_marginals"], "s"),
            "walk_sim.walk_marginals.lane_steps_per_s": (ratio(
                n["lane_steps"], b["walk_sim.walk_marginals"]), "1/s"),
            "walk_sim.walk_marginals.table_bytes": (pk["table_bytes"],
                                                    "bytes"),
            "walk_sim.simulate_prw.self_s": (s["walk_sim.simulate_prw"], "s"),
            "walk_sim.ages.s": (b["walk_sim.ages"], "s"),
            "scaling_laws.normalizer.s": (b["scaling_laws.normalizer"], "s"),
            "scaling_laws.space.calls": (c["scaling_laws.space"], "count"),
            "stable_proc.ref_cdf.builds": (c["stable_proc.ref_cdf"], "count"),
            "stable_proc.ref_cdf.s": (b["stable_proc.ref_cdf"], "s"),
            "stable_proc.ref_cdf.distinct_frac": (ratio(
                len(self.distinct["ref_cdf"]), c["stable_proc.ref_cdf"]),
                "ratio"),
            f"{ens}.s": (b[ens], "s"),
            f"{ens}.paths_per_s": (ratio(n["paths"], b[ens]), "1/s"),
            f"{ens}.cpu_over_wall": (ratio(n["ensemble_cpu"], b[ens]),
                                     "ratio"),
            f"{rec}.s": (b[rec], "s"),
            f"{rec}.gbps_computed": (ratio(n["recursion_bytes"], 1e9 * b[rec]),
                                     "GB/s"),
            "lamperti_limit.evaluator.builds": (
                c["lamperti_limit.evaluator"], "count"),
            "lamperti_limit.evaluator.s": (b["lamperti_limit.evaluator"], "s"),
            "stat_verify.ks.calls": (c["stat_verify.ks"], "count"),
            "stat_verify.ks.points": (n["ks_points"], "count"),
            "stat_verify.ks.s": (b["stat_verify.ks"], "s"),
            "stat_verify.hill.s": (b["stat_verify.hill"], "s"),
            "stat_verify.verify_regime.self_s": (
                s["stat_verify.verify_regime"], "s"),
            "cli.simulate.self_s": (s["cli.simulate"], "s"),
            "cli.csv_write_mb_per_s": (ratio(n["csv_written"] / 1e6,
                                             s["cli.simulate"]), "MB/s"),
            "cli.estimate.self_s": (s["cli.estimate"], "s"),
            "cli.csv_read_mb_per_s": (ratio(n["csv_read"] / 1e6,
                                            s["cli.estimate"]), "MB/s"),
            "cli.sample_limit.self_s": (s["cli.sample_limit"], "s"),
        })
        return out


# ---------------------------------------------------------------------------
# hooks: (tracer, span, enclosing stack, bound arguments, result)


def _sample(tr, span, stack, a, result):
    tr.count["draws"] += 1 if a["size"] is None else int(a["size"])


def _cdf_table(tr, span, stack, a, result):
    # hooks run under the tracer's lock: read attributes, call no method
    fam = a["self"].family
    law = (fam.kind,
           tuple(sorted((k, repr(v)) for k, v in fam.params.items())))
    tr.distinct["cdf_table"].add((law, int(a["max_len"])))
    for s in reversed(stack):       # tables sized for the enclosing walk
        if "walk_sim.walk_marginals" in s.groups:
            s.counters["table_entries"] += len(result)
            break


def _walk_marginals(tr, span, stack, a, result):
    tr.count["lane_steps"] += int(a["n_rep"]) * int(max(a["targets"]))
    tr.peak["table_bytes"] = max(tr.peak["table_bytes"],
                                 8 * span.counters["table_entries"])


def _ref_cdf(tr, span, stack, a, result):
    tr.distinct["ref_cdf"].add((float(a["alpha"]), float(a["beta"])))


def _ensemble(tr, span, stack, a, result):
    tr.count["paths"] += int(a["n_rep"])
    tr.count["ensemble_cpu"] += time.process_time() - span.cpu0


def _recursion(tr, span, stack, a, result):
    # both matrix-vector phases of step n read n rows of N+1 doubles
    N = int(a["n_max"])
    tr.count["recursion_bytes"] += 8.0 * N * (N + 1) ** 2


def _ks(tr, span, stack, a, result):
    tr.count["ks_points"] += len(a["samples"])


def _cmd_simulate(tr, span, stack, a, result):
    tr.count["csv_written"] += sum(os.path.getsize(p) for p in
                                   _csv_paths(a["args"]) if os.path.exists(p))


def _cmd_estimate(tr, span, stack, a, result):
    tr.count["csv_read"] += os.path.getsize(a["args"].trajectory)


_HOOKS = {
    "comb_model.PersistenceLaw.sample": _sample,
    "comb_model.PersistenceLaw.cdf_table": _cdf_table,
    "walk_sim.walk_marginals": _walk_marginals,
    "stable_proc.stable_cdf_interp": _ref_cdf,
    "lamperti_limit.sample_anomalous_ensemble": _ensemble,
    "lamperti_limit.lamperti_recursion": _recursion,
    "stat_verify.ks_distance": _ks,
    "cli.cmd_simulate": _cmd_simulate,
    "cli.cmd_estimate": _cmd_estimate,
}
