import concurrent.futures
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.stats import chisquare

from combwalk import (
    CombSpec,
    HazardFamily,
    Trajectory,
    constant_comb,
    ks_distance,
    lamperti_recursion,
    power_comb,
    simulate_prw,
    walk_marginals,
)
from combwalk import walk_sim
from combwalk.lamperti_limit import sample_anomalous_ensemble


def test_runs_alternate_and_start_down():
    traj = simulate_prw(constant_comb(0.3, 0.5), 5000, seed=1)
    assert traj.directions[0] == "d"
    assert np.all(traj.directions[::2] == "d")
    assert np.all(traj.directions[1::2] == "u")
    assert traj.lengths.min() >= 1
    assert traj.lengths.sum() >= traj.horizon
    assert traj.lengths[:-1].sum() < traj.horizon


@pytest.mark.parametrize("n_runs", [1, 2, 3, 4, 5])
def test_run_signs_alternate_from_down_at_any_run_count(n_runs):
    lengths = [2, 1, 3, 1, 2][:n_runs]
    traj = Trajectory(lengths, sum(lengths))
    want = np.repeat([-1, 1, -1, 1, -1][:n_runs], lengths)
    steps = traj.steps()
    assert steps.dtype == np.int64
    assert_array_equal(steps, want)
    assert traj.directions.tolist() == ["d", "u", "d", "u", "d"][:n_runs]


def test_steps_and_positions_are_consistent():
    traj = simulate_prw(power_comb(1.5, c=1.0), 3000, seed=7)
    steps = traj.steps()
    assert len(steps) == 3000
    assert set(np.unique(steps)) <= {-1, 1}
    pos = traj.positions()
    assert pos[0] == 0
    assert np.array_equal(np.diff(pos), steps)
    assert len(pos) == 3001


def test_ages_track_run_boundaries():
    traj = simulate_prw(constant_comb(0.4, 0.6), 2000, seed=3)
    ages = traj.ages()
    steps = traj.steps()
    assert len(ages) == 2000
    fresh = np.concatenate([[True], steps[1:] != steps[:-1]])
    assert np.array_equal(ages == 1, fresh)
    # within a run the age increases by exactly one
    assert np.all(np.diff(ages)[~fresh[1:]] == 1)
    assert np.array_equal(traj.ages(), ages)


@pytest.mark.parametrize("comb, horizon", [
    (constant_comb(0.3, 0.5), 1),
    (constant_comb(0.01, 0.02), 5000),
    (power_comb(0.5), 65_537),
    (power_comb(1.5, c=1.0), 20_000),
], ids=["one-step", "long-constant", "power0.5", "power1.5"])
def test_expansion_is_the_per_step_repeat_of_the_run_record(comb, horizon):
    traj = simulate_prw(comb, horizon, seed=11)
    # the oracle: every run spelt out step by step, cut at the horizon
    # (the last run may be drawn far longer)
    lengths = np.minimum(traj.lengths, horizon)
    signs = np.where(traj.directions == "u", 1, -1)
    steps = np.repeat(signs, lengths)[:horizon]
    ages = np.concatenate([np.arange(1, m + 1) for m in lengths])[:horizon]
    positions = np.concatenate([[0], np.cumsum(steps)])
    assert_array_equal(traj.steps(), steps)
    assert_array_equal(traj.ages(), ages)
    assert_array_equal(traj.positions(), positions)
    # any window lo+1..hi, including one inside a single run
    rng = np.random.default_rng(horizon)
    for lo, hi in [(0, horizon), (horizon - 1, horizon)] + [
            tuple(sorted(rng.choice(horizon + 1, 2, replace=False)))
            for _ in range(20 if horizon > 1 else 0)]:
        x, age = traj.expand(lo, hi)
        assert_array_equal(x, steps[lo:hi])
        assert_array_equal(age, ages[lo:hi])


def test_simulation_determinism_and_rng_paths():
    comb = power_comb(0.5)
    a = simulate_prw(comb, 10000, seed=42)
    b = simulate_prw(comb, 10000, seed=42)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.directions, b.directions)
    c = simulate_prw(comb, 10000, seed=np.random.SeedSequence(42))
    assert np.array_equal(a.lengths, c.lengths)
    d = simulate_prw(comb, 10000, seed=43)
    assert not np.array_equal(a.lengths, d.lengths)
    # the seed has no default: every trajectory names its stream
    with pytest.raises(TypeError):
        simulate_prw(comb, 10000)


def test_simulation_validation():
    comb = constant_comb(0.3, 0.5)
    with pytest.raises(ValueError):
        simulate_prw(comb, 0, seed=1)
    traj = simulate_prw(comb, 20000, seed=1)
    assert traj.horizon == 20000


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 2.5, 0, -1,
                                     2**53 + 1])
def test_horizons_that_cannot_be_honoured_are_refused_before_any_draw(
        horizon):
    class NoDraws:
        def invert(self, v):
            raise AssertionError("run lengths drawn for a refused horizon")

    comb = SimpleNamespace(up_law=NoDraws(), down_law=NoDraws())
    with pytest.raises(ValueError, match="horizon"):
        simulate_prw(comb, horizon, seed=3)


def test_marginals_refuse_a_negative_replica_count():
    with pytest.raises(ValueError, match="n_rep must be >= 0"):
        walk_marginals(constant_comb(0.5, 0.5), [10], -1, seed=0)


def _block_at_a_time(comb, horizon, rng):
    """Run lengths drawn one block of 64 down-runs and 64 up-runs at a
    time, cut at the horizon: the byte oracle of simulate_prw's batches."""
    blocks, total = [], 0
    while total < horizon:
        runs = np.empty(2 * 64, dtype=np.int64)
        runs[0::2] = comb.down_law.invert(rng.random(64))
        runs[1::2] = comb.up_law.invert(rng.random(64))
        ends = total + np.cumsum(runs)
        blocks.append(runs[:np.searchsorted(ends, horizon) + 1])
        total = ends[-1]
    return np.concatenate(blocks)


@pytest.mark.parametrize("comb", [
    constant_comb(0.3, 0.5),
    power_comb(1.5, c=1.0),
    power_comb(0.5),        # draws past the 4096-entry table are searched
    CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0])),
], ids=["constant", "power1.5", "power0.5", "zigzag"])
def test_batched_runs_match_drawing_one_block_at_a_time(comb):
    for horizon in (1, 63, 64, 65, 127, 128, 129, 10**5):
        want = _block_at_a_time(comb, horizon, np.random.default_rng(5))
        traj = simulate_prw(comb, horizon, seed=5)
        assert traj.lengths.tobytes() == want.tobytes()
        assert traj.horizon == horizon


def test_zigzag_walk_oscillates():
    zig = CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0]))
    traj = simulate_prw(zig, 100, seed=0)
    steps = traj.steps()
    assert np.array_equal(steps, np.tile([-1, 1], 50))
    assert set(np.unique(traj.positions())) == {-1, 0}


def test_run_length_marginals_match_the_law():
    comb = power_comb(0.7)
    traj = simulate_prw(comb, 200000, seed=19)
    # completed down runs only (the clipped last run is censored)
    down = traj.lengths[:-1][traj.directions[:-1] == "d"]
    law = comb.down_law
    for n in (1, 5, 50):
        p = law.tail(float(n))
        emp = np.mean(down > n)
        se = np.sqrt(p * (1 - p) / len(down))
        assert abs(emp - p) < 5 * se


def test_marginals_match_direct_simulation():
    comb = constant_comb(0.3, 0.5)
    n = 4000
    rec = walk_marginals(comb, [50], n, seed=31)
    assert rec.shape == (n, 1)
    direct = np.array([simulate_prw(comb, 50, seed=10_000 + i).positions()[50]
                       for i in range(n)], dtype=float)
    ks = ks_distance(rec[:, 0], direct)
    assert ks < 0.045  # two-sample 1% point is ~0.036 at n = 4000


def test_marginals_lattice_and_momenta():
    comb = constant_comb(0.3, 0.5)
    rec = walk_marginals(comb, [21, 200], 20000, seed=5)
    s21 = rec[:, 0]
    # parity: S_n has the parity of n
    assert np.all((s21 + 21) % 2 == 0)
    assert np.all(np.abs(s21) <= 21)
    # drift 0.25 dominates by n = 200 up to the start-down transient (O(1))
    assert rec[:, 1].mean() == pytest.approx(0.25 * 200, abs=3.0)


def test_marginals_threads_and_batch_layout_are_invisible(monkeypatch):
    comb = power_comb(1.5, c=1.0)
    base = walk_marginals(comb, [10, 100], 9000, seed=77, threads=1)
    for threads in (2, 4):
        again = walk_marginals(comb, [10, 100], 9000, seed=77, threads=threads)
        assert np.array_equal(base, again)
    assert np.array_equal(
        base, walk_marginals(comb, [100, 10], 9000, seed=77, threads=3))
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            walk_marginals(comb, [10, 100], 9000, seed=77, threads=threads)
    # each row depends only on its own uniforms, whatever the block size
    for rows in (1, 3, 16):
        monkeypatch.setattr(walk_sim, "_CYCLES", rows)
        assert np.array_equal(
            base, walk_marginals(comb, [10, 100], 9000, seed=77, threads=2))


# ---------------------------------------------------------------------------
# the replica engine: chunks on forked workers, rows in chunk order


def _pid_rows(rng, m):
    return np.full((m, 1), os.getpid())


@pytest.mark.skipif(walk_sim._usable_cpus() < 2,
                    reason="needs two usable CPUs")
def test_replicate_runs_chunks_on_forked_workers():
    # three chunks on two workers; the closure reaches them unpickled
    rows = walk_sim._replicate(5, 2, 1, 2, _pid_rows)
    assert rows.shape == (5, 1)
    assert np.any(rows != os.getpid())
    assert len(np.unique(rows)) <= 2
    assert multiprocessing.active_children() == []


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that records its worker count and
    runs the chunks in this process: no process starts."""

    made = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.made.append(max_workers)
        initializer(*initargs)

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("cpus,want", [(64, [3]), (2, [2]), (1, [])])
def test_replicate_workers_are_capped_by_chunks_and_cpus(monkeypatch, cpus,
                                                         want):
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InProcessPool)
    monkeypatch.setattr(walk_sim, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(walk_sim, "_CHUNK", None)

    def work(rng, m):
        return rng.random((m, 2))

    one = walk_sim._replicate(5, 2, 3, 1, work)
    assert _InProcessPool.made == []        # threads = 1: no pool
    many = walk_sim._replicate(5, 2, 3, 10**6, work)
    assert _InProcessPool.made == want      # min(threads, 3 chunks, CPUs)
    assert many.tobytes() == one.tobytes()
    # a daemonic caller (a multiprocessing.Pool worker) may not start
    # processes, and with no fork on the platform none can start: the
    # calling process runs every chunk
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert walk_sim._replicate(5, 2, 3, 10**6, work).tobytes() == one.tobytes()
    assert _InProcessPool.made == want
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", False)
    monkeypatch.delattr(os, "fork")
    assert walk_sim._replicate(5, 2, 3, 10**6, work).tobytes() == one.tobytes()
    assert _InProcessPool.made == want


def test_a_failing_chunk_raises_here_and_leaves_no_worker():
    # a horizon too short for the level: every chunk raises, the rest
    # are cancelled, and the workers are gone when the call returns
    with pytest.raises(RuntimeError, match="path did not reach the "
                                           "requested level"):
        sample_anomalous_ensemble(0.5, 0.0, 640, seed=1, t_max=1e-3,
                                  threads=2)
    assert multiprocessing.active_children() == []
    S, _, _ = sample_anomalous_ensemble(0.5, 0.0, 200, seed=1, threads=2)
    assert S.tobytes() == sample_anomalous_ensemble(
        0.5, 0.0, 200, seed=1, threads=1)[0].tobytes()
    assert multiprocessing.active_children() == []


def test_marginals_grow_both_tables_before_the_workers_fork():
    # a worker's table grows in its own memory only; the caller's must
    # already cover the cap, so that no worker builds one
    comb = power_comb(1.5, c=1.0)
    walk_marginals(comb, [10, 3000], 5000, seed=1, threads=2)
    for law in (comb.down_law, comb.up_law):
        cdf, guide = law._table
        assert guide is not None and len(cdf) >= 3000 + 2


def _cycle_by_cycle(comb, targets, rng, batch):
    """The marginals kernel one run cycle at a time over every lane, with
    a search of the full cdf table per draw: the reference for the
    blocked kernel and the guide on combs without trivial (1, 1) cycles."""
    tmax = targets[-1]
    cap = int(tmax) + 2
    down, up = (law.cdf_table(cap - 1) for law in (comb.down_law, comb.up_law))

    def draw(cdf):
        return np.minimum(cap, np.searchsorted(cdf, rng.random(batch)))

    pos = np.zeros(batch)
    tnow = np.zeros(batch)
    rec = np.full((batch, len(targets)), np.nan)
    while np.any(tnow <= tmax):
        td = draw(down).astype(float)
        tu = draw(up).astype(float)
        tot = td + tu
        for j, tj in enumerate(targets):
            o = tj - tnow
            hit = (o >= 1) & (o <= tot)
            if hit.any():
                oo = o[hit]
                rec[hit, j] = (pos[hit] - np.minimum(oo, td[hit])
                               + np.maximum(0.0, oo - td[hit]))
        pos += tu - td
        tnow += tot
    return rec


def _event_by_event(comb, targets, rng, batch):
    """The marginals kernel one row at a time over every lane, with a
    search of the full cdf table per draw: the reference for the blocked
    kernel, the guide and the collapse of trivial (1, 1) cycles.

    A row whose uniforms both fall below cdf[1] stands for K + 1 trivial
    cycles and then one cycle that is not trivial, redrawn from the same
    two uniforms with the kernel's arithmetic."""
    tmax = targets[-1]
    cap = int(tmax) + 2
    down, up = (law.cdf_table(cap - 1) for law in (comb.down_law, comb.up_law))
    p_d, p_u = down[1], up[1]
    q = p_d * p_u
    below_one = np.nextafter(1.0, 0.0)

    pos = np.zeros(batch, dtype=np.int64)
    tnow = np.zeros(batch, dtype=np.int64)
    rec = np.full((batch, len(targets)), np.nan)
    while np.any(tnow <= tmax):
        vd, vu = rng.random(batch), rng.random(batch)
        trivial = (vd < p_d) & (vu < p_u)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_q = np.copysign(np.log(q), -1.0)
            t = (np.log(p_d - vd[trivial]) - np.log(p_d)) / log_q
        t = np.fmin(t, (cap - 2) // 2)
        k = np.floor(t)
        vd[trivial] = np.minimum(1.0 + q - np.exp((t - k) * log_q),
                                 below_one)
        y = vu[trivial] / p_u
        vu[trivial] = np.where(vd[trivial] <= p_d,
                               np.minimum(p_u + (1.0 - p_u) * y, below_one), y)
        stretch = np.zeros(batch, dtype=np.int64)
        stretch[trivial] = 2 * k + 2
        td = np.minimum(cap, np.searchsorted(down, vd))
        tu = np.minimum(cap, np.searchsorted(up, vu))
        for j, tj in enumerate(targets):
            o = tj - tnow
            hit = (o >= 1) & (o <= stretch + td + tu)
            zig = o <= stretch          # inside the trivial stretch
            s = o - stretch
            rec[hit, j] = np.where(
                zig, pos - o % 2,
                pos - np.minimum(s, td) + np.maximum(0, s - td))[hit]
        pos += tu - td
        tnow += stretch + td + tu
    return rec


# a q = 0 comb: its up runs are never 1, so no cycle is trivial
NO_TRIVIAL_CYCLE = CombSpec(HazardFamily.table([0.0], ("constant", 0.4)),
                            HazardFamily.constant(0.3))


@pytest.mark.parametrize("comb", [
    constant_comb(0.3, 0.5),
    power_comb(0.5),
    power_comb(1.5, c=1.0),
    power_comb(1.0, c=0.01),
    CombSpec(HazardFamily.table([0.2, 0.6, 0.1], ("power", 0.8, 2.0)),
             HazardFamily.constant(0.4)),
    CombSpec(HazardFamily.table([0.5, 1.0], ("power", 0.5, 0.0)),
             HazardFamily.constant(0.3)),
], ids=["constant", "power0.5", "power1.5", "cauchy", "table", "hazard1"])
def test_blocked_marginals_match_the_event_by_event_kernel(comb):
    # 1, adjacent and repeated targets; the kernel sorts them
    targets = np.array([1, 2, 2, 3, 700, 1999, 2000, 2000])
    lanes = walk_sim._LANES

    for n_rep in (1, lanes - 1, lanes + 1):
        want = walk_sim._replicate(
            n_rep, lanes, 11, 1,
            lambda rng, m: _event_by_event(comb, targets, rng, lanes)[:m])
        for threads in (1, 2):
            got = walk_marginals(comb, targets[::-1], n_rep, seed=11,
                                 threads=threads)
            assert got.tobytes() == want.tobytes()


def test_combs_without_trivial_cycles_keep_the_cycle_by_cycle_bytes():
    targets = np.array([1, 2, 2, 3, 700, 1999, 2000, 2000])
    lanes = walk_sim._LANES
    for n_rep in (1, lanes - 1, lanes + 1):
        want = walk_sim._replicate(
            n_rep, lanes, 11, 1,
            lambda rng, m: _cycle_by_cycle(NO_TRIVIAL_CYCLE, targets, rng,
                                           lanes)[:m])
        for threads in (1, 2):
            got = walk_marginals(NO_TRIVIAL_CYCLE, targets[::-1], n_rep,
                                 seed=11, threads=threads)
            assert got.tobytes() == want.tobytes()


def test_advance_skips_the_doubles_it_would_draw(monkeypatch):
    # a short chunk skips the uniforms of its surplus lanes with advance,
    # which PCG64 steps one 64-bit output per double
    seen = []
    chunk = walk_sim._chunk_marginals

    def spy(comb, targets, rng, m):
        seen.append(type(rng.bit_generator))
        return chunk(comb, targets, rng, m)

    monkeypatch.setattr(walk_sim, "_chunk_marginals", spy)
    walk_marginals(constant_comb(0.3, 0.5), [5], 10, seed=0)
    assert seen == [np.random.PCG64]
    for k in (1, 2, 7, 4095):
        drawn, skipped = (np.random.default_rng(np.random.SeedSequence(3))
                          for _ in range(2))
        drawn.random(k)
        skipped.bit_generator.advance(k)
        assert drawn.random(9).tobytes() == skipped.random(9).tobytes()


@pytest.mark.parametrize("comb", [
    constant_comb(0.3, 0.5),
    power_comb(1.5, c=1.0),
    power_comb(0.5),
    power_comb(1.0, c=0.01),
], ids=["constant", "power1.5", "power0.5", "cauchy"])
def test_short_chunks_match_drawing_every_lane(comb):
    # the draw-all oracle: every chunk simulates all its lanes, and only
    # the first m rows are kept
    targets = np.array([3, 700, 2000])
    lanes = walk_sim._LANES
    for n_rep in (0, 1, 3000, lanes - 1, lanes, lanes + 1, 10_000):
        want = walk_sim._replicate(
            n_rep, lanes, 5, 1,
            lambda rng, m: walk_sim._chunk_marginals(comb, targets, rng,
                                                     lanes)[:m])
        for threads in (1, 2):
            got = walk_marginals(comb, targets, n_rep, seed=5,
                                 threads=threads)
            assert got.shape == (n_rep, len(targets))
            assert got.tobytes() == want.tobytes()


def test_fewer_replicas_are_a_prefix_of_more():
    comb = power_comb(1.5, c=1.0)
    lanes = walk_sim._LANES
    full = walk_marginals(comb, [10, 500], 2 * lanes + 3, seed=8)
    for n in (0, 1, 17, lanes - 1, lanes, lanes + 1, 2 * lanes + 2):
        part = walk_marginals(comb, [10, 500], n, seed=8, threads=2)
        assert part.tobytes() == full[:n].tobytes()


@pytest.mark.parametrize("comb", [
    CombSpec(HazardFamily.table([1.0]), HazardFamily.table([1.0])),
    CombSpec(HazardFamily.table([1.0, 0.5], ("power", 0.5, 0.0)),
             HazardFamily.table([1.0, 0.0, 0.2], ("constant", 0.3))),
], ids=["zigzag", "mixed-prefix"])
def test_marginals_of_walks_that_only_zigzag(comb):
    # q = 1: every cycle is (1, 1), so S_t = -(t mod 2); each replica is
    # one row whose trivial stretch passes every target
    targets = [1, 2, 5, 10, 10**9 + 1]
    S = walk_marginals(comb, targets, 5000, seed=4, threads=2)
    assert_array_equal(S, np.tile([-1, 0, -1, 0, -1], (5000, 1)))


def exact_law_pvalue(S, n, row):
    """Chi-square p-value of the positions S_n against the exact law
    P(S_n = 2k - n) = row[k], the bins of expected count < 5 pooled."""
    k = (np.asarray(S) + n) / 2
    assert np.array_equal(k, np.floor(k)) and k.min() >= 0 and k.max() <= n
    observed = np.bincount(k.astype(np.int64), minlength=n + 1)
    expected = len(k) * row[:n + 1]
    assert not np.any(observed[expected == 0.0])    # S_n = n, say
    big, small = expected >= 5, (expected > 0.0) & (expected < 5)
    f_obs, f_exp = observed[big], expected[big]
    if small.any():
        f_obs = np.append(f_obs, observed[small].sum())
        f_exp = np.append(f_exp, expected[small].sum())
    return chisquare(f_obs, f_exp).pvalue


# the occupation recursion counts up-steps from the same start (just
# after an up-to-down turn), so it gives the exact law of S_n
EXACT_LAW_COMBS = {
    "power0.5": power_comb(0.5),
    "power1.5": power_comb(1.5, c=1.0),
    "cauchy": power_comb(1.0, c=0.01),
    "constant": constant_comb(0.3, 0.5),
    "asymmetric": power_comb(0.5, c=1.4656, a_d=0.5, c_d=0.0),
}


@pytest.mark.parametrize("name", list(EXACT_LAW_COMBS))
def test_marginals_follow_the_exact_law(name):
    comb = EXACT_LAW_COMBS[name]
    targets = [7, 60, 500]
    S = walk_marginals(comb, targets, 100_000, seed=1)
    law = lamperti_recursion(comb, targets[-1])
    for j, n in enumerate(targets):
        assert exact_law_pvalue(S[:, j], n, law[n]) > 1e-3, f"n={n}"


@pytest.mark.parametrize("name", ["constant", "power1.5", "cauchy"])
def test_simulated_trajectories_follow_the_exact_law(name):
    comb = EXACT_LAW_COMBS[name]
    S = np.array([simulate_prw(comb, 60, seed=20_000 + i).positions()[[7, 60]]
                  for i in range(5000)])
    law = lamperti_recursion(comb, 60)
    for j, n in enumerate((7, 60)):
        assert exact_law_pvalue(S[:, j], n, law[n]) > 1e-3, f"n={n}"


def test_marginals_validation():
    comb = constant_comb(0.3, 0.5)
    with pytest.raises(ValueError):
        walk_marginals(comb, [], 100, seed=0)
    with pytest.raises(ValueError):
        walk_marginals(comb, [0, 5], 100, seed=0)
    # times and positions are exact integers below 2^53 (a float past
    # that is no longer every integer); targets beyond are refused, not
    # overflowed into int64
    for big in (2**53 + 1, 10**19, 10**30):
        with pytest.raises(ValueError, match=r"\[1, 2\^53\]"):
            walk_marginals(comb, [5, big], 100, seed=0)
    # u = 10^9 needs no 10^9-entry table: draws past the cached table
    # are searched on the closed-form tail
    t = 10 ** 9
    S = walk_marginals(power_comb(0.2), [t], 100, seed=0)
    assert S.shape == (100, 1)
    assert np.all(np.abs(S) <= t)
    assert np.all((S - t) % 2 == 0)
