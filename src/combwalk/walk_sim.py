"""Exact simulation of comb walks.

The walk starts just after an up-to-down turn, so runs alternate
d, u, d, u, ...  Run lengths are drawn from the persistence laws'
inverter, which is equivalent to stepping the age-dependent switch
probabilities one step at a time but vastly faster.  Two simulators,
both in memory bounded whatever the horizon:

  simulate_prw      one trajectory, run-resolved; per-step arrays on demand
  walk_marginals    many replicas, recording S only at target times;
                    deterministically chunked so results are identical
                    for any thread count

walk_marginals runs 4096 lanes per chunk and draws their run lengths 8
cycles at a time, each block one inverter call per direction through
the laws' guide tables.  Each target is located by counting the cycle
ends below it.  Lanes past the last target still draw their uniforms,
so the random stream is that of one cycle at a time, but are dropped
from inversion and arithmetic.  Times and positions are integers below
2^53, so the output does not depend on the block size.
"""

import concurrent.futures

import numpy as np

_LANES = 4096
_CYCLES = 8                 # run cycles per block of walk_marginals
_BLOCK = 64                 # down-runs and up-runs drawn per block


class Trajectory:
    """A single walk realisation held as its run lengths (d, u, d, ...)."""

    def __init__(self, lengths, horizon):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.horizon = int(horizon)
        self._signs = np.resize([-1, 1], len(self.lengths))   # d -1, u +1
        self.directions = np.where(self._signs > 0, "u", "d")
        self._ends = np.cumsum(self.lengths)        # step ending each run
        self._reps = self.lengths.copy()            # last run cut at horizon
        self._reps[-1] -= self._ends[-1] - self.horizon
        self._disp = np.concatenate(
            [[0], np.cumsum(self._signs * self.lengths)])

    @property
    def n_runs(self):
        return len(self.lengths)

    def position_at(self, n):
        """S_n for integer step(s) n in [0, horizon]."""
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 0) or np.any(n > self.horizon):
            raise ValueError("step outside simulated horizon")
        r = np.searchsorted(self._ends, n, side="left")
        start = self._ends[r] - self.lengths[r]
        return self._disp[r] + self._signs[r] * (n - start)

    def steps(self):
        """X_1..X_horizon."""
        return np.repeat(self._signs, self._reps)

    def positions(self):
        """S_0..S_horizon."""
        return np.concatenate([[0], np.cumsum(self.steps())])

    def ages(self):
        """Age of the active run after each of steps 1..horizon."""
        starts = self._ends - self.lengths
        return np.arange(1, self.horizon + 1) - np.repeat(starts, self._reps)


def simulate_prw(comb, horizon, seed=None, rng=None):
    """One trajectory out to `horizon` steps, held as its exact run record.

    Runs are drawn 64 down-runs then 64 up-runs at a time.
    Trajectory.steps()/positions()/ages() expand it into per-step arrays
    of length `horizon` when asked.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    blocks = []
    total = 0
    while total < horizon:
        runs = np.empty(2 * _BLOCK, dtype=np.int64)
        runs[0::2] = comb.down_law.sample(rng, _BLOCK)
        runs[1::2] = comb.up_law.sample(rng, _BLOCK)
        ends = total + np.cumsum(runs)
        blocks.append(runs[:np.searchsorted(ends, horizon) + 1])
        total = ends[-1]
    return Trajectory(np.concatenate(blocks), horizon)


# ---------------------------------------------------------------------------
# replicated marginals


def _replicate(n_rep, chunk, seed, threads, work):
    """Rows of work(rng, m) for n_rep replicas, in chunk order.

    Each chunk of `chunk` replicas gets its own child seed of `seed`;
    work may return more than m rows (only the first m are kept), so
    the output is identical for any `threads` value.
    """
    if n_rep < 0:
        raise ValueError("n_rep must be >= 0")
    # n_rep = 0 still runs one empty chunk, which fixes the row shape
    n_chunks = max(1, (n_rep + chunk - 1) // chunk)
    kids = np.random.SeedSequence(seed).spawn(n_chunks)

    def run(i):
        m = min(chunk, n_rep - i * chunk)
        return work(np.random.default_rng(kids[i]), m)[:m]

    workers = max(1, threads)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
        return np.concatenate(list(ex.map(run, range(n_chunks))))


def _running(start, steps):
    """Rows start, start + steps[0], start + steps[0] + steps[1], ..."""
    out = np.empty((len(steps) + 1, len(start)), dtype=np.int64)
    out[0] = start
    for c, step in enumerate(steps):
        # row by row: cumsum along axis 0 strides across rows, ~5x slower
        np.add(out[c], step, out=out[c + 1])
    return out


def _chunk_marginals(comb, targets, rng, batch):
    tmax = targets[-1]
    cap = int(tmax) + 2         # any run this long passes every target
    rec = np.full((batch, len(targets)), np.nan)
    lane = np.arange(batch)     # lanes not yet past tmax, with their
    tnow = np.zeros(batch, dtype=np.int64)   # time and position at the
    pos = np.zeros(batch, dtype=np.int64)    # start of the block
    while len(lane):
        # _CYCLES (down, up) rows are the bytes of _CYCLES per-cycle
        # draws; finished lanes draw theirs too, but skip the rest
        u = rng.random((_CYCLES, 2, batch))
        live = slice(None) if len(lane) == batch else lane
        td = comb.down_law.invert(u[:, 0, live], cap)
        tu = comb.up_law.invert(u[:, 1, live], cap)
        del u
        # cycle c runs from ends[c] to ends[c + 1] and starts at position
        # walk[c]; S is an integer below 2^53, so it is exact as a float
        ends = _running(tnow, td + tu)
        tu -= td
        walk = _running(pos, tu)
        # targets that some lane reaches in this block
        first, last = np.searchsorted(targets, [tnow.min(), ends[-1].max()],
                                      side="right")
        for j in range(first, last):
            tj = targets[j]
            hit = np.flatnonzero((tnow < tj) & (ends[-1] >= tj))
            # the cycle that reaches tj follows every cycle ending before it
            c = np.count_nonzero(ends[1:, hit] < tj, axis=0)
            o = tj - ends[c, hit]
            d = td[c, hit]
            rec[lane[hit], j] = (walk[c, hit] - np.minimum(o, d)
                                 + np.maximum(0, o - d))
        tnow, pos = ends[-1], walk[-1]
        keep = np.flatnonzero(tnow <= tmax)
        if len(keep) < len(lane):
            lane, tnow, pos = lane[keep], tnow[keep], pos[keep]
    return rec


def walk_marginals(comb, targets, n_rep, seed, threads=1):
    """S at the given integer times for n_rep independent walks.

    Replicas are generated in fixed 4096-lane chunks, each with its own
    child seed, and reduced in chunk order -- the output is identical
    for any `threads` value.
    """
    targets = np.asarray(sorted(int(t) for t in targets), dtype=np.int64)
    if len(targets) == 0 or targets[0] < 1:
        raise ValueError("targets must be integers >= 1")

    def work(rng, m):
        # all lanes are simulated even in a short last chunk, so the
        # random stream does not depend on n_rep
        return _chunk_marginals(comb, targets, rng, _LANES)

    return _replicate(n_rep, _LANES, seed, threads, work)
