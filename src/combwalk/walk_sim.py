"""Exact simulation of comb walks.

The walk starts just after an up-to-down turn, so runs alternate
d, u, d, u, ...  Run lengths are drawn from the persistence laws'
inverter, which is equivalent to stepping the age-dependent switch
probabilities one step at a time but vastly faster.  Two simulators:

  simulate_prw      one trajectory: its run record, 16 bytes a run, grows
                    with the horizon; the CLI writes the same runs one
                    batch at a time (_run_batches), in memory bounded
                    whatever the horizon
  walk_marginals    many replicas, recording S only at target times, in
                    memory bounded whatever the horizon; deterministically
                    chunked so results are identical for any thread count

simulate_prw draws blocks of 64 down-runs and 64 up-runs in batches of
1, 2, 4, ... up to 1024 blocks, one rng.random call and one inverter
call per direction each.  That is the stream of one block at a time and,
inversion being elementwise, its run lengths.

walk_marginals runs 4096 lanes per chunk and draws 8 rows at a time,
each block one inverter call per direction through the laws' guide
tables.  A row is one down and one up uniform per lane, and it stands for
one cycle that is not the trivial (1, 1) one together with the trivial
cycles before it: when both uniforms fall below the laws' cdf[1], which
happens with probability q = P(d = 1) P(u = 1), _collapse turns the same
two uniforms into a geometric count of further trivial cycles and a
redrawn non-trivial cycle (on the critical Cauchy comb q = 0.98, and a
row stands for ~50 cycles), and returns each row's trivial stretch in
steps: time without displacement.  The recycled down uniform has a
resolution of 2^-53 / (p_d q^K) after K further trivial cycles, against
2^-53 for a fresh one.  Each target is located by counting the row ends
below it; a target inside a trivial stretch reads its position from the
parity of its offset.  Lanes past the last target are dropped from
inversion and arithmetic, but the stream still passes over their
uniforms, so it is that of one row of all 4096 lanes at a time.  A
short chunk keeps its first m lanes: each row draws their m down
uniforms, skips the other 4096 - m with PCG64.advance (random() takes
one 64-bit output per double), and does the same for the up uniforms.
Every row depends only on its own two uniforms, and times and positions
are integers below 2^53, so the output does not depend on the block size
or on how many lanes a chunk keeps.  A comb with q = 0 has no trivial
row, and its output is that of one cycle at a time.
"""

import bisect
import concurrent.futures

import numpy as np

_LANES = 4096
_CYCLES = 8                 # rows per block of walk_marginals
_BLOCK = 64                 # down-runs and up-runs drawn per block
_BATCH = 1024               # most blocks of simulate_prw drawn at once
_BELOW_ONE = np.nextafter(1.0, 0.0)     # the largest double below 1


def _signs(a, b):
    """The signs of runs a..b-1: -1 for a down run (even index), +1 up."""
    return np.arange(a, b) % 2 * 2 - 1


def _directions(a, b):
    """"d" or "u" for runs a..b-1."""
    return np.where(_signs(a, b) > 0, "u", "d")


class Trajectory:
    """A single walk realisation held as its run record: the run lengths
    (d, u, d, ...) and the step ending each run.  Run k goes down for even
    k and up for odd k; the last run may end past the horizon.  Every
    per-step value is expanded from the runs on demand."""

    def __init__(self, lengths, horizon):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.horizon = int(horizon)
        self._ends = np.cumsum(self.lengths)        # step ending each run

    @property
    def directions(self):
        """"d" or "u" for each run."""
        return _directions(0, len(self.lengths))

    def position_at(self, n):
        """S_n for integer step(s) n in [0, horizon]."""
        n = np.asarray(n)
        if np.any(n != np.trunc(n)):
            raise ValueError("step must be an integer")
        if np.any(n < 0) or np.any(n > self.horizon):
            raise ValueError("step outside simulated horizon")
        n = n.astype(np.int64)
        sign = _signs(0, len(self.lengths))
        signed = sign * self.lengths
        start = np.cumsum(signed) - signed          # S where each run starts
        r = np.searchsorted(self._ends, n, side="left")
        return start[r] + sign[r] * (n - self._ends[r] + self.lengths[r])

    def expand(self, lo, hi):
        """X and the age of the active run after each of steps lo+1..hi
        (0 <= lo < hi <= horizon), from the runs those steps cross."""
        a = np.searchsorted(self._ends, lo, side="right")
        b = np.searchsorted(self._ends, hi, side="left") + 1
        ends = self._ends[a:b]
        reps = np.diff(np.minimum(ends, hi), prepend=lo)
        steps = np.repeat(_signs(a, b), reps)
        ages = np.arange(lo + 1, hi + 1)
        ages -= np.repeat(ends - self.lengths[a:b], reps)
        return steps, ages

    def steps(self):
        """X_1..X_horizon."""
        return self.expand(0, self.horizon)[0]

    def positions(self):
        """S_0..S_horizon."""
        return np.concatenate([[0], np.cumsum(self.steps())])

    def ages(self):
        """Age of the active run after each of steps 1..horizon."""
        return self.expand(0, self.horizon)[1]


def _run_batches(comb, horizon, seed):
    """The run lengths of simulate_prw(comb, horizon, seed), one batch at
    a time: the last batch ends with the run that reaches `horizon` (which
    may pass it), and every batch before it holds nb whole blocks, so each
    batch starts with a down run.  Nothing for a horizon of 0."""
    rng = np.random.default_rng(seed)
    total = 0
    nb = 1
    while total < horizon:
        v = rng.random((nb, 2, _BLOCK))
        runs = np.empty((nb, 2 * _BLOCK), dtype=np.int64)
        runs[:, 0::2] = comb.down_law.invert(v[:, 0])
        runs[:, 1::2] = comb.up_law.invert(v[:, 1])
        del v                   # before the run ends are formed
        runs = runs.reshape(-1)
        ends = total + np.cumsum(runs)
        total = ends[-1]
        cut = np.searchsorted(ends, horizon) + 1
        del ends                # only the runs stay while the caller has them
        yield runs[:cut]
        nb = min(2 * nb, _BATCH)


def simulate_prw(comb, horizon, seed):
    """One trajectory out to `horizon` steps, held as its exact run record;
    a pure function of (comb, horizon, seed).

    `horizon` must be an integer in [1, 2^53] (ValueError before any
    draw otherwise): runs are drawn up to 2^53 steps long, so a longer
    horizon could not be honoured.  A block of runs is 64 down-runs then
    64 up-runs, from 64 down uniforms then 64 up uniforms; a batch of nb
    blocks draws rng.random((nb, 2, 64)), which is that same stream, and
    inverts each direction's uniforms in one call.  nb doubles from 1 up
    to _BATCH (1 MB of uniforms), which bounds the over-draw of a short
    horizon, and the run lengths are those of one block at a time for
    the same seed.  The batches come from _run_batches, which the CLI
    writes out one at a time.  Trajectory.expand(lo, hi) expands the run
    record into the steps lo+1..hi when asked, and
    steps()/positions()/ages() into per-step arrays of length `horizon`.
    """
    if not (1 <= horizon <= 1 << 53 and horizon == int(horizon)):
        raise ValueError("horizon must be an integer in [1, 2^53]")
    horizon = int(horizon)
    return Trajectory(np.concatenate(list(_run_batches(comb, horizon, seed))),
                      horizon)


# ---------------------------------------------------------------------------
# replicated marginals


def _replicate(n_rep, chunk, seed, threads, work):
    """Rows of work(rng, m) for n_rep replicas, in chunk order.

    Each chunk of `chunk` replicas gets its own child seed of `seed`
    and work returns its m rows, so the output is identical for any
    `threads` value.
    """
    if n_rep < 0:
        raise ValueError("n_rep must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # n_rep = 0 still runs one empty chunk, which fixes the row shape
    n_chunks = max(1, (n_rep + chunk - 1) // chunk)
    kids = np.random.SeedSequence(seed).spawn(n_chunks)

    def run(i):
        m = min(chunk, n_rep - i * chunk)
        return work(np.random.default_rng(kids[i]), m)

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        return np.concatenate(list(ex.map(run, range(n_chunks))))


def _collapse(vd, vu, p_d, p_u, cap):
    """Recycle in place the uniforms of the rows that draw a trivial (1, 1)
    cycle: returns each row's trivial stretch in steps, shaped like vd (0
    where the row is not trivial).  vd and vu must be C-contiguous.

    A row is trivial when both its uniforms lie below the laws' cdf[1], so
    with probability q = p_d p_u.  Given that, x = vd / p_d and y = vu / p_u
    are fresh uniforms: the row stands for K + 1 trivial cycles, with K =
    floor(log(1 - x) / log q) geometric, and then one cycle drawn from the
    law of a cycle that is not trivial.  r = (1 - x) / q^K is uniform on
    (q, 1], so the down uniform 1 + q - r is uniform on [q, 1), and the up
    uniform y is lifted to p_u + (1 - p_u) y when the down run is 1.

    "Below" is strict, so x < 1 and a law with cdf[1] = 0 never recycles
    (invert maps u = cdf[1] to 1 as well; such a row is simply not
    collapsed, which leaves the law exact).
    """
    flat_d, flat_u = vd.reshape(-1), vu.reshape(-1)
    rows = np.flatnonzero((flat_d < p_d) & (flat_u < p_u))
    q = p_d * p_u
    t = flat_d[rows]
    np.subtract(p_d, t, out=t)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log q is -0.0 at q = 1, so K is +inf there (nan at x = 0); K
        # is clipped where its stretch passes every target
        log_q = np.copysign(np.log(q), -1.0)
        np.log(t, out=t)
        t -= np.log(p_d)
        t /= log_q                          # log(1 - x) / log q
    np.fmin(t, (cap - 2) // 2, out=t)
    k = np.floor(t).astype(np.int64)
    t -= k
    t *= log_q
    np.exp(t, out=t)                        # r = q^(t - K)
    np.subtract(1.0 + q, t, out=t)
    flat_d[rows] = np.minimum(t, _BELOW_ONE, out=t)
    lift = t <= p_d
    y = flat_u[rows]
    y /= p_u
    np.multiply(y, 1.0 - p_u, out=t)
    t += p_u
    np.putmask(y, lift, np.minimum(t, _BELOW_ONE, out=t))
    flat_u[rows] = y
    stretch = np.zeros(vd.shape, dtype=np.int64)
    stretch.reshape(-1)[rows] = 2 * (k + 1)
    return stretch


def _positions(tj, hit, tnow, pos, td, tu, pre):
    """S at time tj of the lanes `hit`, which reach it within this block:
    td, tu and pre hold every lane's down runs, up runs and trivial
    stretches row by row, tnow and pos its time and position before them.
    S is an integer below 2^53, so it is exact as a float."""
    # where each of their rows ends, in time and in position
    ends = pre[:, hit]
    ends += td[:, hit]
    ends += tu[:, hit]
    np.cumsum(ends, axis=0, out=ends)
    ends += tnow[hit]
    walk = tu[:, hit]
    walk -= td[:, hit]
    np.cumsum(walk, axis=0, out=walk)
    walk += pos[hit]
    # the row that reaches tj follows every row ending before it
    row = np.count_nonzero(ends < tj, axis=0)
    at = (row, np.arange(len(hit)))
    d, u, p = (a[row, hit] for a in (td, tu, pre))
    o = tj - ends[at] + p + d + u       # tj's step within its row
    s = o - p                           # and past its trivial stretch
    return walk[at] - (u - d) - np.where(
        s <= 0, o & 1, np.minimum(s, d) - np.maximum(0, s - d))


def _chunk_marginals(comb, targets, rng, m):
    """S at `targets` for the first m lanes of a chunk of _LANES."""
    tmax = targets[-1]
    cap = int(tmax) + 2         # any run this long passes every target
    p_d, p_u = (law.lookup_table(cap)[0][1]
                for law in (comb.down_law, comb.up_law))
    rec = np.full((m, len(targets)), np.nan)
    lane = np.arange(m)         # lanes not yet past tmax, with their
    tnow = np.zeros(m, dtype=np.int64)      # time and position at the
    pos = np.zeros(m, dtype=np.int64)       # start of the block
    down, up = np.empty((2, _CYCLES, m))
    skip = _LANES - m
    while len(lane):
        # the stream of rng.random((_CYCLES, 2, _LANES)): row by row, the
        # down uniforms of every lane, then their up uniforms; those of
        # the m kept lanes are drawn (finished lanes' too, which skip the
        # rest of the block) and the others skipped
        for c in range(_CYCLES):
            for buf in (down, up):
                rng.random(out=buf[c])
                if skip:
                    rng.bit_generator.advance(skip)
        vd, vu = ((down, up) if len(lane) == m
                  else (down.take(lane, axis=1), up.take(lane, axis=1)))
        pre = _collapse(vd, vu, p_d, p_u, cap)  # each row's trivial stretch
        td = comb.down_law.invert(vd, cap)
        tu = comb.up_law.invert(vu, cap)
        del vd, vu
        sd, su = td.sum(axis=0), tu.sum(axis=0)
        # a trivial stretch adds time but no displacement
        end = tnow + sd + su + pre.sum(axis=0)
        # targets that some lane reaches in this block
        first = bisect.bisect_right(targets, tnow.min())
        last = bisect.bisect_right(targets, end.max())
        for j in range(first, last):
            hit = np.flatnonzero((tnow < targets[j]) & (end >= targets[j]))
            rec[lane[hit], j] = _positions(targets[j], hit, tnow, pos,
                                           td, tu, pre)
        tnow, pos = end, pos + su - sd
        # freed here, so that the arrays of one block do not pile onto
        # those of the next; pre (made last in _collapse) goes when the
        # next block's replaces it: freed here, it let the allocator trim
        # the heap and fault its pages in again every block
        del td, tu
        if last == len(targets):
            keep = np.flatnonzero(tnow <= tmax)
            lane, tnow, pos = lane[keep], tnow[keep], pos[keep]
    return rec


def walk_marginals(comb, targets, n_rep, seed, threads=1):
    """S at the given integer times for n_rep independent walks.

    Replicas are generated in fixed 4096-lane chunks, each with its own
    child seed, and reduced in chunk order -- the output is identical
    for any `threads` value.
    """
    targets = sorted(int(t) for t in targets)
    if len(targets) == 0 or targets[0] < 1 or targets[-1] > 1 << 53:
        raise ValueError("targets must be integers in [1, 2^53]")
    targets = np.asarray(targets, dtype=np.int64)

    def work(rng, m):
        # a short last chunk simulates only its m lanes and skips the
        # uniforms of the rest, so the stream does not depend on n_rep
        return _chunk_marginals(comb, targets, rng, m)

    return _replicate(n_rep, _LANES, seed, threads, work)
