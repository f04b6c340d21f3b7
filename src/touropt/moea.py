"""NSGA-II over a bounded real-valued search space, maximizing three objectives.

Written from scratch: fast non-dominated sorting, crowding distance,
binary tournament selection, simulated binary crossover, polynomial
mutation, elitist environmental selection, and an exact sweep-based 3-D
hypervolume used both as a quality log and as the convergence signal
(stop when improvement over a sliding window falls below tolerance).

All dominance logic is in maximization form; objectives are stored as
returned by the problem, with no sign flips.  Dominance is tested in
rank space: each objective is ranked over the rows compared with one sort,
and the dense integer ranks (int16 while they fit) are compared instead of
the floats.  One strict test serves every caller: no worse in every rank,
and a larger rank sum.  The sort peels :func:`dominance_matrix` (the test
on all rows) front by front, the front verification runs the test on
256-row blocks against the rows of no larger rank sum, and the all-time
archive ranks old and new rows once per insert, screens its candidates
with the test and its members with weak covers.  Elitist selection
peels only the fronts that fill the next population (the sort's
``until``) and computes their crowding distances in one pass.
The problem is evaluated a generation at a time, (N, genes) to (N, 3).

The population lives in arrays, genomes (N, genes), objectives (N, 3),
rank and crowding (N,), and so do the results: ``result.population`` is
that tuple for the final generation, and ``result.front.genomes`` and
``result.front.objectives`` hold the archive.  A generation's variation
draws its uint64s from the seeded generator in one block and replays over
them what the per-call operators (:func:`tournament_select`,
:func:`sbx_crossover`, :func:`polynomial_mutation`) would consume, so
runs are byte-identical to a loop over those operators.  Runs are
reproducible: a single seeded generator drives every random draw in a
fixed order, and evaluation draws none.

The all-time archive and its hypervolume are read only by the plateau
stop, so :func:`evolve` runs them in a worker process forked after the
initial evaluation, one generation behind the main loop: it sends
generation t to the worker, as raw float64 bytes, makes generation t+1,
and only then takes the hypervolume of t.  When that stops the run at t,
generation t+1 is discarded; the generator is not read again.  Where the
platform cannot fork, the same stage runs in-process in the same order.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationError
from .sd_core import _where

_VERIFY_BLOCK = 256  # rows compared against the whole front at a time
# the variation operators of Deb et al. (2002): SBX with probability
# _CROSSOVER_PROB per pair, then polynomial mutation of each gene with
# probability 1 / genes
_ETA_C = 15.0  # SBX distribution index
_ETA_M = 20.0  # polynomial-mutation distribution index
_CROSSOVER_PROB = 0.9
# the plateau stop: archive hypervolume gaining less than _HV_REL_TOL
# (relatively) over _HV_WINDOW generations
_HV_WINDOW = 10
_HV_REL_TOL = 1e-4

__all__ = [
    "Individual",
    "EAConfig",
    "ParetoFront",
    "EvolveResult",
    "dominance_matrix",
    "fast_nondominated_sort",
    "crowding_distance",
    "tournament_select",
    "sbx_crossover",
    "polynomial_mutation",
    "hypervolume_3d",
    "evolve",
]


@dataclass
class Individual:
    genome: np.ndarray
    objectives: tuple
    rank: int = 0
    crowding: float = 0.0


@dataclass(frozen=True)
class EAConfig:
    """Sizes and seed of the evolutionary run."""

    population_size: int = 100
    generations: int = 40
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError("population_size must be even and >= 4")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")


@dataclass
class ParetoFront:
    genomes: np.ndarray     # (n, genes)
    objectives: np.ndarray  # (n, 3)
    reference_point: tuple

    @property
    def individuals(self) -> list:
        """The members as ``Individual`` rows, built anew on each access."""
        return [Individual(g, tuple(o))
                for g, o in zip(self.genomes.copy(), self.objectives.tolist())]

    def check_nondominated(self) -> bool:
        """True when no member dominates another; NaN raises.

        Ranks the front once and orders it by ascending rank sum.  A
        dominator has the strictly larger rank sum, so it comes later: each
        ``_VERIFY_BLOCK`` rows of the order are tested, with the same strict
        test as :func:`dominance_matrix`, only against the rows up to the
        block's end.  That is about half the pairs, and memory stays at
        ``_VERIFY_BLOCK`` x len(front) bools.
        """
        objs = self.objectives
        if np.isnan(objs).any():
            raise EvaluationError("NaN objective in front verification")
        ranks, sums = _ranks(objs)
        order = np.argsort(sums, kind="stable")  # ties keep their row order
        # take, not ranks[:, order], which numpy lays out column-major
        ranks, sums = ranks.take(order, axis=1), sums.take(order)
        for lo in range(0, len(objs), _VERIFY_BLOCK):
            hi = lo + _VERIFY_BLOCK
            if _strict(_covers(ranks[:, lo:hi], ranks[:, :hi]), sums[:hi], slice(lo, hi)).any():
                return False
        return True


def _int_type(top: int):
    """The narrowest of int16/int32/int64 that holds 0..``top``."""
    for dtype in (np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _ranks(objs) -> tuple:
    """Dense per-objective ranks of the rows of an (n, m) array, as (m, n),
    and each row's rank sum, as (n,).

    Equal values share a rank (-0.0 ties with 0.0), so comparing ranks
    gives the comparisons of the values.  One sort per objective; int16
    while n fits.  NaN values get ranks of their own above every number:
    callers mask NaN rows themselves.
    """
    n = len(objs)
    cols = np.ascontiguousarray(objs.T)
    order = np.argsort(cols, axis=1)
    ordered = np.take_along_axis(cols, order, axis=1)
    steps = np.zeros(cols.shape, dtype=_int_type(n))
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    np.cumsum(steps, axis=1, out=steps)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=1)
    return ranks, ranks.sum(axis=0, dtype=_int_type(ranks.size))


def _covers(ra, rb) -> np.ndarray:
    """``C[i, j]``: column i of the (m, na) ranks ``ra`` is no worse than
    column j of ``rb`` in every objective."""
    if not len(ra):
        return np.ones((ra.shape[1], rb.shape[1]), dtype=bool)
    ge = ra[0][:, None] >= rb[0]
    for m in range(1, len(ra)):
        ge &= ra[m][:, None] >= rb[m]
    return ge


def _strict(ge, sums, rows=slice(None)) -> np.ndarray:
    """``D[i, j]``: row i of ``rows`` dominates row j, from ``ge`` (row i is
    no worse everywhere) and the rank ``sums``, since where a row is no
    worse everywhere a larger rank sum is better somewhere."""
    return ge & (sums[rows, None] > sums)


def dominance_matrix(a) -> np.ndarray:
    """Pairwise maximization dominance between the rows of ``a``.

    ``D[i, j]`` is True when row i dominates row j (no worse everywhere,
    better somewhere).  The rows are ranked per objective
    (:func:`_ranks`) and the integer ranks compared one objective at a
    time, so memory stays at len(a) x len(a) bools.  A row holding NaN
    compares false everywhere, as NaN does: callers that may hold NaN
    check for it first.
    """
    a = np.asarray(a, dtype=float)
    ranks, sums = _ranks(a)
    ge = _covers(ranks, ranks)
    # a NaN ranks above every number, so only a NaN row can cover a NaN row
    ge[np.isnan(a).any(axis=1)] = False
    return _strict(ge, sums)


def fast_nondominated_sort(objectives, until=None) -> list:
    """Deb's fast non-dominated sort.

    Takes a sequence of objective tuples, returns fronts as lists of
    indices; front 0 is the non-dominated set.  Within a front, members
    appear in the order their last dominator is peeled, ties by ascending
    index.  Peels the dominance matrix a front at a time.  With no
    ``until`` the fronts partition the population; else peeling stops at
    the first front that brings the rows peeled to ``until`` or more, so
    the result is the shortest non-empty prefix of the full sort that
    holds that many (every front when the population is smaller).
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n == 0:
        return []
    nan_rows = np.isnan(objs).any(axis=1)
    if nan_rows.any():
        row = tuple(objs[int(np.argmax(nan_rows))].tolist())
        raise EvaluationError(f"NaN objective in population: {row}")
    until = n if until is None else min(until, n)
    dom = dominance_matrix(objs)
    dom_count = np.add.reduce(dom, axis=0, dtype=_int_type(n))  # how many solutions dominate each
    front = np.flatnonzero(dom_count == 0)
    fronts = [front.tolist()]
    held = len(front)
    while held < until:
        peeled = dom[front]
        hits = np.add.reduce(peeled, axis=0, dtype=dom_count.dtype)
        dom_count -= hits
        nxt = np.flatnonzero((dom_count == 0) & (hits > 0))
        # position of each newcomer's last dominator in the peeled front
        last = len(front) - 1 - np.argmax(peeled[::-1, nxt], axis=0)
        front = nxt[np.argsort(last, kind="stable")]
        fronts.append(front.tolist())
        held += len(front)
    return fronts


def _crowding(objs, sizes) -> np.ndarray:
    """Crowding distance of rows stored front after front.

    ``objs`` holds the fronts' rows back to back, ``sizes`` their lengths;
    each front is measured on its own.  Per objective one stable lexsort
    orders the rows by front, then value, then position within the front
    (ties keep the stored order), so each front's slice of the order is
    the stable argsort of that front alone.
    """
    total = len(objs)
    dist = np.zeros(total)
    if not total:
        return dist
    sizes = np.asarray(sizes)
    front_of = np.repeat(np.arange(len(sizes)), sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    edge = np.zeros(total, dtype=bool)
    edge[starts] = edge[ends - 1] = True
    inner = np.flatnonzero(~edge)
    for m in range(objs.shape[1]):
        order = np.lexsort((objs[:, m], front_of))
        col = objs[order, m]
        dist[order[edge]] = np.inf
        span = (col[ends - 1] - col[starts])[front_of[inner]]
        live = span != 0.0  # a zero span adds nothing
        k = inner[live]
        dist[order[k]] += (col[k + 1] - col[k - 1]) / span[live]
    return dist


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distance within one front.

    Per objective, extreme members get +inf and interior members the
    neighbor gap normalized by the objective's range; a zero-range
    objective contributes nothing.
    """
    objs = np.asarray(objectives, dtype=float)
    return _crowding(objs, [len(objs)])


def tournament_select(population, rng) -> Individual:
    """Binary tournament: lower rank wins, larger crowding breaks ties,
    the first-drawn candidate wins remaining ties."""
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    a, b = population[i], population[j]
    if a.rank != b.rank:
        return b if b.rank < a.rank else a
    return b if b.crowding > a.crowding else a


def _root(base, eta):
    """``base ** (1 / (eta + 1))`` by Python's float power, element by
    element on an array: ``np.power`` differs in the last bit for some
    inputs."""
    exponent = 1.0 / (eta + 1.0)
    if isinstance(base, np.ndarray):
        return np.array([b ** exponent for b in base.ravel().tolist()]).reshape(base.shape)
    return base ** exponent


def _sbx_beta(u, eta):
    """The SBX spread of a uniform draw ``u`` in [0, 1), or of an array of them."""
    return _root(_where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))), eta)


def _mutation_delta(u, eta):
    """The polynomial-mutation step, in units of the gene's range, of a
    uniform draw ``u`` in [0, 1), or of an array of them."""
    low = u < 0.5
    pw = _root(_where(low, 2.0 * u, 2.0 * (1.0 - u)), eta)
    return _where(low, pw - 1.0, 1.0 - pw)


def sbx_crossover(parent_a, parent_b, eta_c: float, lows, highs, rng) -> tuple:
    """Simulated binary crossover; children are clipped into the box.

    With spread 1 (u = 0.5) the children equal the parents, and identical
    parents always produce identical children.
    """
    pa = np.asarray(parent_a, dtype=float)
    pb = np.asarray(parent_b, dtype=float)
    ca = np.empty_like(pa)
    cb = np.empty_like(pb)
    for i in range(len(pa)):
        beta = _sbx_beta(float(rng.random()), eta_c)
        ca[i] = 0.5 * ((1.0 + beta) * pa[i] + (1.0 - beta) * pb[i])
        cb[i] = 0.5 * ((1.0 - beta) * pa[i] + (1.0 + beta) * pb[i])
    np.clip(ca, lows, highs, out=ca)
    np.clip(cb, lows, highs, out=cb)
    return ca, cb


def polynomial_mutation(genome, eta_m: float, prob: float, lows, highs, rng) -> np.ndarray:
    """Polynomial mutation applied gene-wise with probability ``prob``."""
    x = np.asarray(genome, dtype=float).copy()
    lo = np.asarray(lows, dtype=float)
    hi = np.asarray(highs, dtype=float)
    for i in range(len(x)):
        if rng.random() >= prob:
            continue
        x[i] += _mutation_delta(float(rng.random()), eta_m) * (hi[i] - lo[i])
    np.clip(x, lo, hi, out=x)
    return x


_U32 = 0xFFFFFFFF
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53, as numpy's next_double scales


def _replay(raw, n: int, g: int, cx: float, pm: float, has_half: bool, half: int):
    """Walk one generation of per-call draws through the uint64s ``raw``.

    Per offspring pair the per-call loop draws four ``integers(n)``
    tournament indices, a crossover double, ``g`` SBX doubles when the pair
    crosses, and per child gene a double plus one more when it mutates.
    A bounded integer takes the generator's buffered 32-bit half if it
    holds one, else the low half of a fresh uint64 (buffering the high
    half), and rejects the draw when the low 32 bits of ``x * n`` fall
    below ``2**32 % n`` (Lemire); a double takes a fresh uint64 ``u`` as
    ``(u >> 11) * 2**-53``.  ``has_half``/``half`` are the generator's
    buffer on entry; like numpy, ``half`` keeps the last high half loaded
    after it is used.

    Returns None when ``raw`` may be too short; otherwise the tournament
    indices, crossover flags, start positions of the SBX and mutation
    draws, the doubles, the next-gene positions, the number of uint64s
    consumed and the buffer on exit.
    """
    size = len(raw)
    dbl = (raw >> np.uint64(11)).astype(float) * _TO_DOUBLE
    # next_gene[k]: where the next gene's draw starts if one starts at k;
    # size + 1 marks running past the end
    next_gene = np.concatenate([np.arange(1, size + 1) + (dbl < pm), [size + 1] * 2])
    child_end = next_gene
    for _ in range(g - 1):
        child_end = next_gene[child_end]
    threshold = (1 << 32) % n
    pos = 0
    picks, cross, sbx_at, mut_at = [], [], [], []
    for _ in range(n // 2):
        for _ in range(4):
            while True:
                if has_half:
                    x, has_half = half, False
                elif pos == size:
                    return None
                else:
                    word = int(raw[pos])
                    x, half, has_half = word & _U32, word >> 32, True
                    pos += 1
                m = x * n
                if m & _U32 >= threshold:
                    break
            picks.append(m >> 32)
        if pos + 1 + 5 * g > size:  # the rest of the pair needs at most this
            return None
        crosses = bool(dbl[pos] < cx)
        cross.append(crosses)
        pos += 1
        if crosses:
            sbx_at.append(pos)
            pos += g
        mut_at.append(pos)
        pos = int(child_end[pos])
        mut_at.append(pos)
        pos = int(child_end[pos])
    return picks, cross, sbx_at, mut_at, dbl, next_gene, pos, has_half, half


def _offspring(rng, genomes, rank, crowd, lows, highs):
    """One generation of offspring, bit-equal to the per-call loop.

    The per-call loop makes ``n / 2`` pairs: two :func:`tournament_select`
    parents, :func:`sbx_crossover` with probability ``_CROSSOVER_PROB``
    (else copies), and :func:`polynomial_mutation` of each child, each gene
    with probability ``1 / genes``.  This draws the generation's uint64s in
    one block, walks them with :func:`_replay`, does the arithmetic on
    arrays and leaves the PCG64 generator in the state the loop would.  The
    SBX spreads and mutation steps of the whole generation are each one
    array call of the scalar operators' helpers.  Returns the (n, genes)
    children in the loop's order.
    """
    n, g = genomes.shape
    pm = 1.0 / g
    bitgen = rng.bit_generator
    saved = bitgen.state
    raw = bitgen.random_raw(n // 2 * (3 + 5 * g))  # enough unless a draw is rejected
    while (plan := _replay(raw, n, g, _CROSSOVER_PROB, pm,
                           bool(saved["has_uint32"]), saved["uinteger"])) is None:
        raw = np.concatenate([raw, bitgen.random_raw(len(raw))])
    picks, cross, sbx_at, mut_at, dbl, next_gene, consumed, has_half, half = plan
    bitgen.state = saved
    bitgen.advance(consumed)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(has_half), half
    bitgen.state = state

    i, j = np.array(picks).reshape(-1, 2).T
    second = (rank[j] < rank[i]) | ((rank[j] == rank[i]) & (crowd[j] > crowd[i]))
    kids = genomes[np.where(second, j, i)]  # parents a0, b0, a1, b1, ...
    if sbx_at:
        beta = _sbx_beta(dbl[np.add.outer(sbx_at, np.arange(g))], _ETA_C)
        rows = 2 * np.flatnonzero(cross)
        pa, pb = kids[rows], kids[rows + 1]
        kids[rows] = np.clip(0.5 * ((1.0 + beta) * pa + (1.0 - beta) * pb), lows, highs)
        kids[rows + 1] = np.clip(0.5 * ((1.0 - beta) * pa + (1.0 + beta) * pb), lows, highs)
    at = np.empty((n, g), dtype=np.intp)
    at[:, 0] = mut_at
    for k in range(1, g):
        at[:, k] = next_gene[at[:, k - 1]]
    hit = dbl[at] < pm
    if hit.any():
        delta = _mutation_delta(dbl[at[hit] + 1], _ETA_M)
        kids[hit] += delta * (highs - lows)[np.nonzero(hit)[1]]
    return np.clip(kids, lows, highs, out=kids)


def _select(objs, n: int) -> tuple:
    """Elitist selection on an (N, 3) objective array.

    Returns the indices of the ``n`` survivors -- whole fronts in rank
    order, the front that overflows truncated by descending crowding
    distance -- and each row's front index and crowding distance.  Only
    the fronts that fill the ``n`` places are peeled, ranked and crowded;
    the other rows get rank -1 and crowding NaN.
    """
    fronts = fast_nondominated_sort(objs, n)
    rank = np.full(len(objs), -1, dtype=np.intp)
    crowd = np.full(len(objs), np.nan)
    if not fronts:
        return np.empty(0, dtype=np.intp), rank, crowd
    sizes = [len(f) for f in fronts]
    rows = np.concatenate(fronts)
    rank[rows] = np.repeat(np.arange(len(fronts)), sizes)
    crowd[rows] = _crowding(objs[rows], sizes)
    if len(rows) <= n:
        return rows, rank, crowd
    start = len(rows) - sizes[-1]  # the last front overflows: cut by crowding
    tail = rows[start:]
    tail = tail[np.argsort(-crowd[tail], kind="stable")][: n - start]
    return np.concatenate([rows[:start], tail]), rank, crowd


def hypervolume_3d(points, reference_point) -> float:
    """Exact dominated hypervolume of 3-D maximization points.

    Takes an (n, 3) array (or a sequence of triples).  Sweeps the third
    objective from high to low while maintaining the union area of the
    first two as a staircase: lists ``xs``/``ys`` sorted by x ascending,
    y strictly descending.  Every point must dominate the reference point.
    """
    ref = tuple(float(v) for v in reference_point)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not len(pts):
        return 0.0
    if np.isnan(pts).any() or any(math.isnan(v) for v in ref):
        raise EvaluationError(f"NaN objective in hypervolume against reference {ref}")
    below = ~((pts >= ref).all(axis=1) & (pts > ref).any(axis=1))
    if below.any():
        p = tuple(pts[int(np.argmax(below))].tolist())
        raise ValueError(f"front point {p} does not dominate reference {ref}")
    xcol, ycol, zcol = pts[np.argsort(-pts[:, 2], kind="stable")].T.tolist()
    ref_x, ref_y, ref_z = ref
    bisect_left = bisect.bisect_left
    xs, ys = [], []
    area = 0.0
    volume = 0.0
    prev_z = zcol[0]
    for x, y, z in zip(xcol, ycol, zcol):
        if z < prev_z:
            volume += area * (prev_z - z)
            prev_z = z
        # xs[lo:hi] are the steps (x, y) covers; they give way to it
        hi = lo = bisect_left(xs, x)
        if hi < len(xs):
            if ys[hi] >= y:
                continue  # dominated in the plane: no new area
            if xs[hi] == x:
                hi += 1
        while lo and ys[lo - 1] <= y:
            lo -= 1
        xprev = x_left = xs[lo - 1] if lo else ref_x
        old = 0.0  # the staircase's area over [x_left, x]
        if hi > lo:
            for k in range(lo, hi):
                old += (xs[k] - xprev) * (ys[k] - ref_y)
                xprev = xs[k]
        if hi < len(xs) and x > xprev:
            old += (x - xprev) * (ys[hi] - ref_y)
        area += (x - x_left) * (y - ref_y) - old
        if hi > lo:
            xs[lo:hi] = [x]
            ys[lo:hi] = [y]
        else:  # it covers no step
            xs.insert(lo, x)
            ys.insert(lo, y)
    volume += area * (prev_z - ref_z)
    return volume


class _Archive:
    """All-time non-dominated set, updated a generation at a time."""

    def __init__(self, n_genes: int):
        self.genomes = np.empty((0, n_genes))
        self.objs = np.empty((0, 3))

    def add(self, genomes, objs) -> None:
        """Insert rows of ``genomes`` and ``objs`` with the result of inserting them one by one.

        Candidate j enters unless an old member or an earlier candidate is
        at least as good everywhere; each entrant then evicts every member,
        and every earlier entrant, that it is at least as good as.
        Survivors keep their order: old members first, then entrants.

        Old members dominate none of each other, so that comes to: a
        candidate stays unless another candidate dominates it, an earlier
        one equals it or an old member covers it; an old member stays
        unless a staying candidate covers it.  Old and new rows are ranked
        once, and each test compares only the rows still in question.
        """
        if not len(objs):
            return
        new = np.asarray(objs, dtype=float)
        old = self.objs
        ranks, sums = _ranks(np.concatenate([old, new]))
        ro, rn = ranks[:, :len(old)], ranks[:, len(old):]
        among = _covers(rn, rn)
        # a row's first equal row is itself unless it has an earlier twin
        twin = (among & among.T).argmax(axis=0) < np.arange(len(new))
        keep_new = np.flatnonzero(~(_strict(among, sums[len(old):]).any(axis=0) | twin))
        # "no old member is at least as good", as negated ranks: the long
        # old axis stays innermost, which numpy broadcasts several times faster
        keep_new = keep_new[~_covers(-rn[:, keep_new], -ro).any(axis=1)]
        keep_old = ~_covers(rn[:, keep_new], ro).any(axis=0)
        # copies: the archive keeps no generation's array alive
        self.genomes = np.vstack([self.genomes[keep_old], genomes[keep_new]])
        self.objs = np.vstack([old[keep_old], new[keep_new]])


def _archive_stage(genomes, objs, ref):
    """The all-time archive and its hypervolume, as a generator.

    It adds the initial population and yields the archive hypervolume;
    then, for each ``(kids, kid_objs)`` sent to it, it adds the kids and
    yields the new hypervolume.  Sent None, it yields the archive as a
    genome array and an objective array.
    """
    archive = _Archive(genomes.shape[1])
    batch = (genomes, objs)
    while batch is not None:
        archive.add(*batch)
        pts = archive.objs[(archive.objs > ref).all(axis=1)]
        batch = yield hypervolume_3d(pts, ref) if len(pts) else 0.0
    yield archive.genomes, archive.objs


def _serve(conn, stage, width: int, main_end, main_cpu) -> None:
    """Body of the forked worker: answer each message on ``conn`` with
    ``stage``'s next value, starting with its first, until it has sent
    the front or the main process closes ``main_end``, the other end of
    the pipe (the worker closes its own copy first, or it would never see
    the end).  A message is the raw float64 bytes of one ``(kids,
    kid_objs)`` batch side by side, ``width`` columns in all, or empty for
    None (see :class:`_Forked`).  An exception of the stage is sent back
    for the main process to raise.  ``os._exit`` ends the worker, so it
    runs none of the main process's exit handlers and flushes none of its
    buffers.

    The worker keeps off ``main_cpu``, the CPU the main process ran on
    at the fork: a forked process starts on its parent's CPU, and a woken
    one tends to stay where it last ran, so the two could share one CPU
    for the whole run while another idles.
    """
    try:
        main_end.close()
        if main_cpu is not None:
            others = os.sched_getaffinity(0) - {main_cpu}
            if others:
                os.sched_setaffinity(0, others)
        msg = None  # a fresh generator takes None as its first send
        for step in itertools.count():
            try:
                out = stage.send(msg)
            except Exception as exc:
                conn.send(exc)
                return
            conn.send(out)
            if step and msg is None:
                return  # that was the front: exit while the main process builds its result
            raw = conn.recv_bytes()
            if raw:
                block = np.frombuffer(raw).reshape(-1, width)
                msg = block[:, :width - 3], block[:, width - 3:]
            else:  # the empty message stands for None
                msg = None
    except (EOFError, OSError):
        pass  # the main process is done with the worker
    finally:
        os._exit(0)


def _current_cpu():
    """The CPU this process runs on, where Linux tells it, else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Forked:
    """The main process's end of the worker.  ``send`` writes a batch as
    one block of raw float64 bytes, not a pickle, and None as an empty
    message."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, msg) -> None:
        if msg is None:
            self._conn.send_bytes(b"")
        else:
            self._conn.send_bytes(np.hstack(msg, dtype=float))

    def recv(self):
        try:
            out = self._conn.recv()
        except EOFError:
            raise RuntimeError("the archive worker exited unexpectedly") from None
        if isinstance(out, Exception):
            raise out
        return out


class _InProcess:
    """The stage run in this process, behind the worker's send/recv."""

    def __init__(self, stage):
        self._stage = stage
        self.send(None)

    def send(self, msg) -> None:
        self._out = self._stage.send(msg)

    def recv(self):
        return self._out


@contextlib.contextmanager
def _archive_worker(stage, genes: int):
    """``stage`` behind ``send``/``recv``: in one forked worker process
    where that is safe and can help, else in this process.  The worker
    is sent batches of ``genes`` genome columns and 3 objective columns,
    and is joined on every exit."""
    import multiprocessing  # here, not at import: it costs about 10 ms
    import threading

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon  # daemons cannot fork
            # the fork copies this thread alone: a lock another thread
            # holds would stay held in the worker
            or threading.active_count() > 1
            or _usable_cpus() < 2):  # one CPU would run the two in turn
        yield _InProcess(stage)
        return
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    worker = ctx.Process(target=_serve,
                         args=(theirs, stage, genes + 3, ours, _current_cpu()), daemon=True)
    try:
        worker.start()
    except OSError:  # no process to spare: run the stage here
        ours.close()
        theirs.close()
        yield _InProcess(stage)
        return
    theirs.close()
    try:
        yield _Forked(ours)
    finally:
        ours.close()
        worker.join()


@dataclass
class EvolveResult:
    front: ParetoFront
    hypervolume_log: list
    generations_run: int
    population: tuple = ()  # the final generation's genomes, objectives, rank, crowding
    stop_reason: str = "generation_cap"  # or "hv_plateau"


def evolve(problem, lows, highs, config: EAConfig) -> EvolveResult:
    """Run the full NSGA-II loop.

    ``problem`` maps an (N, n_genes) array of genomes to an (N, 3) array
    of their objective values (all maximized) and must be deterministic.
    It is called once for the initial population and once per generation,
    after all of that generation's offspring are drawn; evaluation draws
    no random numbers, so the seeded stream does not depend on it.  Stops
    at the generation limit (``stop_reason`` "generation_cap"), or earlier
    once the archive hypervolume improves by less than ``_HV_REL_TOL``
    (relatively) over ``_HV_WINDOW`` generations ("hv_plateau").

    The archive and its hypervolume run in one worker process, forked
    after the initial evaluation, while the main loop makes the next
    generation.  A plateau stop at generation t is known only after
    generation t+1 has been made; that generation is discarded and the
    population put back as it was after t, so the result is the same as a
    sequential loop's.  ``problem`` is then
    called once more than ``1 + generations_run`` times.  An exception
    raised while making generation t+1 propagates only if the run does
    not stop at t.
    """
    config.validate()
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != highs.shape or np.any(lows > highs):
        raise ConfigError("invalid bounds")
    n_genes = len(lows)
    rng = np.random.default_rng(config.seed)

    def evaluate(genomes) -> np.ndarray:
        objs = np.asarray(problem(np.array(genomes)), dtype=float)
        if objs.shape != (len(genomes), 3):
            raise EvaluationError(f"problem returned shape {objs.shape} for "
                                  f"{len(genomes)} genomes; expected ({len(genomes)}, 3)")
        bad = ~np.isfinite(objs).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise EvaluationError(f"bad objectives {tuple(objs[i].tolist())} "
                                  f"for genome {genomes[i].tolist()}")
        return objs

    try:  # a ValueError: numpy cannot even describe the shape
        draws = rng.random((config.population_size, n_genes))
    except (MemoryError, ValueError) as exc:
        raise MemoryError(f"population_size {config.population_size} is too large "
                          f"to hold: {exc}") from None
    genomes = lows + (highs - lows) * draws
    objs = evaluate(genomes)
    _, rank, crowd = _select(objs, len(objs))

    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    ref = tuple(lo - 0.01 * span - 1e-9 * (1.0 + np.abs(lo)))

    hv_log = []
    gens = 0
    stop_reason = "generation_cap"
    with _archive_worker(_archive_stage(genomes, objs, ref), n_genes) as archive:
        while True:
            # archive holds generation ``gens``; make the next one meanwhile
            kept = genomes, objs, rank, crowd
            failure = None
            if gens < config.generations:
                try:
                    kids = _offspring(rng, genomes, rank, crowd, lows, highs)
                    kid_objs = evaluate(kids)
                    pool, pool_objs = np.vstack([genomes, kids]), np.vstack([objs, kid_objs])
                    keep, rank, crowd = _select(pool_objs, config.population_size)
                    genomes, objs, rank, crowd = (pool[keep], pool_objs[keep],
                                                  rank[keep], crowd[keep])
                except Exception as exc:
                    failure = exc
            hv_log.append(archive.recv())
            if gens > _HV_WINDOW:
                base = hv_log[-1 - _HV_WINDOW]
                gain = hv_log[-1] - base
                if gain < _HV_REL_TOL * max(abs(base), 1e-30):
                    genomes, objs, rank, crowd = kept
                    stop_reason = "hv_plateau"
                    break
            if failure is not None:
                raise failure
            if gens == config.generations:
                break
            archive.send((kids, kid_objs))
            gens += 1
        archive.send(None)
        front = ParetoFront(*archive.recv(), reference_point=ref)
    return EvolveResult(front=front, hypervolume_log=hv_log, generations_run=gens,
                        population=(genomes, objs, rank, crowd), stop_reason=stop_reason)
