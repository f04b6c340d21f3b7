"""NSGA-II over a bounded real-valued search space, maximizing three objectives.

Written from scratch: fast non-dominated sorting, crowding distance,
binary tournament selection, simulated binary crossover, polynomial
mutation, elitist environmental selection, and an exact sweep-based 3-D
hypervolume used both as a quality log and as the convergence signal
(stop when improvement over a sliding window falls below tolerance).

All dominance logic is in maximization form; objectives are stored as
returned by the problem, with no sign flips.  Every pairwise comparison
goes through one numpy primitive, :func:`dominance_matrix`, which the
sort (a front-by-front peel of the matrix), the all-time archive and the
front verification share; :func:`dominates` is its NaN-checking scalar
counterpart.  The problem is evaluated a generation at a time, (N, genes)
genomes to (N, 3) objectives.

Inside :func:`evolve` the population lives in arrays: genomes (N, genes),
objectives (N, 3), rank and crowding (N,).  A generation's variation
draws its uint64s from the seeded generator in one block and replays over
them what the per-call operators (:func:`tournament_select`,
:func:`sbx_crossover`, :func:`polynomial_mutation`) would consume, so
runs are byte-identical to a loop over those operators.  Runs are
reproducible: a single seeded generator drives every random draw in a
fixed order, and evaluation draws none.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EvaluationError

_VERIFY_BLOCK = 256  # rows compared against the whole front at a time

__all__ = [
    "Individual",
    "EAConfig",
    "ParetoFront",
    "EvolveResult",
    "dominates",
    "dominance_matrix",
    "fast_nondominated_sort",
    "crowding_distance",
    "tournament_select",
    "sbx_crossover",
    "polynomial_mutation",
    "environmental_selection",
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
    """Knobs of the evolutionary run."""

    population_size: int = 100
    generations: int = 40
    eta_c: float = 15.0            # SBX distribution index
    eta_m: float = 20.0            # polynomial-mutation distribution index
    mutation_prob: float | None = None  # per-gene; default 1/n_genes
    crossover_prob: float = 0.9
    seed: int = 0
    hv_window: int = 10            # generations in the plateau window
    hv_rel_tol: float = 1e-4       # relative improvement below this stops
    reference_point: tuple | None = None  # hypervolume anchor; auto if None

    def validate(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError("population_size must be even and >= 4")
        if self.eta_c <= 0 or self.eta_m <= 0:
            raise ConfigError("distribution indices must be > 0")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must be in [0, 1]")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError("crossover_prob must be in [0, 1]")
        if self.generations < 1:
            raise ConfigError("generations must be >= 1")
        if self.hv_window < 1:
            raise ConfigError("hv_window must be >= 1")


@dataclass
class ParetoFront:
    individuals: list
    reference_point: tuple

    def objective_array(self) -> np.ndarray:
        return np.array([ind.objectives for ind in self.individuals], dtype=float)

    def check_nondominated(self) -> bool:
        """True when no member dominates another; NaN raises.

        Compares blocks of rows against the whole front, so memory stays
        at ``_VERIFY_BLOCK`` x len(front) bools.
        """
        objs = self.objective_array()
        if np.isnan(objs).any():
            raise EvaluationError("NaN objective in front verification")
        for start in range(0, len(objs), _VERIFY_BLOCK):
            if dominance_matrix(objs[start:start + _VERIFY_BLOCK], objs).any():
                return False
        return True


def dominates(a, b) -> bool:
    """Maximization dominance: a is no worse everywhere, better somewhere."""
    better = False
    for x, y in zip(a, b):
        if math.isnan(x) or math.isnan(y):
            raise EvaluationError(f"NaN objective in dominance check: {a} vs {b}")
        if x < y:
            return False
        if x > y:
            better = True
    return better


def dominance_matrix(a, b=None, *, weak: bool = False) -> np.ndarray:
    """Pairwise maximization dominance between the rows of ``a`` and ``b``.

    ``D[i, j]`` is True when row i of ``a`` dominates row j of ``b`` (no
    worse everywhere, better somewhere); ``b`` defaults to ``a``.  With
    ``weak`` it is True when row i is merely no worse everywhere, so equal
    rows cover each other.  Built one objective column at a time, so memory
    stays at len(a) x len(b) bools.  NaN compares false everywhere:
    callers that may hold NaN check for it first.
    """
    a = np.asarray(a, dtype=float)
    b = a if b is None else np.asarray(b, dtype=float)
    ge = np.ones((len(a), len(b)), dtype=bool)
    gt = np.zeros_like(ge)
    for m in range(a.shape[1]):
        x, y = a[:, m, None], b[None, :, m]
        ge &= x >= y
        if not weak:
            gt |= x > y
    return ge if weak else ge & gt


def fast_nondominated_sort(objectives) -> list:
    """Deb's fast non-dominated sort.

    Takes a sequence of objective tuples, returns fronts as lists of
    indices; front 0 is the non-dominated set and the fronts partition the
    population.  Within a front, members appear in the order their last
    dominator is peeled, ties by ascending index.  Peels the dominance
    matrix a front at a time.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n == 0:
        return []
    nan_rows = np.isnan(objs).any(axis=1)
    if nan_rows.any():
        row = tuple(objs[int(np.argmax(nan_rows))].tolist())
        raise EvaluationError(f"NaN objective in population: {row}")
    dom = dominance_matrix(objs)
    dom_count = dom.sum(axis=0)  # how many solutions dominate each
    front = np.flatnonzero(dom_count == 0)
    fronts = []
    while front.size:
        fronts.append(front.tolist())
        peeled = dom[front]
        dom_count -= peeled.sum(axis=0)
        nxt = np.flatnonzero((dom_count == 0) & peeled.any(axis=0))
        # position of each newcomer's last dominator in the peeled front
        last = len(front) - 1 - np.argmax(peeled[::-1, nxt], axis=0)
        front = nxt[np.argsort(last, kind="stable")]
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distance within one front.

    Per objective, extreme members get +inf and interior members the
    neighbor gap normalized by the objective's range; a zero-range
    objective contributes nothing.
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for m in range(objs.shape[1]):
        order = np.argsort(objs[:, m], kind="stable")
        lo, hi = objs[order[0], m], objs[order[-1], m]
        dist[order[0]] = dist[order[-1]] = np.inf
        span = hi - lo
        if span == 0.0:
            continue
        col = objs[order, m]
        dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def tournament_select(population, rng) -> Individual:
    """Binary tournament: lower rank wins, larger crowding breaks ties,
    the first-drawn candidate wins remaining ties."""
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    a, b = population[i], population[j]
    if a.rank != b.rank:
        return b if b.rank < a.rank else a
    return b if b.crowding > a.crowding else a


def _sbx_beta(u: float, eta: float) -> float:
    if u <= 0.5:
        return (2.0 * u) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))


def _mutation_delta(u: float, eta: float) -> float:
    if u < 0.5:
        return (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
    return 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))


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


def _offspring(rng, genomes, rank, crowd, lows, highs, config: EAConfig, pm: float):
    """One generation of offspring, bit-equal to the per-call loop.

    The per-call loop makes ``n / 2`` pairs: two :func:`tournament_select`
    parents, :func:`sbx_crossover` with probability ``crossover_prob``
    (else copies), and :func:`polynomial_mutation` of each child.  This
    draws the generation's uint64s in one block, walks them with
    :func:`_replay`, does the arithmetic on arrays and leaves the PCG64
    generator in the state the loop would.  The SBX spread and mutation
    step stay Python-float powers: ``np.power`` differs from them in the
    last bit for some inputs.  Returns the (n, genes) children in the
    loop's order.
    """
    n, g = genomes.shape
    bitgen = rng.bit_generator
    saved = bitgen.state
    raw = bitgen.random_raw(n // 2 * (3 + 5 * g))  # enough unless a draw is rejected
    while (plan := _replay(raw, n, g, config.crossover_prob, pm,
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
        us = dbl[np.add.outer(sbx_at, np.arange(g))]
        beta = np.array([_sbx_beta(u, config.eta_c) for u in us.ravel().tolist()])
        beta = beta.reshape(us.shape)
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
        delta = [_mutation_delta(u, config.eta_m) for u in dbl[at[hit] + 1].tolist()]
        kids[hit] += np.array(delta) * (highs - lows)[np.nonzero(hit)[1]]
    return np.clip(kids, lows, highs, out=kids)


def _select(objs, n: int) -> tuple:
    """Elitist selection on an (N, 3) objective array.

    Returns the indices of the ``n`` survivors -- whole fronts in rank
    order, the front that overflows truncated by descending crowding
    distance -- and every row's front index and crowding distance.
    """
    fronts = fast_nondominated_sort(objs)
    rank = np.empty(len(objs), dtype=np.intp)
    crowd = np.empty(len(objs))
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(objs[front])
    keep = []
    for front in fronts:
        if len(keep) + len(front) > n:
            f = np.array(front)
            front = f[np.argsort(-crowd[f], kind="stable")][: n - len(keep)].tolist()
        keep.extend(front)
        if len(keep) == n:
            break
    return keep, rank, crowd


def environmental_selection(pool, n: int) -> list:
    """Elitist reduction of a parent+offspring pool to ``n`` survivors.

    Whole fronts are admitted in rank order; the first front that
    overflows is truncated by descending crowding distance.  Sets every
    pool member's ``rank`` and ``crowding``.
    """
    keep, rank, crowd = _select(np.array([ind.objectives for ind in pool], dtype=float), n)
    for ind, r, c in zip(pool, rank.tolist(), crowd.tolist()):
        ind.rank, ind.crowding = r, c
    return [pool[i] for i in keep]


def _staircase_insert(xs, ys, area, x, y, ref_x, ref_y) -> float:
    """Insert an (x, y) point into a maximal staircase, returning new area.

    The staircase is kept sorted by x ascending (y strictly descending);
    ``area`` is the union area of the rectangles [ref, point].
    """
    i = bisect.bisect_left(xs, x)
    if i < len(xs) and ys[i] >= y:
        return area  # dominated in the plane: no new area
    hi = i
    if hi < len(xs) and xs[hi] == x:  # same x, strictly lower y: replaced
        hi += 1
    lo = i
    while lo > 0 and ys[lo - 1] <= y:
        lo -= 1
    x_left = xs[lo - 1] if lo > 0 else ref_x
    old = 0.0
    xprev = x_left
    for k in range(lo, hi):
        old += (xs[k] - xprev) * (ys[k] - ref_y)
        xprev = xs[k]
    if hi < len(xs) and x > xprev:
        old += (x - xprev) * (ys[hi] - ref_y)
    area += (x - x_left) * (y - ref_y) - old
    del xs[lo:hi]
    del ys[lo:hi]
    xs.insert(lo, x)
    ys.insert(lo, y)
    return area


def hypervolume_3d(points, reference_point) -> float:
    """Exact dominated hypervolume of 3-D maximization points.

    Takes an (n, 3) array (or a sequence of triples).  Sweeps the third
    objective from high to low while maintaining the union area of the
    first two as a staircase.  Every point must dominate the reference
    point.
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
    pts = pts[np.argsort(-pts[:, 2], kind="stable")].tolist()
    xs, ys = [], []
    area = 0.0
    volume = 0.0
    prev_z = pts[0][2]
    for x, y, z in pts:
        if z < prev_z:
            volume += area * (prev_z - z)
            prev_z = z
        area = _staircase_insert(xs, ys, area, x, y, ref[0], ref[1])
    volume += area * (prev_z - ref[2])
    return volume


class _Archive:
    """All-time non-dominated set, updated a generation at a time."""

    def __init__(self):
        self.members: list = []
        self._objs = np.empty((0, 3))

    def add(self, cands) -> None:
        """Insert ``cands`` with the result of inserting them one by one.

        Candidate j enters unless an old member or an earlier candidate is
        at least as good everywhere; each entrant then evicts every member,
        and every earlier entrant, that it is at least as good as.
        Survivors keep their order: old members first, then entrants.
        """
        if not cands:
            return
        new = np.array([c.objectives for c in cands], dtype=float)
        old = self._objs
        among = dominance_matrix(new, weak=True)
        covered = (dominance_matrix(old, new, weak=True).any(axis=0)
                   | np.triu(among, 1).any(axis=0))
        entered = np.flatnonzero(~covered)
        keep_old = ~dominance_matrix(new[entered], old, weak=True).any(axis=0)
        keep_new = entered[~np.tril(among[np.ix_(entered, entered)], -1).any(axis=0)]
        self.members = ([m for m, k in zip(self.members, keep_old) if k]
                        + [cands[i] for i in keep_new])
        self._objs = np.vstack([old[keep_old], new[keep_new]])


@dataclass
class EvolveResult:
    front: ParetoFront
    hypervolume_log: list
    generations_run: int
    population: list = field(default_factory=list)


def evolve(problem, lows, highs, config: EAConfig) -> EvolveResult:
    """Run the full NSGA-II loop.

    ``problem`` maps an (N, n_genes) array of genomes to an (N, 3) array
    of their objective values (all maximized) and must be deterministic.
    It is called once for the initial population and once per generation,
    after all of that generation's offspring are drawn; evaluation draws
    no random numbers, so the seeded stream does not depend on it.  Stops
    at the generation limit, or earlier once the archive hypervolume
    improves by less than ``hv_rel_tol`` (relatively) over ``hv_window``
    generations.
    """
    config.validate()
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != highs.shape or np.any(lows > highs):
        raise ConfigError("invalid bounds")
    n_genes = len(lows)
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / n_genes
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
                                  f"for genome {genomes[i]}")
        return objs

    def individuals(genomes, objs) -> list:
        # each member owns its row, so the archive keeps no generation's array alive
        return [Individual(g.copy(), tuple(o)) for g, o in zip(genomes, objs.tolist())]

    genomes = lows + (highs - lows) * rng.random((config.population_size, n_genes))
    objs = evaluate(genomes)
    _, rank, crowd = _select(objs, len(objs))

    archive = _Archive()
    archive.add(individuals(genomes, objs))

    if config.reference_point is not None:
        ref = tuple(float(v) for v in config.reference_point)
    else:
        lo = objs.min(axis=0)
        span = objs.max(axis=0) - lo
        ref = tuple(lo - 0.01 * span - 1e-9 * (1.0 + np.abs(lo)))

    def archive_hv() -> float:
        pts = archive._objs[(archive._objs > ref).all(axis=1)]
        return hypervolume_3d(pts, ref) if len(pts) else 0.0

    hv_log = [archive_hv()]
    gens = 0
    for _ in range(config.generations):
        kids = _offspring(rng, genomes, rank, crowd, lows, highs, config, pm)
        kid_objs = evaluate(kids)
        pool, pool_objs = np.vstack([genomes, kids]), np.vstack([objs, kid_objs])
        keep, rank, crowd = _select(pool_objs, config.population_size)
        genomes, objs, rank, crowd = pool[keep], pool_objs[keep], rank[keep], crowd[keep]
        archive.add(individuals(kids, kid_objs))
        gens += 1
        hv_log.append(archive_hv())
        if gens > config.hv_window:
            base = hv_log[-1 - config.hv_window]
            gain = hv_log[-1] - base
            if gain < config.hv_rel_tol * max(abs(base), 1e-30):
                break

    population = individuals(genomes, objs)
    for ind, r, c in zip(population, rank.tolist(), crowd.tolist()):
        ind.rank, ind.crowding = r, c
    front = ParetoFront(individuals=list(archive.members), reference_point=ref)
    return EvolveResult(front=front, hypervolume_log=hv_log,
                        generations_run=gens, population=population)
