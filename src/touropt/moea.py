"""NSGA-II over a bounded real-valued search space, maximizing three objectives.

Written from scratch: fast non-dominated sorting, crowding distance,
binary tournament selection, simulated binary crossover, polynomial
mutation, elitist environmental selection, and an exact sweep-based 3-D
hypervolume used both as a quality log and as the convergence signal
(stop when improvement over a sliding window falls below tolerance).

All dominance logic is in maximization form; objectives are stored as
returned by the problem, with no sign flips.  Every pairwise comparison
goes through one numpy primitive, :func:`dominance_matrix`, which the
sort, the all-time archive and the front verification share;
:func:`dominates` is its NaN-checking scalar counterpart.  The problem
is evaluated a generation at a time, (N, genes) genomes to (N, 3)
objectives.  Runs are reproducible: a single seeded generator drives
every random draw in a fixed order, and evaluation draws none.
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
    dominator is peeled, ties by ascending index.
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
    dom_count = dom.sum(axis=0).tolist()  # how many solutions dominate each
    dominated_by = [np.flatnonzero(row).tolist() for row in dom]
    fronts = [[p for p in range(n) if dom_count[p] == 0]]
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                dom_count[q] -= 1
                if dom_count[q] == 0:
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()
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


def _crowded_better(a: Individual, b: Individual) -> bool:
    if a.rank != b.rank:
        return a.rank < b.rank
    return a.crowding > b.crowding


def tournament_select(population, rng) -> Individual:
    """Binary tournament: lower rank wins, larger crowding breaks ties,
    the first-drawn candidate wins remaining ties."""
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    a, b = population[i], population[j]
    return b if _crowded_better(b, a) else a


def _sbx_beta(u: float, eta: float) -> float:
    if u <= 0.5:
        return (2.0 * u) ** (1.0 / (eta + 1.0))
    return (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))


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
        u = float(rng.random())
        if u < 0.5:
            delta = (2.0 * u) ** (1.0 / (eta_m + 1.0)) - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta_m + 1.0))
        x[i] += delta * (hi[i] - lo[i])
    np.clip(x, lo, hi, out=x)
    return x


def _assign_ranks_and_crowding(population) -> list:
    fronts = fast_nondominated_sort([ind.objectives for ind in population])
    for rank, front in enumerate(fronts):
        dists = crowding_distance([population[i].objectives for i in front])
        for k, idx in enumerate(front):
            population[idx].rank = rank
            population[idx].crowding = float(dists[k])
    return fronts


def environmental_selection(pool, n: int) -> list:
    """Elitist reduction of a parent+offspring pool to ``n`` survivors.

    Whole fronts are admitted in rank order; the first front that
    overflows is truncated by descending crowding distance.
    """
    fronts = _assign_ranks_and_crowding(pool)
    survivors = []
    for front in fronts:
        members = [pool[i] for i in front]
        if len(survivors) + len(members) <= n:
            survivors.extend(members)
        else:
            members.sort(key=lambda ind: -ind.crowding)
            survivors.extend(members[: n - len(survivors)])
        if len(survivors) == n:
            break
    return survivors


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

    Sweeps the third objective from high to low while maintaining the
    union area of the first two as a staircase.  Every point must
    dominate the reference point.
    """
    ref = tuple(float(v) for v in reference_point)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        return 0.0
    for p in pts:
        if not dominates(p, ref):
            raise ValueError(f"front point {p} does not dominate reference {ref}")
    pts.sort(key=lambda p: -p[2])
    xs, ys = [], []
    area = 0.0
    volume = 0.0
    prev_z = pts[0][2]
    for p in pts:
        if p[2] < prev_z:
            volume += area * (prev_z - p[2])
            prev_z = p[2]
        area = _staircase_insert(xs, ys, area, p[0], p[1], ref[0], ref[1])
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

    def evaluate(genomes) -> list:
        objs = np.asarray(problem(np.array(genomes)), dtype=float)
        if objs.shape != (len(genomes), 3):
            raise EvaluationError(f"problem returned shape {objs.shape} for "
                                  f"{len(genomes)} genomes; expected ({len(genomes)}, 3)")
        bad = ~np.isfinite(objs).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise EvaluationError(f"bad objectives {tuple(objs[i].tolist())} "
                                  f"for genome {genomes[i]}")
        return [Individual(g, tuple(o)) for g, o in zip(genomes, objs.tolist())]

    pop = evaluate([lows + (highs - lows) * rng.random(n_genes)
                    for _ in range(config.population_size)])
    _assign_ranks_and_crowding(pop)

    archive = _Archive()
    archive.add(pop)

    if config.reference_point is not None:
        ref = tuple(float(v) for v in config.reference_point)
    else:
        objs = np.array([ind.objectives for ind in pop])
        lo = objs.min(axis=0)
        span = objs.max(axis=0) - lo
        ref = tuple(lo - 0.01 * span - 1e-9 * (1.0 + np.abs(lo)))

    def archive_hv() -> float:
        pts = [ind.objectives for ind in archive.members
               if all(v > r for v, r in zip(ind.objectives, ref))]
        return hypervolume_3d(pts, ref) if pts else 0.0

    hv_log = [archive_hv()]
    gens = 0
    for _ in range(config.generations):
        offspring = []
        while len(offspring) < config.population_size:
            pa = tournament_select(pop, rng)
            pb = tournament_select(pop, rng)
            if rng.random() < config.crossover_prob:
                ga, gb = sbx_crossover(pa.genome, pb.genome, config.eta_c,
                                       lows, highs, rng)
            else:
                ga, gb = pa.genome.copy(), pb.genome.copy()
            for g in (ga, gb):
                offspring.append(polynomial_mutation(g, config.eta_m, pm, lows, highs, rng))
        offspring = evaluate(offspring)
        pop = environmental_selection(pop + offspring, config.population_size)
        archive.add(offspring)
        gens += 1
        hv_log.append(archive_hv())
        if gens > config.hv_window:
            base = hv_log[-1 - config.hv_window]
            gain = hv_log[-1] - base
            if gain < config.hv_rel_tol * max(abs(base), 1e-30):
                break

    front = ParetoFront(individuals=list(archive.members), reference_point=ref)
    return EvolveResult(front=front, hypervolume_log=hv_log,
                        generations_run=gens, population=pop)
