"""Shared builders for unit and property tests."""

import bisect
import math
from dataclasses import replace

import numpy as np

from touropt import gsa, moea
from touropt.dataio import _NOISE_REL
from touropt.errors import ConfigError, DataError, EvaluationError
from touropt.flow import SCHEDULE_FIELDS, FlowResult, SiteState
from touropt.sd_core import (
    COEFF_FIELDS,
    POLICY_FIELDS,
    SERIES_FIELDS,
    ExogenousSeries,
    ModelCoefficients,
    PolicyVector,
    SimState,
    simulate,
)


def flat_exog(n=5, start_year=2008, **overrides):
    """Constant series: handy for hand-computable step tests."""
    base = {
        "V_base": 1e6,
        "R_gov_base": 1e7,
        "EXP_gov_base": 1e7,
        "G_retreat": 250.0,
        "CO2_emission": 9e4,
        "population": 32000.0,
        "unemployment": 0.05,
        "S_sat_base": 0.5,
    }
    base.update(overrides)
    years = np.arange(start_year, start_year + n)
    data = {k: (np.asarray(v, dtype=float) if np.ndim(v) else np.full(n, float(v)))
            for k, v in base.items()}
    return ExogenousSeries(years=years, **data)


def neutral_coeffs(**overrides):
    """Coefficients that make every factor an identity unless overridden."""
    base = dict(
        alpha=0.0, k1=100.0, eps_price=0.0, kappa=0.0, G_retreat_baseline=250.0,
        P_visitor_base=100.0, P_ship_capacity=5000.0, K_dev=0.0, K_gov_dev=0.0,
        alpha_gov_base=0.3, S_threshold=0.3, R_social=0.8, alpha_g=0.0,
        alpha_w=0.0, beta1=0.0, beta2=0.0, delta=0.0, p_glacier=0.0,
        p_waste=0.0, p2=0.0, p3=0.0, p4=0.0, eps_crowd=1.0,
    )
    base.update(overrides)
    return ModelCoefficients(**base)


def slack_policy(**overrides):
    """Zero levers with capacity/ship limits far above any demand."""
    base = dict(tax_rate=0.0, env_ratio=0.0, dev_incentive=0.0,
                capacity_limit=1e12, ship_limit=1e6, carbon_fee=0.0,
                glacier_ratio=0.5)
    base.update(overrides)
    return PolicyVector(**base)


def mid_state(**overrides):
    base = dict(visitors=1e6, env_index=0.5, satisfaction=0.5, net_revenue_cum=0.0)
    base.update(overrides)
    return SimState(**base)


def random_exog(rng, n=17):
    years = np.arange(2008, 2008 + n)
    return ExogenousSeries(
        years=years,
        V_base=rng.uniform(2e5, 4e6, n),
        R_gov_base=rng.uniform(1e6, 2e7, n),
        EXP_gov_base=rng.uniform(1e6, 2e7, n),
        G_retreat=rng.uniform(100.0, 500.0, n),
        CO2_emission=rng.uniform(5e4, 2e5, n),
        population=rng.uniform(1e4, 5e5, n),
        unemployment=rng.uniform(0.0, 0.2, n),
        S_sat_base=rng.uniform(0.2, 0.8, n),
    )


def random_coeffs(rng):
    """Draws over the documented admissible coefficient ranges."""
    return ModelCoefficients(
        alpha=rng.uniform(0.0, 1.0),
        k1=rng.uniform(50.0, 200.0),
        eps_price=rng.uniform(-2.0, 0.0),
        kappa=rng.uniform(0.0, 0.5),
        G_retreat_baseline=rng.uniform(100.0, 400.0),
        P_visitor_base=rng.uniform(20.0, 300.0),
        P_ship_capacity=rng.uniform(1e3, 1e4),
        K_dev=rng.uniform(0.0, 2e5),
        K_gov_dev=rng.uniform(0.0, 5e5),
        alpha_gov_base=rng.uniform(0.0, 1.0),
        S_threshold=rng.uniform(0.0, 0.6),
        R_social=rng.uniform(0.3, 1.0),
        alpha_g=rng.uniform(0.0, 5e-8),
        alpha_w=rng.uniform(0.0, 5e-8),
        beta1=rng.uniform(0.0, 3e-4),
        beta2=rng.uniform(0.0, 1e-6),
        delta=rng.uniform(0.0, 0.3),
        p_glacier=rng.uniform(0.0, 2e-8),
        p_waste=rng.uniform(0.0, 2e-8),
        p2=rng.uniform(0.0, 2e-3),
        p3=rng.uniform(0.0, 1.0),
        p4=rng.uniform(0.0, 0.5),
    )


def random_policy(rng, bounds):
    lo, hi = bounds.lows(), bounds.highs()
    return PolicyVector.from_array(lo + (hi - lo) * rng.random(len(lo)))


def random_state(rng, exog):
    return SimState(
        visitors=float(exog.V_base[0]),
        env_index=float(rng.uniform(0.0, 1.0)),
        satisfaction=float(rng.uniform(0.0, 1.0)),
        net_revenue_cum=0.0,
    )


def brute_force_fronts(objectives):
    """Independent oracle: peel non-dominated layers by pairwise counting."""
    def dom(a, b):
        return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))

    remaining = list(range(len(objectives)))
    fronts = []
    while remaining:
        layer = [i for i in remaining
                 if not any(dom(objectives[j], objectives[i])
                            for j in remaining if j != i)]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return fronts


def hv_grid_oracle(points, ref):
    """Exact hypervolume by coordinate compression; O(n^4), test-only."""
    pts = [tuple(map(float, p)) for p in points]
    if not pts:
        return 0.0
    axes = []
    for d in range(3):
        axes.append(sorted({ref[d]} | {p[d] for p in pts}))
    vol = 0.0
    for i in range(len(axes[0]) - 1):
        for j in range(len(axes[1]) - 1):
            for k in range(len(axes[2]) - 1):
                hi = (axes[0][i + 1], axes[1][j + 1], axes[2][k + 1])
                if any(p[0] >= hi[0] and p[1] >= hi[1] and p[2] >= hi[2]
                       for p in pts):
                    vol += ((axes[0][i + 1] - axes[0][i])
                            * (axes[1][j + 1] - axes[1][j])
                            * (axes[2][k + 1] - axes[2][k]))
    return vol


def dominates_reference(a, b):
    """Reference: maximization dominance of two objective tuples, a scalar
    loop (a is no worse everywhere and better somewhere)."""
    better = False
    for x, y in zip(a, b):
        if x < y:
            return False
        if x > y:
            better = True
    return better


def pairwise_nondominated_sort(objectives):
    """Reference: Deb's sort with the pairwise Python dominance loop.

    Same peel order as ``fast_nondominated_sort``, so front lists must
    match it element for element, order within each front included.
    """
    objs = [tuple(o) for o in objectives]
    n = len(objs)
    dominated_by = [[] for _ in range(n)]
    dom_count = [0] * n
    for p in range(n):
        for q in range(p + 1, n):
            if dominates_reference(objs[p], objs[q]):
                dominated_by[p].append(q)
                dom_count[q] += 1
            elif dominates_reference(objs[q], objs[p]):
                dominated_by[q].append(p)
                dom_count[p] += 1
    fronts = [[p for p in range(n) if dom_count[p] == 0]]
    while fronts[-1]:
        nxt = []
        for p in fronts[-1]:
            for q in dominated_by[p]:
                dom_count[q] -= 1
                if dom_count[q] == 0:
                    nxt.append(q)
        fronts.append(nxt)
    fronts.pop()
    return fronts


def dominance_matrix_loop(a, b=None, *, weak: bool = False) -> np.ndarray:
    """Reference: pairwise maximization dominance compared on the floats.

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


def crowding_loop(objectives):
    """Reference: crowding distance with the per-member inner loop."""
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
        for k in range(1, n - 1):
            gap = objs[order[k + 1], m] - objs[order[k - 1], m]
            dist[order[k]] += gap / span
    return dist


def archive_one_at_a_time(genomes, objs, new_genomes, new_objs):
    """Reference: insert candidate rows into an archive one by one.

    The archive is the rows of ``genomes`` and ``objs``, the candidates
    those of ``new_genomes`` and ``new_objs``.  A candidate enters unless a
    member is at least as good everywhere, and then evicts every member it
    is at least as good as.  Returns the new archive's two arrays, members
    in the order they entered.
    """
    genomes, objs = np.asarray(genomes, dtype=float), np.asarray(objs, dtype=float)
    for genome, obj in zip(np.asarray(new_genomes, dtype=float),
                           np.asarray(new_objs, dtype=float)):
        if (objs >= obj).all(axis=1).any():
            continue
        stay = ~(objs <= obj).all(axis=1)
        genomes = np.vstack([genomes[stay], genome])
        objs = np.vstack([objs[stay], obj])
    return genomes, objs


def _sobol_point_estimates(yA, yB, yAB, yBA, flat) -> tuple:
    # a constant output's terms are all 0: they are divided by 1
    var = 1.0 if flat else np.var(np.concatenate([yA, yB]))
    if var <= 0.0:
        raise EvaluationError("zero output variance: Sobol indices undefined")
    k = yAB.shape[0]
    s1 = np.empty(k)
    st = np.empty(k)
    for i in range(k):
        v_i = 0.5 * (np.mean(yB * (yAB[i] - yA)) + np.mean(yA * (yBA[i] - yB)))
        e_i = 0.5 * (np.mean((yA - yAB[i]) ** 2) + np.mean((yB - yBA[i]) ** 2)) / 2.0
        s1[i] = v_i / var
        st[i] = e_i / var
    return s1, st


def sobol_bootstrap_loop(design, outputs, n_boot=200, seed=0):
    """Reference Sobol estimator: every resample recomputes the estimators
    from resampled outputs, parameter by parameter, with 95% percentile
    intervals on S_T.  Returns ``(s1, st, st_ci)``; ``gsa.sobol_indices``
    must match it bit for bit."""
    k, n = len(design.space), design.n
    y = np.asarray(outputs, dtype=float)
    if y.shape[0] != n * (2 * k + 2):
        raise ConfigError(f"expected {n * (2 * k + 2)} outputs, got {y.shape[0]}")
    yA, yB = y[:n], y[n:2 * n]
    yAB, yBA = y[2 * n:].reshape(2, k, n)  # A with column i from B, then B with A's
    if not np.all(np.isfinite(outputs)):
        raise EvaluationError("non-finite model output in Sobol design")
    flat = np.ptp(y) == 0.0
    s1, st = _sobol_point_estimates(yA, yB, yAB, yBA, flat)
    rng = np.random.default_rng(seed)
    bootst = np.empty((n_boot, k))
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        _, bootst[b] = _sobol_point_estimates(yA[idx], yB[idx], yAB[:, idx], yBA[:, idx],
                                              flat)
    alpha = 0.5 * (1.0 - 0.95)
    lot, hit = np.quantile(bootst, [alpha, 1.0 - alpha], axis=0)
    return s1, st, 0.5 * (hit - lot)


def bootstrap_means_loop(terms, n_boot, seed):
    """Reference bootstrap term means: per resample, the column gather and
    row mean that ``gsa._sobol_tables`` ran on its (C, n) term block.
    Returns the (n_boot, C) means; ``gsa._gather_means`` of the resampled
    rows of ``terms.T`` must match it bit for bit."""
    n = terms.shape[1]
    rng = np.random.default_rng(seed)
    means = np.empty((n_boot, terms.shape[0]))
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        means[b] = terms.take(idx, axis=1).mean(axis=1)
    return means


def _peel_nondominated_sort(objectives) -> list:
    """Reference: Deb's sort over ``dominance_matrix`` with the Python peel."""
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n == 0:
        return []
    nan_rows = np.isnan(objs).any(axis=1)
    if nan_rows.any():
        row = tuple(objs[int(np.argmax(nan_rows))].tolist())
        raise EvaluationError(f"NaN objective in population: {row}")
    dom = moea.dominance_matrix(objs)
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


def _assign_ranks_and_crowding(population) -> list:
    fronts = _peel_nondominated_sort([ind.objectives for ind in population])
    for rank, front in enumerate(fronts):
        dists = moea.crowding_distance([population[i].objectives for i in front])
        for k, idx in enumerate(front):
            population[idx].rank = rank
            population[idx].crowding = float(dists[k])
    return fronts


def environmental_selection_reference(pool, n: int) -> list:
    """Reference: ranks and crowding set per ``Individual``, survivors by a
    Python sort of the overflowing front."""
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


def hypervolume_reference(points, reference_point) -> float:
    """Reference: the sweep with a per-point ``dominates_reference`` check
    and a Python sort."""
    ref = tuple(float(v) for v in reference_point)
    pts = [tuple(float(v) for v in p) for p in points]
    if not pts:
        return 0.0
    for p in pts:
        if not dominates_reference(p, ref):
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


def evolve_reference(problem, lows, highs, config):
    """Reference NSGA-II loop: one ``Individual`` per genome, the per-call
    ``tournament_select``/``sbx_crossover``/``polynomial_mutation``, the
    Python peel, the one-at-a-time archive and the per-point hypervolume
    filter, stopping on ``moea._HV_WINDOW`` and ``moea._HV_REL_TOL`` as
    they are when it runs.  ``moea.evolve`` must match it bit for bit,
    generator state included; returns the ``EvolveResult`` and the
    generator."""
    config.validate()
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != highs.shape or np.any(lows > highs):
        raise ConfigError("invalid bounds")
    n_genes = len(lows)
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
                                  f"for genome {genomes[i].tolist()}")
        return [moea.Individual(g, tuple(o)) for g, o in zip(genomes, objs.tolist())]

    pop = evaluate([lows + (highs - lows) * rng.random(n_genes)
                    for _ in range(config.population_size)])
    _assign_ranks_and_crowding(pop)

    def rows(individuals) -> tuple:
        return (np.array([ind.genome for ind in individuals]),
                np.array([ind.objectives for ind in individuals], dtype=float))

    archive = archive_one_at_a_time(np.empty((0, n_genes)), np.empty((0, 3)), *rows(pop))

    objs = np.array([ind.objectives for ind in pop])
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    ref = tuple(lo - 0.01 * span - 1e-9 * (1.0 + np.abs(lo)))

    def archive_hv() -> float:
        pts = [o for o in archive[1].tolist() if all(v > r for v, r in zip(o, ref))]
        return hypervolume_reference(pts, ref) if pts else 0.0

    hv_log = [archive_hv()]
    gens = 0
    stop_reason = "generation_cap"
    for _ in range(config.generations):
        offspring = generation_reference(pop, rng, lows, highs, config.population_size)
        offspring = evaluate(offspring)
        pop = environmental_selection_reference(pop + offspring, config.population_size)
        archive = archive_one_at_a_time(*archive, *rows(offspring))
        gens += 1
        hv_log.append(archive_hv())
        if gens > moea._HV_WINDOW:
            base = hv_log[-1 - moea._HV_WINDOW]
            gain = hv_log[-1] - base
            if gain < moea._HV_REL_TOL * max(abs(base), 1e-30):
                stop_reason = "hv_plateau"
                break

    population = (*rows(pop), np.array([ind.rank for ind in pop]),
                  np.array([ind.crowding for ind in pop]))
    return moea.EvolveResult(front=moea.ParetoFront(*archive, reference_point=ref),
                             hypervolume_log=hv_log, generations_run=gens,
                             population=population, stop_reason=stop_reason), rng


def generation_reference(pop, rng, lows, highs, n) -> list:
    """Reference variation: ``n`` offspring genomes, drawn with the per-call
    operators from a population of ranked ``Individual``s, at ``moea``'s
    operator constants as they are when it runs and p_m = 1 / genes."""
    pm = 1.0 / len(lows)
    offspring = []
    while len(offspring) < n:
        pa = moea.tournament_select(pop, rng)
        pb = moea.tournament_select(pop, rng)
        if rng.random() < moea._CROSSOVER_PROB:
            ga, gb = moea.sbx_crossover(pa.genome, pb.genome, moea._ETA_C,
                                        lows, highs, rng)
        else:
            ga, gb = pa.genome.copy(), pb.genome.copy()
        for g in (ga, gb):
            offspring.append(moea.polynomial_mutation(g, moea._ETA_M, pm,
                                                      lows, highs, rng))
    return offspring


def morris_sample_loop(space, r, seed=0):
    """Reference Morris design: each trajectory built a step at a time, on
    the ``gsa._LEVELS`` grid as it is when it runs."""
    levels = gsa._LEVELS
    k = len(space)
    delta = levels / (2.0 * (levels - 1.0))
    step = 1.0 / (levels - 1.0)
    n_base = levels - int(round(delta / step))
    rng = np.random.default_rng(seed)
    out = np.empty((r, k + 1, k))
    for t in range(r):
        direction = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        cells = rng.integers(0, n_base, size=k).astype(float)
        base = cells * step
        base = np.where(direction < 0, 1.0 - base, base)
        order = rng.permutation(k)
        x = base.copy()
        out[t, 0] = space.from_unit(x)
        for s, dim in enumerate(order):
            x = x.copy()
            x[dim] += direction[dim] * delta
            out[t, s + 1] = space.from_unit(x)
    return out


def morris_indices_loop(space, samples, outputs):
    """Reference elementary effects: one step at a time, collected per
    parameter in (t, s) order.  Returns ``(mu_star, sigma)``."""
    r, n_pts, k = samples.shape
    effects = [[] for _ in range(k)]
    for t in range(r):
        unit = space.to_unit(samples[t])
        for s in range(n_pts - 1):
            du = unit[s + 1] - unit[s]
            dim = int(np.argmax(np.abs(du)))
            step = du[dim]
            if step == 0.0:
                raise EvaluationError(f"trajectory {t} step {s} moved no parameter")
            effects[dim].append((outputs[t, s + 1] - outputs[t, s]) / step)
    mu_star = np.empty(k)
    sigma = np.empty(k)
    for i in range(k):
        ee = np.asarray(effects[i])
        if len(ee) == 0:
            raise EvaluationError(f"no elementary effects for {space.names[i]}")
        mu_star[i] = np.mean(np.abs(ee))
        sigma[i] = np.std(ee, ddof=1) if len(ee) > 1 else 0.0
    return mu_star, sigma


def morris_reference(space, exog, coeffs, policy, init, r, seed=0):
    """Reference Morris analysis: the per-step design, one scalar
    ``simulate`` per point and the per-step effects.  Returns the samples,
    the (r, k+1, 3) objectives and ``(mu_star, sigma)`` per output."""
    samples = morris_sample_loop(space, r, seed)
    pol = [(j, n) for j, n in enumerate(space.names) if n in POLICY_FIELDS]
    coef = [(j, n) for j, n in enumerate(space.names) if n in COEFF_FIELDS]
    k = len(space)
    evals = np.empty((r, k + 1, 3))
    for t in range(r):
        for s in range(k + 1):
            row = samples[t, s]
            p = replace(policy, **{n: float(row[j]) for j, n in pol}) if pol else policy
            c = replace(coeffs, **{n: float(row[j]) for j, n in coef}) if coef else coeffs
            _, objs = simulate(p, exog, c, init)
            if any(math.isnan(v) for v in objs):
                raise EvaluationError(
                    f"NaN objective at sample {dict(zip(space.names, row.tolist()))}")
            evals[t, s] = objs
    return samples, evals, [morris_indices_loop(space, samples, evals[:, :, j])
                            for j in range(3)]


def synth_dataset_loop(preset, seed):
    """Reference synthetic series: one curve, one size-n noise draw and
    one clip per series, in ``SERIES_FIELDS`` order."""
    rng = np.random.default_rng(seed)
    y0, y1 = preset.years
    years = np.arange(y0, y1 + 1)
    n = len(years)
    data = {}
    for name in SERIES_FIELDS:
        start, end, kind = preset.synth[name]
        u = np.linspace(0.0, 1.0, n)
        if kind == "s":
            u = u * u * (3.0 - 2.0 * u)
        base = start + (end - start) * u
        noise = 1.0 + _NOISE_REL * rng.uniform(-1.0, 1.0, size=n)
        noise[0] = noise[-1] = 1.0
        vals = base * noise
        if name in preset.envelope:
            lo, hi = preset.envelope[name]
            vals = np.clip(vals, lo, hi)
        data[name] = vals
    series = ExogenousSeries(years=years, **data)
    series.validate()
    return series


def validate_ranges_loop(series, envelope):
    """Reference envelope check: one comparison per value."""
    warnings = []
    for name, (lo, hi) in envelope.items():
        for i, v in enumerate(getattr(series, name)):
            if v < lo or v > hi:
                warnings.append(
                    f"{name}[{int(series.years[i])}] = {v:g} outside [{lo:g}, {hi:g}]")
    return warnings


def _flow_potential(total, price_avg, env_avg, p):
    if total < 0:
        raise ValueError("total potential must be >= 0")
    nxt = total * (1.0 + p.phi * (price_avg + env_avg - 1.5)) + p.dev_boost
    return max(0.0, nxt)


def _flow_attractiveness(site, p, year):
    if site.marketing < 0:
        raise ValueError(f"schedule for {site.name}.marketing must be >= 0")
    exponent = (p.a0 + p.a1 * site.env_index + p.a2 * site.satisfaction
                + p.a3 * math.log1p(site.marketing) - p.a4 * site.price)
    if abs(exponent) > 500.0:
        raise ValueError(f"attractiveness exponent {exponent:g} out of range for "
                         f"{site.name} in {year}")
    return math.exp(exponent)


def _flow_weights(scores):
    a = np.asarray(list(scores), dtype=float)
    if a.size == 0:
        raise ValueError("no sites to allocate over")
    if np.any(a <= 0):
        raise ValueError("attractiveness scores must be > 0")
    return a / a.sum()


def _flow_clamp01(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _flow_environment(site, p):
    if site.capacity <= 0:
        raise ValueError(f"{site.name}: capacity must be > 0")
    return _flow_clamp01(site.env_index + p.alpha_g * site.env_fund
                         - p.beta_crowd * site.visitors / site.capacity
                         - p.beta_co2 * site.co2 + p.delta * (1.0 - site.env_index))


def _flow_social(site, env_next, p):
    if site.population <= 0:
        raise ValueError(f"{site.name}: population must be > 0")
    return _flow_clamp01(site.satisfaction + p.rho_comm * site.community_fund
                         - p.rho_over * site.visitors / site.population
                         + p.rho_e * (env_next - site.satisfaction))


def _flow_schedule_value(schedule, site, fld, idx, fallback):
    entry = schedule.get(site) if schedule else None
    if not entry or fld not in entry:
        return fallback
    seq = entry[fld]
    if idx >= len(seq):
        raise DataError(f"schedule for {site}.{fld} too short (need index {idx})")
    return float(seq[idx])


def redistribute_reference(sites, params, schedule, years):
    """Reference ``flow.redistribute``: one-site helpers called per site and
    per year on mutated ``SiteState`` copies, each schedule value looked up
    at its year step."""
    sites = [SiteState(**s.__dict__) for s in sites]
    years = [int(y) for y in years]
    if len(years) < 1:
        raise DataError("need at least one year")
    params.validate()
    for s in sites:
        try:
            s.validate()
        except ValueError as e:
            raise ValueError(f"{s.name}: {e}") from None
    if schedule:
        for name in schedule:
            if name not in {s.name for s in sites}:
                raise DataError(f"schedule for {name} names no site")
    n_sites, n_years = len(sites), len(years)
    visitors = np.zeros((n_sites, n_years))
    env = np.zeros((n_sites, n_years))
    sat = np.zeros((n_sites, n_years))
    weights = np.zeros((n_sites, max(0, n_years - 1)))
    totals = np.zeros(n_years)
    for i, s in enumerate(sites):
        visitors[i, 0], env[i, 0], sat[i, 0] = s.visitors, s.env_index, s.satisfaction
    total = float(sum(s.visitors for s in sites))
    totals[0] = total
    for t in range(n_years - 1):
        for s in sites:
            for fld in SCHEDULE_FIELDS:
                setattr(s, fld, _flow_schedule_value(schedule, s.name, fld, t,
                                                     getattr(s, fld)))
        price_avg = sum(s.price for s in sites) / n_sites
        env_avg = sum(s.env_index for s in sites) / n_sites
        total = _flow_potential(total, price_avg, env_avg, params)
        w = _flow_weights([_flow_attractiveness(s, params, years[t]) for s in sites])
        assigned = np.minimum(w * total, np.asarray([s.capacity for s in sites], dtype=float))
        for i, s in enumerate(sites):
            s.visitors = float(assigned[i])
            e_next = _flow_environment(s, params)
            s_next = _flow_social(s, e_next, params)
            s.env_index, s.satisfaction = e_next, s_next
            visitors[i, t + 1] = s.visitors
            env[i, t + 1] = e_next
            sat[i, t + 1] = s_next
            weights[i, t] = w[i]
        totals[t + 1] = total
    return FlowResult(years=years, site_names=[s.name for s in sites],
                      visitors=visitors, env=env, sat=sat,
                      weights=weights, totals=totals)
