"""Global sensitivity analysis: Morris screening and Sobol decomposition.

Morris builds randomized one-at-a-time trajectories on a coarse grid and
summarizes each parameter by mu* (mean absolute elementary effect) and
sigma (spread of the effects, an interaction/nonlinearity signal).  Sobol
first/total indices use the classic two-matrix sampling design with the
symmetrized direct estimator for S_i, Jansen's estimator for S_Ti, and
bootstrap percentile intervals.  Both estimators are means of per-row
terms, so the bootstrap resamples per-row terms: the term blocks of every
output are computed once and stacked with one design row per memory row,
and each resample draws its rows once and adds those whole rows straight
into the lane accumulators of numpy's pairwise sum, for all outputs
together (:func:`_sobol_tables`; ``sobol_indices`` is its one-output case,
with the same bits).

Sampling is plain seeded pseudo-random (recorded in result metadata, no
low-discrepancy sequence); accuracy targets are set accordingly.  Both
analyses evaluate the model once per sample point and take the three
objectives from that one run, never re-simulating per output.  The whole
design -- the Saltelli matrix, or every point of the r Morris
trajectories -- goes to ``sd_core.simulate_batch`` in one call, and the
first NaN sample in design order is named.  Sobol's three outputs go to
one bootstrap pass.  A Morris trajectory's k+1 points are one mask over
the ranks of its permutation, and its effects are grouped per parameter
by a stable sort, so each parameter's effects keep their (trajectory,
step) order and the bits of a step-by-step build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EvaluationError
from .sd_core import (
    COEFF_FIELDS,
    POLICY_FIELDS,
    ExogenousSeries,
    ModelCoefficients,
    PolicyBounds,
    PolicyVector,
    SimState,
    simulate,
    simulate_batch,
)

__all__ = [
    "ParameterSpace",
    "MorrisResult",
    "SobolResult",
    "SaltelliDesign",
    "AnalysisReport",
    "morris_sample",
    "morris_indices",
    "saltelli_sample",
    "sobol_indices",
    "analyze_model",
    "make_model",
    "uncertainty_space",
    "full_space",
    "OUTPUT_NAMES",
]

OUTPUT_NAMES = ("f1", "f2", "f3")  # revenue, environment, satisfaction


@dataclass(frozen=True)
class ParameterSpace:
    """Named parameters with [low, high] bounds, in a fixed order."""

    names: tuple
    lows: np.ndarray
    highs: np.ndarray

    @classmethod
    def from_dict(cls, bounds: dict) -> "ParameterSpace":
        names = tuple(bounds)
        lo = np.array([bounds[n][0] for n in names], dtype=float)
        hi = np.array([bounds[n][1] for n in names], dtype=float)
        space = cls(names, lo, hi)
        space.validate()
        return space

    def validate(self) -> None:
        if len(self.names) != len(set(self.names)):
            raise ConfigError("duplicate parameter names")
        if len(self.names) == 0:
            raise ConfigError("empty parameter space")
        if np.any(self.lows >= self.highs):
            bad = [n for n, a, b in zip(self.names, self.lows, self.highs) if a >= b]
            raise ConfigError(f"low >= high for {bad}")

    def __len__(self) -> int:
        return len(self.names)

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        return (x - self.lows) / (self.highs - self.lows)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        return self.lows + u * (self.highs - self.lows)


@dataclass
class MorrisResult:
    names: tuple
    mu_star: np.ndarray   # mean |elementary effect| per parameter
    sigma: np.ndarray     # sample std of elementary effects
    r: int                # trajectories used

    def ranked(self) -> list:
        order = np.argsort(-self.mu_star, kind="stable")
        return [(self.names[i], float(self.mu_star[i]), float(self.sigma[i]))
                for i in order]


@dataclass
class SobolResult:
    names: tuple
    s1: np.ndarray        # first-order indices
    st: np.ndarray        # total-effect indices
    s1_ci: np.ndarray     # bootstrap CI half-widths for s1
    st_ci: np.ndarray     # same for st
    n: int                # base sample size
    sampler: str = "pseudorandom"

    def ranked(self) -> list:
        order = np.argsort(-self.st, kind="stable")
        return [(self.names[i], float(self.s1[i]), float(self.st[i]),
                 float(self.s1_ci[i]), float(self.st_ci[i])) for i in order]


def morris_sample(space: ParameterSpace, r: int, levels: int = 4,
                  seed: int = 0) -> np.ndarray:
    """Randomized one-at-a-time trajectories on a ``levels``-point grid.

    Returns an (r, k+1, k) array in bound space; consecutive points in a
    trajectory differ in exactly one parameter by +-Delta (unit space),
    with Delta = levels / (2 * (levels - 1)).  Each trajectory draws its
    directions, cells and permutation in that order; point p has moved the
    dimensions whose permutation rank is below p, each by one add.
    """
    space.validate()
    _check_morris(r, levels)
    k = len(space)
    delta = levels / (2.0 * (levels - 1.0))
    step = 1.0 / (levels - 1.0)
    n_base = levels - int(round(delta / step))  # grid points leaving room for a step
    rng = np.random.default_rng(seed)
    points = np.arange(k + 1)[:, None]
    unit = np.empty((r, k + 1, k))
    for t in range(r):
        direction = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        cells = rng.integers(0, n_base, size=k).astype(float)
        base = cells * step
        # a negative step starts from the mirrored end of the grid
        base = np.where(direction < 0, 1.0 - base, base)
        rank = np.empty(k, dtype=int)
        rank[rng.permutation(k)] = np.arange(k)  # the step that moves each dim
        unit[t] = np.where(rank < points, base + direction * delta, base)
    return space.from_unit(unit)


def morris_indices(space: ParameterSpace, samples: np.ndarray,
                   outputs: np.ndarray) -> MorrisResult:
    """Elementary-effect statistics from evaluated trajectories.

    ``samples`` is the (r, k+1, k) array from :func:`morris_sample` and
    ``outputs`` the model value at each point, shape (r, k+1).  Effects
    are finite differences in unit space, signed by the step direction;
    each step is charged to the parameter it moves most, and a step that
    moves none raises, naming the first in (trajectory, step) order.
    """
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    r, n_pts, k = samples.shape
    if outputs.shape != (r, n_pts):
        raise ConfigError(f"outputs shape {outputs.shape} != {(r, n_pts)}")
    du = np.diff(space.to_unit(samples), axis=1)  # (r, n_pts - 1, k)
    dim = np.argmax(np.abs(du), axis=2)
    step = np.take_along_axis(du, dim[..., None], axis=2)[..., 0]
    if np.any(step == 0.0):
        t, s = np.unravel_index(int(np.argmax(step == 0.0)), step.shape)
        raise EvaluationError(f"trajectory {t} step {s} moved no parameter")
    effects = ((outputs[:, 1:] - outputs[:, :-1]) / step).ravel()
    # a stable sort keeps each parameter's effects in (t, s) order
    effects = np.split(effects[np.argsort(dim.ravel(), kind="stable")],
                       np.cumsum(np.bincount(dim.ravel(), minlength=k))[:-1])
    mu_star = np.empty(k)
    sigma = np.empty(k)
    for i, ee in enumerate(effects):
        if len(ee) == 0:
            raise EvaluationError(f"no elementary effects for {space.names[i]}")
        mu_star[i] = np.mean(np.abs(ee))
        sigma[i] = np.std(ee, ddof=1) if len(ee) > 1 else 0.0
    return MorrisResult(space.names, mu_star, sigma, r)


@dataclass
class SaltelliDesign:
    """The A/B/A_B()/B_A() evaluation matrices, stacked row-wise."""

    space: ParameterSpace
    n: int
    A: np.ndarray
    B: np.ndarray
    AB: np.ndarray  # (k, n, k); AB[i] is A with column i from B
    BA: np.ndarray  # (k, n, k)

    def matrix(self) -> np.ndarray:
        """All n*(2k+2) evaluation points in canonical order."""
        k = len(self.space)
        blocks = [self.A, self.B]
        blocks += [self.AB[i] for i in range(k)]
        blocks += [self.BA[i] for i in range(k)]
        return np.vstack(blocks)

    def split_outputs(self, y: np.ndarray) -> tuple:
        k, n = len(self.space), self.n
        y = self._checked(y)
        yA = y[:n]
        yB = y[n:2 * n]
        yAB = np.stack([y[(2 + i) * n:(3 + i) * n] for i in range(k)])
        yBA = np.stack([y[(2 + k + i) * n:(3 + k + i) * n] for i in range(k)])
        return yA, yB, yAB, yBA

    def _checked(self, y: np.ndarray) -> np.ndarray:
        """``y`` as floats, after checking it has one row per design point."""
        y = np.asarray(y, dtype=float)
        rows = self.n * (2 * len(self.space) + 2)
        if y.shape[0] != rows:
            raise ConfigError(f"expected {rows} outputs, got {y.shape[0]}")
        return y


def saltelli_sample(space: ParameterSpace, n: int, seed: int = 0) -> SaltelliDesign:
    """Two independent base matrices plus the column-swapped variants."""
    space.validate()
    _check_sobol_n(n)
    k = len(space)
    rng = np.random.default_rng(seed)
    unit = rng.random((n, 2 * k))
    A = space.from_unit(unit[:, :k])
    B = space.from_unit(unit[:, k:])
    AB = np.empty((k, n, k))
    BA = np.empty((k, n, k))
    for i in range(k):
        AB[i] = A
        AB[i, :, i] = B[:, i]
        BA[i] = B
        BA[i, :, i] = A[:, i]
    return SaltelliDesign(space, n, A, B, AB, BA)


def _check_morris(r: int, levels: int, r_key: str = "r",
                  levels_key: str = "levels") -> None:
    if levels < 4 or levels % 2:
        raise ConfigError(f"{levels_key} must be even and >= 4, not {levels!r}")
    if r < 1:
        raise ConfigError(f"{r_key} must be at least one trajectory, not {r!r}")


def _check_sobol_n(n: int, key: str = "n") -> None:
    if n < 2:
        raise ConfigError(f"{key} (base sample size) must be >= 2, not {n!r}")


def _check_n_boot(n_boot: int) -> None:
    if n_boot < 1:
        raise ConfigError(f"bootstrap must be at least 1 resample, not {n_boot!r}")


def _check_variance(var: np.ndarray) -> None:
    if np.any(var <= 0.0):
        raise EvaluationError("zero output variance: Sobol indices undefined")


def sobol_indices(design: SaltelliDesign, outputs: np.ndarray,
                  n_boot: int = 200, ci_level: float = 0.95,
                  seed: int = 0) -> SobolResult:
    """First-order and total-effect indices with bootstrap intervals.

    S_i uses the symmetrized direct estimator over both matrix halves,
    S_Ti the Jansen squared-difference form.  One output's case of
    :func:`_sobol_tables`.
    """
    return _sobol_tables(design, np.asarray(outputs, dtype=float)[:, None],
                         n_boot, ci_level, seed)[0]


# numpy sums a contiguous span of at most this many values with eight
# interleaved accumulators and splits a longer one in two (PW_BLOCKSIZE)
_PAIRWISE_LEAF = 128
# bytes of lane accumulators one bootstrap chunk adds its resampled rows
# into: ten resamples of 37 KB at n=512 with 12 parameters and 3 outputs
# (four leaves of eight lanes of 144 terms), so the accumulators and the
# rows each step gathers into them stay in a 2 MiB L2 together.  On the
# n=512 screen design, 8 to 14 resamples a chunk ran fastest; 2 and 20
# took about 1.5 times as long, the first from per-call overhead, the
# second from spilling L2.
_LANE_BYTES = 400_000


@functools.cache
def _sum_plan(n: int) -> tuple:
    """The order in which numpy's ``add.reduce`` sums n contiguous values.

    A span longer than ``_PAIRWISE_LEAF`` is split at ``n//2 - (n//2) % 8``
    and its halves summed recursively; a shorter one is a leaf.  Returns
    ``(tree, runs)``: ``tree`` nests the leaf numbers as the recursion
    pairs them, and ``runs`` lists the leaves, in order, as (count, start,
    length) runs of consecutive leaves of one length.
    """
    leaves = []

    def split(start, length):
        if length > _PAIRWISE_LEAF:
            half = length // 2 - (length // 2) % 8
            return split(start, half), split(start + half, length - half)
        leaves.append((start, length))
        return len(leaves) - 1

    tree = split(0, n)
    runs = []
    for start, length in leaves:
        if runs and runs[-1][2] == length:
            count, lo, _ = runs[-1]
            runs[-1] = (count + 1, lo, length)
        else:
            runs.append((1, start, length))
    return tree, tuple(runs)


def _gather_means(terms: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (B, C) means of the rows ``terms[idx[b]]`` of the C-ordered
    (n, C) ``terms``, for each of the B rows of ``idx``, each with the bits
    of ``mean`` over the same n values in one contiguous row.

    numpy's contiguous reduce adds the pairwise sum of :func:`_sum_plan`
    to +0.0.  A leaf of fewer than 8 values is summed in order; a longer
    one runs 8 interleaved accumulators over its multiple-of-8 part,
    combines them as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the
    tail in order.  Here every leaf of a run is summed at once, and the
    rows are added straight into the lane accumulators, one gathered step
    of 8 rows per leaf at a time, so no (B, n, C) block is built.  The
    lanes start from +0.0, as numpy's do: without it a column of -0.0s
    would sum to -0.0.
    """
    B, n = idx.shape
    tree, runs = _sum_plan(n)
    parts = []
    for count, start, length in runs:
        ix = idx[:, start:start + count * length].reshape(B, count, length)
        whole = length - length % 8
        if whole:
            steps = ix[:, :, :whole].reshape(B, count, whole // 8, 8)
            lanes = terms.take(steps[:, :, 0], axis=0)  # (B, count, 8, C)
            lanes += 0.0  # the rows at step 0 added to +0.0
            for j in range(1, whole // 8):
                lanes += terms.take(steps[:, :, j], axis=0)
            r = lanes[:, :, 0::2] + lanes[:, :, 1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
            r = r[:, :, 0::2] + r[:, :, 1::2]
            s = r[:, :, 0] + r[:, :, 1]
        else:
            s = np.zeros((B, count, terms.shape[1]))
        for t in range(whole, length):
            s += terms.take(ix[:, :, t], axis=0)
        parts.append(s)
    sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return _tree_sum(tree, sums) / n


def _tree_sum(node, sums: np.ndarray) -> np.ndarray:
    """The leaf sums ``sums[:, i]`` added as the nested pairs ``node`` say."""
    if isinstance(node, int):
        return sums[:, node]
    return _tree_sum(node[0], sums) + _tree_sum(node[1], sums)


def _sobol_tables(design: SaltelliDesign, Y: np.ndarray, n_boot: int,
                  ci_level: float, seed: int) -> list:
    """One :class:`SobolResult` per column of the (N, m) outputs ``Y``.

    Both estimators are means of per-row terms, so the four (k, n) term
    blocks of every output are computed once and stacked as one C-ordered
    (n, 4*m*k) block, one design row per memory row.  The bootstrap is
    per-row terms resampled by gather: each resample draws n design rows
    (jointly across all matrices and outputs), and :func:`_gather_means`
    adds those whole rows straight into numpy's eight lane accumulators,
    in numpy's summation order, without building the resampled block.
    Resamples go in chunks whose accumulators take at most
    ``_LANE_BYTES``, and a chunk's variances come from one ``np.var``
    along contiguous rows.  The point estimate is the same sum over the
    rows in order.  So every column gets the bits of its own
    ``sobol_indices`` call, and of the per-resample
    ``take(idx, axis=1).mean(axis=1)`` of the transposed block: the
    resamples are those of ``default_rng(seed)`` whatever m or the chunk
    size is.
    """
    _check_n_boot(n_boot)
    Y = design._checked(Y)
    k, n = len(design.space), design.n
    Yt = np.ascontiguousarray(Y.T)  # (m, N): one row per output
    m = Yt.shape[0]
    bad = ~np.isfinite(Yt).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        if first:  # outputs before the first bad one fail first, as in separate calls
            _sobol_tables(design, Y[:, :first], n_boot, ci_level, seed)
        raise EvaluationError("non-finite model output in Sobol design")
    yA, yB = Yt[:, None, :n], Yt[:, None, n:2 * n]
    yAB = Yt[:, 2 * n:(2 + k) * n].reshape(m, k, n)
    yBA = Yt[:, (2 + k) * n:].reshape(m, k, n)
    terms = np.ascontiguousarray(
        np.stack([yB * (yAB - yA), yA * (yBA - yB),
                  (yA - yAB) ** 2, (yB - yBA) ** 2]).reshape(4 * m * k, n).T)
    yAyB = Yt[:, :2 * n]

    def indices(var, means):  # (B, m) variances, (B, 4*m*k) term means
        m1, m2, m3, m4 = means.reshape(-1, 4, m, k).transpose(1, 0, 2, 3)
        var = var[:, :, None]
        return 0.5 * (m1 + m2) / var, 0.5 * (m3 + m4) / 2.0 / var

    var = np.var(yAyB, axis=1)
    _check_variance(var)
    (s1,), (st,) = indices(var[None], _gather_means(terms, np.arange(n)[None]))
    rng = np.random.default_rng(seed)
    leaves = sum(count for count, _, _ in _sum_plan(n)[1])
    chunk = max(1, _LANE_BYTES // (8 * leaves * terms[0].nbytes))
    boots1 = np.empty((n_boot, m, k))
    bootst = np.empty((n_boot, m, k))
    for lo in range(0, n_boot, chunk):
        hi = min(lo + chunk, n_boot)
        idx = rng.integers(0, n, size=(hi - lo, n))  # the draws of hi - lo size-n calls
        # (m, B, 2n), C-ordered: each variance reduces one contiguous row
        var = np.var(yAyB.take(np.concatenate([idx, idx + n], axis=1), axis=1), axis=2).T
        _check_variance(var)
        boots1[lo:hi], bootst[lo:hi] = indices(var, _gather_means(terms, idx))
    alpha = 0.5 * (1.0 - ci_level)
    lo1, hi1 = np.quantile(boots1, [alpha, 1.0 - alpha], axis=0)
    lot, hit = np.quantile(bootst, [alpha, 1.0 - alpha], axis=0)
    return [SobolResult(design.space.names, s1[j], st[j], 0.5 * (hi1[j] - lo1[j]),
                        0.5 * (hit[j] - lot[j]), n) for j in range(m)]


def _check_parameters(space: ParameterSpace) -> None:
    """Every space name must be a policy or coefficient field."""
    unknown = [n for n in space.names if n not in POLICY_FIELDS and n not in COEFF_FIELDS]
    if unknown:
        raise ConfigError(f"unknown parameters {unknown}; not policy or coefficient fields")


def _evaluate(space: ParameterSpace, points: np.ndarray, exog: ExogenousSeries,
              coeffs: ModelCoefficients, policy: PolicyVector,
              init: SimState) -> np.ndarray:
    """The (N, 3) objectives of the (N, k) sample ``points`` in one
    ``simulate_batch`` call, naming the first NaN sample in design order."""
    evals = simulate_batch(policy, exog, coeffs, init, dict(zip(space.names, points.T)))
    nan_rows = np.isnan(evals).any(axis=1)
    if nan_rows.any():
        row = points[int(np.argmax(nan_rows))]
        raise EvaluationError(f"NaN objective at sample {dict(zip(space.names, row))}")
    return evals


def make_model(space: ParameterSpace, exog: ExogenousSeries,
               coeffs: ModelCoefficients, policy: PolicyVector,
               init: SimState):
    """Closure mapping a sample row to the three simulation objectives.

    Space names must be :class:`PolicyVector` or :class:`ModelCoefficients`
    fields; each evaluation overrides those fields and runs one full
    scalar simulation.  :func:`analyze_model` does not use it: it runs a
    whole design through ``simulate_batch``.
    """
    _check_parameters(space)
    pol_idx = [(j, name) for j, name in enumerate(space.names)
               if name in POLICY_FIELDS]
    coef_idx = [(j, name) for j, name in enumerate(space.names)
                if name in COEFF_FIELDS]

    def run(row: np.ndarray) -> tuple:
        p = replace(policy, **{name: float(row[j]) for j, name in pol_idx}) \
            if pol_idx else policy
        c = replace(coeffs, **{name: float(row[j]) for j, name in coef_idx}) \
            if coef_idx else coeffs
        _, objs = simulate(p, exog, c, init)
        if any(math.isnan(v) for v in objs):
            raise EvaluationError(f"NaN objective at sample {dict(zip(space.names, row))}")
        return objs

    return run


@dataclass
class AnalysisReport:
    method: str
    space: ParameterSpace
    tables: dict        # output name -> MorrisResult | SobolResult
    matrix: np.ndarray  # (k, 3): mu_star or S_T per parameter and output
    outputs: tuple = OUTPUT_NAMES

    def matrix_records(self) -> list:
        return [
            {"parameter": name,
             **{out: float(self.matrix[i, j]) for j, out in enumerate(self.outputs)}}
            for i, name in enumerate(self.space.names)
        ]


def analyze_model(space: ParameterSpace, exog: ExogenousSeries,
                  coeffs: ModelCoefficients, policy: PolicyVector,
                  init: SimState, method: str = "morris",
                  output: str = "all", morris_r: int = 20,
                  morris_levels: int = 4, sobol_n: int = 512,
                  n_boot: int = 200, seed: int = 0) -> AnalysisReport:
    """Sensitivity of the simulation objectives over a parameter space.

    One simulation per sample point feeds all three outputs: the whole
    design runs in one ``simulate_batch`` call, for Sobol and Morris alike,
    and the first NaN sample in design order is named.  ``output``
    narrows which ranked tables are returned while the parameters-by-
    outputs matrix always covers f1..f3 (mu* for Morris, S_T for Sobol).
    ``method``, ``output``, the chosen method's sizes and the space's
    parameter names are checked before any sampling or simulation.
    """
    if method not in ("morris", "sobol"):
        raise ConfigError(f"unknown method {method!r}; use 'morris' or 'sobol'")
    if output not in OUTPUT_NAMES + ("all",):
        raise ConfigError(f"output must be f1, f2, f3 or all, not {output!r}")
    if method == "morris":
        _check_morris(morris_r, morris_levels, "morris_r", "morris_levels")
    else:
        _check_sobol_n(sobol_n, "sobol_n")
        _check_n_boot(n_boot)
    _check_parameters(space)
    wanted = OUTPUT_NAMES if output == "all" else (output,)
    if method == "morris":
        samples = morris_sample(space, morris_r, morris_levels, seed)
        evals = _evaluate(space, samples.reshape(-1, len(space)), exog, coeffs,
                          policy, init).reshape(morris_r, len(space) + 1, 3)
        results = {name: morris_indices(space, samples, evals[:, :, j])
                   for j, name in enumerate(OUTPUT_NAMES)}
        matrix = np.column_stack([results[name].mu_star for name in OUTPUT_NAMES])
    else:
        design = saltelli_sample(space, sobol_n, seed)
        evals = _evaluate(space, design.matrix(), exog, coeffs, policy, init)
        results = dict(zip(OUTPUT_NAMES,
                           _sobol_tables(design, evals, n_boot, 0.95, seed)))
        matrix = np.column_stack([results[name].st for name in OUTPUT_NAMES])
    tables = {name: results[name] for name in wanted}
    return AnalysisReport(method=method, space=space, tables=tables, matrix=matrix)


def uncertainty_space(policy: PolicyVector, bounds: PolicyBounds,
                      rel: float = 0.2, params=POLICY_FIELDS) -> ParameterSpace:
    """Box of +-``rel`` around a reference policy, clipped to the bounds.

    This is the default space for policy-lever sensitivity runs: every
    lever varies by the same relative amount around the working policy.
    An empty range is a ``ConfigError`` naming ``uncertainty_rel`` when
    ``rel`` is too small to widen a nonzero value, and ``policy.<name>``
    otherwise: a value of 0, or one whose box lies outside the bounds.
    """
    spec = {}
    for name in params:
        v = getattr(policy, name)
        lo, hi = getattr(bounds, name)
        a = max(lo, v * (1.0 - rel))
        b = min(hi, v * (1.0 + rel))
        if a >= b:
            if v != 0.0 and not v * (1.0 - rel) < v * (1.0 + rel):
                raise ConfigError(f"uncertainty_rel = {rel!r} is too small to widen "
                                  f"{name} = {v!r}: its range [{a!r}, {b!r}] is empty")
            raise ConfigError(f"policy.{name} = {v!r} gives the policy_uncertainty "
                              f"space the range [{a!r}, {b!r}] within the bounds "
                              f"[{lo!r}, {hi!r}], which is empty")
        spec[name] = (a, b)
    return ParameterSpace.from_dict(spec)


def full_space(bounds: PolicyBounds, coeffs: ModelCoefficients) -> ParameterSpace:
    """Policy levers over their full bounds plus the main uncertain
    coefficients (elasticity, glacier sensitivity, spending effectiveness,
    recovery rate) at +-50% of their calibrated values.

    A coefficient whose +-50% range is empty (a value of 0) or leaves the
    model's domain at either end (``ModelCoefficients.validate``) is a
    ``ConfigError`` naming ``coefficients.<name>``.
    """
    spec = {name: tuple(getattr(bounds, name)) for name in POLICY_FIELDS}
    spec["eps_price"] = (-1.0, -0.1)
    swept = ("kappa", "alpha_g", "alpha_w", "delta")
    for name in swept:
        spec[name] = (0.5 * getattr(coeffs, name), 1.5 * getattr(coeffs, name))

    def where(name):
        lo, hi = spec[name]
        return (f"coefficients.{name} = {getattr(coeffs, name)!r} gives the full "
                f"space the range [{lo!r}, {hi!r}]")

    for name in swept:
        if not spec[name][0] < spec[name][1]:
            raise ConfigError(f"{where(name)}, which is empty")
    for end in (0, 1):  # all low ends at once, then all high ends
        try:
            replace(coeffs, **{name: spec[name][end] for name in swept}).validate()
        except ValueError as e:  # its messages start with the field name
            raise ConfigError(f"{where(str(e).split()[0])}, outside the model's "
                              f"domain: {e}")
    return ParameterSpace.from_dict(spec)
