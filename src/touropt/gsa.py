"""Global sensitivity analysis: Morris screening and Sobol decomposition.

Morris builds randomized one-at-a-time trajectories on a coarse grid and
summarizes each parameter by mu* (mean absolute elementary effect) and
sigma (spread of the effects, an interaction/nonlinearity signal).  Sobol
first/total indices use the classic two-matrix sampling design with the
symmetrized direct estimator for S_i, Jansen's estimator for S_Ti, and a
bootstrap percentile interval of 200 resamples on S_Ti.  Both estimators
are means of per-row terms: the point estimates are plain means, and the
bootstrap resamples the S_Ti terms, computed once for every output and
stacked with one design row per memory row.  Each resample draws its rows
once and adds those whole rows straight into the lane accumulators of
numpy's pairwise sum, for all outputs together (:func:`_sobol_tables`;
``sobol_indices`` is its one-output case, with the same bits).

Sampling is plain seeded pseudo-random (recorded in result metadata, no
low-discrepancy sequence); accuracy targets are set accordingly.  Both
analyses evaluate the model once per sample point and take the three
objectives from that one run, never re-simulating per output, and report
all three: one output that Sobol refuses refuses the run.  The whole
design -- the Saltelli matrix, or every point of the r Morris
trajectories -- goes to ``sd_core.simulate_batch`` in one call, and the
first NaN sample in design order is named.  Sobol's three outputs go to
one bootstrap pass, and Morris's to one estimator pass
(:func:`_morris_tables`; ``morris_indices`` is its one-output case, with
the same bits).  A Morris trajectory's k+1 points are one mask over the
ranks of its permutation, and the effects of every output are grouped per
parameter by one stable sort, so each parameter's effects keep their
(trajectory, step) order and the bits of a step-by-step build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EvaluationError, _shown
from .sd_core import (
    COEFF_FIELDS,
    POLICY_FIELDS,
    ExogenousSeries,
    ModelCoefficients,
    PolicyBounds,
    PolicyVector,
    SimState,
    simulate,  # not called here; bench/tracing.py's WRAPS patches touropt.gsa.simulate
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
    "uncertainty_space",
    "full_space",
    "OUTPUT_NAMES",
]

OUTPUT_NAMES = ("f1", "f2", "f3")  # revenue, environment, satisfaction
# the Morris grid: 4 levels, steps of Delta = 2/3 (Campolongo et al. 2007)
_LEVELS = 4
# the policy_uncertainty box: +-20% around the reference policy
_UNCERTAINTY_REL = 0.2


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
    """S1 and S_T per parameter, and the 95% bootstrap interval on S_T."""

    names: tuple
    s1: np.ndarray        # first-order indices
    st: np.ndarray        # total-effect indices
    st_ci: np.ndarray     # bootstrap CI half-widths for st
    n: int                # base sample size

    def ranked(self) -> list:
        order = np.argsort(-self.st, kind="stable")
        return [(self.names[i], float(self.s1[i]), float(self.st[i]),
                 float(self.st_ci[i])) for i in order]


def morris_sample(space: ParameterSpace, r: int, seed: int = 0) -> np.ndarray:
    """Randomized one-at-a-time trajectories on the ``_LEVELS``-point grid.

    Returns an (r, k+1, k) array in bound space; consecutive points in a
    trajectory differ in exactly one parameter by +-Delta (unit space),
    with Delta = levels / (2 * (levels - 1)) = 2/3.  Each trajectory draws
    its directions, cells and permutation in that order; point p has moved
    the dimensions whose permutation rank is below p, each by one add.
    """
    space.validate()
    _check_morris_r(r)
    k = len(space)
    delta = _LEVELS / (2.0 * (_LEVELS - 1.0))
    step = 1.0 / (_LEVELS - 1.0)
    n_base = _LEVELS - int(round(delta / step))  # grid points leaving room for a step
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
    ``outputs`` the model value at each point, shape (r, k+1).  The
    one-output case of :func:`_morris_tables`, with the same bits.
    """
    samples = np.asarray(samples, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    r, n_pts, _ = samples.shape
    if outputs.shape != (r, n_pts):
        raise ConfigError(f"outputs shape {outputs.shape} != {(r, n_pts)}")
    return _morris_tables(space, samples, outputs[:, :, None])[0]


def _morris_tables(space: ParameterSpace, samples: np.ndarray,
                   outputs: np.ndarray) -> list:
    """One :class:`MorrisResult` per output of the (r, k+1, m) ``outputs``
    at the (r, k+1, k) ``samples``.

    Effects are finite differences in unit space, signed by the step
    direction; each step is charged to the parameter it moves most, and a
    step that moves none raises, naming the first in (trajectory, step)
    order.  The steps and their grouping are found once for all outputs,
    and the effects of all outputs are one (m, r*(n_pts-1)) block.  A
    stable sort keeps each parameter's effects in (t, s) order; the
    parameters moved equally often (all of them, in a :func:`morris_sample`
    design) are gathered as one C-ordered (m, p, count) block, and each
    statistic is one reduction along its contiguous last axis, which sums
    every row in the order of a 1-D call.  So each output keeps the bits of
    its own :func:`morris_indices` call.
    """
    r, n_pts, k = samples.shape
    du = np.diff(space.to_unit(samples), axis=1)  # (r, n_pts - 1, k)
    dim = np.argmax(np.abs(du), axis=2)
    step = np.take_along_axis(du, dim[..., None], axis=2)[..., 0]
    if np.any(step == 0.0):
        t, s = np.unravel_index(int(np.argmax(step == 0.0)), step.shape)
        raise EvaluationError(f"trajectory {t} step {s} moved no parameter")
    counts = np.bincount(dim.ravel(), minlength=k)
    if not counts.all():
        missing = space.names[int(np.argmin(counts))]
        raise EvaluationError(f"no elementary effects for {missing}")
    starts = np.cumsum(counts) - counts
    order = np.argsort(dim.ravel(), kind="stable")
    y = np.moveaxis(outputs, 2, 0)  # (m, r, n_pts)
    m = y.shape[0]
    mu_star = np.empty((m, k))
    sigma = np.zeros((m, k))
    # finite outputs far apart may give infinite effects and statistics; the
    # caller refuses them (the CLI when it writes them)
    with np.errstate(over="ignore", invalid="ignore"):
        effects = ((y[:, :, 1:] - y[:, :, :-1]) / step).reshape(m, -1)
        for count in sorted(set(counts.tolist())):  # one, in morris_sample's designs
            cols = np.flatnonzero(counts == count)
            # (m, len(cols), count), C-ordered: one contiguous row per table cell
            ee = effects.take(order[starts[cols, None] + np.arange(count)], axis=1)
            mu_star[:, cols] = np.mean(np.abs(ee), axis=2)
            if count > 1:
                sigma[:, cols] = np.std(ee, ddof=1, axis=2)
    return [MorrisResult(space.names, mu_star[j], sigma[j], r) for j in range(m)]


@dataclass
class SaltelliDesign:
    """The two base matrices A and B of a Saltelli design."""

    space: ParameterSpace
    n: int
    A: np.ndarray
    B: np.ndarray

    def matrix(self) -> np.ndarray:
        """All n*(2k+2) evaluation points in canonical order: A, B, then
        A with column i from B for i = 0..k-1, then B with column i from A."""
        k, n = len(self.space), self.n
        out = np.empty(((2 * k + 2) * n, k))
        out[:n], out[n:2 * n] = self.A, self.B
        ab = out[2 * n:].reshape(2, k, n, k)
        ab[0], ab[1] = self.A, self.B
        cols = np.arange(k)
        ab[0, cols, :, cols], ab[1, cols, :, cols] = self.B.T, self.A.T
        return out

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
    return SaltelliDesign(space, n, space.from_unit(unit[:, :k]),
                          space.from_unit(unit[:, k:]))


def _check_method(method, key: str = "method") -> None:
    if method not in ("morris", "sobol"):
        raise ConfigError(f"unknown {key} {_shown(method)}; use 'morris' or 'sobol'")


def _check_morris_r(r: int, key: str = "r") -> None:
    if r < 1:
        raise ConfigError(f"{key} must be at least one trajectory, not {r!r}")


def _check_sobol_n(n: int, key: str = "n") -> None:
    if n < 2:
        raise ConfigError(f"{key} (base sample size) must be >= 2, not {n!r}")


def _check_variance(var: np.ndarray) -> None:
    if np.any(var <= 0.0):
        raise EvaluationError("zero output variance: Sobol indices undefined")


def sobol_indices(design: SaltelliDesign, outputs: np.ndarray,
                  seed: int = 0) -> SobolResult:
    """First-order and total-effect indices with a bootstrap interval on S_Ti.

    S_i uses the symmetrized direct estimator over both matrix halves,
    S_Ti the Jansen squared-difference form with a 95% bootstrap
    percentile interval of ``_N_BOOT`` resamples.  One output's case of
    :func:`_sobol_tables`.
    """
    return _sobol_tables(design, np.asarray(outputs, dtype=float)[:, None], seed)[0]


# numpy sums a contiguous span of at most this many values with eight
# interleaved accumulators and splits a longer one in two (PW_BLOCKSIZE)
_PAIRWISE_LEAF = 128
# bytes of lane accumulators one bootstrap chunk adds its resampled rows
# into: ten resamples of 18 KB at n=512 with 12 parameters and 3 outputs
# (four leaves of eight lanes of 72 S_T terms).  On the n=512 screen
# design, budgets of 200 to 520 KB ran equally fast; 40 KB and 1.6 MB took
# about 1.6 and 2 times as long, from per-call overhead and L2 spills.  The
# low end keeps each chunk's (m, B, 2n) variance take small: 21 resamples
# a chunk raised a screen run's peak RSS by 0.4 MB.
_LANE_BYTES = 200_000
# the tail of a 95% percentile interval, as 0.5 * (1 - 0.95) rounds
# (0.025000000000000022, not 0.025): the intervals' bits depend on it
_ALPHA = 0.5 * (1.0 - 0.95)
# the resamples behind every S_T interval
_N_BOOT = 200


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


def _sobol_tables(design: SaltelliDesign, Y: np.ndarray, seed: int) -> list:
    """One :class:`SobolResult` per column of the (N, m) outputs ``Y``.

    Both estimators are means of per-row terms, each estimator's (k, n)
    term pair of every output stacked as one (2, m, k, n) block.  The point
    estimates are its means along the contiguous last axis.  Only the S_T
    block is bootstrapped, by gather: it is laid out as one C-ordered
    (n, 2*m*k) block, one design row per memory row (a column's sum does
    not depend on the other columns), each of the ``_N_BOOT`` resamples
    draws n design rows (jointly across all matrices and outputs), and
    :func:`_gather_means` adds those whole rows straight into numpy's
    eight lane accumulators, in numpy's summation order, without building
    the resampled block.  Resamples go in chunks whose accumulators take
    at most ``_LANE_BYTES``, and a chunk's variances come from one
    ``np.var`` along contiguous rows.  So every column gets the bits of
    its own ``sobol_indices`` call, and of the per-resample
    ``take(idx, axis=1).mean(axis=1)`` of the transposed block: the
    resamples are those of ``default_rng(seed)`` whatever m or the chunk
    size is.  A non-finite output is refused first; an output that takes
    one value over the whole design gets S1 = S_T = 0 and a zero-width
    interval, and any other whose variance, at the point or in a resample,
    is not positive is refused.
    """
    Y = design._checked(Y)
    k, n = len(design.space), design.n
    Yt = np.ascontiguousarray(Y.T)  # (m, N): one row per output
    m = Yt.shape[0]
    if not np.isfinite(Yt).all():
        raise EvaluationError("non-finite model output in Sobol design")
    # far-apart finite outputs may give NaN indices, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        yA, yB = Yt[:, None, :n], Yt[:, None, n:2 * n]
        yAB = Yt[:, 2 * n:(2 + k) * n].reshape(m, k, n)
        yBA = Yt[:, (2 + k) * n:].reshape(m, k, n)

        def half_mean(pair):  # half the sum of a (2, m, k, n) pair's row means
            a, b = pair.mean(axis=-1)
            return 0.5 * (a + b)

        st_pair = np.stack([(yA - yAB) ** 2, (yB - yBA) ** 2])
        yAyB = Yt[:, :2 * n]
        # every term of an output the space cannot move is exactly 0, but its
        # variance rounds to anything from 0 to 1e-28: divide its terms by 1
        flat = np.ptp(Yt, axis=1) == 0.0
        var = np.where(flat, 1.0, np.var(yAyB, axis=1))
        _check_variance(var)
        s1 = half_mean(np.stack([yB * (yAB - yA), yA * (yBA - yB)])) / var[:, None]
        st = half_mean(st_pair) / 2.0 / var[:, None]
        st_terms = np.ascontiguousarray(st_pair.reshape(2 * m * k, n).T)
        rng = np.random.default_rng(seed)
        leaves = sum(count for count, _, _ in _sum_plan(n)[1])
        chunk = max(1, _LANE_BYTES // (8 * leaves * st_terms[0].nbytes))
        bootst = np.empty((_N_BOOT, m, k))
        for lo in range(0, _N_BOOT, chunk):
            hi = min(lo + chunk, _N_BOOT)
            idx = rng.integers(0, n, size=(hi - lo, n))  # the draws of hi - lo size-n calls
            # (m, B, 2n), C-ordered: each variance reduces one contiguous row
            var = np.var(yAyB.take(np.concatenate([idx, idx + n], axis=1), axis=1), axis=2).T
            var[:, flat] = 1.0
            _check_variance(var)
            a, b = _gather_means(st_terms, idx).reshape(-1, 2, m, k).transpose(1, 0, 2, 3)
            bootst[lo:hi] = 0.5 * (a + b) / 2.0 / var[:, :, None]
        lot, hit = np.quantile(bootst, [_ALPHA, 1.0 - _ALPHA], axis=0)
        return [SobolResult(design.space.names, s1[j], st[j], 0.5 * (hit[j] - lot[j]), n)
                for j in range(m)]


def _check_parameters(names, key: str = "space") -> None:
    """Every parameter name must be a policy or coefficient field."""
    unknown = [f"{key}.{n}" for n in names if n not in POLICY_FIELDS and n not in COEFF_FIELDS]
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
        row = points[int(np.argmax(nan_rows))].tolist()  # plain floats in the message
        raise EvaluationError(f"NaN objective at sample {dict(zip(space.names, row))}")
    return evals


@dataclass
class AnalysisReport:
    method: str
    space: ParameterSpace
    tables: dict        # output name -> MorrisResult | SobolResult
    matrix: np.ndarray  # (k, 3): mu_star or S_T per parameter and output

    def matrix_records(self) -> list:
        return [
            {"parameter": name,
             **{out: float(self.matrix[i, j]) for j, out in enumerate(OUTPUT_NAMES)}}
            for i, name in enumerate(self.space.names)
        ]


def analyze_model(space: ParameterSpace, exog: ExogenousSeries,
                  coeffs: ModelCoefficients, policy: PolicyVector,
                  init: SimState, method: str = "morris", morris_r: int = 20,
                  sobol_n: int = 512, seed: int = 0) -> AnalysisReport:
    """Sensitivity of the simulation objectives over a parameter space.

    One simulation per sample point feeds all three outputs: the whole
    design runs in one ``simulate_batch`` call, for Sobol and Morris alike,
    and the first NaN sample in design order is named.  The report holds
    the ranked table of each of f1..f3 and the parameters-by-outputs
    matrix (mu* for Morris, S_T for Sobol); an output the space cannot
    move gets zeros.  ``method``, every size (those of the other method
    too) and the space's parameter names are checked, as the CLI parses
    them, before any sampling or simulation.  A design too large to hold
    is a MemoryError naming its size: ``morris_r`` or ``sobol_n``.
    """
    _check_method(method)
    _check_morris_r(morris_r, "morris_r")
    _check_sobol_n(sobol_n, "sobol_n")
    _check_parameters(space.names)
    try:  # the design points, the largest arrays of the run
        if method == "morris":
            samples = morris_sample(space, morris_r, seed)
            points = samples.reshape(-1, len(space))
        else:
            design = saltelli_sample(space, sobol_n, seed)
            points = design.matrix()
    except (MemoryError, ValueError) as e:  # numpy's ValueError: a shape beyond any memory
        key, size = ("morris_r", morris_r) if method == "morris" else ("sobol_n", sobol_n)
        raise MemoryError(f"{key} {size} is too large to hold: {e}") from None
    evals = _evaluate(space, points, exog, coeffs, policy, init)
    del points  # Sobol's is a copy of the design: free it before the bootstrap
    if method == "morris":
        results = _morris_tables(space, samples,
                                 evals.reshape(morris_r, len(space) + 1, 3))
        matrix = np.column_stack([res.mu_star for res in results])
    else:
        results = _sobol_tables(design, evals, seed)
        matrix = np.column_stack([res.st for res in results])
    return AnalysisReport(method=method, space=space, tables=dict(zip(OUTPUT_NAMES, results)),
                          matrix=matrix)


def uncertainty_space(policy: PolicyVector, bounds: PolicyBounds) -> ParameterSpace:
    """Box of +-``_UNCERTAINTY_REL`` around a reference policy, clipped to
    the bounds.

    This is the default space for policy-lever sensitivity runs: every
    lever varies by the same relative amount around the working policy.
    An empty range is a ``ConfigError`` naming ``policy.<name>``: a value
    of 0, a subnormal one the width cannot widen, or one whose box lies
    outside the bounds.
    """
    spec = {}
    for name in POLICY_FIELDS:
        v = getattr(policy, name)
        lo, hi = getattr(bounds, name)
        a = max(lo, v * (1.0 - _UNCERTAINTY_REL))
        b = min(hi, v * (1.0 + _UNCERTAINTY_REL))
        if a >= b:
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
