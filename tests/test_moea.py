import itertools
import math
import multiprocessing
import multiprocessing.context
import threading

import numpy as np
import pytest

import touropt as tp
from touropt import moea
from touropt.errors import ConfigError, EvaluationError
from touropt.moea import (
    EAConfig,
    Individual,
    ParetoFront,
    _Archive,
    crowding_distance,
    dominance_matrix,
    dominates,
    environmental_selection,
    evolve,
    fast_nondominated_sort,
    hypervolume_3d,
    polynomial_mutation,
    sbx_crossover,
    tournament_select,
)
from touropt.sd_core import POLICY_FIELDS, PolicyVector, simulate_batch

from helpers import (
    archive_one_at_a_time,
    brute_force_fronts,
    crowding_loop,
    dominance_matrix_loop,
    environmental_selection_reference,
    evolve_reference,
    generation_reference,
    hv_grid_oracle,
    hypervolume_reference,
    pairwise_nondominated_sort,
)


class _ScriptedRng:
    """Deterministic stand-in feeding fixed draws to the operators."""

    def __init__(self, integers=(), randoms=()):
        self._ints = list(integers)
        self._rands = list(randoms)

    def integers(self, n):
        return self._ints.pop(0) % n

    def random(self):
        return self._rands.pop(0)


class TestDominates:
    def test_strict_improvement(self):
        assert dominates((2, 2, 2), (1, 1, 1))

    def test_tradeoff_pair_mutually_nondominated(self):
        assert not dominates((1, 2, 1), (2, 1, 1))
        assert not dominates((2, 1, 1), (1, 2, 1))

    def test_equality_is_not_dominance(self):
        assert not dominates((1, 1, 1), (1, 1, 1))

    def test_nan_raises(self):
        with pytest.raises(EvaluationError):
            dominates((float("nan"), 1, 1), (0, 0, 0))


def _grid(rng, n, levels=3):
    """``n`` objective triples on a small integer grid: many ties and clones."""
    return [tuple(float(v) for v in rng.integers(0, levels, 3)) for _ in range(n)]


class TestDominanceMatrix:
    def test_matches_scalar_dominates_on_tie_heavy_grids(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            objs = _grid(rng, int(rng.integers(1, 30)))
            d = dominance_matrix(objs)
            assert d.shape == (len(objs), len(objs)) and d.dtype == bool
            for i, a in enumerate(objs):
                for j, b in enumerate(objs):
                    assert d[i, j] == dominates(a, b)

    def test_rectangular_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            a = _grid(rng, int(rng.integers(1, 25)))
            b = _grid(rng, int(rng.integers(1, 25)))
            d = dominance_matrix(a, b)
            w = dominance_matrix(a, b, weak=True)
            assert d.shape == w.shape == (len(a), len(b))
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    assert d[i, j] == dominates(x, y)
                    assert w[i, j] == all(u >= v for u, v in zip(x, y))

    def test_empty_side(self):
        assert dominance_matrix(np.empty((0, 3)), [(1.0, 2.0, 3.0)]).shape == (0, 1)
        assert dominance_matrix([(1.0, 2.0, 3.0)], np.empty((0, 3))).shape == (1, 0)


def _assert_matches_loop(a, b=None):
    """Weak and strict ``dominance_matrix`` equal the float column loop."""
    for weak in (False, True):
        got = dominance_matrix(a, b, weak=weak)
        want = dominance_matrix_loop(a, b, weak=weak)
        assert got.dtype == bool and got.shape == want.shape
        assert np.array_equal(got, want)


class TestRankKernel:
    """The rank-space ``dominance_matrix`` against the float column loop."""

    def test_tie_heavy_grids(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            levels = int(rng.integers(1, 5))
            a = np.array(_grid(rng, int(rng.integers(1, 40)), levels))
            b = np.array(_grid(rng, int(rng.integers(1, 40)), levels))
            _assert_matches_loop(a)
            _assert_matches_loop(a, b)

    def test_signed_zeros_and_infinities(self):
        rng = np.random.default_rng(31)
        values = np.array([-0.0, 0.0, np.inf, -np.inf, 1.0, -1.0])
        for _ in range(200):
            a = rng.choice(values, (int(rng.integers(1, 30)), 3))
            b = rng.choice(values, (int(rng.integers(1, 30)), 3))
            _assert_matches_loop(a)
            _assert_matches_loop(a, b)
            _assert_matches_loop(b, a)

    def test_nan_rows_in_either_operand(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            a = np.array(_grid(rng, int(rng.integers(1, 30))))
            b = np.array(_grid(rng, int(rng.integers(1, 30))))
            for x in (a, b):
                hit = rng.random(x.shape) < 0.1
                x[hit] = np.nan
            _assert_matches_loop(a)
            _assert_matches_loop(a, b)
            nan_a, nan_b = np.isnan(a).any(axis=1), np.isnan(b).any(axis=1)
            w = dominance_matrix(a, b, weak=True)
            assert not w[nan_a].any() and not w[:, nan_b].any()

    def test_empty_operands(self):
        full = np.array([(1.0, 2.0, 3.0), (0.0, 2.0, 3.0)])
        empty = np.empty((0, 3))
        _assert_matches_loop(empty)
        for a, b in [(empty, full), (full, empty), (empty, empty)]:
            _assert_matches_loop(a, b)

    @pytest.mark.parametrize("m", [2, 5])
    def test_two_and_five_objectives(self, m):
        rng = np.random.default_rng(33 + m)
        for trial in range(100):
            shape = (int(rng.integers(1, 40)), m)
            if trial % 2:
                a, b = rng.integers(0, 3, shape) * 1.0, rng.integers(0, 3, shape) * 1.0
            else:
                a, b = rng.normal(size=shape), rng.normal(size=shape)
            _assert_matches_loop(a)
            _assert_matches_loop(a, b)

    def test_wide_ranks(self):
        # 33,000 + 7 distinct values per objective overflow int16 ranks
        rng = np.random.default_rng(35)
        a = rng.normal(size=(33_000, 2))
        b = np.concatenate([rng.normal(size=(5, 2)), a[[7, 32_999]]])
        assert moea._ranks(np.concatenate([a, b])).dtype == np.int32
        assert moea._ranks(a[:1000]).dtype == np.int16
        _assert_matches_loop(a, b)
        _assert_matches_loop(b, a)


class TestSorting:
    def test_chain_gives_singleton_fronts(self):
        fronts = fast_nondominated_sort([(3, 3, 3), (2, 2, 2), (1, 1, 1)])
        assert fronts == [[0], [1], [2]]

    def test_mutual_nondominance_single_front(self):
        objs = [(3, 1, 1), (1, 3, 1), (1, 1, 3)]
        assert fast_nondominated_sort(objs) == [[0, 1, 2]]

    def test_duplicates_share_front(self):
        objs = [(1, 1, 1), (1, 1, 1), (0, 0, 0)]
        fronts = fast_nondominated_sort(objs)
        assert sorted(fronts[0]) == [0, 1]
        assert fronts[1] == [2]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 50))
            objs = [tuple(rng.uniform(0, 5, 3).round(1)) for _ in range(n)]
            fast = [sorted(f) for f in fast_nondominated_sort(objs)]
            brute = [sorted(f) for f in brute_force_fronts(objs)]
            assert fast == brute

    def test_fronts_and_order_match_pairwise_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(0, 60))
            if trial % 2:
                objs = _grid(rng, n, levels=int(rng.integers(2, 5)))
            else:
                objs = [tuple(rng.uniform(0, 1, 3)) for _ in range(n)]
            assert fast_nondominated_sort(objs) == pairwise_nondominated_sort(objs)

    def test_nan_raises(self):
        with pytest.raises(EvaluationError):
            fast_nondominated_sort([(1.0, 1.0, 1.0), (0.0, float("nan"), 0.0)])

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        objs = [tuple(rng.uniform(0, 1, 3)) for _ in range(40)]
        fronts = fast_nondominated_sort(objs)
        flat = sorted(i for f in fronts for i in f)
        assert flat == list(range(40))


class TestCrowding:
    def test_small_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance([(1, 2, 3)])))
        assert np.all(np.isinf(crowding_distance([(1, 2, 3), (3, 2, 1)])))

    def test_equally_spaced_middle_is_one(self):
        objs = [(0.0, 5.0, 5.0), (1.0, 5.0, 5.0), (2.0, 5.0, 5.0)]
        d = crowding_distance(objs)
        assert d[1] == pytest.approx(1.0)
        assert np.isinf(d[0]) and np.isinf(d[2])

    def test_identical_points_interior_zero(self):
        d = crowding_distance([(1, 1, 1)] * 5)
        assert np.isinf(d).sum() == 2
        assert np.all(d[~np.isinf(d)] == 0.0)

    def test_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            if trial % 2:
                objs = _grid(rng, n, levels=int(rng.integers(1, 5)))
            else:
                objs = [tuple(rng.normal(0, 1e6, 3)) for _ in range(n)]
            assert np.array_equal(crowding_distance(objs), crowding_loop(objs))


class TestOnePassCrowding:
    def test_matches_loop_front_by_front(self):
        rng = np.random.default_rng(36)
        seen = set()
        for trial in range(300):
            n = int(rng.integers(1, 60))
            if trial % 3:
                objs = np.array(_grid(rng, n, levels=int(rng.integers(1, 5))))
            else:
                objs = rng.normal(0.0, 1e6, (n, 3))
            if trial % 5 == 0:  # clones of existing rows
                objs = objs[rng.integers(0, n, n + 5)]
            _, rank, crowd = moea._select(objs, int(rng.integers(1, len(objs) + 1)))
            for r, front in enumerate(fast_nondominated_sort(objs)):
                assert (rank[front] == r).all()
                want = crowding_loop(objs[front])
                assert crowd[front].tobytes() == want.tobytes()
                seen.add(min(len(front), 3))
                if len(front) > 2 and (np.ptp(objs[front], axis=0) == 0.0).any():
                    seen.add("zero span")
        assert seen == {1, 2, 3, "zero span"}


class TestArchive:
    """Each candidate's one gene is a serial of its own, so comparing the
    archive's genes in order checks which candidates it kept, and in what
    order."""

    @staticmethod
    def _same(archive, reference):
        genomes, objs = reference
        assert archive.genomes[:, 0].tolist() == genomes[:, 0].tolist()
        assert archive.objs.shape == objs.shape
        assert archive.objs.tobytes() == objs.tobytes()

    def test_batched_insert_matches_one_at_a_time(self):
        rng = np.random.default_rng(14)
        serial = 0
        for _ in range(300):
            levels = int(rng.integers(2, 6))
            archive, reference = _Archive(1), (np.empty((0, 1)), np.empty((0, 3)))
            for _ in range(int(rng.integers(1, 5))):  # successive generations
                objs = np.array(_grid(rng, int(rng.integers(0, 25)), levels)).reshape(-1, 3)
                genomes = serial + np.arange(len(objs), dtype=float)[:, None]
                serial += len(objs)
                if len(objs) and rng.random() < 0.5:  # exact clones inside a batch
                    k = int(rng.integers(len(objs)))
                    genomes, objs = np.vstack([genomes, genomes[k]]), np.vstack([objs, objs[k]])
                archive.add(genomes, objs)
                reference = archive_one_at_a_time(*reference, genomes, objs)
                self._same(archive, reference)

    def test_large_archive_matches_one_at_a_time(self):
        # distinct integer points with one coordinate sum dominate none of
        # each other: an archive of 1,891 members to insert batches into
        rng = np.random.default_rng(37)
        grid = np.array([(x, y, 60 - x - y) for x in range(61) for y in range(61 - x)],
                        dtype=float)
        reference = (np.arange(len(grid), dtype=float)[:, None], grid[rng.permutation(len(grid))])
        archive = _Archive(1)
        archive.add(*reference)
        self._same(archive, reference)
        serial = len(grid)
        for _ in range(4):
            xy = rng.integers(0, 62, (120, 2))
            total = 60 + rng.integers(-1, 2, 120)
            objs = np.column_stack([xy, total - xy.sum(axis=1)]).astype(float)
            clones = reference[1][rng.integers(0, len(reference[1]), 10)]
            objs = np.vstack([objs, clones])
            genomes = serial + np.arange(len(objs), dtype=float)[:, None]
            serial += len(objs)
            # the first five candidates once more
            genomes, objs = np.vstack([genomes, genomes[:5]]), np.vstack([objs, objs[:5]])
            archive.add(genomes, objs)
            reference = archive_one_at_a_time(*reference, genomes, objs)
            assert len(reference[1]) > 1_000
            self._same(archive, reference)

    def test_equal_objectives_keep_the_first(self):
        archive = _Archive(1)
        archive.add(np.array([[0.0], [1.0]]), np.ones((2, 3)))
        archive.add(np.array([[2.0]]), np.ones((1, 3)))
        assert archive.genomes.tolist() == [[0.0]]
        assert archive.objs.tolist() == [[1.0, 1.0, 1.0]]

    def test_kept_rows_are_copies(self):
        genomes, objs = np.zeros((2, 1)), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        archive = _Archive(1)
        archive.add(genomes, objs)
        assert not np.shares_memory(archive.genomes, genomes)
        assert not np.shares_memory(archive.objs, objs)


class TestFrontVerification:
    def _front(self, objs):
        objs = np.array(objs, dtype=float).reshape(-1, 3)
        return ParetoFront(np.zeros((len(objs), 1)), objs, (0.0, 0.0, 0.0))

    def test_dominated_pair_in_different_row_blocks(self, monkeypatch):
        # 600 points on a line are mutually non-dominated; (590, 9.5, 1) is
        # dominated by (590, 10, 1) alone, which sits two row blocks away
        objs = [(float(i), float(600 - i), 1.0) for i in range(600)]
        assert self._front(objs).check_nondominated()
        objs[10] = (590.0, 9.5, 1.0)
        shapes = []
        covers = moea._covers

        def recording(ra, rb):  # one call per row block, (block rows, front rows)
            shapes.append((ra.shape[1], rb.shape[1]))
            return covers(ra, rb)

        monkeypatch.setattr(moea, "_covers", recording)
        assert not self._front(objs).check_nondominated()
        assert shapes == [(256, 600), (256, 600), (88, 600)]
        objs[10], objs[590] = objs[590], objs[10]
        assert not self._front(objs).check_nondominated()

    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_of_dominance_matrix(self, seed, monkeypatch):
        # tie-heavy fronts, some non-dominated and some not, across blocks
        monkeypatch.setattr(moea, "_VERIFY_BLOCK", 16)
        rng = np.random.default_rng(seed)
        for n in (1, 15, 16, 17, 60):
            objs = rng.integers(0, 4, (n, 3)).astype(float)
            want = not dominance_matrix(objs).any()
            assert self._front(objs).check_nondominated() == want
            front = objs[~dominance_matrix(objs).any(axis=0)]
            assert self._front(front).check_nondominated()

    def test_duplicates_do_not_dominate(self):
        assert self._front([(1.0, 2.0, 3.0)] * 300).check_nondominated()

    def test_empty_front(self):
        assert self._front([]).check_nondominated()

    def test_nan_front_raises(self):
        objs = [(float(i), float(600 - i), 1.0) for i in range(600)]
        objs[400] = (float("nan"), 1.0, 1.0)
        with pytest.raises(EvaluationError):
            self._front(objs).check_nondominated()


class TestTournament:
    def _pop(self):
        g = np.zeros(1)
        return [Individual(g, (0, 0, 0), rank=0, crowding=math.inf),
                Individual(g, (0, 0, 0), rank=3, crowding=math.inf),
                Individual(g, (0, 0, 0), rank=0, crowding=1.2)]

    def test_lower_rank_wins(self):
        pop = self._pop()
        assert tournament_select(pop, _ScriptedRng(integers=[0, 1])) is pop[0]
        assert tournament_select(pop, _ScriptedRng(integers=[1, 0])) is pop[0]

    def test_crowding_breaks_rank_tie(self):
        pop = self._pop()
        assert tournament_select(pop, _ScriptedRng(integers=[2, 0])) is pop[0]
        assert tournament_select(pop, _ScriptedRng(integers=[0, 2])) is pop[0]

    def test_full_tie_keeps_first_drawn(self):
        g = np.zeros(1)
        pop = [Individual(g, (0, 0, 0), 0, 1.0), Individual(g, (0, 0, 0), 0, 1.0)]
        assert tournament_select(pop, _ScriptedRng(integers=[1, 0])) is pop[1]


class TestSBX:
    def test_unit_spread_returns_parents(self):
        pa, pb = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        rng = _ScriptedRng(randoms=[0.5, 0.5])  # beta = 1 exactly
        ca, cb = sbx_crossover(pa, pb, 15.0, [-10, -10], [10, 10], rng)
        assert np.array_equal(ca, pa) and np.array_equal(cb, pb)

    def test_identical_parents_identical_children(self):
        p = np.array([0.3, 0.7, 0.1])
        rng = np.random.default_rng(0)
        ca, cb = sbx_crossover(p, p, 15.0, [0, 0, 0], [1, 1, 1], rng)
        assert np.allclose(ca, p) and np.allclose(cb, p)

    def test_children_respect_bounds(self):
        rng = np.random.default_rng(1)
        lo, hi = np.zeros(3), np.ones(3)
        for _ in range(500):
            pa, pb = rng.random(3), rng.random(3)
            ca, cb = sbx_crossover(pa, pb, 2.0, lo, hi, rng)
            assert np.all(ca >= lo) and np.all(ca <= hi)
            assert np.all(cb >= lo) and np.all(cb <= hi)

    def test_mean_preservation(self):
        # Monte Carlo: across both children the per-gene mean equals the
        # parent midpoint; tolerance is 3 standard errors
        rng = np.random.default_rng(42)
        pa, pb = np.array([0.2]), np.array([0.8])
        vals = []
        for _ in range(10000):
            ca, cb = sbx_crossover(pa, pb, 15.0, [-100], [100], rng)
            vals.extend([ca[0], cb[0]])
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.5) <= 3 * se


class TestMutation:
    def test_zero_probability_is_identity(self):
        g = np.array([0.5, 0.2])
        rng = np.random.default_rng(0)
        out = polynomial_mutation(g, 20.0, 0.0, [0, 0], [1, 1], rng)
        assert np.array_equal(out, g)

    def test_stays_in_bounds_at_edges(self):
        rng = np.random.default_rng(3)
        lo, hi = np.array([0.0]), np.array([1.0])
        for start in (0.0, 1.0):
            for _ in range(200):
                out = polynomial_mutation(np.array([start]), 20.0, 1.0, lo, hi, rng)
                assert 0.0 <= out[0] <= 1.0

    def test_perturbation_shrinks_with_index(self):
        def mean_abs(eta, seed):
            rng = np.random.default_rng(seed)
            g = np.array([0.5])
            moves = [abs(polynomial_mutation(g, eta, 1.0, [0], [1], rng)[0] - 0.5)
                     for _ in range(10000)]
            return np.mean(moves)

        assert mean_abs(100.0, 5) < mean_abs(20.0, 5)


def _front_points(rng, n, base):
    # mutually non-dominated: permutations around a simplex
    pts = []
    for _ in range(n):
        a = rng.uniform(0, 1)
        pts.append((base + a, base + 1.0 - a, base + rng.uniform(0, 0.01)))
    return pts


class TestEnvironmentalSelection:
    def test_oversized_first_front_truncated_by_crowding(self):
        rng = np.random.default_rng(0)
        n = 10
        pts = _front_points(rng, 2 * n, 10.0)
        pool = [Individual(np.zeros(1), p) for p in pts]
        survivors = environmental_selection(pool, n)
        assert len(survivors) == n
        # survivors are the n most crowding-distant of the single front
        all_sorted = sorted(pool, key=lambda ind: -ind.crowding)
        kept = {id(s) for s in survivors}
        assert kept == {id(ind) for ind in all_sorted[:n]}

    def test_two_half_fronts_taken_whole(self):
        rng = np.random.default_rng(1)
        top = _front_points(rng, 5, 10.0)
        bottom = [(x - 5.0, y - 5.0, z - 5.0) for x, y, z in _front_points(rng, 5, 0.0)]
        pool = [Individual(np.zeros(1), p) for p in top + bottom]
        survivors = environmental_selection(pool, 10)
        assert {id(s) for s in survivors} == {id(p) for p in pool}

    def test_partial_second_front(self):
        rng = np.random.default_rng(2)
        n = 10
        top = _front_points(rng, n - 1, 10.0)
        second = [(x - 20.0, y - 20.0, z - 20.0)
                  for x, y, z in _front_points(rng, 5, 0.0)]
        pool = [Individual(np.zeros(1), p) for p in top + second]
        survivors = environmental_selection(pool, n)
        assert len(survivors) == n
        top_ids = {id(p) for p in pool[: n - 1]}
        extra = [s for s in survivors if id(s) not in top_ids]
        assert len(extra) == 1
        second_members = [s for s in pool[n - 1:]]
        assert extra[0].crowding == max(m.crowding for m in second_members)

    def test_matches_reference_on_tie_heavy_pools(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            objs = _grid(rng, int(rng.integers(4, 60)), levels=int(rng.integers(2, 5)))
            n = int(rng.integers(1, len(objs) + 1))
            pool = [Individual(np.zeros(1), o) for o in objs]
            twins = [Individual(np.zeros(1), o) for o in objs]
            got = environmental_selection(pool, n)
            want = environmental_selection_reference(twins, n)
            assert [pool.index(m) for m in got] == [twins.index(m) for m in want]
            assert [(m.rank, m.crowding) for m in pool] == [(m.rank, m.crowding)
                                                            for m in twins]


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume_3d([(1, 1, 1)], (0, 0, 0)) == pytest.approx(1.0)

    def test_inclusion_exclusion_pair(self):
        assert hypervolume_3d([(2, 1, 1), (1, 2, 1)], (0, 0, 0)) == pytest.approx(3.0)

    def test_empty_front(self):
        assert hypervolume_3d([], (0, 0, 0)) == 0.0

    def test_nondominating_member_rejected(self):
        with pytest.raises(ValueError):
            hypervolume_3d([(1, 1, -1)], (0, 0, 0))

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            pts = [tuple(rng.uniform(0.1, 1.0, 3).round(2)) for _ in range(n)]
            ref = (0.0, 0.0, 0.0)
            assert hypervolume_3d(pts, ref) == pytest.approx(
                hv_grid_oracle(pts, ref), rel=1e-12)

    def test_duplicate_points_ignored(self):
        pts = [(1, 1, 1), (1, 1, 1), (0.5, 0.5, 0.5)]
        assert hypervolume_3d(pts, (0, 0, 0)) == pytest.approx(1.0)

    def test_array_input_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for trial in range(300):
            n = int(rng.integers(1, 80))
            pts = rng.normal(0.0, 1e6, (n, 3)) + 5e6
            if trial % 3 == 1:  # ties in every coordinate
                pts = np.array(_grid(rng, n, levels=int(rng.integers(1, 5)))) + 1.0
            elif trial % 3 == 2:  # z ties: the sweep's insertion order decides the bits
                pts[:, 2] = rng.integers(1, 4, n)
            ref = (0.0, -0.5, 0.25)
            got = hypervolume_3d(pts, ref)
            assert np.float64(got).tobytes() == np.float64(
                hypervolume_reference(pts.tolist(), ref)).tobytes()

    @pytest.mark.parametrize("pts, ref", [([(1, 1, 1), (1, float("nan"), 1)], (0, 0, 0)),
                                          ([(1, 1, 1)], (0, float("nan"), 0))])
    def test_nan_raises(self, pts, ref):
        with pytest.raises(EvaluationError):
            hypervolume_3d(np.array(pts, dtype=float), ref)

    def test_point_equal_to_reference_rejected(self):
        with pytest.raises(ValueError, match="does not dominate"):
            hypervolume_3d(np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0]]), (0, 0, 0))


def _toy(genomes):
    x = genomes[:, 0]
    return np.column_stack([-x * x, -(x - 1.0) ** 2, -(x + 1.0) ** 2])


class TestEvolve:
    def test_toy_front_in_analytic_interval(self):
        cfg = EAConfig(population_size=40, generations=20, seed=1, hv_rel_tol=0.0)
        res = evolve(_toy, [-2.0], [2.0], cfg)
        xs = res.front.genomes[:, 0]
        assert np.mean((xs >= -1.05) & (xs <= 1.05)) >= 0.95
        assert res.front.check_nondominated()

    def test_seeded_run_is_reproducible(self):
        cfg = EAConfig(population_size=20, generations=8, seed=123)
        r1 = evolve(_toy, [-2.0], [2.0], cfg)
        r2 = evolve(_toy, [-2.0], [2.0], cfg)
        assert len(r1.front.individuals) == len(r2.front.individuals)
        for a, b in zip(r1.front.individuals, r2.front.individuals):
            assert np.array_equal(a.genome, b.genome)
            assert a.objectives == b.objectives
        assert r1.hypervolume_log == r2.hypervolume_log

    def test_clone_population_single_front_point(self):
        cfg = EAConfig(population_size=10, generations=3, seed=0)
        res = evolve(_toy, [0.5], [0.5], cfg)  # degenerate box: all clones
        assert len(res.front.individuals) == 1

    def test_hypervolume_log_nondecreasing(self):
        cfg = EAConfig(population_size=30, generations=15, seed=4, hv_rel_tol=0.0)
        res = evolve(_toy, [-2.0], [2.0], cfg)
        hv = res.hypervolume_log
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_plateau_stops_early(self):
        cfg = EAConfig(population_size=20, generations=200, seed=5,
                       hv_window=5, hv_rel_tol=0.5)
        res = evolve(_toy, [-2.0], [2.0], cfg)
        assert res.generations_run < 200
        assert res.stop_reason == "hv_plateau"

    def test_genomes_respect_bounds(self):
        cfg = EAConfig(population_size=20, generations=10, seed=6)
        res = evolve(_toy, [-2.0], [2.0], cfg)
        for genomes in (res.front.genomes, res.population[0]):
            assert ((genomes >= -2.0) & (genomes <= 2.0)).all()

    def test_nan_objective_rejected(self):
        def bad(genomes):
            return np.full((len(genomes), 3), np.nan)

        with pytest.raises(EvaluationError):
            evolve(bad, [0.0], [1.0], EAConfig(population_size=4, generations=1))

    def test_problem_called_once_per_generation(self):
        calls = []

        def counted(genomes):
            calls.append((type(genomes), genomes.shape))
            return _toy(genomes)

        cfg = EAConfig(population_size=12, generations=5, seed=3, hv_rel_tol=0.0)
        res = evolve(counted, [-2.0, 0.0], [2.0, 1.0], cfg)
        assert res.generations_run == 5
        assert calls == [(np.ndarray, (12, 2))] * (1 + res.generations_run)

    def test_nan_row_rejected(self):
        def one_nan(genomes):
            objs = _toy(genomes)
            objs[len(genomes) // 2, 1] = np.nan
            return objs

        with pytest.raises(EvaluationError, match="bad objectives"):
            evolve(one_nan, [-2.0], [2.0], EAConfig(population_size=8, generations=2))

    def test_wrong_output_shape_rejected(self):
        with pytest.raises(EvaluationError, match="shape"):
            evolve(lambda g: _toy(g)[:, :2], [-2.0], [2.0],
                   EAConfig(population_size=8, generations=2))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EAConfig(population_size=5).validate()
        with pytest.raises(ConfigError, match="^eta_c must be > 0$"):
            EAConfig(eta_c=0.0).validate()
        with pytest.raises(ConfigError, match="^eta_m must be > 0$"):
            EAConfig(eta_m=-1.0).validate()
        with pytest.raises(ConfigError):
            EAConfig(mutation_prob=1.5).validate()

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_hv_rel_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ConfigError, match="hv_rel_tol"):
            EAConfig(hv_rel_tol=tol).validate()

    @pytest.mark.parametrize("ref", [(0.0, 0.0), (float("nan"), 0.0, 0.0),
                                     (0.0, float("inf"), 0.0), (1.0, 2.0, 3.0, 4.0),
                                     5.0, "abc", (None, 0.0, 0.0)])
    def test_reference_point_must_be_three_finite_numbers(self, ref):
        with pytest.raises(ConfigError, match="reference_point"):
            EAConfig(reference_point=ref).validate()
        with pytest.raises(ConfigError, match="reference_point"):
            evolve(_toy, [-2.0], [2.0],
                   EAConfig(population_size=8, generations=2, reference_point=ref))


class TestReferencePoint:
    def test_explicit_reference_point_used(self):
        cfg = EAConfig(population_size=10, generations=2, seed=0,
                       reference_point=(-10.0, -10.0, -10.0))
        res = evolve(_toy, [-2.0], [2.0], cfg)
        assert res.front.reference_point == (-10.0, -10.0, -10.0)
        assert res.hypervolume_log[-1] > 0.0

    def test_auto_reference_recorded(self):
        cfg = EAConfig(population_size=10, generations=2, seed=0)
        res = evolve(_toy, [-2.0], [2.0], cfg)
        assert len(res.front.reference_point) == 3
        assert all(math.isfinite(r) for r in res.front.reference_point)
        assert res.hypervolume_log[-1] > 0.0


def _tie_toy(genomes):
    """Objectives on a half-integer grid of the genes: many ties and clones."""
    x = np.round(genomes * 2.0) / 2.0
    return np.column_stack([-(x ** 2).sum(axis=1), -((x - 1.0) ** 2).sum(axis=1),
                            np.round(x[:, 0])])


def _fingerprint(result):
    """Every result bit: hypervolume log, front and final population in order."""
    front = result.front
    genomes, objs, rank, crowd = result.population
    return (np.array(result.hypervolume_log).tobytes(), result.generations_run,
            np.array(front.reference_point).tobytes(),
            front.genomes.shape, front.genomes.tobytes(), front.objectives.tobytes(),
            genomes.shape, genomes.tobytes(), objs.tobytes(), rank.tolist(),
            crowd.tobytes(), result.stop_reason)


def _run_both(monkeypatch, problem, lows, highs, cfg, make_rng=np.random.default_rng,
              reference_problem=None):
    """Run ``evolve`` and the per-call reference (on ``reference_problem``
    if given) on generators from ``make_rng``; require the same result
    bits and final generator state."""
    made = []

    def factory(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", factory)
    result = evolve(problem, lows, highs, cfg)
    reference, reference_rng = evolve_reference(reference_problem or problem,
                                                 lows, highs, cfg)
    assert _fingerprint(result) == _fingerprint(reference)
    assert made[0].bit_generator.state == reference_rng.bit_generator.state
    return result


class TestArrayGeneration:
    """``evolve``'s array generation against the per-call reference loop."""

    @pytest.mark.parametrize("preset, seed", [("juneau", 1), ("juneau", 2),
                                              ("iceland", 1), ("iceland", 2)])
    def test_preset_runs_match_reference(self, monkeypatch, preset, seed):
        p = tp.get_preset(preset)
        exog = tp.synth_dataset(p, seed)
        init = tp.initial_state(p, exog, seed)

        def problem(genomes):
            return simulate_batch(PolicyVector(), exog, p.coefficients, init,
                                  dict(zip(POLICY_FIELDS, genomes.T)))

        cfg = EAConfig(population_size=p.ea_population,
                       generations=p.ea_generations, seed=seed)
        _run_both(monkeypatch, problem, p.bounds.lows(), p.bounds.highs(), cfg)

    @pytest.mark.parametrize("n", [4, 10, 36])
    def test_tie_heavy_sweep_matches_reference(self, monkeypatch, n):
        for k, (g, cx, pm) in enumerate(itertools.product(
                [1, 3, 5, 11], [0.0, 0.5, 0.9, 1.0], [None, 0.0, 1.0])):
            cfg = EAConfig(population_size=n, generations=5, seed=100 * n + k,
                           crossover_prob=cx, mutation_prob=pm, hv_rel_tol=0.0)
            _run_both(monkeypatch, _tie_toy, [-2.0] * g, [2.0] * g, cfg)

    def test_degenerate_and_mixed_boxes_match_reference(self, monkeypatch):
        cfg = EAConfig(population_size=12, generations=6, seed=3, hv_rel_tol=0.0)
        _run_both(monkeypatch, _tie_toy, [0.5] * 3, [0.5] * 3, cfg)
        _run_both(monkeypatch, _tie_toy, [0.0, 0.5, -1.0], [1.0, 0.5, 3.0], cfg)
        # default plateau stop
        _run_both(monkeypatch, _tie_toy, [-2.0] * 2, [2.0] * 2,
                  EAConfig(population_size=8, generations=60, seed=4, hv_window=3))

    @pytest.mark.parametrize("cx, pm", [(0.9, None), (1.0, 1.0)])
    def test_rejected_tournament_draw_matches_reference(self, monkeypatch, cx, pm):
        # PCG64(0) advanced by 9,823,191 uint64s: integers(100) rejects the
        # low half of the next uint64 (Lemire).  The initial population's
        # 100 x g doubles come first, so generation 1's first draw hits it.
        word = int(np.random.PCG64(0).advance(9_823_191).random_raw())
        assert ((word & 0xFFFFFFFF) * 100) & 0xFFFFFFFF < (1 << 32) % 100
        g = 3
        starts, short = [], []
        offspring, replay = moea._offspring, moea._replay

        def offspring_spy(rng, *args):
            starts.append(rng.bit_generator.state["has_uint32"])
            return offspring(rng, *args)

        def replay_spy(*args):
            plan = replay(*args)
            short.append(plan is None)
            return plan

        monkeypatch.setattr(moea, "_offspring", offspring_spy)
        monkeypatch.setattr(moea, "_replay", replay_spy)
        cfg = EAConfig(population_size=100, generations=4, crossover_prob=cx,
                       mutation_prob=pm, hv_rel_tol=0.0)
        _run_both(monkeypatch, _tie_toy, [-2.0] * g, [2.0] * g, cfg,
                  make_rng=lambda seed: np.random.Generator(
                      np.random.PCG64(0).advance(9_823_191 - 100 * g)))
        # the odd draw leaves a 32-bit half buffered into the next generation
        assert starts[0] == 0 and all(starts[1:])
        # with every pair crossing and every gene mutating the block is
        # exactly the no-rejection worst case, so the rejection overruns it
        assert any(short) == (cx == 1.0)

    @pytest.mark.parametrize("n, g, cx, pm", [(4, 1, 0.9, None), (10, 3, 1.0, 1.0),
                                               (36, 7, 0.5, 0.0), (100, 11, 0.9, 0.3)])
    def test_generation_starting_with_buffered_half(self, n, g, cx, pm):
        rng = np.random.default_rng(n + g)
        lows, highs = -np.ones(g), np.linspace(0.5, 3.0, g)
        genomes = lows + (highs - lows) * rng.random((n, g))
        rank = rng.integers(0, 3, n)
        crowd = rng.choice([0.0, 0.5, 1.5, math.inf], n)
        pop = [Individual(x, (0.0, 0.0, 0.0), int(r), float(c))
               for x, r, c in zip(genomes, rank, crowd)]
        cfg = EAConfig(population_size=n, crossover_prob=cx, mutation_prob=pm)
        pm = 1.0 / g if pm is None else pm
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for r in (ours, theirs):
            r.integers(n)  # leaves the high half of a uint64 buffered
        assert ours.bit_generator.state["has_uint32"] == 1
        kids = moea._offspring(ours, genomes, rank, crowd, lows, highs, cfg, pm)
        want = np.array(generation_reference(pop, theirs, lows, highs, cfg, pm))
        assert kids.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_no_per_call_operators_in_evolve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-call operator or its row type used")

        for name in ("tournament_select", "sbx_crossover", "polynomial_mutation",
                     "Individual"):
            monkeypatch.setattr(moea, name, forbidden)
        cfg = EAConfig(population_size=10, generations=3, seed=1)
        assert evolve(_tie_toy, [-2.0] * 2, [2.0] * 2, cfg).generations_run == 3


def _failing_at(n: int):
    """``_tie_toy`` that raises on its ``n``-th call, and its call log."""
    calls = []

    def problem(genomes):
        calls.append(len(genomes))
        if len(calls) == n:
            raise EvaluationError(f"call {n}")
        return _tie_toy(genomes)

    return problem, calls


_forks = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or moea._usable_cpus() < 2,
    reason="the archive stage runs in-process here")


class TestArchiveWorker:
    """The archive stage runs in a forked worker, one generation behind."""

    box = ([-2.0] * 2, [2.0] * 2)
    # stops on the plateau at generation 10 of 60
    plateau = EAConfig(population_size=8, generations=60, seed=4, hv_window=3,
                       hv_rel_tol=0.01)

    def test_early_plateau_stop_matches_reference(self, monkeypatch):
        res = _run_both(monkeypatch, _tie_toy, *self.box, self.plateau)
        assert res.stop_reason == "hv_plateau"
        assert res.generations_run == 10

    def test_failure_in_discarded_generation_returns_reference(self, monkeypatch):
        # 1 initial call and 10 generations; call 12 makes the discarded one
        problem, calls = _failing_at(12)
        res = _run_both(monkeypatch, problem, *self.box, self.plateau,
                        reference_problem=_tie_toy)
        assert len(calls) == 1 + res.generations_run + 1

    def test_failure_in_a_run_generation_raises(self):
        for run in (evolve, evolve_reference):
            problem, calls = _failing_at(4)
            with pytest.raises(EvaluationError, match="^call 4$"):
                run(problem, *self.box, self.plateau)
            assert len(calls) == 4

    def test_stage_exception_raised_in_main_process(self, monkeypatch):
        hv = moea.hypervolume_3d
        calls = []

        def fails_at_generation_2(points, ref):
            calls.append(len(points))
            if len(calls) == 3:
                raise ValueError("hypervolume 2")
            return hv(points, ref)

        monkeypatch.setattr(moea, "hypervolume_3d", fails_at_generation_2)
        with pytest.raises(ValueError, match="hypervolume 2"):
            evolve(_tie_toy, *self.box, self.plateau)

    def test_worker_always_joined(self):
        evolve(_tie_toy, *self.box, self.plateau)
        assert multiprocessing.active_children() == []
        with pytest.raises(EvaluationError, match="call 4"):
            evolve(_failing_at(4)[0], *self.box, self.plateau)
        assert multiprocessing.active_children() == []

    @_forks
    def test_archive_runs_outside_the_main_process(self, monkeypatch):
        added = []
        add = _Archive.add
        monkeypatch.setattr(_Archive, "add",
                            lambda self, *a: (added.append(len(a[1])), add(self, *a)))
        res = evolve(_tie_toy, *self.box, self.plateau)
        assert added == [] and len(res.front.objectives)

    @pytest.mark.parametrize("why", ["no fork", "one CPU", "fork fails", "threads"])
    def test_in_process_path_gives_the_same_result(self, monkeypatch, why):
        runs = [(self.plateau, self.box),
                (EAConfig(population_size=12, generations=6, seed=3, hv_rel_tol=0.0),
                 ([0.0, 0.5, -1.0], [1.0, 0.5, 3.0]))]
        default = [_fingerprint(evolve(_tie_toy, *box, cfg)) for cfg, box in runs]
        if why == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        elif why == "one CPU":
            monkeypatch.setattr(moea, "_usable_cpus", lambda: 1)
        elif why == "fork fails":
            def no_process(self):
                raise BlockingIOError("fork: resource temporarily unavailable")
            monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_process)
        added = []
        add = _Archive.add
        monkeypatch.setattr(_Archive, "add",
                            lambda self, *a: (added.append(len(a[1])), add(self, *a)))
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(60,))
        if why == "threads":
            other.start()
        try:
            assert [_fingerprint(evolve(_tie_toy, *box, cfg)) for cfg, box in runs] == default
        finally:
            done.set()
            if other.ident is not None:
                other.join(timeout=60)
        assert added  # the stage did run in this process
        assert multiprocessing.active_children() == []

    @_forks
    def test_runs_inside_a_daemonic_worker(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            res = pool.apply(evolve, (_tie_toy, *self.box, self.plateau))
        assert _fingerprint(res) == _fingerprint(evolve(_tie_toy, *self.box, self.plateau))
