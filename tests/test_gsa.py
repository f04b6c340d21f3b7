import math
from dataclasses import replace

import numpy as np
import pytest

import touropt as tp
from touropt import gsa
from touropt.errors import ConfigError, EvaluationError
from touropt.gsa import (
    ParameterSpace,
    _sobol_tables,
    analyze_model,
    full_space,
    morris_indices,
    morris_sample,
    saltelli_sample,
    sobol_indices,
    uncertainty_space,
)
from touropt.sd_core import COEFF_FIELDS, POLICY_FIELDS, simulate_batch

from helpers import (
    bootstrap_means_loop,
    morris_indices_loop,
    morris_reference,
    morris_sample_loop,
    sobol_bootstrap_loop,
)


def _unit_space(k):
    return ParameterSpace.from_dict({f"x{i+1}": (0.0, 1.0) for i in range(k)})


class TestParameterSpace:
    def test_duplicate_and_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            ParameterSpace(("a", "a"), np.array([0.0, 0.0]),
                           np.array([1.0, 1.0])).validate()
        with pytest.raises(ConfigError):
            ParameterSpace.from_dict({"a": (1.0, 1.0)})

    def test_unit_mapping_roundtrip(self):
        space = ParameterSpace.from_dict({"a": (-2.0, 4.0), "b": (10.0, 20.0)})
        x = np.array([1.0, 15.0])
        assert np.allclose(space.from_unit(space.to_unit(x)), x)


class TestMorrisSample:
    def test_trajectory_has_k_plus_one_points(self):
        samples = morris_sample(_unit_space(2), r=5, levels=4, seed=0)
        assert samples.shape == (5, 3, 2)

    def test_one_at_a_time_steps(self):
        space = _unit_space(4)
        samples = morris_sample(space, r=10, levels=4, seed=1)
        delta = 4 / (2 * 3)
        for t in range(10):
            for s in range(4):
                du = samples[t, s + 1] - samples[t, s]
                moved = np.abs(du) > 1e-12
                assert moved.sum() == 1
                assert abs(abs(du[moved][0]) - delta) < 1e-12

    def test_levels_four_delta_two_thirds(self):
        samples = morris_sample(_unit_space(1), r=3, levels=4, seed=2)
        steps = np.abs(np.diff(samples[:, :, 0], axis=1))
        assert np.allclose(steps, 2.0 / 3.0)

    def test_points_stay_in_bounds(self):
        space = ParameterSpace.from_dict({"a": (-5.0, 5.0), "b": (100.0, 300.0)})
        samples = morris_sample(space, r=30, levels=6, seed=3)
        assert np.all(samples[:, :, 0] >= -5.0) and np.all(samples[:, :, 0] <= 5.0)
        assert np.all(samples[:, :, 1] >= 100.0) and np.all(samples[:, :, 1] <= 300.0)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            morris_sample(_unit_space(2), r=5, levels=3)
        with pytest.raises(ConfigError):
            morris_sample(_unit_space(2), r=0, levels=4)


class TestMorrisIndices:
    def test_linear_function_exact_slopes(self):
        space = _unit_space(2)
        samples = morris_sample(space, r=20, levels=4, seed=4)
        outputs = 2.0 * samples[:, :, 0] + samples[:, :, 1]
        res = morris_indices(space, samples, outputs)
        assert res.mu_star == pytest.approx([2.0, 1.0])
        assert np.all(res.sigma <= 1e-10)

    def test_constant_function(self):
        space = _unit_space(3)
        samples = morris_sample(space, r=8, levels=4, seed=5)
        res = morris_indices(space, samples, np.zeros(samples.shape[:2]))
        assert np.all(res.mu_star == 0.0) and np.all(res.sigma == 0.0)

    def test_interaction_shows_in_sigma(self):
        space = _unit_space(2)
        samples = morris_sample(space, r=30, levels=4, seed=6)
        outputs = samples[:, :, 0] * samples[:, :, 1]
        res = morris_indices(space, samples, outputs)
        assert res.sigma[0] > 0.0

    def test_slopes_respect_bound_scaling(self):
        # in unit space the elementary effect picks up the parameter range
        space = ParameterSpace.from_dict({"a": (0.0, 10.0)})
        samples = morris_sample(space, r=5, levels=4, seed=7)
        res = morris_indices(space, samples, 3.0 * samples[:, :, 0])
        assert res.mu_star == pytest.approx([30.0])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _morris_spaces(preset):
    policy = {f: tuple(getattr(preset.bounds, f)) for f in POLICY_FIELDS}
    full = full_space(preset.bounds, preset.coefficients)
    return {
        "full": full,
        "policy": ParameterSpace.from_dict(policy),
        "one": ParameterSpace.from_dict({"capacity_limit": policy["capacity_limit"]}),
        "coefficients": ParameterSpace.from_dict(
            {n: (lo, hi) for n, lo, hi in zip(full.names, full.lows, full.highs)
             if n in COEFF_FIELDS}),
    }


@pytest.fixture(scope="module", params=["juneau", "iceland"])
def model(request):
    preset = tp.get_preset(request.param)
    exog = tp.synth_dataset(preset, seed=0)
    return preset, exog, tp.initial_state(preset, exog, seed=0)


class TestMorrisReference:
    """The array-built design, batched evaluation and grouped effects
    against the per-step, per-point loops they replaced, bit for bit."""

    @pytest.mark.parametrize("space_name", ["full", "policy", "one", "coefficients"])
    @pytest.mark.parametrize("levels", [4, 6])
    def test_analysis_bit_for_bit(self, model, space_name, levels):
        preset, exog, init = model
        space = _morris_spaces(preset)[space_name]
        args = (exog, preset.coefficients, preset.reference_policy, init)
        for r in (1, 2, 20):
            for seed in (0, 5, 1234):
                samples, evals, ref = morris_reference(space, *args, r, levels, seed)
                got = morris_sample(space, r, levels, seed)
                assert np.array_equal(_bits(got), _bits(samples))
                report = analyze_model(space, *args, method="morris", morris_r=r,
                                       morris_levels=levels, seed=seed)
                for j, name in enumerate(("f1", "f2", "f3")):
                    mu_star, sigma = ref[j]
                    res = report.tables[name]
                    assert np.array_equal(_bits(res.mu_star), _bits(mu_star))
                    assert np.array_equal(_bits(res.sigma), _bits(sigma))
                    assert np.array_equal(_bits(report.matrix[:, j]), _bits(mu_star))

    def test_two_level_grid_bit_for_bit(self, monkeypatch):
        # the CLI rejects levels < 4; the array construction still matches there
        monkeypatch.setattr(gsa, "_check_morris", lambda r, levels: None)
        space = ParameterSpace.from_dict({"a": (-3.0, 5.0), "b": (0.1, 0.2),
                                          "c": (1e6, 4e6)})
        for r, seed in ((1, 0), (2, 1), (20, 2)):
            got = morris_sample(space, r, 2, seed)
            assert np.array_equal(_bits(got), _bits(morris_sample_loop(space, r, 2, seed)))

    def test_random_irregular_trajectories(self):
        # steps that move one, several or no parameter, of any size and sign
        rng = np.random.default_rng(17)
        space = ParameterSpace.from_dict({"a": (-2.0, 3.0), "b": (0.0, 1e6),
                                          "c": (5.0, 6.0), "d": (0.0, 1.0)})
        for _ in range(200):
            r, n_pts = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            unit = np.empty((r, n_pts, 4))
            unit[:, 0] = rng.random((r, 4))
            for s in range(1, n_pts):
                moved = rng.random((r, 4)) < rng.choice([0.0, 0.3, 1.0])
                moved[np.arange(r), rng.integers(0, 4, size=r)] = rng.random(r) > 0.02
                step = rng.choice([-0.5, 0.25, 0.5, 2.0 / 3.0], size=(r, 4))
                unit[:, s] = unit[:, s - 1] + np.where(moved, step, 0.0)
            samples = space.from_unit(unit)
            outputs = 10.0 ** rng.uniform(-3.0, 9.0, size=(r, n_pts))
            try:
                want = morris_indices_loop(space, samples, outputs)
            except EvaluationError as e:
                with pytest.raises(EvaluationError) as got:
                    morris_indices(space, samples, outputs)
                assert str(got.value) == str(e)
                continue
            res = morris_indices(space, samples, outputs)
            assert np.array_equal(_bits(res.mu_star), _bits(want[0]))
            assert np.array_equal(_bits(res.sigma), _bits(want[1]))

    @staticmethod
    def _unit_walks(*moves):
        """(r, len+1, 2) unit-space trajectories; each move is (dim, step)."""
        out = np.zeros((len(moves), len(moves[0]) + 1, 2))
        for t, walk in enumerate(moves):
            for s, (dim, step) in enumerate(walk):
                out[t, s + 1] = out[t, s]
                out[t, s + 1, dim] += step
        return out

    def test_parameter_moved_twice(self):
        space = ParameterSpace.from_dict({"a": (0.0, 10.0), "b": (-1.0, 1.0)})
        samples = space.from_unit(self._unit_walks(
            [(0, 0.5), (0, 0.25)], [(1, -0.5), (0, 2 / 3)], [(0, 1 / 3), (1, 0.5)]))
        outputs = np.array([[1.0, 4.0, 2.5], [0.0, -3.0, 7.0], [2.0, 2.0, 9.5]])
        mu_star, sigma = morris_indices_loop(space, samples, outputs)
        res = morris_indices(space, samples, outputs)
        assert np.array_equal(_bits(res.mu_star), _bits(mu_star))
        assert np.array_equal(_bits(res.sigma), _bits(sigma))

    def test_parameter_never_moved_same_error(self):
        space = ParameterSpace.from_dict({"a": (0.0, 1.0), "b": (0.0, 1.0)})
        samples = self._unit_walks([(0, 0.5), (0, 0.25)], [(0, 0.5), (0, -0.25)])
        outputs = np.arange(6.0).reshape(2, 3)
        with pytest.raises(EvaluationError) as want:
            morris_indices_loop(space, samples, outputs)
        with pytest.raises(EvaluationError) as got:
            morris_indices(space, samples, outputs)
        assert str(got.value) == str(want.value) == "no elementary effects for b"

    def test_zero_step_same_error(self):
        space = ParameterSpace.from_dict({"a": (0.0, 1.0), "b": (0.0, 1.0)})
        samples = self._unit_walks([(0, 0.5), (1, 0.5), (0, 0.5)],
                                   [(1, 0.5), (0, 0.0), (1, 0.0)])
        outputs = np.arange(8.0).reshape(2, 4)
        with pytest.raises(EvaluationError) as want:
            morris_indices_loop(space, samples, outputs)
        with pytest.raises(EvaluationError) as got:
            morris_indices(space, samples, outputs)
        assert str(got.value) == str(want.value) == "trajectory 1 step 1 moved no parameter"


class TestSaltelli:
    def test_point_count(self):
        design = saltelli_sample(_unit_space(7), n=512, seed=0)
        assert design.matrix().shape == (512 * 16, 7)

    def test_a_b_disjoint(self):
        design = saltelli_sample(_unit_space(3), n=100, seed=1)
        assert not np.allclose(design.A, design.B)

    def test_ab_differs_only_in_one_column(self):
        design = saltelli_sample(_unit_space(4), n=50, seed=2)
        for i in range(4):
            same = design.AB[i] == design.A
            assert np.all(same[:, [j for j in range(4) if j != i]])
            assert np.allclose(design.AB[i][:, i], design.B[:, i])


class TestSobolIndices:
    def test_additive_analytic(self):
        # f = 2a + b on the unit square: variances 4/12 and 1/12
        space = _unit_space(2)
        design = saltelli_sample(space, n=4096, seed=3)
        x = design.matrix()
        res = sobol_indices(design, 2.0 * x[:, 0] + x[:, 1], seed=3)
        assert res.s1[0] == pytest.approx(0.8, abs=0.02)
        assert res.s1[1] == pytest.approx(0.2, abs=0.02)
        assert res.s1.sum() == pytest.approx(1.0, abs=0.02)
        assert np.all(np.abs(res.s1 - res.st) <= 2 * res.st_ci + 2 * res.s1_ci)

    def test_inactive_parameter_total_near_zero(self):
        space = _unit_space(3)
        design = saltelli_sample(space, n=2048, seed=4)
        res = sobol_indices(design, design.matrix()[:, 0] ** 2, seed=4)
        assert abs(res.st[1]) < 0.01 and abs(res.st[2]) < 0.01
        assert res.st[0] == pytest.approx(1.0, abs=0.02)

    def test_zero_variance_rejected(self):
        design = saltelli_sample(_unit_space(2), n=64, seed=5)
        with pytest.raises(EvaluationError):
            sobol_indices(design, np.ones(64 * 6), seed=5)

    def test_same_seed_reproducible(self):
        space = _unit_space(2)
        d1 = saltelli_sample(space, n=256, seed=6)
        d2 = saltelli_sample(space, n=256, seed=6)
        assert np.array_equal(d1.matrix(), d2.matrix())
        y = d1.matrix().sum(axis=1)
        r1 = sobol_indices(d1, y, seed=6)
        r2 = sobol_indices(d2, y, seed=6)
        assert np.array_equal(r1.s1, r2.s1) and np.array_equal(r1.st_ci, r2.st_ci)

    def test_ishigami_compact(self):
        # smaller-n version of the acceptance oracle
        a, b = 7.0, 0.1
        v1 = 0.5 * (1.0 + b * math.pi ** 4 / 5.0) ** 2
        v2 = a * a / 8.0
        v13 = b * b * math.pi ** 8 * 8.0 / 225.0
        total = v1 + v2 + v13
        space = ParameterSpace.from_dict(
            {n: (-math.pi, math.pi) for n in ("x1", "x2", "x3")})
        design = saltelli_sample(space, n=2048, seed=7)
        x = design.matrix()
        y = np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 \
            + b * x[:, 2] ** 4 * np.sin(x[:, 0])
        res = sobol_indices(design, y, seed=7)
        assert res.s1[0] == pytest.approx(v1 / total, abs=0.08)
        assert res.s1[1] == pytest.approx(v2 / total, abs=0.08)
        assert res.st[2] == pytest.approx(v13 / total, abs=0.08)


def _spread_outputs(design):
    """A nonlinear output of the design whose values span 1e-3 to 1e9."""
    u = design.space.to_unit(design.matrix())
    e = 0.5 * u[:, 0] + 0.3 * u[:, 1] * u[:, 2] + 0.2 * u[:, 5] ** 3
    return 10.0 ** (-3.0 + 12.0 * (e - e.min()) / (e.max() - e.min()))


class TestSobolBootstrapReference:
    """``sobol_indices`` against the per-resample loop it replaced."""

    @pytest.mark.parametrize("n", [2, 37, 512, 1000])
    @pytest.mark.parametrize("n_boot", [1, 7, 200])
    def test_bit_for_bit(self, n, n_boot):
        design = saltelli_sample(_unit_space(12), n, seed=n)
        y = _spread_outputs(design)
        assert y.min() == pytest.approx(1e-3) and y.max() == pytest.approx(1e9)
        res = sobol_indices(design, y, n_boot=n_boot, seed=n_boot)
        ref = sobol_bootstrap_loop(design, y, n_boot=n_boot, seed=n_boot)
        for got, want in zip((res.s1, res.st, res.s1_ci, res.st_ci), ref):
            assert np.array_equal(_bits(got), _bits(want))

    def test_zero_variance_resample_same_error(self):
        # one non-constant row: about a third of the resamples miss it
        design = saltelli_sample(_unit_space(3), 8, seed=9)
        y = np.ones(8 * 8)
        y[0] = 2.0
        with pytest.raises(EvaluationError) as want:
            sobol_bootstrap_loop(design, y, n_boot=20, seed=9)
        with pytest.raises(EvaluationError) as got:
            sobol_indices(design, y, n_boot=20, seed=9)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_output_rejected(self, bad):
        design = saltelli_sample(_unit_space(3), 16, seed=10)
        y = design.matrix().sum(axis=1)
        y[17] = bad
        with pytest.raises(EvaluationError, match="non-finite"):
            sobol_indices(design, y, n_boot=5, seed=10)

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_no_resamples_is_config_error(self, n_boot):
        design = saltelli_sample(_unit_space(2), 16, seed=11)
        with pytest.raises(ConfigError, match="bootstrap"):
            sobol_indices(design, design.matrix().sum(axis=1), n_boot=n_boot)


def _spread_columns(design):
    """Three outputs of the design, each spanning 1e-3 to 1e9."""
    y = _spread_outputs(design)
    u = design.space.to_unit(design.matrix())
    e = np.sin(3.0 * u[:, 3]) + u[:, 4] * u[:, 7] + 0.1 * u[:, 11]
    z = 10.0 ** (-3.0 + 12.0 * (e - e.min()) / (e.max() - e.min()))
    return np.column_stack([y, 1e6 / y, z])


def _awkward_terms(n, rng):
    """A (12, n) term block: random signs at magnitudes 1e-3 to 1e9, a row
    of all -0.0, a row of mixed signed zeros and rows holding +-inf."""
    terms = rng.choice([-1.0, 1.0], (12, n)) * 10.0 ** rng.uniform(-3.0, 9.0, (12, n))
    terms[1] = -0.0
    terms[2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    terms[3, rng.integers(0, n)] = np.inf
    terms[4, rng.integers(0, n)] = -np.inf
    terms[5, rng.integers(0, n, 2)] = (np.inf, -np.inf)
    return terms


class TestPairwiseMean:
    """``gsa._gather_means``, numpy's pairwise-order mean of resampled rows,
    against the column gather and row mean it replaced."""

    @pytest.mark.parametrize("n", list(range(2, 301))
                             + [511, 512, 513, 1000, 1023, 1024, 1025, 2048])
    def test_bit_for_bit(self, n):
        terms = _awkward_terms(n, np.random.default_rng(n))
        with np.errstate(invalid="ignore"):  # inf - inf in a resample is NaN
            want = bootstrap_means_loop(terms, 3, seed=n)
            rng = np.random.default_rng(n)
            idx = np.stack([rng.integers(0, n, size=n) for _ in range(3)])
            got = gsa._gather_means(np.ascontiguousarray(terms.T), idx)
        assert np.array_equal(_bits(got), _bits(want))
        assert _bits(got[:, 1]).tolist() == [0] * 3  # +0.0, as numpy sums -0.0s

    @pytest.mark.parametrize("n", [2, 7, 8, 129, 512, 1025])
    def test_rows_in_order_are_the_mean(self, n):
        # the point estimate: every row once, in order
        terms = _awkward_terms(n, np.random.default_rng(n))
        with np.errstate(invalid="ignore"):
            want = terms.mean(axis=1)
            got = gsa._gather_means(np.ascontiguousarray(terms.T), np.arange(n)[None])
        assert np.array_equal(_bits(got[0]), _bits(want))


class TestSobolTables:
    """``_sobol_tables`` over m outputs against m per-output reference loops."""

    @pytest.mark.parametrize("n", [2, 8, 37, 129, 257, 512])
    @pytest.mark.parametrize("n_boot", [1, 7, 200])
    def test_bit_for_bit(self, n, n_boot):
        design = saltelli_sample(_unit_space(12), n, seed=n)
        Y = _spread_columns(design)
        assert np.allclose(Y.min(axis=0), 1e-3) and np.allclose(Y.max(axis=0), 1e9)
        tables = _sobol_tables(design, Y, n_boot, 0.95, n_boot)
        assert len(tables) == 3
        for j, res in enumerate(tables):
            ref = sobol_bootstrap_loop(design, Y[:, j], n_boot=n_boot, seed=n_boot)
            for got, want in zip((res.s1, res.st, res.s1_ci, res.st_ci), ref):
                assert np.array_equal(_bits(got), _bits(want))
            assert res.names == design.space.names and res.n == n

    @pytest.mark.parametrize("n", [37, 512])
    def test_chunk_size_changes_no_bits(self, monkeypatch, n):
        design = saltelli_sample(_unit_space(12), n, seed=n)
        Y = _spread_columns(design)
        want = _sobol_tables(design, Y, 23, 0.95, 5)
        for budget in (1, 10 ** 12):  # one resample per chunk, all in one
            monkeypatch.setattr(gsa, "_LANE_BYTES", budget)
            got = _sobol_tables(design, Y, 23, 0.95, 5)
            for a, b in zip(got, want):
                for field in ("s1", "st", "s1_ci", "st_ci"):
                    assert np.array_equal(_bits(getattr(a, field)),
                                          _bits(getattr(b, field)))

    @pytest.mark.parametrize("n", [2, 3, 37, 511, 512, 1000, 1023, 4097])
    def test_chunk_draw_is_per_resample_draws(self, n):
        # a chunk's resamples come from one (B, n) call: numpy must give the
        # draws of B size-n calls and leave the generator where they leave it
        chunked, each = np.random.default_rng(n), np.random.default_rng(n)
        for rows in (13, 1, 6):
            want = np.stack([each.integers(0, n, size=n) for _ in range(rows)])
            assert np.array_equal(chunked.integers(0, n, size=(rows, n)), want)
        assert chunked.bit_generator.state == each.bit_generator.state

    def test_zero_variance_resample_in_second_output(self):
        # one non-constant row: about a third of the resamples miss it
        design = saltelli_sample(_unit_space(3), 8, seed=9)
        y = np.ones(8 * 8)
        y[0] = 2.0
        Y = np.column_stack([design.matrix().sum(axis=1), y, design.matrix()[:, 0]])
        for ok in (0, 2):  # the other two outputs pass on their own
            sobol_bootstrap_loop(design, Y[:, ok], n_boot=20, seed=9)
        with pytest.raises(EvaluationError) as want:
            sobol_bootstrap_loop(design, y, n_boot=20, seed=9)
        with pytest.raises(EvaluationError) as got:
            _sobol_tables(design, Y, 20, 0.95, 9)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("first_ok", [True, False])
    def test_non_finite_after_failing_output_keeps_call_order(self, first_ok):
        # separate per-output calls fail on the first output that fails
        design = saltelli_sample(_unit_space(3), 8, seed=9)
        y = np.ones(8 * 8)
        y[0] = 2.0
        first = design.matrix().sum(axis=1) if first_ok else y
        bad = design.matrix().sum(axis=1)
        bad[5] = np.inf
        Y = np.column_stack([first, bad])
        msg = "non-finite" if first_ok else "zero output variance"
        with pytest.raises(EvaluationError, match=msg):
            _sobol_tables(design, Y, 20, 0.95, 9)


class TestAnalyzeModel:
    def test_sobol_tables_equal_per_output_calls(self, juneau, juneau_exog,
                                                 juneau_init):
        space = full_space(juneau.bounds, juneau.coefficients)
        args = (juneau_exog, juneau.coefficients, juneau.reference_policy, juneau_init)
        report = analyze_model(space, *args, method="sobol", sobol_n=64,
                               n_boot=30, seed=4)
        design = saltelli_sample(space, 64, seed=4)
        evals = simulate_batch(juneau.reference_policy, juneau_exog,
                               juneau.coefficients, juneau_init,
                               dict(zip(space.names, design.matrix().T)))
        assert list(report.tables) == ["f1", "f2", "f3"]
        for j, name in enumerate(("f1", "f2", "f3")):
            want = sobol_indices(design, evals[:, j], n_boot=30, seed=4)
            got = report.tables[name]
            for a, b in ((got.s1, want.s1), (got.st, want.st),
                         (got.s1_ci, want.s1_ci), (got.st_ci, want.st_ci)):
                assert np.array_equal(_bits(a), _bits(b))
            assert np.array_equal(_bits(report.matrix[:, j]), _bits(want.st))

    def test_matrix_shape_contract(self, juneau, juneau_exog, juneau_init):
        space = ParameterSpace.from_dict(
            {f: tuple(getattr(juneau.bounds, f))
             for f in ("tax_rate", "carbon_fee", "capacity_limit")})
        report = analyze_model(space, juneau_exog, juneau.coefficients,
                               juneau.reference_policy, juneau_init,
                               method="morris", morris_r=4, seed=0)
        assert report.matrix.shape == (3, 3)
        recs = report.matrix_records()
        assert len(recs) == 3
        assert set(recs[0]) == {"parameter", "f1", "f2", "f3"}

    def test_single_capacity_parameter_captures_all_variance(self, juneau, juneau_init):
        exog = tp.synth_dataset(juneau, seed=0).with_scaled("V_base", 8.0)
        space = ParameterSpace.from_dict({"capacity_limit": (1e6, 4e6)})
        report = analyze_model(space, exog, juneau.coefficients,
                               juneau.reference_policy, juneau_init,
                               method="sobol", output="f1", sobol_n=256, seed=1)
        res = report.tables["f1"]
        assert res.st[0] == pytest.approx(1.0, abs=0.05)

    def test_morris_full_space_smoke(self, juneau, juneau_exog, juneau_init):
        space = full_space(juneau.bounds, juneau.coefficients)
        assert len(space) == 12
        report = analyze_model(space, juneau_exog, juneau.coefficients,
                               juneau.reference_policy, juneau_init,
                               method="morris", morris_r=6, seed=2)
        for res in report.tables.values():
            assert np.all(np.isfinite(res.mu_star))

    def test_sobol_names_first_nan_sample(self, juneau, juneau_exog, juneau_init):
        # p2 = 1e308 makes crowding inf; large p_glacier makes the protection
        # gain inf too, and S = inf - inf is NaN on most, not all, samples
        coeffs = replace(juneau.coefficients, p2=1e308)
        space = ParameterSpace.from_dict({"p_glacier": (0.0, 1e302),
                                          "tax_rate": (0.0, 0.3)})
        points = saltelli_sample(space, 8, seed=3).matrix()
        nan_rows = [i for i, row in enumerate(points) if any(math.isnan(v) for v in tp.simulate(
            replace(juneau.reference_policy, tax_rate=float(row[1])), juneau_exog,
            replace(coeffs, p_glacier=float(row[0])), juneau_init)[1])]
        assert 0 < nan_rows[0] and len(nan_rows) < len(points)
        with pytest.raises(EvaluationError) as exc:
            analyze_model(space, juneau_exog, coeffs, juneau.reference_policy,
                          juneau_init, method="sobol", sobol_n=8, seed=3)
        first = points[nan_rows[0]]
        assert str(exc.value) == f"NaN objective at sample {dict(zip(space.names, first))}"

    @pytest.mark.parametrize("seed", range(6))
    def test_morris_names_first_nan_sample(self, juneau, juneau_exog, juneau_init, seed):
        # a tax rate near 1e308 overflows revenue on some trajectory points
        space = ParameterSpace.from_dict({"tax_rate": (0.0, 1e308)})
        args = (space, juneau_exog, juneau.coefficients, juneau.reference_policy,
                juneau_init)
        with pytest.raises(EvaluationError) as want:
            morris_reference(*args, 3, 4, seed)
        with pytest.raises(EvaluationError) as got:
            analyze_model(*args, method="morris", morris_r=3, seed=seed)
        assert str(got.value) == str(want.value)
        if seed == 0:
            first = morris_sample(space, 3, 4, 0)[0, 0]
            assert first[0] == 6.666666666666667e+307
            assert str(got.value) == f"NaN objective at sample {dict(zip(space.names, first))}"

    def test_unknown_parameter_rejected(self, juneau, juneau_exog, juneau_init):
        space = ParameterSpace.from_dict({"warp_field": (0.0, 1.0)})
        with pytest.raises(ConfigError):
            analyze_model(space, juneau_exog, juneau.coefficients,
                          juneau.reference_policy, juneau_init)

    @pytest.mark.parametrize("method", ["morris", "sobol"])
    def test_unknown_parameter_checked_before_sampling(
            self, juneau, juneau_exog, juneau_init, monkeypatch, method):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the parameter check")
        monkeypatch.setattr(gsa, "morris_sample", no_sampling)
        monkeypatch.setattr(gsa, "saltelli_sample", no_sampling)
        space = ParameterSpace.from_dict({"tax_rate": (0.0, 0.3), "warp_field": (0.0, 1.0)})
        with pytest.raises(ConfigError, match=r"unknown parameters \['warp_field'\]"):
            analyze_model(space, juneau_exog, juneau.coefficients,
                          juneau.reference_policy, juneau_init, method=method)
        with pytest.raises(ConfigError, match=r"unknown parameters \['warp_field'\]"):
            gsa.make_model(space, juneau_exog, juneau.coefficients,
                           juneau.reference_policy, juneau_init)

    def test_unknown_method_rejected(self, juneau, juneau_exog, juneau_init):
        space = ParameterSpace.from_dict({"tax_rate": (0.0, 0.3)})
        with pytest.raises(ConfigError):
            analyze_model(space, juneau_exog, juneau.coefficients,
                          juneau.reference_policy, juneau_init, method="sobolev")

    def test_method_checked_before_model(self, juneau, juneau_exog, juneau_init):
        # an unknown parameter would fail the parameter check; the method fails first
        space = ParameterSpace.from_dict({"warp_field": (0.0, 1.0)})
        with pytest.raises(ConfigError, match="unknown method"):
            analyze_model(space, juneau_exog, juneau.coefficients,
                          juneau.reference_policy, juneau_init, method="sobolev")


class TestSpaces:
    def test_uncertainty_space_clips_to_bounds(self, juneau):
        space = uncertainty_space(juneau.reference_policy, juneau.bounds, rel=0.5)
        for name, lo, hi in zip(space.names, space.lows, space.highs):
            blo, bhi = getattr(juneau.bounds, name)
            assert lo >= blo and hi <= bhi and lo < hi

    def test_full_space_has_policy_and_coefficients(self, juneau):
        space = full_space(juneau.bounds, juneau.coefficients)
        assert "capacity_limit" in space.names and "eps_price" in space.names
