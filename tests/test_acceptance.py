"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import touropt as tp
from touropt import moea
from touropt.cli import main as cli_main
from touropt.gsa import (
    ParameterSpace,
    analyze_model,
    morris_indices,
    morris_sample,
    saltelli_sample,
    sobol_indices,
    uncertainty_space,
)
from touropt.errors import EvaluationError
from touropt.moea import EAConfig, evolve, fast_nondominated_sort
from touropt.scenario import DEFAULT_SCENARIOS, AllocationPolicy, run_scenario
from touropt.flow import (
    IslandParams,
    SiteState,
    constant_schedule,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
)

from helpers import (
    brute_force_fronts,
    random_coeffs,
    random_exog,
    random_policy,
    random_state,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion:2d}] {verdict}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def randomized_runs(juneau):
    """10,000 randomized (policy, coefficients, dataset) simulations."""
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    bound_violations = 0
    telescope_failures = 0
    for _ in range(10_000):
        exog = random_exog(rng)
        coeffs = random_coeffs(rng)
        policy = random_policy(rng, juneau.bounds)
        init = random_state(rng, exog)
        traj, objs = tp.simulate(policy, exog, coeffs, init)
        cap = min(policy.capacity_limit,
                  policy.ship_limit * coeffs.P_ship_capacity)
        for s in traj.states[1:]:
            if not (0.0 <= s.env_index <= 1.0 and 0.0 <= s.satisfaction <= 1.0):
                bound_violations += 1
            if not 0.0 <= s.visitors <= cap:
                bound_violations += 1
        total = sum(traj.r_net)
        if abs(objs.revenue - total) > 1e-6 * max(abs(objs.revenue), 1e-12):
            telescope_failures += 1
    return {
        "elapsed": time.time() - t0,
        "bound_violations": bound_violations,
        "telescope_failures": telescope_failures,
    }


@pytest.fixture(scope="module")
def toy_run():
    def toy(genomes):
        x = genomes[:, 0]
        return np.column_stack([-x * x, -(x - 1.0) ** 2, -(x + 1.0) ** 2])

    cfg = EAConfig(population_size=100, generations=50, seed=42)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moea, "_HV_REL_TOL", 0.0)  # run all 50 generations
        t0 = time.time()
        result = evolve(toy, [-2.0], [2.0], cfg)
        return result, time.time() - t0


@pytest.fixture(scope="module")
def juneau_optimize(juneau, juneau_exog, juneau_init):
    coeffs = juneau.coefficients

    def problem(genomes):
        return tp.simulate_batch(tp.PolicyVector(), juneau_exog, coeffs, juneau_init,
                                 dict(zip(tp.POLICY_FIELDS, genomes.T)))

    cfg = EAConfig(population_size=100, generations=40, seed=7)
    t0 = time.time()
    result = evolve(problem, juneau.bounds.lows(), juneau.bounds.highs(), cfg)
    return result, time.time() - t0


def test_criterion_01_dynamics_invariants(randomized_runs):
    stats = randomized_runs
    ok = stats["bound_violations"] == 0 and stats["elapsed"] < 60.0
    _report(1, ok, f"10,000 randomized runs, {stats['bound_violations']} bound "
                   f"violations, {stats['elapsed']:.1f}s (< 60s)")


def test_criterion_02_telescoping(randomized_runs):
    fails = randomized_runs["telescope_failures"]
    _report(2, fails == 0,
            f"cumulative revenue equals the sum of annual net flows to 1e-6 "
            f"relative on all runs ({fails} failures)")


def test_criterion_03_sorting_oracle(toy_run, juneau_optimize):
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        objs = [tuple(rng.uniform(0.0, 5.0, 3).round(1)) for _ in range(n)]
        fast = [sorted(f) for f in fast_nondominated_sort(objs)]
        brute = [sorted(f) for f in brute_force_fronts(objs)]
        if fast != brute:
            mismatches += 1

    def has_dominated_pair(front):
        # every ordered pair at once: a dominates b when a >= b everywhere
        # and a > b somewhere, so no member dominates itself
        objs = np.array([ind.objectives for ind in front.individuals], dtype=float)
        if np.isnan(objs).any():
            raise EvaluationError("NaN objective in dominance check")
        a, b = objs[:, None, :], objs[None, :, :]
        return bool(((a >= b).all(axis=2) & (a > b).any(axis=2)).any())

    dominated = (has_dominated_pair(toy_run[0].front)
                 or has_dominated_pair(juneau_optimize[0].front))
    ok = mismatches == 0 and not dominated
    _report(3, ok, f"sort matches the brute-force oracle on 200 populations "
                   f"({mismatches} mismatches); final fronts dominated-pair "
                   f"free: {not dominated}")


def test_criterion_04_ea_convergence(toy_run):
    result, elapsed = toy_run
    xs = np.array([ind.genome[0] for ind in result.front.individuals])
    frac = float(np.mean((xs >= -1.05) & (xs <= 1.05)))
    ok = frac >= 0.95 and elapsed < 10.0
    _report(4, ok, f"{frac * 100:.1f}% of the toy front lies in [-1, 1] "
                   f"+- 0.05 (>= 95%), {elapsed:.1f}s (< 10s)")


def test_criterion_05_morris_oracle():
    space = ParameterSpace.from_dict({"x1": (0.0, 1.0), "x2": (0.0, 1.0)})
    samples = morris_sample(space, r=20, seed=0)
    outputs = 2.0 * samples[:, :, 0] + samples[:, :, 1]
    res = morris_indices(space, samples, outputs)
    ok = (res.mu_star[0] == pytest.approx(2.0) and
          res.mu_star[1] == pytest.approx(1.0) and
          float(np.max(res.sigma)) <= 1e-10)
    _report(5, ok, f"linear model mu* = ({res.mu_star[0]:.12f}, "
                   f"{res.mu_star[1]:.12f}), max sigma = {np.max(res.sigma):.2e}")


def test_criterion_06_sobol_ishigami_oracle():
    # analytic decomposition computed independently of the estimator:
    # V1 = (1 + b*pi^4/5)^2 / 2, V2 = a^2/8, V13 = 8 b^2 pi^8 / 225
    a, b = 7.0, 0.1
    v1 = 0.5 * (1.0 + b * math.pi ** 4 / 5.0) ** 2
    v2 = a * a / 8.0
    v13 = b * b * math.pi ** 8 * 8.0 / 225.0
    total = v1 + v2 + v13
    s1_true, s2_true, st3_true = v1 / total, v2 / total, v13 / total

    t0 = time.time()
    space = ParameterSpace.from_dict(
        {name: (-math.pi, math.pi) for name in ("x1", "x2", "x3")})
    design = saltelli_sample(space, n=4096, seed=7)
    x = design.matrix()
    y = np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 \
        + b * x[:, 2] ** 4 * np.sin(x[:, 0])
    res = sobol_indices(design, y, seed=7)
    elapsed = time.time() - t0
    ok = (abs(res.s1[0] - s1_true) <= 0.05
          and abs(res.s1[1] - s2_true) <= 0.05
          and abs(res.s1[2]) <= 0.03
          and res.st[2] > 0.2
          and elapsed < 30.0)
    _report(6, ok, f"Ishigami S1={res.s1[0]:.4f} (true {s1_true:.4f}), "
                   f"S2={res.s1[1]:.4f} (true {s2_true:.4f}), "
                   f"S3={res.s1[2]:.4f}, ST3={res.st[2]:.4f} (> 0.2), "
                   f"{elapsed:.1f}s (< 30s)")


def test_criterion_07_capacity_dominates_revenue(juneau, juneau_init):
    # demand inflated so arrivals are capacity-bound at every sample point;
    # levers vary +-20% around the preset's reference policy
    exog = tp.synth_dataset(juneau, seed=0).with_scaled("V_base", 8.0)
    space = uncertainty_space(juneau.reference_policy, juneau.bounds)
    report = analyze_model(space, exog, juneau.coefficients,
                           juneau.reference_policy, juneau_init,
                           method="sobol", sobol_n=512, seed=11)
    res = report.tables["f1"]
    st = dict(zip(res.names, res.st))
    cap = st.pop("capacity_limit")
    runner_up = max(st, key=st.get)
    ok = cap > max(st.values())
    _report(7, ok, f"ST(capacity_limit) = {cap:.3f} exceeds every other "
                   f"policy lever (next: {runner_up} = {st[runner_up]:.3f})")


def test_criterion_08_scenario_orderings(juneau, juneau_exog, juneau_init):
    args = (juneau.reference_policy, juneau_exog, juneau.coefficients,
            juneau_init, juneau.feedback)
    by_name = {s.name: run_scenario(s, *args) for s in DEFAULT_SCENARIOS}
    env_ok = (by_name["Environment First"].objectives().environment
              >= by_name["Infrastructure-Led"].objectives().environment)
    sat_ok = (by_name["Community Focus"].objectives().satisfaction
              >= by_name["Balanced Growth"].objectives().satisfaction)
    off = AllocationPolicy("off", 0.0, 0.0, 0.0, 0.0)
    res = run_scenario(off, *args)
    plain, _ = tp.simulate(juneau.reference_policy, juneau_exog,
                           juneau.coefficients, juneau_init)
    identical = all(
        a.visitors == b.visitors and a.env_index == b.env_index
        and a.satisfaction == b.satisfaction
        and a.net_revenue_cum == b.net_revenue_cum
        for a, b in zip(res.trajectory.states, plain.states))
    ok = env_ok and sat_ok and identical
    _report(8, ok, f"Environment-First E >= Infrastructure-Led E: {env_ok}; "
                   f"Community-Focus S >= Balanced-Growth S: {sat_ok}; "
                   f"zero-allocation run bit-identical: {identical}")


def test_criterion_09_flow_conservation():
    years = list(range(2024, 2034))
    sites = iceland_sites()
    schedule = iceland_redistribution_schedule(sites, years)
    res = redistribute(sites, IslandParams(), schedule, years)
    weight_dev = float(np.max(np.abs(res.weights.sum(axis=0) - 1.0)))

    twins = [SiteState(f"s{i}", 0.6, 0.5, 4e5, 8e5, 5000.0, 1.0, 1.5, co2=5e3)
             for i in range(4)]
    twin_res = redistribute(twins, IslandParams(),
                            constant_schedule(twins, years), years)
    sym_dev = max(float(np.max(np.abs(arr - arr[0])))
                  for arr in (twin_res.visitors, twin_res.env, twin_res.sat))
    ok = weight_dev <= 1e-12 and sym_dev <= 1e-12
    _report(9, ok, f"10-year 7-site run: max |sum(weights) - 1| = "
                   f"{weight_dev:.2e} (<= 1e-12); symmetric-site trajectory "
                   f"deviation = {sym_dev:.2e} (<= 1e-12)")


def test_criterion_10_magnitude_anchor(juneau_optimize):
    result, elapsed = juneau_optimize
    objs = result.front.objectives
    best_f1 = float(objs[:, 0].max())
    best_e = float(objs[:, 1].max())
    ok = 1e8 <= best_f1 <= 1e10 and best_e >= 0.8 and elapsed < 300.0
    _report(10, ok, f"juneau front: best f1 = {best_f1:.3e} USD in "
                    f"[1e8, 1e10], best E_T = {best_e:.3f} (>= 0.8), "
                    f"{elapsed:.1f}s (< 300s)")


def test_criterion_11_reproducibility(tmp_path):
    import json

    ea_cfg = tmp_path / "cfg.json"
    ea_cfg.write_text(json.dumps({
        "optimize": {"ea": {"population_size": 16, "generations": 3}},
        "sensitivity": {"morris_r": 4, "space": "policy"},
    }))
    commands = [
        ["simulate", "--preset", "juneau", "--seed", "1"],
        ["synth", "--preset", "iceland", "--seed", "2"],
        ["scenario", "--preset", "juneau", "--seed", "3"],
        ["redistribute", "--preset", "iceland", "--seed", "4"],
        ["optimize", "--preset", "juneau", "--seed", "5",
         "--config", str(ea_cfg)],
        ["sensitivity", "--preset", "juneau", "--seed", "6",
         "--config", str(ea_cfg)],
    ]
    mismatched = []
    for i, cmd in enumerate(commands):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        assert cli_main(cmd + ["--out", str(a)]) == 0
        assert cli_main(cmd + ["--out", str(b)]) == 0
        for path in sorted(a.iterdir()):
            if path.read_bytes() != (b / path.name).read_bytes():
                mismatched.append(f"{cmd[0]}/{path.name}")
    ok = not mismatched
    _report(11, ok, f"all {len(commands)} commands byte-identical on re-run"
                    + (f"; mismatches: {mismatched}" if mismatched else ""))
