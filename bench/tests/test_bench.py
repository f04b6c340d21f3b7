"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
The smoke tests run one round of each workload at the default seed, so
they also compare the first round's artifacts with ``golden.json``.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _assert_ok(records):
    assert records
    assert [r["error"] for r in records if r["error"] is not None] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_round_is_correct_and_reports_every_metric(cli, workload, tmp_path):
    records, tracer, rounds = run.run_workload(
        cli, workload, workloads.DEFAULT_SEED, 0, False, tmp_path)
    assert tracer is None and rounds == 1
    assert len(records) == len(next(workloads.rounds(workload, 0)))
    _assert_ok(records)
    metrics = run.end_to_end(records, [0.2])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    slow = run.end_to_end(records, [0.2], slowdown=2.0)
    assert slow["op_p50_s"] == pytest.approx(metrics["op_p50_s"] / 2)
    assert slow["setup_s"] == pytest.approx(metrics["setup_s"] / 2)
    assert slow["evals_per_s"] == pytest.approx(metrics["evals_per_s"] * 2)


def test_every_round_zero_operation_is_pinned():
    golden = oracles.load_golden()
    for workload in workloads.WORKLOADS:
        for i in range(len(next(workloads.rounds(workload, 0)))):
            assert oracles.golden_key(workload, i) in golden


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_gives_byte_identical_artifacts(cli, workload, tmp_path):
    originals = [(owner, attr, vars(tracing.resolve_owner(owner))[attr])
                 for owner, attr, _, _ in tracing.WRAPS]
    records, tracer, _ = run.run_workload(
        cli, workload, workloads.DEFAULT_SEED, 0, True, tmp_path)
    _assert_ok(records)
    twins = {}
    for rec in records:
        twins.setdefault(rec["pair"], {})[rec["traced"]] = rec["digests"]
    assert all(t[True] == t[False] and t[True] for t in twins.values())
    for owner, attr, original in originals:
        assert vars(tracing.resolve_owner(owner))[attr] is original, f"{owner}.{attr}"
    metrics = run.per_layer(records, tracer)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert 0.97 <= metrics["trace.self_cover_frac"] <= 1.0 + 1e-9
    assert {s[4] for s in tracer.spans} == {i for i, r in enumerate(records) if r["traced"]}


def test_self_time_is_duration_minus_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["moea.evolve", 1.0, 9.0, 0, 0, None],
        ["sd_core.simulate", 2.0, 3.0, 1, 0, None],
        ["sd_core.simulate", 4.0, 6.0, 1, 0, None],
        ["moea.sort", 6.5, 7.0, 1, 0, {"pool": 200}],
    ]
    s = tracing.summarize(spans)
    assert s["by_name"]["moea.evolve"]["self_s"] == pytest.approx(4.5)
    assert s["by_name"]["moea.sort"]["counts"] == {"pool": 200}
    assert s["layer_self_s"]["cli"] == pytest.approx(2.0)
    assert s["layer_self_s"]["moea"] == pytest.approx(5.0)
    assert s["layer_busy_s"]["moea"] == pytest.approx(8.0)
    assert sum(s["layer_self_s"].values()) == pytest.approx(10.0)


def test_wrappers_are_restored_when_the_operation_raises(cli):
    originals = {(o, a): vars(tracing.resolve_owner(o))[a] for o, a, _, _ in tracing.WRAPS}
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer(0):
            assert vars(cli)["main"] is not originals[("touropt.cli", "main")]
            1 / 0
    for (owner, attr), original in originals.items():
        assert vars(tracing.resolve_owner(owner))[attr] is original


def test_metric_names_are_well_formed_and_declared():
    spec = _spec()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}
    assert all(NAME.fullmatch(name) for name in printed)
    assert declared == printed
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_predictions_name_declared_metrics():
    spec = _spec()
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = json.loads((run.BENCH / "predictions.json").read_text())["predictions"]
    for row in table:
        assert set(row["per_layer"]) <= names
        assert set(row["moves"]) | set(row.get("unchanged", [])) <= {
            f"{m}@{w}" for m in names for w in workloads.WORKLOADS}


def test_oracles_reject_bad_artifacts(cli, tmp_path):
    op = workloads.Op("simulate", "juneau", 5, "desk.json")
    config = workloads.configs("desk")["desk.json"]
    workloads.write_inputs("desk", tmp_path / "in")
    rec = run.run_op(cli, op, tmp_path / "in", tmp_path / "out", config)
    assert rec["error"] is None and rec["evals"] == 1
    traj = tmp_path / "out" / "trajectory.csv"
    lines = traj.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1.5"  # env_index outside [0, 1]
    traj.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(oracles.CheckFailed):
        oracles.check(op, tmp_path / "out", config)

    front = tmp_path / "front"
    front.mkdir()
    header = ",".join(list(cli.POLICY_FIELDS) + ["f1", "f2", "f3"])
    genome = ",".join(["0.1"] * 7)
    (front / "pareto_front.csv").write_text(
        f"{header}\n{genome},2.0,0.5,0.5\n{genome},1.0,0.5,0.5\n")
    with pytest.raises(oracles.CheckFailed, match="dominated"):
        oracles.check(workloads.Op("optimize", "juneau", 1, "optimize-juneau.json"),
                      front, workloads.configs("search")["optimize-juneau.json"])


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()
