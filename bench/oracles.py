"""Output checks for every benchmark operation.

Each check reads the artifacts one CLI operation wrote and raises
:class:`CheckFailed` if they are wrong; it returns the operation's model
evaluation count, taken from the config and the artifacts, plus a few
facts the report uses.  The checks are oracles that hold at any seed:

- ``pareto_front.csv`` rows are mutually non-dominated (brute force);
- a fixed sample of front genomes, re-simulated through
  ``touropt.simulate``, gives bit-equal f1/f2/f3, which also equal the
  trajectory's final state;
- Sobol and Morris tables are finite and cover every parameter;
- per-site flow visitors sum to each year's total;
- trajectory E and S stay within [0, 1].

At the default workload seed, the first round's artifacts must also match
the sha256 digests pinned in ``golden.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import touropt
from touropt.gsa import full_space

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
RESIMULATED = 8  # front genomes re-simulated per optimize operation
OUTPUTS = ("f1", "f2", "f3")


class CheckFailed(Exception):
    """An operation's artifacts fail an oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path) -> tuple:
    """Header and data rows of an artifact CSV, skipping ``#`` meta lines."""
    _require(path.is_file(), f"missing artifact {path.name}")
    with path.open(encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    _require(len(rows) >= 2, f"{path.name} has no data rows")
    return rows[0], rows[1:]


def read_json(path: Path) -> dict:
    _require(path.is_file(), f"missing artifact {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def _floats(rows, name: str) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    _require(bool(np.isfinite(arr).all()), f"{name} holds non-finite values")
    return arr


def digests(out: Path) -> dict:
    """sha256 of every artifact in an output directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_key(workload: str, index: int) -> str:
    return f"{workload}/{index}"


def _model_inputs(op):
    preset = touropt.get_preset(op.preset)
    exog = touropt.synth_dataset(preset, op.seed)
    init = touropt.initial_state(preset, exog, op.seed)
    return preset, exog, init


def _mutually_nondominated(objs: np.ndarray) -> bool:
    chunk = 256  # bounds the (chunk, n, 3) comparison arrays
    for lo in range(0, len(objs), chunk):
        a = objs[lo:lo + chunk, None, :]
        dominated = ((objs[None, :, :] >= a).all(axis=2)
                     & (objs[None, :, :] > a).any(axis=2))
        if dominated.any():
            return False
    return True


def check_optimize(op, out: Path, config: dict) -> dict:
    header, rows = read_csv(out / "pareto_front.csv")
    fields = list(touropt.sd_core.POLICY_FIELDS)
    _require(header == fields + list(OUTPUTS), "pareto_front.csv header changed")
    front = _floats(rows, "pareto_front.csv")
    genomes, objs = front[:, :len(fields)], front[:, len(fields):]
    _require(_mutually_nondominated(objs), "pareto_front.csv holds a dominated row")
    preset, exog, init = _model_inputs(op)
    for i in sorted(set(np.linspace(0, len(front) - 1, RESIMULATED).astype(int))):
        policy = touropt.PolicyVector.from_array(genomes[i])
        traj, again = touropt.simulate(policy, exog, preset.coefficients, init)
        last = traj.final_state()
        final = (last.net_revenue_cum, last.env_index, last.satisfaction)
        written = tuple(float(v) for v in objs[i])
        _require(tuple(again) == written == final,
                 f"front row {i} re-simulates to {tuple(again)} (final state "
                 f"{final}), not {written}")
    header, rows = read_csv(out / "hypervolume.csv")
    _require(header == ["generation", "hypervolume"], "hypervolume.csv header changed")
    hv = _floats(rows, "hypervolume.csv")
    _require(list(hv[:, 0]) == list(range(len(hv))), "hypervolume.csv generations skip")
    _require(bool((hv[:, 1] > 0).all()), "hypervolume.csv holds a non-positive volume")
    bubble = read_json(out / "pareto_bubble.json")
    _require(bubble.get("x") == [float(v) for v in objs[:, 0]],
             "pareto_bubble.json x differs from the front's f1")
    pop = config["optimize"]["ea"]["population_size"]
    gens = len(hv) - 1
    _require(gens <= config["optimize"]["ea"]["generations"], "too many generations")
    return {"evals": pop * len(hv), "generations": gens, "front_n": len(front),
            "front_hv": float(hv[-1, 1])}


def _check_tables(out: Path, prefix: str, columns: list, names: tuple) -> None:
    for output in OUTPUTS:
        path = out / f"{prefix}_{output}.csv"
        header, rows = read_csv(path)
        _require(header == columns, f"{path.name} header changed")
        _require(sorted(r[0] for r in rows) == sorted(names),
                 f"{path.name} does not cover every parameter once")
        _floats([r[1:] for r in rows], path.name)
    matrix = read_json(out / "sensitivity_matrix.json")
    records = matrix.get("rows", [])
    _require(sorted(r["parameter"] for r in records) == sorted(names),
             "sensitivity_matrix.json does not cover every parameter once")
    _floats([[r[o] for o in OUTPUTS] for r in records], "sensitivity_matrix.json")


def check_sensitivity(op, out: Path, config: dict) -> dict:
    section = config["sensitivity"]
    preset = touropt.get_preset(op.preset)
    names = full_space(preset.bounds, preset.coefficients).names
    k = len(names)
    if section["method"] == "sobol":
        _check_tables(out, "sobol", ["parameter", "s1", "st", "ci_low", "ci_high"], names)
        return {"evals": section["sobol_n"] * (2 * k + 2)}
    _check_tables(out, "morris", ["parameter", "mu_star", "sigma"], names)
    for output in OUTPUTS:
        _, rows = read_csv(out / f"morris_{output}.csv")
        _require(all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in rows),
                 f"morris_{output}.csv holds a negative mu* or sigma")
    return {"evals": section["morris_r"] * (k + 1)}


def _in_unit(values, name: str) -> None:
    _require(all(0.0 <= v <= 1.0 for v in values), f"{name} leaves [0, 1]")


def check_simulate(op, out: Path, config: dict) -> dict:
    header, rows = read_csv(out / "trajectory.csv")
    preset = touropt.get_preset(op.preset)
    y0, y1 = preset.years
    _require([int(r[0]) for r in rows] == list(range(y0, y1 + 1)),
             "trajectory.csv years differ from the preset's")
    col = {name: i for i, name in enumerate(header)}
    states = _floats([r[1:5] for r in rows], "trajectory.csv")
    _in_unit(states[:, col["env_index"] - 1], "trajectory E")
    _in_unit(states[:, col["satisfaction"] - 1], "trajectory S")
    _require(bool((states[:, col["visitors"] - 1] >= 0).all()), "negative visitors")
    _floats([r[5:] for r in rows[1:]], "trajectory.csv diagnostics")
    objs = read_json(out / "objectives.json")
    last = rows[-1]
    _require([objs["f1"], objs["f2"], objs["f3"]]
             == [float(last[col[c]]) for c in ("net_revenue_cum", "env_index",
                                              "satisfaction")],
             "objectives.json differs from the trajectory's final year")
    return {"evals": 1}


def check_scenario(op, out: Path, config: dict) -> dict:
    header, rows = read_csv(out / "scenario_timeseries.csv")
    _require(header == ["scenario", "year", "variable", "value"],
             "scenario_timeseries.csv header changed")
    values = {}
    for name, _, var, val in rows:
        values.setdefault(var, []).append(float(val))
    _floats([v for vs in values.values() for v in vs], "scenario_timeseries.csv")
    _in_unit(values.get("env_index", []), "scenario E")
    _in_unit(values.get("satisfaction", []), "scenario S")
    summary = read_json(out / "scenario_summary.json")["scenarios"]
    _require(len(summary) == len(touropt.DEFAULT_SCENARIOS),
             "scenario_summary.json lacks a scenario")
    _floats([[s[o] for o in OUTPUTS] for s in summary], "scenario_summary.json")
    return {"evals": len(summary)}


def check_redistribute(op, out: Path, config: dict) -> dict:
    header, rows = read_csv(out / "flow_sites.csv")
    _require(header == ["site", "year", "visitors", "env_index", "satisfaction",
                        "share"], "flow_sites.csv header changed")
    by_year = {}
    for site, year, visitors, env, sat, share in rows:
        by_year.setdefault(int(year), []).append(
            (site, float(visitors), float(env), float(sat), float(share)))
    for year, sites in by_year.items():
        total = math.fsum(s[1] for s in sites)
        _require(total > 0, f"no visitors in {year}")
        for site, visitors, env, sat, share in sites:
            _require(abs(share * total - visitors) <= 1e-9 * total,
                     f"{site} {year}: share does not match visitors / year total")
            _in_unit((env, sat), f"{site} {year} E/S")
        _require(abs(math.fsum(s[4] for s in sites) - 1.0) <= 1e-12,
                 f"site shares in {year} do not sum to 1")
    final = read_json(out / "flow_final.json")
    last = by_year[final["final_year"]]
    _require(final["visitors"] == {s[0]: s[1] for s in last},
             "flow_final.json visitors differ from the final year's rows")
    return {"evals": 0}


def check_synth(op, out: Path, config: dict) -> dict:
    header, rows = read_csv(out / "dataset.csv")
    preset = touropt.get_preset(op.preset)
    fields = list(touropt.sd_core.SERIES_FIELDS)
    _require(header == ["year"] + fields, "dataset.csv header changed")
    y0, y1 = preset.years
    _require([int(r[0]) for r in rows] == list(range(y0, y1 + 1)),
             "dataset.csv years differ from the preset's")
    data = _floats([r[1:] for r in rows], "dataset.csv")
    for j, name in enumerate(fields):
        lo, hi = preset.envelope[name]
        _require(bool(((data[:, j] >= lo) & (data[:, j] <= hi)).all()),
                 f"dataset.csv {name} leaves the preset envelope")
    return {"evals": 0}


CHECKS = {
    "optimize": check_optimize,
    "sensitivity": check_sensitivity,
    "simulate": check_simulate,
    "scenario": check_scenario,
    "redistribute": check_redistribute,
    "synth": check_synth,
}


def check(op, out: Path, config: dict) -> dict:
    """Run the oracle for ``op``'s command on the artifacts in ``out``."""
    try:
        return CHECKS[op.command](op, out, config)
    except (KeyError, ValueError, TypeError, IndexError) as e:
        raise CheckFailed(f"malformed artifact: {type(e).__name__}: {e}") from e
