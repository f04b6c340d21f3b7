"""Batch command-line frontend.

Subcommands: simulate, optimize, sensitivity, scenario, redistribute,
synth.  Runs are config-file first (a JSON file with per-command
sections); the common flags --preset/--seed/--out override config keys.
Every output file carries a metadata header with the artifact version,
seed, preset, and a hash of the effective configuration, and a re-run
with the same config and seed is byte-identical.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, EvaluationError
from .sd_core import (
    COEFF_FIELDS,
    POLICY_FIELDS,
    SERIES_FIELDS,
    ModelCoefficients,
    PolicyVector,
    simulate,
    simulate_batch,
)
from .moea import EAConfig, evolve
from .gsa import (
    OUTPUT_NAMES,
    MorrisResult,
    ParameterSpace,
    analyze_model,
    full_space,
    uncertainty_space,
)
from .scenario import DEFAULT_SCENARIOS, AllocationPolicy, compare_scenarios
from .flow import (
    SCHEDULE_FIELDS,
    IslandParams,
    SiteState,
    constant_schedule,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
)
from .dataio import (
    get_preset,
    initial_state,
    interpolate_missing,
    load_table,
    synth_dataset,
    validate_ranges,
    write_series,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object of sections")
    return doc


def _effective_config(args, command: str) -> dict:
    """Merge the file config with CLI overrides for one command.

    The command's section may hold only the keys that command reads, and
    ``common`` only keys some command reads.
    """
    raw = _load_config(args.config)
    cfg = {}
    for section, known in (("common", _ALL_KEYS), (command, _COMMAND_KEYS[command])):
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = sorted(f"{section}.{k}" for k in set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        cfg.update(values)
    if args.preset is not None:
        cfg["preset"] = args.preset
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("out", "out")
    for key in ("preset", "dataset"):
        if cfg.get(key) is not None:
            _string(key, cfg[key])
    if cfg.get("seed") is not None and _integer("seed", cfg["seed"]) < 0:
        raise ConfigError("seed must be a non-negative integer")
    return cfg


def _config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out"}  # path never affects results
    blob = json.dumps(hashed, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(cfg: dict, command: str) -> dict:
    return {
        "artifact": f"touropt {__version__}",
        "command": command,
        "preset": cfg.get("preset", ""),
        "seed": cfg.get("seed", ""),
        "config_hash": _config_hash(cfg),
    }


def _meta_lines(meta: dict) -> list:
    return [f"{k}: {v}" for k, v in meta.items()]


def _write_csv(path: Path, meta: dict, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        for line in _meta_lines(meta):
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, meta: dict, payload: dict) -> None:
    doc = {"meta": meta}
    doc.update(payload)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_base(cfg: dict):
    """Dataset + coefficients + bounds + reference policy from the config.

    Exactly one of ``preset`` / ``dataset`` must be given; a dataset path
    still needs a preset-like region for coefficients, so ``preset`` then
    names the coefficient set while the series come from the file.
    """
    preset_name = cfg.get("preset")
    dataset = cfg.get("dataset")
    if preset_name is None and dataset is None:
        raise ConfigError("config needs a 'preset' or a 'dataset' path")
    preset = get_preset(preset_name) if preset_name else get_preset("juneau")
    seed = _integer("seed", cfg.get("seed", 0))
    column_map, defaults = cfg.get("column_map", {}), cfg.get("column_defaults", {})
    for key, values in (("column_map", column_map), ("column_defaults", defaults)):
        if not isinstance(values, dict):
            raise ConfigError(f"{key} must be an object, not {values!r}")
    for header, name in column_map.items():
        if name != "year" and name not in SERIES_FIELDS:
            raise ConfigError(f"column_map.{header} must be 'year' or a series name "
                              f"{list(SERIES_FIELDS)}, not {name!r}")
    unknown = sorted(f"column_defaults.{k}" for k in set(defaults) - set(SERIES_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    defaults = {k: _number(f"column_defaults.{k}", v) for k, v in defaults.items()}
    if dataset is not None:
        exog = interpolate_missing(load_table(dataset, column_map), defaults)
    else:
        exog = synth_dataset(preset, seed)
    coeffs = preset.coefficients
    if "coefficients" in cfg:
        coeffs = _decode("coefficients", ModelCoefficients, cfg["coefficients"], coeffs)
    init = initial_state(preset, exog, seed)
    return preset, exog, coeffs, init


def _number(key: str, value) -> float:
    """``value`` as a finite float, else a ConfigError naming ``key``.
    Booleans are refused: ``float(True)`` would read JSON ``true`` as 1."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, not {value!r}")
    return x


def _integer(key: str, value) -> int:
    """``value`` as an integer, else a ConfigError naming ``key``."""
    x = _number(key, value)
    if not x.is_integer():
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return int(x)


def _optional_number(key: str, value):
    return None if value is None else _number(key, value)


def _string(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, not {value!r}")
    return value


# the parser of each declared field type a config object may set; a field
# of any other type (EAConfig.reference_point) is not a config key
_PARSERS = {"int": _integer, "float": _number, "float | None": _optional_number,
            "str": _string}


def _decode(key: str, cls, values, base=None, fixed=()):
    """The dataclass ``cls`` object that config object ``values`` describes,
    else a ConfigError naming ``<key>.<field>``.

    ``values`` overrides fields of ``base``; with no ``base`` it must hold
    every field that has no default.  Fields in ``fixed`` are the caller's,
    not config keys.  The field types are read as the strings postponed
    annotations leave, so no type hint is evaluated.  The ranges are the
    object's own ``validate`` or ``__post_init__`` checks, whose messages
    start with the field name."""
    if not isinstance(values, dict):
        raise ConfigError(f"{key} must be an object, not {values!r}")
    decoded = [f for f in fields(cls) if f.type in _PARSERS and f.name not in fixed]
    unknown = sorted(f"{key}.{k}" for k in set(values) - {f.name for f in decoded})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    missing = [f"{key}.{f.name}" for f in decoded if base is None
               and f.name not in values and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing config keys {missing}")
    parsed = {f.name: _PARSERS[f.type](f"{key}.{f.name}", values[f.name])
              for f in decoded if f.name in values}
    try:
        obj = cls(**parsed) if base is None else replace(base, **parsed)
        if hasattr(obj, "validate"):
            obj.validate()
    except (ValueError, ConfigError) as e:
        raise ConfigError(f"{key}.{e}") from None
    return obj


def _resolve_ea(cfg: dict, preset, seed: int) -> EAConfig:
    """The ``ea`` settings over the preset's population size and generations."""
    base = EAConfig(population_size=preset.ea_population,
                    generations=preset.ea_generations, seed=seed)
    return _decode("ea", EAConfig, cfg.get("ea", {}), base, fixed=("seed",))


def _resolve_policy(cfg: dict, preset) -> PolicyVector:
    choice = cfg.get("policy")
    if choice is None:
        return preset.reference_policy
    if isinstance(choice, list):
        if len(choice) != len(POLICY_FIELDS):
            raise ConfigError(f"policy must be a field map or a {len(POLICY_FIELDS)}"
                              f"-element list, not {choice!r}")
        choice = dict(zip(POLICY_FIELDS, choice))
    return _decode("policy", PolicyVector, choice, preset.reference_policy)


def _require_seed(cfg: dict, command: str) -> int:
    if cfg.get("seed") is None:
        raise ConfigError(f"{command} requires a seed (--seed or config)")
    return _integer("seed", cfg["seed"])


def cmd_simulate(args) -> int:
    cfg = _effective_config(args, "simulate")
    preset, exog, coeffs, init = _resolve_base(cfg)
    policy = _resolve_policy(cfg, preset)
    traj, objs = simulate(policy, exog, coeffs, init)
    rows = []
    for i, year in enumerate(traj.years):
        st = traj.states[i]
        trans = i - 1  # diagnostics belong to the transition into this year
        diag = [traj.r_tourism[trans], traj.r_gov_total[trans],
                traj.exp_env[trans], traj.exp_gov_total[trans],
                traj.r_net[trans], traj.f_price[trans], traj.f_glacier[trans],
                traj.f_attraction[trans]] if i > 0 else []
        values = [st.visitors, st.env_index, st.satisfaction, st.net_revenue_cum] + diag
        if not all(math.isfinite(v) for v in values):
            raise EvaluationError(f"non-finite simulation result in year {int(year)}")
        rows.append([int(year)] + [repr(v) for v in values] + [""] * (8 - len(diag)))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "simulate")
    _write_csv(out / "trajectory.csv", meta,
               ["year", "visitors", "env_index", "satisfaction",
                "net_revenue_cum", "r_tourism", "r_gov_total", "exp_env",
                "exp_gov_total", "r_net", "f_price", "f_glacier",
                "f_attraction"], rows)
    _write_json(out / "objectives.json", meta,
                {"f1": objs.revenue, "f2": objs.environment,
                 "f3": objs.satisfaction})
    print(f"simulate: wrote {out / 'trajectory.csv'} and {out / 'objectives.json'}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _effective_config(args, "optimize")
    seed = _require_seed(cfg, "optimize")
    preset, exog, coeffs, init = _resolve_base(cfg)
    config = _resolve_ea(cfg, preset, seed)

    def problem(genomes):
        return simulate_batch(PolicyVector(), exog, coeffs, init,
                              dict(zip(POLICY_FIELDS, genomes.T)))

    result = evolve(problem, preset.bounds.lows(), preset.bounds.highs(), config)
    front = result.front
    if not front.check_nondominated():
        raise EvaluationError("front verification failed: dominated pair present")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "optimize")
    order = np.argsort(-front.objectives[:, 0], kind="stable")
    rows = [[repr(v) for v in row]
            for row in np.hstack([front.genomes, front.objectives])[order].tolist()]
    _write_csv(out / "pareto_front.csv", meta,
               list(POLICY_FIELDS) + list(OUTPUT_NAMES), rows)
    _write_csv(out / "hypervolume.csv", meta, ["generation", "hypervolume"],
               [[g, repr(float(hv))] for g, hv in enumerate(result.hypervolume_log)])
    x, y, color = front.objectives[order].T.tolist()
    _write_json(out / "pareto_bubble.json", meta, {
        "x": x, "y": y, "color": color,
        "x_label": "f1",
        "y_label": "f2",
        "color_label": "f3",
    })
    print(f"optimize: {len(rows)} front members, "
          f"{result.generations_run} generations, stopped by {result.stop_reason}, "
          f"wrote 3 files to {out}")
    return EXIT_OK


def _resolve_space(cfg: dict, preset, coeffs, policy) -> ParameterSpace:
    """The sensitivity space.  Bounds given by name must lie in the model's
    domain: each end of a policy lever's or a coefficient's range is checked
    as a ``policy`` or ``coefficients`` value is."""
    choice = cfg.get("space", "full")
    if isinstance(choice, dict):
        bounds = {}
        for k, v in choice.items():
            if not (isinstance(v, list) and len(v) == 2):
                raise ConfigError(f"space.{k} must be [low, high], not {v!r}")
            bounds[k] = tuple(_number(f"space.{k}", x) for x in v)
            if not bounds[k][0] < bounds[k][1]:
                raise ConfigError(f"space.{k} must have low < high, not {v!r}")
            if k in COEFF_FIELDS or k in POLICY_FIELDS:  # each end must decode
                model = coeffs if k in COEFF_FIELDS else policy
                for x in bounds[k]:
                    _decode("space", type(model), {k: x}, model)
        # a name that is neither field is rejected by analyze_model before sampling
        return ParameterSpace.from_dict(bounds)
    if choice == "full":
        return full_space(preset.bounds, coeffs)
    if choice == "policy":
        return ParameterSpace.from_dict(
            {f: tuple(getattr(preset.bounds, f)) for f in POLICY_FIELDS})
    if choice == "policy_uncertainty":
        value = cfg.get("uncertainty_rel", 0.2)
        rel = _number("uncertainty_rel", value)
        if rel <= 0:
            raise ConfigError(f"uncertainty_rel must be > 0, not {value!r}")
        return uncertainty_space(policy, preset.bounds, rel=rel)
    raise ConfigError(f"unknown space {choice!r}")


def cmd_sensitivity(args) -> int:
    cfg = _effective_config(args, "sensitivity")
    seed = _require_seed(cfg, "sensitivity")
    preset, exog, coeffs, init = _resolve_base(cfg)
    policy = _resolve_policy(cfg, preset)
    space = _resolve_space(cfg, preset, coeffs, policy)
    report = analyze_model(
        space, exog, coeffs, policy, init, method=cfg.get("method", "morris"),
        output=cfg.get("output", "all"),
        morris_r=_integer("morris_r", cfg.get("morris_r", 20)),
        morris_levels=_integer("morris_levels", cfg.get("morris_levels", 4)),
        sobol_n=_integer("sobol_n", cfg.get("sobol_n", 512)),
        n_boot=_integer("bootstrap", cfg.get("bootstrap", 200)),
        seed=seed,
    )
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "sensitivity")
    for name, table in sorted(report.tables.items()):
        if isinstance(table, MorrisResult):
            _write_csv(out / f"morris_{name}.csv", meta,
                       ["parameter", "mu_star", "sigma"],
                       [[p, repr(m), repr(s)] for p, m, s in table.ranked()])
        else:
            # ci_low/ci_high bracket the total-effect index used for ranking
            _write_csv(out / f"sobol_{name}.csv", meta,
                       ["parameter", "s1", "st", "ci_low", "ci_high"],
                       [[p, repr(s1), repr(st), repr(st - ct), repr(st + ct)]
                        for p, s1, st, _, ct in table.ranked()])
    _write_json(out / "sensitivity_matrix.json", meta, {
        "method": report.method,
        "sampler": "pseudorandom",
        "outputs": list(report.outputs),
        "rows": report.matrix_records(),
    })
    print(f"sensitivity: {report.method} over {len(space)} parameters, wrote "
          f"{len(report.tables)} table(s) and the matrix to {out}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    cfg = _effective_config(args, "scenario")
    preset, exog, coeffs, init = _resolve_base(cfg)
    policy = _resolve_policy(cfg, preset)
    choice = cfg.get("scenarios", "default")
    if choice == "default":
        allocs = list(DEFAULT_SCENARIOS)
    elif isinstance(choice, list) and choice:
        allocs = [_decode(f"scenarios[{i}]", AllocationPolicy, s)
                  for i, s in enumerate(choice)]
        _refuse_repeated_names("scenarios", allocs)
    else:
        raise ConfigError("scenarios must be 'default' or a non-empty list")
    comparison = compare_scenarios(allocs, policy, exog, coeffs, init,
                                   preset.feedback)
    rows, summary = comparison["rows"], comparison["summary"]
    values = np.array([row[3] for row in rows]
                      + [s[f] for s in summary for f in OUTPUT_NAMES])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        where = (f"{rows[i][2]} of scenario {rows[i][0]!r} in year {rows[i][1]}"
                 if i < len(rows) else
                 f"objectives of scenario {summary[(i - len(rows)) // 3]['scenario']!r}")
        raise EvaluationError(f"non-finite {where}")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "scenario")
    _write_csv(out / "scenario_timeseries.csv", meta,
               ["scenario", "year", "variable", "value"],
               [[name, year, var, repr(float(val))]
                for name, year, var, val in comparison["rows"]])
    _write_json(out / "scenario_summary.json", meta,
                {"scenarios": comparison["summary"]})
    print(f"scenario: compared {len(allocs)} scenarios, wrote 2 files to {out}")
    return EXIT_OK


def _refuse_repeated_names(key: str, entries) -> None:
    """Results are keyed by name: no two ``<key>[i]`` entries may share one."""
    names = [e.name for e in entries]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{key}[{i}].name {name!r} repeats {key}[{names.index(name)}].name")


def _resolve_sites(cfg: dict):
    choice = cfg.get("sites", "iceland7")
    if choice == "iceland7":
        return iceland_sites()
    if not (isinstance(choice, list) and choice):
        raise ConfigError("sites must be 'iceland7' or a non-empty list")
    sites = [_decode(f"sites[{i}]", SiteState, s) for i, s in enumerate(choice)]
    _refuse_repeated_names("sites", sites)
    return sites


def _resolve_schedule(cfg: dict, sites, years) -> dict:
    choice = cfg.get("schedule", "redistribution")
    if choice == "redistribution":
        return iceland_redistribution_schedule(sites, years)
    if choice == "constant":
        return constant_schedule(sites, years)
    if not isinstance(choice, dict):
        raise ConfigError("schedule must be 'redistribution', 'constant', or a map")
    schedule = {}
    for site, entry in choice.items():
        if site not in {s.name for s in sites}:
            raise ConfigError(f"schedule.{site} names no site in sites")
        if not isinstance(entry, dict):
            raise ConfigError(f"schedule.{site} must be an object of per-year "
                              f"lists, not {entry!r}")
        unknown = sorted(f"schedule.{site}.{k}" for k in set(entry) - set(SCHEDULE_FIELDS))
        if unknown:
            raise ConfigError(f"unknown schedule fields {unknown}")
        schedule[site] = {}
        for fld, seq in entry.items():
            key = f"schedule.{site}.{fld}"
            if not isinstance(seq, list) or len(seq) < len(years) - 1:  # one per year step
                raise ConfigError(f"{key} must be a list of {len(years) - 1} or more "
                                  f"finite numbers, not {seq!r}")
            schedule[site][fld] = [_number(key, v) for v in seq]
    return schedule


def cmd_redistribute(args) -> int:
    cfg = _effective_config(args, "redistribute")
    sites = _resolve_sites(cfg)
    span = cfg.get("years", [2024, 2033])
    if not (isinstance(span, list) and len(span) == 2
            and all(isinstance(y, int) and not isinstance(y, bool) for y in span)
            and span[0] <= span[1]):
        raise ConfigError(f"years must be [first, last] integers with first <= last, "
                          f"not {span!r}")
    years = list(range(span[0], span[1] + 1))
    params = _decode("island_params", IslandParams, cfg.get("island_params", {}))
    result = redistribute(sites, params, _resolve_schedule(cfg, sites, years), years)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "redistribute")
    rows = []
    share_total = result.visitors.sum(axis=0)
    share_total[share_total == 0] = math.inf  # no visitors that year: every share is 0
    for i, name in enumerate(result.site_names):
        for t, year in enumerate(result.years):
            rows.append([name, year, repr(float(result.visitors[i, t])),
                         repr(float(result.env[i, t])),
                         repr(float(result.sat[i, t])),
                         repr(float(result.visitors[i, t] / share_total[t]))])
    _write_csv(out / "flow_sites.csv", meta,
               ["site", "year", "visitors", "env_index", "satisfaction", "share"],
               rows)
    _write_json(out / "flow_final.json", meta, {
        "final_year": result.years[-1],
        "shares": result.final_shares(),
        "visitors": {name: float(result.visitors[i, -1])
                     for i, name in enumerate(result.site_names)},
    })
    print(f"redistribute: {len(sites)} sites over {len(years)} years, "
          f"wrote 2 files to {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _effective_config(args, "synth")
    if cfg.get("preset") is None:
        raise ConfigError("synth requires a preset")
    preset = get_preset(cfg["preset"])
    seed = _integer("seed", cfg.get("seed", 0))
    series = synth_dataset(preset, seed)
    warnings = validate_ranges(series, preset.envelope)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg, "synth")
    write_series(series, out / "dataset.csv", header_lines=_meta_lines(meta))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"synth: wrote {out / 'dataset.csv'} ({len(series)} years, "
          f"{len(warnings)} warnings)")
    return EXIT_OK


# the keys each command's config section may hold: the flags' keys, the
# dataset keys of _resolve_base, then the command's own
_FLAG_KEYS = frozenset({"preset", "seed", "out"})
_BASE_KEYS = _FLAG_KEYS | {"dataset", "column_map", "column_defaults", "coefficients"}
_COMMAND_KEYS = {
    "simulate": _BASE_KEYS | {"policy"},
    "optimize": _BASE_KEYS | {"ea"},
    "sensitivity": _BASE_KEYS | {"policy", "space", "uncertainty_rel", "method",
                                "output", "morris_r", "morris_levels",
                                "sobol_n", "bootstrap"},
    "scenario": _BASE_KEYS | {"policy", "scenarios"},
    "redistribute": _FLAG_KEYS | {"sites", "years", "island_params", "schedule"},
    "synth": _FLAG_KEYS,
}
_ALL_KEYS = frozenset().union(*_COMMAND_KEYS.values())

COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "sensitivity": cmd_sensitivity,
    "scenario": cmd_scenario,
    "redistribute": cmd_redistribute,
    "synth": cmd_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="touropt",
        description="Batch runner for the tourism policy model.")
    parser.add_argument("--version", action="version",
                        version=f"touropt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file with per-command sections")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--preset", choices=["juneau", "iceland"],
                       help="region preset")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between
    calls, and building it costs more than a short command's parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (EvaluationError, ValueError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
