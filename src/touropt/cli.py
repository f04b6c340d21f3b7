"""Batch command-line frontend.

Subcommands: simulate, optimize, sensitivity, scenario, redistribute,
synth.  Runs are config-file first (a JSON file with per-command
sections); the common flags --preset/--seed/--out override config keys.
Each ``cmd_*`` computes its artifacts and ``_write`` writes them all:
every file carries a metadata header with the artifact version, seed,
preset, and a hash of the effective configuration, and a re-run with the
same config and seed is byte-identical.

Exit codes: 0 success, 2 config error (an unusable ``out`` included),
3 data error, 4 numeric failure (a non-finite number in any artifact and
a failed allocation included).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, EvaluationError, _shown
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
from . import gsa
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
    IslandParams,
    SiteState,
    constant_schedule,
    iceland_redistribution_schedule,
    iceland_sites,
    redistribute,
    schedule_steps,
)
from .dataio import (
    _csv_text,
    get_preset,
    initial_state,
    read_series,
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
    except (OSError, ValueError, RecursionError) as e:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"config file {path} is not readable JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object of sections")
    return doc


def _effective_config(args, command: str):
    """The config of one command as given (the keys it reads from its file
    sections, the flags over them, and ``out``), which ``_write`` hashes,
    and its options: each ``_KEYS`` key of the command, given or default,
    parsed in table order, so before the command reads any file.  The
    command's section may hold only the keys that command reads, and
    ``common`` only keys some command reads."""
    raw = _load_config(args.config)
    cfg = {}
    for section in ("common", command):
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        _refuse_unknown(section, values, [k for k, (_, _, commands) in _KEYS.items()
                                          if section == "common" or command in commands])
        cfg.update((k, v) for k, v in values.items() if command in _KEYS[k][2])
    for key in ("preset", "seed", "out"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    required = {"preset": (*_DATA_COMMANDS, "synth"), "seed": ("optimize", "sensitivity")}
    for key, commands in required.items():
        if command in commands and key not in cfg:
            raise ConfigError(f"{command} requires a {key} (--{key} or config)")
    opts = {}
    for key, (default, parse, commands) in _KEYS.items():
        if command in commands:
            value = cfg.get(key, default)
            # a given null goes to the parser, which refuses it
            opts[key] = parse(key, value, opts) if key in cfg or value is not None else value
    cfg.setdefault("out", opts["out"])
    return cfg, opts


def _non_finite_path(value, path=""):
    """The key path of the first non-finite number in a JSON value, else ''."""
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            if found := _non_finite_path(v, f"{path}.{k}" if isinstance(k, str) else f"{path}[{k}]"):
                return found
        return ""
    return path if isinstance(value, float) and not math.isfinite(value) else ""


def _render(name: str, meta: dict, head: str, payload) -> str:
    """The text of file ``name``: a JSON payload under ``meta``, or a CSV
    ``(header, rows)`` under the ``head`` lines, rendered by
    ``dataio._csv_text``, which writes a Python float as its ``repr``.  A
    non-finite number is an EvaluationError naming the file and where in
    it: the key path, or the column and the row's key cells."""
    if isinstance(payload, dict):
        try:
            return json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError:
            where = _non_finite_path(payload)[1:]
            raise EvaluationError(f"non-finite value in {name} at {where}") from None
    header, rows = payload
    body = _csv_text(header, rows)
    if "inf" in body or "nan" in body:  # or in a name: check the cells
        for i, row in enumerate(rows):
            bad = [h for h, x in zip(header, row) if isinstance(x, float) and not math.isfinite(x)]
            if bad:
                keys = ", ".join(f"{h}={c}" for h, c in zip(header, row)
                                 if not isinstance(c, float) and c != "")
                raise EvaluationError(f"non-finite {bad[0]} in {name} at "
                                      f"{keys or f'row {i + 1}'}")
    return head + body


def _write(cfg: dict, command: str, files: dict) -> Path:
    """Write ``files`` into the ``out`` directory, which it returns.

    A file is a CSV ``(header, rows)``, a JSON payload or an
    ``ExogenousSeries`` for ``write_series``, each under one metadata
    header.  The CSV and JSON texts are all rendered before the directory
    is made; a directory or file that cannot be written is a ConfigError
    naming ``out``."""
    hashed = {k: v for k, v in cfg.items() if k != "out"}  # path never affects results
    blob = json.dumps(hashed, sort_keys=True, default=str).encode()
    meta = {
        "artifact": f"touropt {__version__}",
        "command": command,
        "preset": cfg.get("preset", ""),
        "seed": cfg.get("seed", ""),
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
    }
    lines = [f"{k}: {v}" for k, v in meta.items()]
    head = "".join(f"# {line}\n" for line in lines)
    texts = {name: _render(name, meta, head, payload) for name, payload in files.items()
             if isinstance(payload, (tuple, dict))}
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            if name in texts:
                (out / name).write_text(texts[name], encoding="utf-8", newline="")
            else:
                write_series(payload, out / name, header_lines=lines)
    except OSError as e:
        raise ConfigError(f"out {str(out)!r} cannot be written: {e}") from None
    return out


def _resolve_base(opts: dict):
    """The series and initial state: the ``dataset`` file's series when one
    is given, else the preset's synthetic ones."""
    preset = get_preset(opts["preset"])
    if opts["dataset"] is not None:
        exog = read_series(opts["dataset"], opts["column_map"], opts["column_defaults"])
    else:
        exog = synth_dataset(preset, opts["seed"])
    return exog, initial_state(preset, exog, opts["seed"])


def _number(key: str, value) -> float:
    """``value`` as a finite float, else a ConfigError naming ``key``.
    Booleans are refused: ``float(True)`` would read JSON ``true`` as 1."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past floats
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be a finite number, not {_shown(value)}")
    return x


def _integer(key: str, value, opts=None) -> int:
    """``value`` as an integer of magnitude at most ``sys.maxsize``, else a
    ConfigError naming ``key``.  A non-bool int is kept exact, not rounded
    through a float."""
    if isinstance(value, int) and not isinstance(value, bool):
        x = value
    else:
        x = _number(key, value)
        if not x.is_integer():
            raise ConfigError(f"{key} must be an integer, not {_shown(value)}")
        x = int(x)
    if abs(x) > sys.maxsize:
        raise ConfigError(f"{key} must be at most {sys.maxsize} in magnitude, "
                          f"not {_shown(value)}")
    return x


def _string(key: str, value, opts=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, not {_shown(value)}")
    return value


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, not {_shown(value)}")
    return value


def _refuse_unknown(key: str, values: dict, known) -> None:
    unknown = sorted(f"{key}.{k}" for k in set(values) - set(known))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")


# the parser of each declared field type of the config objects
_PARSERS = {"int": _integer, "float": _number, "str": _string}


def _decode(key: str, cls, values, base=None, fixed=()):
    """The dataclass ``cls`` object that config object ``values`` describes,
    else a ConfigError naming ``<key>.<field>``.

    ``values`` overrides fields of ``base``; with no ``base`` it must hold
    every field that has no default.  Fields in ``fixed`` are the caller's,
    not config keys.  The field types are read as the strings postponed
    annotations leave, so no type hint is evaluated.  The ranges are the
    object's own ``validate`` or ``__post_init__`` checks, whose messages
    start with the field name."""
    decoded = [f for f in fields(cls) if f.name not in fixed]
    _refuse_unknown(key, _object(key, values), [f.name for f in decoded])
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


def _seed(key: str, value, opts) -> int:
    if (seed := _integer(key, value)) < 0:
        raise ConfigError(f"{key} must be a non-negative integer, not {_shown(value)}")
    return seed


def _column_map(key: str, value, opts) -> dict:
    """CSV header -> ``year`` or a series name."""
    for header, name in _object(key, value).items():
        if name != "year" and name not in SERIES_FIELDS:
            raise ConfigError(f"{key}.{header} must be 'year' or a series name "
                              f"{list(SERIES_FIELDS)}, not {_shown(name)}")
    return value


def _column_defaults(key: str, value, opts) -> dict:
    """Series name -> the constant of a series the dataset lacks."""
    _refuse_unknown(key, _object(key, value), SERIES_FIELDS)
    return {k: _number(f"{key}.{k}", v) for k, v in value.items()}


def _entries(key: str, cls, value) -> list:
    """The ``cls`` objects of a non-empty config list; the other form of
    ``value`` is the word that is the key's default.  Results are keyed by
    name: no two ``<key>[i]`` entries may share one."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{key} must be {_KEYS[key][0]!r} or a non-empty list")
    entries = [_decode(f"{key}[{i}]", cls, v) for i, v in enumerate(value)]
    names = [e.name for e in entries]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{key}[{i}].name {_shown(name)} repeats "
                              f"{key}[{names.index(name)}].name")
    return entries


def _scenarios(key: str, value, opts) -> list:
    return list(DEFAULT_SCENARIOS) if value == "default" else _entries(key, AllocationPolicy, value)


def _sites(key: str, value, opts) -> list:
    return iceland_sites() if value == "iceland7" else _entries(key, SiteState, value)


def _years(key: str, value, opts) -> list:
    """``[first, last]`` as the list of years from first to last."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{key} must be [first, last], not {_shown(value)}")
    first, last = (_integer(key, y) for y in value)
    if not 0 <= last - first < sys.maxsize:  # a longer range has no length
        raise ConfigError(f"{key} must have first <= last, at most {sys.maxsize} "
                          f"apart, not {_shown(value)}")
    try:
        return list(range(first, last + 1))
    except MemoryError:
        raise MemoryError(f"{key} {value!r} spans too many years to hold") from None


def _checked(check, parse=lambda key, value: value):
    """``parse``, then gsa's ``check(value, key)``, which analyze_model runs too."""
    def parser(key: str, value, opts):
        check(value := parse(key, value), key)
        return value
    return parser


def _over_preset(cls, attr: str):
    """The parser of a ``cls`` object whose fields override the preset's ``attr``."""
    return lambda key, value, opts: _decode(key, cls, value,
                                            getattr(get_preset(opts["preset"]), attr))


def _ea(key: str, value, opts) -> EAConfig:
    """``ea`` over the preset's population size and generations, seeded by ``seed``."""
    preset = get_preset(opts["preset"])
    base = EAConfig(population_size=preset.ea_population,
                    generations=preset.ea_generations, seed=opts["seed"])
    return _decode(key, EAConfig, value, base, fixed=("seed",))


def _space(key: str, choice, opts) -> ParameterSpace:
    """The sensitivity space.  A name must be a policy lever or coefficient,
    and each end of its range is checked as a ``policy`` or ``coefficients``
    value is."""
    preset, coeffs, policy = get_preset(opts["preset"]), opts["coefficients"], opts["policy"]
    if isinstance(choice, dict):
        if not choice:
            raise ConfigError(f"{key} must name at least one parameter")
        gsa._check_parameters(choice, key)
        bounds = {}
        for k, v in choice.items():
            if not (isinstance(v, list) and len(v) == 2):
                raise ConfigError(f"{key}.{k} must be [low, high], not {_shown(v)}")
            bounds[k] = tuple(_number(f"{key}.{k}", x) for x in v)
            if not bounds[k][0] < bounds[k][1]:
                raise ConfigError(f"{key}.{k} must have low < high, not {_shown(v)}")
            model = coeffs if k in COEFF_FIELDS else policy  # each end must decode
            for x in bounds[k]:
                _decode(key, type(model), {k: x}, model)
        return ParameterSpace.from_dict(bounds)
    if choice == "full":
        return full_space(preset.bounds, coeffs)
    if choice == "policy":
        return ParameterSpace.from_dict(
            {f: tuple(getattr(preset.bounds, f)) for f in POLICY_FIELDS})
    if choice == "policy_uncertainty":
        return uncertainty_space(policy, preset.bounds)
    raise ConfigError(f"unknown {key} {_shown(choice)}")


def _schedule(key: str, choice, opts) -> dict:
    """A preset schedule, or a map whose types and rules schedule_steps checks."""
    sites, years = opts["sites"], opts["years"]
    if choice == "redistribution":
        return iceland_redistribution_schedule(sites, years)
    if choice == "constant":
        return constant_schedule(sites, years)
    if not isinstance(choice, dict):
        raise ConfigError(f"{key} must be 'redistribution', 'constant', or a map")
    try:
        schedule_steps(sites, choice, len(years) - 1)
    except (DataError, ValueError) as e:
        raise ConfigError(f"{key}.{e}") from None
    return choice


def cmd_simulate(opts: dict):
    exog, init = _resolve_base(opts)
    traj, objs = simulate(opts["policy"], exog, opts["coefficients"], init)
    diag = ("r_tourism", "r_gov_total", "exp_env", "exp_gov_total", "r_net", "f_price",
            "f_glacier", "f_attraction")
    flows = [getattr(traj, d) for d in diag]  # the transition into each year after the first
    rows = [[int(year), st.visitors, st.env_index, st.satisfaction, st.net_revenue_cum]
            + ([f[i - 1] for f in flows] if i else [""] * len(diag))
            for i, (year, st) in enumerate(zip(traj.years, traj.states))]
    return {
        "trajectory.csv": (["year", "visitors", "env_index", "satisfaction",
                            "net_revenue_cum", *diag], rows),
        "objectives.json": {"f1": objs.revenue, "f2": objs.environment,
                            "f3": objs.satisfaction},
    }, f"{len(rows)} years"


def cmd_optimize(opts: dict):
    exog, init = _resolve_base(opts)
    bounds, coeffs, config = get_preset(opts["preset"]).bounds, opts["coefficients"], opts["ea"]

    def problem(genomes):
        return simulate_batch(PolicyVector(), exog, coeffs, init,
                              dict(zip(POLICY_FIELDS, genomes.T)))

    try:
        result = evolve(problem, bounds.lows(), bounds.highs(), config)
    except MemoryError as e:  # a ValueError may be the model's own
        # evolve names population_size where it allocates the population
        named = str(e).startswith("population_size")
        raise MemoryError(f"ea.{e}" if named else f"ea.population_size "
                          f"{config.population_size} is too large to hold: {e}") from None
    front = result.front
    if not front.check_nondominated():
        raise EvaluationError("front verification failed: dominated pair present")
    order = np.argsort(-front.objectives[:, 0], kind="stable")
    rows = np.hstack([front.genomes, front.objectives])[order].tolist()
    x, y, color = front.objectives[order].T.tolist()
    return {
        "pareto_front.csv": (list(POLICY_FIELDS) + list(OUTPUT_NAMES), rows),
        "hypervolume.csv": (["generation", "hypervolume"],
                            [[g, float(hv)] for g, hv in enumerate(result.hypervolume_log)]),
        "pareto_bubble.json": {"x": x, "y": y, "color": color, "x_label": "f1",
                               "y_label": "f2", "color_label": "f3"},
    }, (f"{len(rows)} front members, {result.generations_run} generations, "
        f"stopped by {result.stop_reason}")


def cmd_sensitivity(opts: dict):
    exog, init = _resolve_base(opts)
    report = analyze_model(
        opts["space"], exog, opts["coefficients"], opts["policy"], init,
        method=opts["method"], morris_r=opts["morris_r"], sobol_n=opts["sobol_n"],
        seed=opts["seed"])
    files = {}
    for name, table in sorted(report.tables.items()):
        if isinstance(table, MorrisResult):
            files[f"morris_{name}.csv"] = (["parameter", "mu_star", "sigma"],
                                           table.ranked())
        else:
            # ci_low/ci_high bracket the total-effect index used for ranking
            files[f"sobol_{name}.csv"] = (
                ["parameter", "s1", "st", "ci_low", "ci_high"],
                [[p, s1, st, st - ct, st + ct] for p, s1, st, ct in table.ranked()])
    files["sensitivity_matrix.json"] = {
        "method": report.method,
        "sampler": "pseudorandom",
        "outputs": list(OUTPUT_NAMES),
        "rows": report.matrix_records(),
    }
    return files, f"{report.method} over {len(report.space)} parameters"


def cmd_scenario(opts: dict):
    exog, init = _resolve_base(opts)
    allocs = opts["scenarios"]
    comparison = compare_scenarios(allocs, opts["policy"], exog, opts["coefficients"], init,
                                   get_preset(opts["preset"]).feedback)
    return {
        "scenario_timeseries.csv": (
            ["scenario", "year", "variable", "value"],
            [[name, year, var, float(val)] for name, year, var, val in comparison["rows"]]),
        "scenario_summary.json": {"scenarios": comparison["summary"]},
    }, f"compared {len(allocs)} scenarios"


def cmd_redistribute(opts: dict):
    sites, years = opts["sites"], opts["years"]
    result = redistribute(sites, opts["island_params"], opts["schedule"], years)
    share_total = result.visitors.sum(axis=0)
    share_total[share_total == 0] = math.inf  # no visitors that year: every share is 0
    columns = [a.tolist() for a in (result.visitors, result.env, result.sat,
                                    result.visitors / share_total)]
    rows = [[name, year] + [c[i][t] for c in columns]
            for i, name in enumerate(result.site_names)
            for t, year in enumerate(result.years)]
    return {
        "flow_sites.csv": (["site", "year", "visitors", "env_index", "satisfaction",
                            "share"], rows),
        "flow_final.json": {
            "final_year": result.years[-1],
            "shares": result.final_shares(),
            "visitors": {name: v[-1] for name, v in zip(result.site_names, columns[0])},
        },
    }, f"{len(sites)} sites over {len(years)} years"


def cmd_synth(opts: dict):
    preset = get_preset(opts["preset"])
    series = synth_dataset(preset, opts["seed"])
    warnings = validate_ranges(series, preset.envelope)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return ({"dataset.csv": series},
            f"{len(series)} years, {len(warnings)} warnings")


COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "sensitivity": cmd_sensitivity,
    "scenario": cmd_scenario,
    "redistribute": cmd_redistribute,
    "synth": cmd_synth,
}
_DATA_COMMANDS = ("simulate", "optimize", "sensitivity", "scenario")  # call _resolve_base

# Every config key, in the order it is parsed: its default, its parser and
# the commands whose section may hold it.  A parser is called as
# ``parse(key, value, opts)``, where ``opts`` holds the keys parsed before
# it, so a key may be parsed over the preset or an earlier key.  A given
# value goes through the parser, null included; a None default stays None.
_KEYS = {
    "preset": (None, _string, tuple(COMMANDS)),
    "seed": (0, _seed, tuple(COMMANDS)),
    "out": ("out", _string, tuple(COMMANDS)),
    "dataset": (None, _string, _DATA_COMMANDS),
    "column_map": ({}, _column_map, _DATA_COMMANDS),
    "column_defaults": ({}, _column_defaults, _DATA_COMMANDS),
    "coefficients": ({}, _over_preset(ModelCoefficients, "coefficients"), _DATA_COMMANDS),
    "policy": ({}, _over_preset(PolicyVector, "reference_policy"),
               ("simulate", "sensitivity", "scenario")),
    "ea": ({}, _ea, ("optimize",)),
    "space": ("full", _space, ("sensitivity",)),
    "method": ("morris", _checked(gsa._check_method), ("sensitivity",)),
    "morris_r": (20, _checked(gsa._check_morris_r, _integer), ("sensitivity",)),
    "sobol_n": (512, _checked(gsa._check_sobol_n, _integer), ("sensitivity",)),
    "scenarios": ("default", _scenarios, ("scenario",)),
    "sites": ("iceland7", _sites, ("redistribute",)),
    "years": ([2024, 2033], _years, ("redistribute",)),
    "island_params": ({}, lambda key, value, opts: _decode(key, IslandParams, value),
                      ("redistribute",)),
    "schedule": ("redistribution", _schedule, ("redistribute",)),
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
        cfg, opts = _effective_config(args, args.command)
        files, summary = COMMANDS[args.command](opts)
        out = _write(cfg, args.command, files)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (EvaluationError, ValueError, ArithmeticError, MemoryError) as e:
        print(f"numeric failure: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_NUMERIC
    n = len(files)
    print(f"{args.command}: {summary}, wrote {n} file{'s' * (n > 1)} to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
