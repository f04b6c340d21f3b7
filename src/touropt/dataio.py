"""Dataset ingestion, preprocessing, and calibrated regional presets.

One call, :func:`read_series`, reads a CSV table (a ``year`` column plus
any subset of the exogenous series; a column map adapts other headers)
into a dense series: gaps are filled by linear interpolation, with
nearest-value fill at the edges, and every fault in the file is a
DataError naming it.  :func:`write_series` writes the same format, its
rows rendered by :func:`_csv_text` as every CSV artifact's are, and
:func:`validate_ranges` checks a series against a preset envelope.

The published regional tables are not distributed with the model, so each
preset also ships a synthetic generator: smooth trends pinned to the
published endpoints and ranges, with small seeded noise (<= 2%) in the
interior.  Population and unemployment default to documented constants.
"""

from __future__ import annotations

import csv
import io
import itertools
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, _shown
from .sd_core import (
    ICELAND_BOUNDS,
    JUNEAU_BOUNDS,
    SERIES_FIELDS,
    ExogenousSeries,
    ModelCoefficients,
    PolicyBounds,
    PolicyVector,
    SimState,
)
from .scenario import FeedbackCoefficients

__all__ = [
    "RegionPreset",
    "DEFAULT_COLUMN_MAP",
    "read_series",
    "validate_ranges",
    "synth_dataset",
    "initial_state",
    "write_series",
    "get_preset",
    "PRESETS",
]

# canonical column names; files may use any header that the map translates
DEFAULT_COLUMN_MAP = {
    "year": "year",
    "v_base": "V_base",
    "visitors": "V_base",
    "r_gov_base": "R_gov_base",
    "gov_revenue": "R_gov_base",
    "exp_gov_base": "EXP_gov_base",
    "gov_expenditure": "EXP_gov_base",
    "g_retreat": "G_retreat",
    "glacier_retreat": "G_retreat",
    "co2_emission": "CO2_emission",
    "co2": "CO2_emission",
    "population": "population",
    "unemployment": "unemployment",
    "s_sat_base": "S_sat_base",
    "satisfaction": "S_sat_base",
}


def read_series(path, column_map: dict | None = None,
                defaults: dict | None = None) -> ExogenousSeries:
    """Read an annual CSV, as :func:`write_series` writes it, into a dense,
    validated :class:`ExogenousSeries`.

    Headers are translated through ``DEFAULT_COLUMN_MAP`` with
    ``column_map`` over it, and ``#`` lines are comments.  The result holds
    every year from the first row's to the last's.  A blank or unparseable
    cell, like an absent year, is missing, never zero: interior gaps are
    linearly interpolated and edge gaps take the nearest known value.  A
    series the file lacks is the constant ``defaults[name]``.  Every fault
    is a DataError whose message starts with the path: no year column, a
    year that is not whole (or beyond ``sys.maxsize``), duplicate years,
    two headers of one series, a year span too long to hold, a series with
    fewer than two known values, and a series that fails validation.
    """
    mapping = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        mapping.update({k.lower(): v for k, v in column_map.items()})
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # skips a byte-order mark
            rows = [r for r in csv.reader(fh)
                    if r and not (r[0] or "").lstrip().startswith("#")]
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    except OSError as e:
        raise DataError(f"{path}: cannot be read: {e.strerror}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    canon = [mapping.get(h.lower()) for h in header]
    for j, name in enumerate(canon):
        if name is not None and name in canon[:j]:
            raise DataError(f"{path}: headers {header[canon.index(name)]!r} and "
                            f"{header[j]!r} both map to {name}")
    if "year" not in canon:
        raise DataError(f"{path}: no year column (headers: {_shown(header)})")
    year_idx = canon.index("year")
    years, records = [], rows[1:]
    for r in records:
        try:
            year = float(r[year_idx])
            if not (year.is_integer() and abs(year) <= sys.maxsize):  # not inf, NaN, 2009.7
                raise ValueError
        except (ValueError, IndexError):
            raise DataError(f"{path}: unparseable year in row {_shown(r)}") from None
        years.append(int(year))
    if not years:
        raise DataError(f"{path}: no data rows")
    if len(set(years)) != len(years):
        dupes = sorted({y for y in years if years.count(y) > 1})
        raise DataError(f"{path}: duplicate years {dupes}")
    first, last = min(years), max(years)
    given = {name: canon.index(name) for name in SERIES_FIELDS if name in canon}
    try:  # one row per given series, one column per year of the span
        grid = np.full((len(given), last - first + 1), np.nan)
        full_years = np.arange(first, last + 1)
    except (MemoryError, ValueError):
        raise DataError(f"{path}: years {first} to {last} are too many to hold") from None
    for cells, j in zip(grid, given.values()):
        for year, r in zip(years, records):
            try:
                cells[year - first] = float(r[j])
            except (ValueError, IndexError):
                pass  # blank, unparseable or a short row: stays missing
    columns = dict(zip(given, grid))
    xs = full_years.astype(float)
    data = {}
    for name in SERIES_FIELDS:
        if name in columns:
            values = columns[name]
            known = np.isfinite(values)
            if known.sum() < 2:
                raise DataError(f"{path}: column {name}: need at least 2 known values")
            data[name] = np.interp(xs, xs[known], values[known])
        elif defaults and name in defaults:
            data[name] = np.full(len(full_years), float(defaults[name]))
        else:
            raise DataError(f"{path}: column {name} missing and no default provided")
    series = ExogenousSeries(years=full_years, **data)
    try:
        series.validate()
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    return series


def validate_ranges(series: ExogenousSeries, envelope: dict) -> list:
    """Flag values outside the preset's plausibility envelope.

    Returns warning strings, envelope series by envelope series and years
    in order within each; a NaN is never flagged.  Never mutates the series.
    """
    warnings = []
    for name, (lo, hi) in envelope.items():
        arr = getattr(series, name)
        for i in np.flatnonzero((arr < lo) | (arr > hi)):
            warnings.append(
                f"{name}[{int(series.years[i])}] = {arr[i]:g} outside [{lo:g}, {hi:g}]")
    return warnings


@dataclass(frozen=True)
class RegionPreset:
    """Everything regional: bounds, coefficients, envelopes, synth shapes.

    ``synth`` maps each series to (first-year value, final-year value,
    curve) where curve is "linear" or "s" (slow-fast-slow ramp).
    ``initial_env`` is either a fixed value or (center, halfwidth) for a
    seeded uniform draw.
    """

    name: str
    bounds: PolicyBounds
    coefficients: ModelCoefficients
    reference_policy: PolicyVector
    feedback: FeedbackCoefficients
    envelope: dict
    synth: dict
    initial_env: tuple  # (value,) fixed or (center, halfwidth) randomized
    years: tuple = (2008, 2024)
    ea_population: int = 100
    ea_generations: int = 40


_NOISE_REL = 0.02  # bound of the synthetic series' multiplicative noise


def synth_dataset(preset: RegionPreset, seed: int) -> ExogenousSeries:
    """Deterministic synthetic series for a preset.

    Endpoints are pinned exactly; interior points get multiplicative noise
    bounded by ``_NOISE_REL`` and are clipped into the preset envelope, so a
    synthetic series always passes :func:`validate_ranges` for its own
    preset with zero warnings.  The series are built as one (8, n) block,
    one row per field in ``SERIES_FIELDS`` order: one noise draw of 8*n
    values gives the doubles of eight size-n draws, one per row, and a
    series outside the envelope gets infinite clip bounds, which change no
    value.
    """
    rng = np.random.default_rng(seed)
    y0, y1 = preset.years
    years = np.arange(y0, y1 + 1)
    n = len(years)
    synth = [preset.synth[name] for name in SERIES_FIELDS]
    start, end = np.array([spec[:2] for spec in synth], dtype=float).T[:, :, None]
    lo, hi = np.array([preset.envelope.get(name, (-np.inf, np.inf))
                       for name in SERIES_FIELDS], dtype=float).T[:, :, None]
    u = np.linspace(0.0, 1.0, n)
    # linear, or the smoothstep slow-fast-slow ramp, which stays in [0, 1]
    smooth = np.array([spec[2] == "s" for spec in synth])[:, None]
    u = np.where(smooth, u * u * (3.0 - 2.0 * u), u)
    noise = 1.0 + _NOISE_REL * rng.uniform(-1.0, 1.0, size=(len(SERIES_FIELDS), n))
    noise[:, [0, -1]] = 1.0  # endpoints pinned
    vals = np.clip((start + (end - start) * u) * noise, lo, hi)
    series = ExogenousSeries(years=years, **dict(zip(SERIES_FIELDS, vals)))
    series.validate()
    return series


def initial_state(preset: RegionPreset, exog: ExogenousSeries,
                  seed: int | None = None) -> SimState:
    """Initial stocks: first-year visitors and satisfaction from the data,
    environment index from the preset rule, zero accumulated revenue."""
    if len(preset.initial_env) == 1:
        e0 = float(preset.initial_env[0])
    else:
        center, half = preset.initial_env
        rng = np.random.default_rng(0 if seed is None else seed)
        e0 = float(center + half * rng.uniform(-1.0, 1.0))
    return SimState(
        visitors=float(exog.V_base[0]),
        env_index=e0,
        satisfaction=float(exog.S_sat_base[0]),
        net_revenue_cum=0.0,
    )


_EOL = "\r\n"  # the line end of every CSV row, as csv.writer's default
_PLAIN = frozenset((float, int))  # cells written as their repr, unquoted


def _csv_text(header, rows: list) -> str:
    """The CSV text of the ``header`` row and the list ``rows``, each row
    ended by ``_EOL``.

    When every cell of ``rows`` is a Python float or int, each row is
    joined from the cells' reprs, which is what ``csv.writer`` writes for
    them.  Any other cell (a name that may hold a comma or a quote, a
    bool, a numpy scalar) sends the table through ``csv.writer``, as does
    the header; checking per table costs a string table nothing, where a
    per-row check would.  Either way the bytes are ``csv.writer``'s.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=_EOL)
    writer.writerow(header)
    if _PLAIN.issuperset(map(type, itertools.chain.from_iterable(rows))):
        buf.write("".join([",".join(map(repr, row)) + _EOL for row in rows]))
    else:
        writer.writerows(rows)
    return buf.getvalue()


def write_series(series: ExogenousSeries, path, header_lines=()) -> None:
    """Write a dense series as CSV under ``# `` lines; floats via repr so
    reload is exact."""
    cols = [np.asarray(getattr(series, c), dtype=float).tolist() for c in SERIES_FIELDS]
    rows = list(zip([int(y) for y in series.years], *cols))
    head = "".join(f"# {line}\n" for line in header_lines)
    text = head + _csv_text(("year",) + SERIES_FIELDS, rows)
    Path(path).write_text(text, encoding="utf-8", newline="")


JUNEAU = RegionPreset(
    name="juneau",
    bounds=JUNEAU_BOUNDS,
    coefficients=ModelCoefficients(),
    reference_policy=PolicyVector(
        tax_rate=0.15, env_ratio=0.2, dev_incentive=0.5, capacity_limit=2.5e6,
        ship_limit=700.0, carbon_fee=40.0, glacier_ratio=0.5,
    ),
    feedback=FeedbackCoefficients(
        infra_efficiency=0.03, marketing_efficiency=0.02,
        community_efficiency=5e-9,
    ),
    envelope={
        "V_base": (5e5, 3.1e6),
        "R_gov_base": (5e6, 1.03e7),
        "EXP_gov_base": (5e6, 1.2e7),
        "G_retreat": (220.0, 350.0),
        "CO2_emission": (77000.0, 104800.0),
        "population": (25000.0, 40000.0),
        "unemployment": (0.0, 0.15),
        "S_sat_base": (0.25, 0.55),
    },
    synth={
        "V_base": (1.2e6, 3.05e6, "s"),
        "R_gov_base": (7.5e6, 1.0e7, "linear"),
        "EXP_gov_base": (8.0e6, 1.1e7, "linear"),
        "G_retreat": (230.0, 340.0, "linear"),
        "CO2_emission": (78500.0, 102500.0, "linear"),
        "population": (32000.0, 32000.0, "linear"),
        "unemployment": (0.045, 0.045, "linear"),
        "S_sat_base": (0.48, 0.29, "linear"),
    },
    initial_env=(0.70,),
)

ICELAND = RegionPreset(
    name="iceland",
    bounds=ICELAND_BOUNDS,
    coefficients=replace(
        ModelCoefficients(),
        kappa=0.25,
        alpha_gov_base=0.35,
        G_retreat_baseline=240.0,
        P_visitor_base=35.0,   # arrival-fee base rather than a cruise ticket
        P_ship_capacity=4000.0,  # visitors per flight slot
        beta2=1.0e-7,
        p2=3e-3,               # housing pressure: stronger crowding response
    ),
    reference_policy=PolicyVector(
        tax_rate=0.12, env_ratio=0.25, dev_incentive=0.5, capacity_limit=3e6,
        ship_limit=700.0, carbon_fee=50.0, glacier_ratio=0.6,
    ),
    feedback=FeedbackCoefficients(
        # published factors 4000 / 2500 read as per-1e5-USD gains
        infra_efficiency=0.04, marketing_efficiency=0.025,
        community_efficiency=5e-9,
    ),
    envelope={
        "V_base": (3e5, 3.2e6),
        "R_gov_base": (8e6, 2.5e7),
        "EXP_gov_base": (1e7, 6e7),
        "G_retreat": (200.0, 300.0),
        "CO2_emission": (1.5e5, 3.0e5),
        "population": (3.0e5, 4.5e5),
        "unemployment": (0.0, 0.15),
        "S_sat_base": (0.3, 0.65),
    },
    synth={
        "V_base": (5.0e5, 3.15e6, "s"),
        "R_gov_base": (1.0e7, 2.2e7, "linear"),
        "EXP_gov_base": (1.5e7, 4.5e7, "linear"),
        "G_retreat": (210.0, 290.0, "linear"),
        "CO2_emission": (1.7e5, 2.7e5, "linear"),
        "population": (3.7e5, 3.7e5, "linear"),
        "unemployment": (0.04, 0.04, "linear"),
        "S_sat_base": (0.55, 0.40, "linear"),
    },
    initial_env=(0.65, 0.05),
    ea_population=120,
    ea_generations=80,
)

PRESETS = {"juneau": JUNEAU, "iceland": ICELAND}


def get_preset(name: str) -> RegionPreset:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
