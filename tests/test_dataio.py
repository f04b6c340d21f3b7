from dataclasses import replace

import numpy as np
import pytest
from helpers import flat_exog, synth_dataset_loop, validate_ranges_loop
from touropt.errors import ConfigError, DataError
from touropt.dataio import (
    get_preset,
    initial_state,
    read_series,
    synth_dataset,
    validate_ranges,
    write_series,
)
from touropt.sd_core import SERIES_FIELDS


FULL_HEADER = ("year,visitors,gov_revenue,gov_expenditure,glacier_retreat,"
               "co2,population,unemployment,satisfaction\n")


def _write(tmp_path, body, header=FULL_HEADER):
    p = tmp_path / "data.csv"
    p.write_text(header + body)
    return p


def _row(year, value):
    return f"{year},{value},9e6,9e6,250,90000,32000,0.05,0.4\n"


class TestLoadTable:
    def test_well_formed_17_rows(self, tmp_path):
        body = "".join(_row(2008 + i, 1e6 + i) for i in range(17))
        series = read_series(_write(tmp_path, body))
        assert len(series.years) == 17
        assert series.years[0] == 2008 and series.years[-1] == 2024
        assert series.V_base[0] == 1e6

    def test_blank_cell_is_missing_not_zero(self, tmp_path):
        body = (_row(2008, 1e6) + "2009,,9e6,9e6,250,90000,32000,0.05,0.4\n"
                + _row(2010, 3e6))
        series = read_series(_write(tmp_path, body))
        assert list(series.V_base) == [1e6, 2e6, 3e6]

    def test_duplicate_year_rejected(self, tmp_path):
        body = _row(2010, 1.0) + _row(2010, 2.0)
        with pytest.raises(DataError, match=r"duplicate years \[2010\]"):
            read_series(_write(tmp_path, body))

    @pytest.mark.parametrize("year", ["inf", "-inf", "1e300", "1e19", "2009.7"])
    def test_year_that_is_not_whole_rejected(self, tmp_path, year):
        body = _row(2008, 1.0) + _row(year, 2.0)
        with pytest.raises(DataError, match=r"unparseable year in row \['" + year):
            read_series(_write(tmp_path, body))

    def test_whole_float_year_accepted(self, tmp_path):
        series = read_series(_write(tmp_path, _row(2008, 1.0) + _row("2009.0", 2.0)))
        assert list(series.years) == [2008, 2009]

    @pytest.mark.parametrize("header, column_map, named", [
        ("year,V_base,visitors", None, "'V_base' and 'visitors' both map to V_base"),
        ("year,Year,visitors", None, "'year' and 'Year' both map to year"),
        ("year,a,b", {"a": "V_base", "b": "V_base"}, "'a' and 'b' both map to V_base")])
    def test_two_headers_of_one_series_rejected(self, tmp_path, header, column_map, named):
        p = tmp_path / "twice.csv"
        p.write_text(f"{header}\n2008,1,2\n2009,3,4\n")
        with pytest.raises(DataError, match=named):
            read_series(p, column_map)

    def test_missing_year_column_rejected(self, tmp_path):
        p = tmp_path / "noyear.csv"
        p.write_text("visitors,co2\n100,200\n")
        with pytest.raises(DataError, match="no year column"):
            read_series(p)

    def test_rows_sorted_by_year(self, tmp_path):
        body = _row(2010, 3.0) + _row(2008, 1.0) + _row(2009, 2.0)
        series = read_series(_write(tmp_path, body))
        assert list(series.years) == [2008, 2009, 2010]
        assert list(series.V_base) == [1.0, 2.0, 3.0]

    def test_custom_column_map(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text("yr,arrivals\n2008,5\n2009,6\n")
        others = {f: 0.5 for f in SERIES_FIELDS if f != "V_base"}
        series = read_series(p, column_map={"yr": "year", "arrivals": "V_base"},
                             defaults=others)
        assert list(series.years) == [2008, 2009]
        assert list(series.V_base) == [5.0, 6.0]


class TestInterpolate:
    def test_linear_midpoint(self, tmp_path):
        body = _row(2008, 100.0) + _row(2010, 200.0)
        series = read_series(_write(tmp_path, body))
        assert series.V_base[1] == pytest.approx(150.0)
        assert list(series.years) == [2008, 2009, 2010]

    def test_edge_fill_uses_nearest(self, tmp_path):
        body = ("2008,,9e6,9e6,250,90000,32000,0.05,0.4\n"
                + _row(2009, 123.0) + _row(2010, 456.0))
        series = read_series(_write(tmp_path, body))
        assert series.V_base[0] == pytest.approx(123.0)

    def test_all_missing_column_rejected(self, tmp_path):
        body = ("2008,,9e6,9e6,250,90000,32000,0.05,0.4\n"
                "2009,,9e6,9e6,250,90000,32000,0.05,0.4\n")
        with pytest.raises(DataError, match="column V_base: need at least 2 known values"):
            read_series(_write(tmp_path, body))

    def test_missing_column_uses_default(self, tmp_path):
        p = tmp_path / "partial.csv"
        p.write_text("year,visitors,gov_revenue,gov_expenditure,glacier_retreat,"
                     "co2,satisfaction\n"
                     "2008,1e6,9e6,9e6,250,90000,0.4\n"
                     "2009,1.1e6,9e6,9e6,250,90000,0.4\n")
        series = read_series(p, defaults={"population": 32000, "unemployment": 0.045})
        assert np.all(series.population == 32000)

    def test_missing_column_without_default_rejected(self, tmp_path):
        p = tmp_path / "partial.csv"
        p.write_text("year,visitors\n2008,1e6\n2009,1.1e6\n")
        with pytest.raises(DataError, match="missing and no default provided"):
            read_series(p)


class TestValidateRanges:
    def test_plausible_juneau_values_pass(self, juneau):
        series = synth_dataset(juneau, seed=1)
        series = series.with_scaled("G_retreat", 1.0)
        warnings = validate_ranges(series, juneau.envelope)
        assert warnings == []

    def test_implausible_retreat_flagged(self, juneau, juneau_exog):
        bad = juneau_exog.with_scaled("G_retreat", 4.0)  # ~1000 ft
        warnings = validate_ranges(bad, juneau.envelope)
        assert warnings and all("G_retreat" in w for w in warnings)

    def test_mid_range_co2_passes(self, juneau, juneau_exog):
        warnings = validate_ranges(juneau_exog, {"CO2_emission": (77000, 104800)})
        assert warnings == []

    def test_literal_plausible_values(self, juneau):
        series = flat_exog(G_retreat=300.0, CO2_emission=90000.0)
        env = {"G_retreat": juneau.envelope["G_retreat"],
               "CO2_emission": juneau.envelope["CO2_emission"]}
        assert validate_ranges(series, env) == []
        assert validate_ranges(flat_exog(G_retreat=1000.0), env) != []

    def test_equals_per_value_loop(self, juneau):
        # values above, below and inside the envelope, and NaNs, which warn nothing
        series = flat_exog(n=6, G_retreat=[100.0, np.nan, 300.0, 400.0, 350.0, 219.9],
                           CO2_emission=[np.nan, 1e6, 0.0, 9e4, np.nan, 76999.0],
                           S_sat_base=[0.5, 0.2, 0.6, np.nan, 0.25, 0.55])
        got = validate_ranges(series, juneau.envelope)
        assert got == validate_ranges_loop(series, juneau.envelope)
        assert got[:2] == ["G_retreat[2008] = 100 outside [220, 350]",
                           "G_retreat[2011] = 400 outside [220, 350]"]
        assert len(got) == 8
        assert validate_ranges(flat_exog(G_retreat=np.nan), {"G_retreat": (0, 1)}) == []

    def test_never_mutates(self, juneau, juneau_exog):
        before = juneau_exog.G_retreat.copy()
        validate_ranges(juneau_exog.with_scaled("G_retreat", 4.0), juneau.envelope)
        assert np.array_equal(juneau_exog.G_retreat, before)


class TestSynthDataset:
    def test_same_seed_identical(self, juneau):
        s1 = synth_dataset(juneau, seed=9)
        s2 = synth_dataset(juneau, seed=9)
        for f in SERIES_FIELDS:
            assert np.array_equal(getattr(s1, f), getattr(s2, f))

    def test_different_seeds_differ(self, juneau):
        s1 = synth_dataset(juneau, seed=1)
        s2 = synth_dataset(juneau, seed=2)
        assert not np.array_equal(s1.V_base, s2.V_base)

    def test_juneau_endpoints_pinned(self, juneau):
        for seed in range(5):
            s = synth_dataset(juneau, seed=seed)
            assert s.S_sat_base[0] == pytest.approx(0.48)
            assert s.S_sat_base[-1] == pytest.approx(0.29)
            assert s.V_base[-1] <= 3.1e6

    def test_own_envelope_zero_warnings(self, juneau, iceland):
        for preset in (juneau, iceland):
            for seed in range(5):
                s = synth_dataset(preset, seed=seed)
                assert validate_ranges(s, preset.envelope) == []

    def test_block_equals_per_series_loop(self, juneau, iceland):
        # a preset copy whose envelope lacks a series leaves that row unclipped
        partial = replace(juneau, envelope={name: bounds for name, bounds
                                            in juneau.envelope.items() if name != "V_base"})
        for preset in (juneau, iceland, partial):
            for seed in range(21):
                got, want = synth_dataset(preset, seed), synth_dataset_loop(preset, seed)
                assert got.years.tobytes() == want.years.tobytes()
                for f in SERIES_FIELDS:
                    assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), (f, seed)

    def test_horizon_2008_2024(self, juneau):
        s = synth_dataset(juneau, seed=0)
        assert list(s.years) == list(range(2008, 2025))


class TestInitialState:
    def test_juneau_fixed_environment(self, juneau, juneau_exog):
        init = initial_state(juneau, juneau_exog, seed=0)
        assert init.env_index == pytest.approx(0.70)
        assert init.visitors == juneau_exog.V_base[0]
        assert init.satisfaction == juneau_exog.S_sat_base[0]
        assert init.net_revenue_cum == 0.0

    def test_iceland_randomized_environment(self, iceland):
        exog = synth_dataset(iceland, seed=0)
        vals = {initial_state(iceland, exog, seed=s).env_index for s in range(10)}
        assert len(vals) > 1
        assert all(0.60 <= v <= 0.70 for v in vals)

    def test_iceland_seeded_draw_reproducible(self, iceland):
        exog = synth_dataset(iceland, seed=0)
        a = initial_state(iceland, exog, seed=5)
        b = initial_state(iceland, exog, seed=5)
        assert a.env_index == b.env_index


class TestRoundTrip:
    def test_write_reload_exact(self, tmp_path, juneau):
        series = synth_dataset(juneau, seed=4)
        path = tmp_path / "series.csv"
        write_series(series, path, header_lines=["roundtrip test"])
        reloaded = read_series(path)
        assert np.array_equal(series.years, reloaded.years)
        for f in SERIES_FIELDS:
            assert np.array_equal(getattr(series, f), getattr(reloaded, f)), f


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            get_preset("atlantis")

    def test_iceland_bounds_widened(self, iceland):
        assert iceland.bounds.capacity_limit[1] == 5e6
        assert iceland.bounds.carbon_fee[1] == 120.0
        assert iceland.bounds.ship_limit == (500.0, 900.0)

    def test_iceland_coefficient_overrides(self, iceland):
        assert iceland.coefficients.kappa == 0.25
        assert iceland.coefficients.alpha_gov_base == 0.35

    def test_iceland_ea_defaults(self, juneau, iceland):
        assert (iceland.ea_population, iceland.ea_generations) == (120, 80)
        assert (juneau.ea_population, juneau.ea_generations) == (100, 40)

    def test_feedback_efficiency_convention(self, iceland):
        # published per-1e5-USD factors stored as per-USD gains
        assert iceland.feedback.infra_efficiency == pytest.approx(4000.0 / 1e5)
        assert iceland.feedback.marketing_efficiency == pytest.approx(2500.0 / 1e5)
