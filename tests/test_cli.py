import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import touropt as tp
from touropt import cli, moea
from touropt.cli import main
from touropt.errors import EvaluationError
from touropt.gsa import ParameterSpace, analyze_model, full_space
from touropt.sd_core import POLICY_FIELDS

from helpers import brute_force_fronts


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _meta_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.startswith("#")]


def _assert_config_error(tmp_path, capsys, command, doc, key):
    """Running ``command`` on config ``doc`` exits 2 with ``key`` named."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([command, "--preset", "iceland", "--seed", "0",
                 "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    return err


_DATA_HEAD = ("year,V_base,R_gov_base,EXP_gov_base,G_retreat,CO2_emission,population,"
              "unemployment,S_sat_base\n")
_DATA_REST = ",9e6,9e6,250,90000,32000,0.05,0.4\n"  # the cells after V_base


class TestSimulateCommand:
    def test_smoke_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "juneau", "--seed", "0",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        assert header[0] == "year" and len(rows) == 17
        payload = json.loads((out / "objectives.json").read_text())
        assert set(payload) == {"meta", "f1", "f2", "f3"}
        assert payload["f1"] > 0

    def test_missing_preset_and_dataset_is_config_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 2

    def test_dataset_without_preset_is_config_error(self, tmp_path, capsys):
        # the coefficients are the preset's, so a dataset needs one too
        assert main(["synth", "--preset", "juneau", "--seed", "0",
                     "--out", str(tmp_path / "s")]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"dataset": str(tmp_path / "s" / "dataset.csv")}}))
        assert main(["simulate", "--seed", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "preset" in err
        assert not (tmp_path / "x").exists()

    def test_missing_dataset_file_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"simulate": {"dataset": str(tmp_path / "ghost.csv"),
                          "preset": "juneau"}}))
        assert main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "x")]) == 3

    def test_dataset_naming_a_directory_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"simulate": {"dataset": str(tmp_path), "preset": "juneau"}}))
        assert main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_non_finite_result_is_numeric_failure_before_writing(self, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"policy": {"tax_rate": 1e308}}}))
        out = tmp_path / "x"
        assert main(["simulate", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_dataset_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": 3}}, "dataset")

    def test_dataset_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_bytes(b"year,V_base\n2008,\x80\x81\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"dataset": str(data),
                                                "preset": "juneau"}}))
        assert main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "UTF-8" in err

    def test_out_of_range_coefficient_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"coefficients": {"kappa": -1}}},
                             "coefficients.kappa")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--preset", "juneau", "--seed", "3",
                         "--out", str(out)]) == 0
        for name in ("trajectory.csv", "objectives.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dataset_file_input(self, tmp_path):
        synth_out = tmp_path / "s"
        assert main(["synth", "--preset", "juneau", "--seed", "1",
                     "--out", str(synth_out)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"simulate": {"dataset": str(synth_out / "dataset.csv"),
                          "preset": "juneau"}}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--seed", "0",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("text, named", [
        (_DATA_HEAD + "2008,1e6" + _DATA_REST + "20x9,2e6" + _DATA_REST,
         "unparseable year in row ['20x9'"),
        (_DATA_HEAD + "2008,1e6" + _DATA_REST + "2008,2e6" + _DATA_REST,
         "duplicate years [2008]"),
        (_DATA_HEAD.replace("R_gov_base", "visitors") + "2008,1e6" + _DATA_REST,
         "headers 'V_base' and 'visitors' both map to V_base"),
        (_DATA_HEAD.replace("year", "when") + "2008,1e6" + _DATA_REST, "no year column"),
        (_DATA_HEAD + "2008," + _DATA_REST + "2009," + _DATA_REST,
         "column V_base: need at least 2 known values"),
        (_DATA_HEAD.replace(",S_sat_base", "") + "2008,1e6" + _DATA_REST
         + "2009,2e6" + _DATA_REST, "column S_sat_base missing and no default provided"),
        (_DATA_HEAD + "2008,-1e6" + _DATA_REST + "2009,2e6" + _DATA_REST,
         "series V_base contains negative values"),
        (_DATA_HEAD + "2008,1e6" + _DATA_REST + "1e18,2e6" + _DATA_REST,
         "years 2008 to 1000000000000000000 are too many to hold"),
    ], ids=["unparseable_year", "duplicate_years", "two_headers", "no_year_column",
            "all_blank_column", "missing_column", "negative_cell", "span_too_long"])
    def test_dataset_fault_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                         text, named):
        data = tmp_path / "faulty.csv"
        data.write_text(text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"dataset": str(data)}}))
        out = tmp_path / "x"
        assert main(["simulate", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data}: ") and named in err
        assert not out.exists()

    def test_metadata_header_present(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--preset", "juneau", "--seed", "0", "--out", str(out)])
        lines = _meta_lines(out / "trajectory.csv")
        text = "".join(lines)
        assert "artifact" in text and "config_hash" in text and "seed" in text


class TestOptimizeCommand:
    def _cfg(self, tmp_path, pop=16, gens=3):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"optimize": {"ea": {"population_size": pop, "generations": gens}}}))
        return cfg

    def test_missing_seed_is_config_error(self, tmp_path):
        assert main(["optimize", "--preset", "juneau",
                     "--out", str(tmp_path / "o")]) == 2

    def test_front_file_is_mutually_nondominated(self, tmp_path):
        out = tmp_path / "o"
        assert main(["optimize", "--preset", "juneau", "--seed", "5",
                     "--config", str(self._cfg(tmp_path)), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "pareto_front.csv")
        assert header[-3:] == ["f1", "f2", "f3"]
        objs = [tuple(map(float, r[-3:])) for r in rows]
        fronts = brute_force_fronts(objs)
        assert len(fronts) == 1

    def test_bubble_json_encoding(self, tmp_path):
        out = tmp_path / "o"
        main(["optimize", "--preset", "juneau", "--seed", "5",
              "--config", str(self._cfg(tmp_path)), "--out", str(out)])
        doc = json.loads((out / "pareto_bubble.json").read_text())
        assert doc["x_label"] == "f1" and doc["y_label"] == "f2"
        assert doc["color_label"] == "f3"
        assert len(doc["x"]) == len(doc["y"]) == len(doc["color"])

    def test_seed_changes_front_not_schema(self, tmp_path):
        outs = []
        for seed in ("5", "6"):
            out = tmp_path / f"o{seed}"
            main(["optimize", "--preset", "juneau", "--seed", seed,
                  "--config", str(self._cfg(tmp_path)), "--out", str(out)])
            outs.append(_read_csv(out / "pareto_front.csv"))
        assert outs[0][0] == outs[1][0]  # same header

    # the retired settings (now moea constants) are refused as unknown keys,
    # whatever their value
    @pytest.mark.parametrize("ea, key", [
        ({"populaton_size": 4}, "ea.populaton_size"),
        ({"mutation_prob": "x"}, "ea.mutation_prob"),
        ({"generations": 1.7}, "ea.generations"),
        ({"population_size": "many"}, "ea.population_size"),
        ({"hv_window": 2.5}, "ea.hv_window"),
        ({"eta_c": float("inf")}, "ea.eta_c"),
        ({"hv_rel_tol": -1}, "hv_rel_tol"),
        (5, "ea"),
        ({"population_size": 7}, "ea.population_size must be even and >= 4"),
        ({"mutation_prob": None}, "ea.mutation_prob"),  # a null was once the default
        ({"population_size": 6.0, "generations": 0}, "ea.generations"),
        ({"seed": 1}, "ea.seed"),  # the seed is --seed or the section's seed
        ({"reference_point": [1, 2, 3]}, "ea.reference_point"),
        ({"population_size": 1e300}, "ea.population_size")])
    def test_bad_ea_entry_is_config_error(self, tmp_path, capsys, ea, key):
        _assert_config_error(tmp_path, capsys, "optimize",
                             {"optimize": {"ea": ea}}, key)

    def test_integral_floats_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8.0, "generations": 1.0}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("gens, window, reason", [
        (3, 10, "generation_cap"), (60, 1, "hv_plateau")])
    def test_stdout_names_stop_reason(self, tmp_path, capsys, monkeypatch, gens, window,
                                      reason):
        monkeypatch.setattr(moea, "_HV_WINDOW", window)
        monkeypatch.setattr(moea, "_HV_REL_TOL", 0.5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8, "generations": gens}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert f"generations, stopped by {reason}," in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["optimize", "--preset", "juneau", "--seed", "9",
                         "--config", str(self._cfg(tmp_path)),
                         "--out", str(out)]) == 0
        for name in ("pareto_front.csv", "hypervolume.csv", "pareto_bubble.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSensitivityCommand:
    def test_morris_table_rows_match_space(self, tmp_path):
        out = tmp_path / "s"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {"morris_r": 4}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "morris_f1.csv")
        assert header == ["parameter", "mu_star", "sigma"]
        assert len(rows) == 12  # default space: 7 levers + 5 coefficients

    def test_sobol_schema_with_cis(self, tmp_path):
        out = tmp_path / "s"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "method": "sobol", "space": "policy", "sobol_n": 32}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sobol_f1.csv")
        assert header == ["parameter", "s1", "st", "ci_low", "ci_high"]
        assert len(rows) == 7
        for r in rows:
            assert float(r[3]) <= float(r[2]) <= float(r[4])
        # each row is the table's (s1, st) and st -+ st_ci, on the same config
        preset = tp.get_preset("juneau")
        exog = tp.synth_dataset(preset, seed=2)
        space = ParameterSpace.from_dict(
            {f: tuple(getattr(preset.bounds, f)) for f in POLICY_FIELDS})
        table = analyze_model(space, exog, preset.coefficients, preset.reference_policy,
                              tp.initial_state(preset, exog, seed=2), method="sobol",
                              sobol_n=32, seed=2).tables["f1"]
        assert rows == [[p, repr(s1), repr(st), repr(st - ct), repr(st + ct)]
                        for p, s1, st, ct in table.ranked()]

    def test_output_the_space_cannot_move_reports_zeros_at_every_seed(self, tmp_path):
        # alpha_gov_base moves f1 only: f2 and f3 take one value over the design
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "method": "sobol", "space": {"alpha_gov_base": [0.2, 0.4]}}}))
        for seed in range(6):
            out = tmp_path / str(seed)
            assert main(["sensitivity", "--preset", "juneau", "--seed", str(seed),
                         "--config", str(cfg), "--out", str(out)]) == 0
            for name in ("f2", "f3"):
                _, rows = _read_csv(out / f"sobol_{name}.csv")
                assert rows == [["alpha_gov_base", "0.0", "0.0", "0.0", "0.0"]]
            _, rows = _read_csv(out / "sobol_f1.csv")
            assert float(rows[0][2]) > 0.5

    def test_matrix_json_shape(self, tmp_path):
        out = tmp_path / "s"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {"morris_r": 4,
                                                   "space": "policy"}}))
        main(["sensitivity", "--preset", "juneau", "--seed", "2",
              "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "sensitivity_matrix.json").read_text())
        assert doc["outputs"] == ["f1", "f2", "f3"]
        assert len(doc["rows"]) == 7
        assert set(doc["rows"][0]) == {"parameter", "f1", "f2", "f3"}

    def test_unknown_method_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {"method": "laplace"}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2

    def test_missing_seed_is_config_error(self, tmp_path):
        assert main(["sensitivity", "--preset", "juneau",
                     "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("bounds", [[0.0], [0.0, 0.1, 0.2], [0.0, "x"],
                                        [None, 0.1], 0.1, "0-1"])
    def test_bad_space_entry_is_config_error(self, tmp_path, capsys, bounds):
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"space": {"tax_rate": bounds}}},
                             "space.tax_rate")

    @pytest.mark.parametrize("name, bounds", [("kappa", [0.1, 0.1]),
                                              ("kappa", [0.3, 0.1]),
                                              ("tax_rate", [0.2, 0.2])])
    def test_empty_space_range_names_key(self, tmp_path, capsys, name, bounds):
        space = {"tax_rate": [0, 0.2], "kappa": [0.1, 0.3], name: bounds}
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"space": space}}, f"space.{name}")

    @pytest.mark.parametrize("rel", [-1, 0, 0.0, "x"])
    def test_non_positive_uncertainty_rel_names_key(self, tmp_path, capsys, rel):
        # the retired key (the box is gsa._UNCERTAINTY_REL): refused as
        # unknown whatever its value, also where the space does not read it
        for doc in ({"space": "policy_uncertainty", "uncertainty_rel": rel},
                    {"uncertainty_rel": rel}):
            _assert_config_error(tmp_path, capsys, "sensitivity", {"sensitivity": doc},
                                 "uncertainty_rel")

    # a zero box, a box above the bounds, and a subnormal lever the +-20%
    # box cannot widen: 5e-324 * (1 -+ 0.2) rounds to 5e-324 at both ends
    @pytest.mark.parametrize("value", [0, 50, 5e-324])
    def test_empty_uncertainty_range_names_policy_key(self, tmp_path, capsys, value):
        doc = {"sensitivity": {"space": "policy_uncertainty",
                               "policy": {"tax_rate": value}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, "policy.tax_rate")

    @pytest.mark.parametrize("method, name, bounds", [
        ("morris", "tax_rate", [-1, 0.1]),
        ("sobol", "capacity_limit", [-1e6, 1e6]),
        ("morris", "carbon_fee", [0, 1e400]),
        ("morris", "kappa", [-0.1, 0.3]),
        ("sobol", "delta", [0.5, 1.5]),
        ("morris", "k1", [0, 100]),
    ])
    def test_space_bound_outside_model_domain_is_config_error(
            self, tmp_path, capsys, monkeypatch, method, name, bounds):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the space check")
        monkeypatch.setattr("touropt.gsa.simulate_batch", no_simulation)
        doc = {"sensitivity": {"method": method, "morris_r": 2, "sobol_n": 4,
                               "space": {name: bounds}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, f"space.{name}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", ["morris", "sobol"])
    def test_unknown_space_name_is_config_error(self, tmp_path, capsys, method):
        # rejected before sampling, not by simulate_batch's ValueError (exit 4)
        doc = {"sensitivity": {"method": method, "morris_r": 2, "sobol_n": 4,
                               "space": {"tax_rate": [0, 0.1], "warp_field": [0, 1]}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, "warp_field")
        assert not (tmp_path / "x").exists()

    def test_full_space_sweeps_the_configured_coefficients(self, tmp_path, monkeypatch):
        spaces = []

        def recording(bounds, coeffs):
            spaces.append(full_space(bounds, coeffs))
            return spaces[-1]

        monkeypatch.setattr("touropt.cli.full_space", recording)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "morris_r": 2, "coefficients": {"delta": 0.09}}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        (space,) = spaces
        i = space.names.index("delta")
        assert (space.lows[i], space.highs[i]) == (0.5 * 0.09, 1.5 * 0.09)

    @pytest.mark.parametrize("name, value", [("kappa", 0), ("alpha_g", 0.0),
                                             ("delta", 0), ("delta", 0.9)])
    def test_full_space_coefficient_range_is_checked(self, tmp_path, capsys,
                                                     monkeypatch, name, value):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the space check")
        monkeypatch.setattr("touropt.gsa.simulate_batch", no_simulation)
        doc = {"sensitivity": {"morris_r": 2, "coefficients": {name: value}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, f"coefficients.{name}")
        assert not (tmp_path / "x").exists()

    def test_coefficient_space_may_be_negative_where_the_model_allows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "morris_r": 2, "space": {"eps_price": [-2, -0.1], "tax_rate": [0, 0.2]}}}))
        out = tmp_path / "s"
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert len(_read_csv(out / "morris_f1.csv")[1]) == 2

    def test_morris_nan_sample_is_numeric_failure_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "morris_r": 3, "space": {"tax_rate": [0, 1e308]}}}))
        out = tmp_path / "s"
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: NaN objective at sample {'tax_rate'")
        assert "6.666666666666667e+307" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("morris_r", "x"), ("sobol_n", "many"), ("sobol_n", 32.5),
        # the retired keys: refused as unknown whatever their value
        ("morris_levels", 4.5), ("bootstrap", None)])
    def test_non_integer_setting_is_config_error(self, tmp_path, capsys, key, value):
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"method": "sobol", key: value}}, key)

    def test_bootstrap_is_not_a_config_key(self, tmp_path, capsys, monkeypatch):
        # every S_T interval takes gsa._N_BOOT resamples
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the config was read")
        monkeypatch.setattr("touropt.gsa.simulate_batch", no_simulation)
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"method": "sobol", "bootstrap": 200}},
                             "unknown config keys ['sensitivity.bootstrap']")
        assert not (tmp_path / "x").exists()

    def test_empty_space_names_key(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"space": {}}},
                             "space must name at least one parameter")

    def test_huge_refused_value_is_cut_short(self, tmp_path, capsys):
        # a JSON integer of 401 digits, beyond any float
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sensitivity": {"space": {"tax_rate": [0, 1%s]}}}' % ("0" * 400))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "space.tax_rate must be a finite number, not 1000" in err
        assert err.rstrip().endswith("...") and len(err) < 200

    @pytest.mark.parametrize("key, value", [("method", "laplace"), ("output", "f4"),
                                            ("output", ["f1"]), ("method", ["f1"] * 100),
                                            ("output", ["f1"] * 100)])
    def test_bad_method_or_output_is_config_error(self, tmp_path, capsys, key, value):
        # output is a retired key, refused as unknown whatever its value
        err = _assert_config_error(tmp_path, capsys, "sensitivity",
                                   {"sensitivity": {key: value}}, key)
        assert len(err) < 200  # a long refused value is echoed cut short

    @pytest.mark.parametrize("doc, key", [
        ({"morris_r": 0}, "morris_r"),
        ({"morris_levels": 3}, "morris_levels"),  # a retired key, refused as unknown
        ({"method": "sobol", "sobol_n": 1}, "sobol_n"),
        # every size is checked, also those the chosen method does not read
        ({"sobol_n": 1}, "sobol_n"),
        ({"bootstrap": 0}, "bootstrap"),  # a retired key, refused as unknown
        ({"method": "sobol", "morris_r": 0}, "morris_r"),
        ({"method": "sobol", "morris_levels": 3}, "morris_levels"),  # retired
        # an integer beyond sys.maxsize
        ({"morris_r": 1e300}, "morris_r"),
        ({"morris_levels": 1e300}, "morris_levels"),  # retired
        ({"method": "sobol", "sobol_n": 1e300}, "sobol_n"),
    ])
    def test_out_of_range_size_names_key(self, tmp_path, capsys, doc, key):
        _assert_config_error(tmp_path, capsys, "sensitivity", {"sensitivity": doc}, key)

    _SETTING = st.one_of(st.integers(-2, 8), st.floats(-2.0, 8.0),
                         st.sampled_from(["", "4", "x", None, True]))

    @settings(max_examples=200, deadline=None, database=None)
    @example(method="sobol", morris_r=2, sobol_n=4)
    @given(method=st.sampled_from(["morris", "sobol"]),
           morris_r=_SETTING.filter(lambda v: not isinstance(v, (int, float)) or v <= 3),
           sobol_n=_SETTING)
    def test_fuzz_integer_settings(self, method, morris_r, sobol_n):
        doc = {"sensitivity": {"method": method, "space": "full",
                               "morris_r": morris_r, "sobol_n": sobol_n}}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["sensitivity", "--preset", "juneau", "--seed", "0",
                             "--config", str(cfg), "--out", str(Path(tmp) / "s")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 2:  # a bad setting is named by its config key
            assert any(key in err.getvalue() for key in ("morris_r", "sobol_n"))


def _sections(broken: bool) -> dict:
    """Per command, the keys every fuzzed document holds (so each run stays
    tiny) and the keys it may hold.  The values are numbers and names of the
    right kind, some out of range; when ``broken`` they also take values of
    the wrong kind (booleans are not numbers, names are strings), objects
    take unknown keys, and sections take the wrong shape."""
    def pick(good, bad):
        return st.sampled_from(good + bad if broken else good)

    num = st.one_of(st.floats(0.0, 1.0), pick([0, 1, 2.0], [-1, "x", None, True, [], {}]))
    name = pick(["A", "B", "A"], [3, True])

    def obj(fields, required=()):
        required = {k: fields[k] for k in required}
        optional = {k: v for k, v in fields.items() if k not in required}
        if broken:
            optional["warp"] = num
        entry = st.fixed_dictionaries(required, optional=optional)
        return st.one_of(entry, st.sampled_from([5, "x", [1]])) if broken else entry

    # a broken entry may lack its last field, which has no default
    site_fields = ("name", "env_index", "satisfaction", "visitors", "capacity",
                   "population", "price", "marketing")
    site = obj(dict.fromkeys(site_fields + ("co2",), num) | {"name": name},
               required=site_fields[:-1] if broken else site_fields)
    scenario_fields = ("name", "theta_env", "theta_infra", "theta_community",
                       "theta_marketing")
    scenario = obj(dict.fromkeys(scenario_fields, num) | {"name": name},
                   required=scenario_fields[:-1] if broken else scenario_fields)
    policy = obj(dict.fromkeys(("tax_rate", "capacity_limit", "carbon_fee",
                                "glacier_ratio"), num))
    if broken:
        policy = st.one_of(policy, st.lists(num, min_size=6, max_size=8))
    base = {"coefficients": obj(dict.fromkeys(("alpha", "delta", "k1"), num)),
            "column_map": obj({"yr": pick(["year", "V_base"], ["bar", 3])}),
            "column_defaults": obj({"population": num}
                                   | ({"nosuch": num} if broken else {}))}
    ea = obj({"population_size": pick([4, 4.0], [3, 6, "4", True]),
              "generations": pick([1, 1.0], [0, 1.5, "1", None])},
             required=("population_size", "generations"))
    return {
        "simulate": ({}, base | {"policy": policy}),
        "optimize": ({"ea": ea}, base),
        "sensitivity": (
            {"morris_r": pick([1, 2, 3], [0, "x", 2.5]),
             "sobol_n": pick([2, 4, 8], [1, None])},
            base | {"policy": policy,
                    "method": pick(["morris", "sobol"], ["laplace", 1]),
                    "space": st.one_of(
                        pick(["full", "policy", "policy_uncertainty"], ["x", 3]),
                        st.dictionaries(pick(["tax_rate", "kappa"], ["warp"]),
                                        st.lists(num, min_size=2, max_size=2),
                                        max_size=2))}),
        "scenario": ({}, base | {"policy": policy, "scenarios": st.one_of(
            pick(["default"], ["x", 4, []]),
            st.lists(scenario, min_size=1, max_size=2))}),
        "redistribute": (
            {"years": pick([[2024, 2025], [2024, 2026]],
                           [[2025, 2024], [2024], [True, 3], "2024"])},
            {"sites": st.one_of(pick(["iceland7"], ["x", []]),
                                st.lists(site, min_size=1, max_size=2)),
             "island_params": obj(dict.fromkeys(("phi", "a4", "delta"), num)),
             "schedule": pick(["constant", "redistribution"],
                              [3, {"Blue Lagoon": {"price": [1.0]}}])}),
        "synth": ({}, {}),
    }


_SECTIONS = {broken: _sections(broken) for broken in (False, True)}


def _key_paths(value, prefix=""):
    """Every key path in a config value: ``a``, ``a.b``, ``a[0]``, ..."""
    if isinstance(value, dict):
        for k, v in value.items():
            path = f"{prefix}.{k}" if prefix else k
            yield path
            yield from _key_paths(v, path)
    elif isinstance(value, list) and prefix:
        for i, v in enumerate(value):
            yield f"{prefix}[{i}]"
            yield from _key_paths(v, f"{prefix}[{i}]")


@st.composite
def _documents(draw):
    broken = draw(st.booleans())
    command = draw(st.sampled_from(sorted(_SECTIONS[broken])))
    always, maybe = _SECTIONS[broken][command]
    section = draw(st.fixed_dictionaries(always, optional=maybe))
    seed = draw(st.sampled_from([0, 1, 2.0] + ([-1, "x", None] if broken else [])))
    return command, {"common": {"seed": seed}, command: section}


class TestConfigDocumentFuzz:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_fuzz_covers_every_key_of_the_command(self, command):
        always, maybe = _SECTIONS[True][command]
        fuzzed = set(always) | set(maybe) | {"preset", "seed", "out"}
        if command in ("simulate", "optimize", "sensitivity", "scenario"):
            fuzzed.add("dataset")  # a file path: the dataset tests cover it
        assert fuzzed == {k for k, (_, _, commands) in cli._KEYS.items()
                          if command in commands}

    @settings(max_examples=300, deadline=None, database=None)
    @given(_documents())
    def test_fuzz_config_documents(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--preset", "juneau", "--config", str(cfg),
                             "--out", str(out)])
            written = [p.read_text() for p in out.glob("*")] if out.exists() else []
        message = err.getvalue()
        assert code in (0, 2, 3, 4), message
        assert "Traceback" not in message
        if code == 2:  # the message names a key path of the document
            paths = set(_key_paths(doc[command])) | set(_key_paths(doc["common"]))
            assert any(p in message for p in paths), message
        for text in written:
            assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text


class TestScenarioCommand:
    def test_default_four_scenarios(self, tmp_path):
        out = tmp_path / "sc"
        assert main(["scenario", "--preset", "juneau", "--seed", "0",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out / "scenario_timeseries.csv")
        assert header == ["scenario", "year", "variable", "value"]
        assert len({r[0] for r in rows}) == 4
        doc = json.loads((out / "scenario_summary.json").read_text())
        assert len(doc["scenarios"]) == 4

    def test_empty_scenario_list_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"scenarios": []}}))
        assert main(["scenario", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "sc")]) == 2

    def test_non_finite_result_is_numeric_failure_before_writing(self, tmp_path,
                                                                  capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"policy": {"tax_rate": 1e308}}}))
        out = tmp_path / "sc"
        assert main(["scenario", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_key_is_config_error(self, tmp_path, capsys):
        entry = {"name": "A", "theta_env": 1.0, "theta_infra": 0.0,
                 "theta_community": 0.0, "theta_marketing": 0.0, "warp": 1}
        _assert_config_error(tmp_path, capsys, "scenario",
                             {"scenario": {"scenarios": [entry]}}, "scenarios[0].warp")

    _SCENARIO = {"name": "A", "theta_env": 0.5, "theta_infra": 0.2,
                 "theta_community": 0.2, "theta_marketing": 0.1}

    @pytest.mark.parametrize("entry, key", [
        ({"theta_env": True}, "scenarios[0].theta_env"),
        ({"theta_env": 1.5}, "scenarios[0].theta_env"),
        ({"theta_infra": "x"}, "scenarios[0].theta_infra"),
        ({"name": 3}, "scenarios[0].name"),
        ({"theta_marketing": None}, "scenarios[0].theta_marketing")])
    def test_bad_scenario_entry_names_key(self, tmp_path, capsys, entry, key):
        scenario = {k: v for k, v in {**self._SCENARIO, **entry}.items() if v is not None}
        _assert_config_error(tmp_path, capsys, "scenario",
                             {"scenario": {"scenarios": [scenario]}}, key)

    def test_duplicate_scenario_name_is_config_error(self, tmp_path, capsys):
        twin = {**self._SCENARIO, "theta_env": 0.4, "theta_infra": 0.3}
        _assert_config_error(tmp_path, capsys, "scenario",
                             {"scenario": {"scenarios": [self._SCENARIO, twin]}},
                             "scenarios[1].name")

    def test_non_object_scenario_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "scenario",
                             {"scenario": {"scenarios": [self._SCENARIO, 3]}},
                             "scenarios[1] must be an object")

    def test_custom_scenarios(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"scenarios": [
            {"name": "All Env", "theta_env": 1.0, "theta_infra": 0.0,
             "theta_community": 0.0, "theta_marketing": 0.0}]}}))
        out = tmp_path / "sc"
        assert main(["scenario", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "scenario_summary.json").read_text())
        assert doc["scenarios"][0]["scenario"] == "All Env"


class TestRedistributeCommand:
    def test_iceland_ten_year_run(self, tmp_path):
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out / "flow_sites.csv")
        assert header == ["site", "year", "visitors", "env_index",
                          "satisfaction", "share"]
        assert len(rows) == 7 * 10
        doc = json.loads((out / "flow_final.json").read_text())
        assert doc["final_year"] == 2033
        assert sum(doc["shares"].values()) == pytest.approx(1.0)

    def test_custom_years(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {"years": [2024, 2026]}}))
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = _read_csv(out / "flow_sites.csv")
        assert len(rows) == 7 * 3

    @pytest.mark.parametrize("years", [[2024], [2024, 2026, 2028], "2024-2026",
                                       [2024, "x"], [True, 3], [2025, 2024],
                                       [-1e300, 2024], [-2 ** 62, 2 ** 62]])
    def test_bad_years_is_config_error(self, tmp_path, capsys, years):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"years": years}}, "years")

    @pytest.mark.parametrize("entry, key", [
        ({"price": 3}, "schedule.Blue Lagoon.price"),
        ({"price": ["x"]}, "schedule.Blue Lagoon.price"),
        ({"co2": [1.0, float("nan")]}, "schedule.Blue Lagoon.co2"),
        ({"warp": [1.0]}, "schedule.Blue Lagoon.warp"),
        ({"price": [1.0] * 8}, "schedule.Blue Lagoon.price"),  # 10 years need 9
        ({"marketing": [1.0, -1.0] + [1.0] * 7}, "schedule.Blue Lagoon.marketing"),
        ({"marketing": "222222222"}, "schedule.Blue Lagoon.marketing"),
        ({"price": [True] * 9}, "schedule.Blue Lagoon.price"),
        ({"co2": [1.0] * 9 + [None]}, "schedule.Blue Lagoon.co2"),  # past the years too
        ({"co2": [10 ** 400] * 9}, "schedule.Blue Lagoon.co2"),
        (None, "schedule.Blue Lagoon"),
        ([1.0] * 9, "schedule.Blue Lagoon"),
        (3, "schedule.Blue Lagoon")])
    def test_malformed_schedule_is_config_error(self, tmp_path, capsys, entry, key):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"schedule": {"Blue Lagoon": entry}}},
                             key)

    def test_schedule_for_unknown_site_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"schedule": {"Nowhere": {"price": [1.0] * 9}}}},
                             "schedule.Nowhere")

    def test_whole_float_years_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {"years": [2024.0, 2026]}}))
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "flow_final.json").read_text())["final_year"] == 2026

    def test_flow_overflow_in_the_year_loop_is_numeric_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {
            "years": [2024, 2025], "island_params": {"a3": 400.0},
            "schedule": {"Myvatn": {"marketing": [1e300]}}}}))
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: attractiveness exponent")
        assert not out.exists()

    def test_full_length_schedule_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {"years": [2024, 2026], "schedule": {
            "Myvatn": {"price": [1.5, 1.6]}}}}))
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0

    def test_unknown_island_param_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"island_params": {"warp": 1.0}}},
                             "warp")

    def test_non_numeric_island_param_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"island_params": {"phi": "x"}}},
                             "island_params.phi")

    def test_non_numeric_site_field_is_config_error(self, tmp_path, capsys):
        site = dict(name="A", env_index=0.8, satisfaction=0.7, visitors="x",
                    capacity=1e5, population=1e4, price=1.0, marketing=1.0)
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"sites": [site]}}, "sites[0].visitors")

    _SITE = dict(name="A", env_index=0.8, satisfaction=0.7, visitors=5e4,
                 capacity=1e5, population=1e4, price=1.0, marketing=1.0)

    @pytest.mark.parametrize("entry, key", [
        ({"capacity": -5}, "sites[0].capacity must be > 0"),
        ({"name": 5}, "sites[0].name must be a string"),
        ({"marketing": None}, "sites[0].marketing"),
        ({"visitors": 2e5}, "sites[0].visitors outside [0, capacity]"),
        ({"env_index": True}, "sites[0].env_index"),
        ({"warp": 1}, "sites[0].warp")])
    def test_bad_site_entry_names_key(self, tmp_path, capsys, entry, key):
        site = {k: v for k, v in {**self._SITE, **entry}.items() if v is not None}
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"sites": [site]}}, key)

    def test_duplicate_site_name_is_config_error(self, tmp_path, capsys):
        sites = [self._SITE, {**self._SITE, "name": "B"}, self._SITE]
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"sites": sites}}, "sites[2].name")

    def test_custom_sites_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {"years": [2024, 2025], "sites": [
            self._SITE, {**self._SITE, "name": "B", "co2": 10}]}}))
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "flow_final.json").read_text())
        assert sorted(doc["shares"]) == ["A", "B"]
        assert sum(doc["shares"].values()) == pytest.approx(1.0)

    def test_year_without_visitors_has_zero_shares(self, tmp_path):
        # no visitors at the start, and none arrive without a campaign boost
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"redistribute": {
            "years": [2024, 2025], "island_params": {"dev_boost": 0},
            "sites": [{**self._SITE, "visitors": 0}]}}))
        out = tmp_path / "f"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = _read_csv(out / "flow_sites.csv")
        assert [r[5] for r in rows] == ["0.0", "0.0"]
        assert json.loads((out / "flow_final.json").read_text())["shares"] == {"A": 0.0}

    @pytest.mark.parametrize("params, key", [
        ({"a4": -1}, "island_params.a4 must be >= 0"),
        ({"delta": True}, "island_params.delta"),
        ([1], "island_params must be an object")])
    def test_bad_island_param_names_key(self, tmp_path, capsys, params, key):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"island_params": params}}, key)

    @pytest.mark.parametrize("entry", [1, "A", None, [1, 2]])
    def test_non_object_site_is_config_error(self, tmp_path, capsys, entry):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"sites": [entry]}}, "sites")


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "d"
        assert main(["synth", "--preset", "iceland", "--seed", "3",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out / "dataset.csv")
        assert header[0] == "year" and len(rows) == 17

    def test_requires_preset(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d")]) == 2

    def test_seeds_past_2_to_53_stay_exact(self, tmp_path):
        # as floats both seeds would be 2**53, giving one stream
        bodies = []
        for seed in ("9007199254740992", "9007199254740993"):
            out = tmp_path / seed
            assert main(["synth", "--preset", "juneau", "--seed", seed,
                         "--out", str(out)]) == 0
            bodies.append([ln for ln in (out / "dataset.csv").read_text().splitlines()
                           if not ln.startswith("#")])
        assert bodies[0] != bodies[1]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--preset", "juneau", "--seed", "8",
                         "--out", str(out)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


class TestArtifactWriter:
    @pytest.mark.parametrize("command, doc, code, named", [
        ("simulate", {"common": {"out": 5}}, 2, "out must be a string"),
        ("simulate", {"common": {"out": None}}, 2, "out must be a string"),
        ("simulate", "out is a file", 2, "out "),
        ("sensitivity", {"sensitivity": {"space": {"tax_rate": [0, 1e300]}}}, 4,
         "in morris_f1.csv at parameter=tax_rate"),
        ("sensitivity", {"sensitivity": {"method": "sobol", "sobol_n": 64,
                                         "space": {"tax_rate": [0, 1e300]}}}, 4,
         "non-finite s1 in sobol_f1.csv at parameter=tax_rate"),
        ("simulate", "config is a directory", 2, "cfg.json"),
        ("simulate", b'{"simulate": "\x80"}', 2, "cfg.json"),
        ("simulate", "[" * 100_000 + "]" * 100_000, 2, "cfg.json"),
        # each size's first allocation is beyond any address space, so no host
        # can make it; the last three shapes are beyond what numpy can describe
        ("redistribute", {"redistribute": {"years": [2024, 2 ** 62]}}, 4,
         "years [2024, 4611686018427387904] spans too many years to hold"),
        ("sensitivity", {"sensitivity": {"morris_r": 10 ** 15}}, 4,
         "morris_r 1000000000000000 is too large to hold"),
        ("sensitivity", {"sensitivity": {"method": "sobol", "sobol_n": 10 ** 15}}, 4,
         "sobol_n 1000000000000000 is too large to hold"),
        ("optimize", {"optimize": {"ea": {"population_size": 10 ** 16}}}, 4,
         "ea.population_size 10000000000000000 is too large to hold"),
        ("sensitivity", {"sensitivity": {"morris_r": 10 ** 17}}, 4,
         "morris_r 100000000000000000 is too large to hold"),
        ("optimize", {"optimize": {"ea": {"population_size": 1e18}}}, 4,
         "ea.population_size 1000000000000000000 is too large to hold"),
        ("optimize", {"optimize": {"ea": {"population_size": 2 ** 61}}}, 4,
         "ea.population_size 2305843009213693952 is too large to hold"),
    ], ids=["out_number", "out_null", "out_is_a_file", "morris_overflow", "sobol_overflow",
            "config_is_a_directory", "config_not_utf8", "config_too_deep",
            "years_too_many", "morris_r_too_large", "sobol_n_too_large",
            "population_too_large", "morris_r_beyond_numpy", "population_beyond_numpy",
            "population_2_61_beyond_numpy"])
    def test_refusal_names_its_cause_and_writes_nothing(self, tmp_path, capsys,
                                                        monkeypatch, command, doc,
                                                        code, named):
        monkeypatch.chdir(tmp_path)  # the default out would land here
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        argv = [command, "--preset", "juneau", "--seed", "0", "--config", str(cfg)]
        if doc == "config is a directory":
            cfg.mkdir()
        elif isinstance(doc, bytes):
            cfg.write_bytes(doc)
        else:
            cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        if doc == "out is a file":
            cfg.write_text("{}")
            out.write_text("kept")
        if "out" not in (doc.get("common", {}) if isinstance(doc, dict) else {}):
            argv += ["--out", str(out)]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("config error:" if code == 2 else "numeric failure:"), err
        assert named in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before
        assert not out.is_dir()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "MemoryError"),
        (MemoryError("Unable to allocate 1.11 PiB"), "Unable to allocate 1.11 PiB")])
    def test_failed_allocation_is_numeric_failure(self, tmp_path, capsys, monkeypatch,
                                                  exc, message):
        def out_of_memory(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "redistribute", out_of_memory)
        out = tmp_path / "out"
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"numeric failure: {message}\n"
        assert not out.exists()

    def test_unwritable_file_is_config_error_naming_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "objectives.json").mkdir(parents=True)
        assert main(["simulate", "--preset", "juneau", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out {str(out)!r} cannot be written:")

    def test_json_non_finite_is_named_by_key_path(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(EvaluationError,
                           match=r"^non-finite value in b\.json at rows\[1\]\.f1$"):
            cli._write({"out": str(out)}, "simulate", {
                "a.csv": (["k", "x"], [["infra", 1.0]]),
                "b.json": {"n": 3, "rows": [{"f1": 1.0}, {"f1": math.nan}]}})
        assert not out.exists()

    def test_csv_non_finite_without_key_cells_is_named_by_row(self, tmp_path):
        with pytest.raises(EvaluationError, match=r"^non-finite y in a\.csv at row 2$"):
            cli._write({"out": str(tmp_path / "out")}, "simulate",
                       {"a.csv": (["x", "y"], [[1.0, 2.0], [3.0, -math.inf]])})

    def test_names_holding_inf_or_nan_are_written(self, tmp_path):
        out = tmp_path / "out"
        assert cli._write({"out": str(out), "seed": 0}, "simulate", {
            "a.csv": (["name", "x"], [["infra", 0.1], ["banana", 1e300]])}) == out
        assert (out / "a.csv").read_bytes().split(b"\n", 5)[-1] == (
            b"name,x\r\ninfra,0.1\r\nbanana,1e+300\r\n")

    @pytest.mark.parametrize("command, line", [
        ("simulate", "simulate: 17 years, wrote 2 files to"),
        ("scenario", "scenario: compared 4 scenarios, wrote 2 files to"),
        ("redistribute", "redistribute: 7 sites over 10 years, wrote 2 files to"),
        ("synth", "synth: 17 years, 0 warnings, wrote 1 file to")])
    def test_stdout_is_one_line(self, tmp_path, capsys, command, line):
        out = tmp_path / "out"
        assert main([command, "--preset", "juneau", "--seed", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{line} {out}\n"


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_main_runs_after_usage_error_and_version(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--seed", "x"])
        assert e.value.code == 2
        assert main(["synth", "--preset", "juneau", "--seed", "0",
                     "--out", str(tmp_path / "synth")]) == 0
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        with pytest.raises(SystemExit) as e:
            main(["warp"])
        assert e.value.code == 2
        assert main(["simulate", "--preset", "iceland", "--seed", "1",
                     "--out", str(tmp_path / "sim")]) == 0
        # no flag of an earlier call carries over: this one has no preset
        assert main(["simulate", "--seed", "0", "--out", str(tmp_path / "x")]) == 2
        assert "preset" in capsys.readouterr().err


# one bad value of each key of the data commands
_BAD_SETTINGS = {
    "preset": "atlantis", "seed": -1, "out": 3, "dataset": 3,
    "column_map": {"yr": "bar"}, "column_defaults": {"nosuch": 1.0},
    "coefficients": {"delta": -1.0}, "policy": {"tax_rate": -1},
    "ea": {"population_size": 3}, "space": {"bogus": [0, 1]},
    "method": "laplace", "morris_r": 0, "sobol_n": 1, "scenarios": [],
}


class TestConfigHandling:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command in ("simulate", "optimize", "sensitivity", "scenario")
        for key, (_, _, commands) in cli._KEYS.items() if command in commands])
    def test_settings_are_parsed_before_the_dataset_is_read(self, tmp_path, capsys,
                                                            command, key):
        # the section runs into its missing dataset (exit 3) unless one bad
        # setting is named first (exit 2)
        cfg, out = tmp_path / "cfg.json", tmp_path / "x"
        section = {"preset": "juneau", "seed": 0, "out": str(out),
                   "dataset": str(tmp_path / "ghost.csv")}
        for doc, code in ((section, 3), ({**section, key: _BAD_SETTINGS[key]}, 2)):
            cfg.write_text(json.dumps({command: doc}))
            assert main([command, "--config", str(cfg)]) == code
            err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command, path, value", [
        ("optimize", "ea.eta_c", 15.0), ("optimize", "ea.eta_m", 20.0),
        ("optimize", "ea.mutation_prob", None), ("optimize", "ea.crossover_prob", 0.9),
        ("optimize", "ea.hv_window", 10), ("optimize", "ea.hv_rel_tol", 1e-4),
        ("sensitivity", "sensitivity.morris_levels", 4),
        ("sensitivity", "sensitivity.uncertainty_rel", 0.2),
        ("sensitivity", "sensitivity.output", "all")])
    def test_retired_setting_is_an_unknown_key(self, tmp_path, capsys, monkeypatch,
                                               command, path, value):
        # eight settings are moea and gsa constants now, and every sensitivity
        # run reports f1..f3: even the value that was a setting's default is
        # refused, before anything runs
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the config was read")
        monkeypatch.setattr("touropt.cli.simulate_batch", no_simulation)
        monkeypatch.setattr("touropt.gsa.simulate_batch", no_simulation)
        section, key = path.split(".")
        doc = {command: {"ea": {key: value}} if section == "ea" else {key: value}}
        _assert_config_error(tmp_path, capsys, command, doc,
                             f"config error: unknown config keys [{path!r}]")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("first, second", [
        ({"morris_r": 0}, {"sobol_n": 1}),
        ({"coefficients": {"delta": -1.0}}, {"space": {"bogus": [0, 1]}}),
        ({"space": {"bogus": [0, 1]}}, {"method": "laplace"}),
        ({"policy": {"tax_rate": -1}}, {"sobol_n": 1})])
    def test_of_two_bad_settings_the_earlier_in_table_order_is_named(
            self, tmp_path, capsys, first, second):
        (key,), (later,) = first, second
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {**second, **first}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert key in err and later not in err, err

    def test_non_string_preset_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"preset": ["x"]}}))
        assert main(["simulate", "--seed", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "preset" in err

    @pytest.mark.parametrize("command, key", [
        ("simulate", "preset"), ("redistribute", "preset"), ("synth", "preset"),
        ("simulate", "dataset"), ("simulate", "policy")])
    def test_null_is_a_value_the_key_refuses(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: {key: None}}))
        flags = [] if key == "preset" else ["--preset", "juneau"]
        assert main([command, *flags, "--seed", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    def test_non_object_column_map_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("year,V_base\n2008,1\n")
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": str(data), "column_map": 3}},
                             "column_map")

    @pytest.mark.parametrize("defaults, key", [
        (3, "column_defaults"),
        ({"unemployment": "x"}, "column_defaults.unemployment"),
        ({"nosuch": 1}, "column_defaults.nosuch"),
        ({"year": 2008}, "column_defaults.year")])
    def test_malformed_column_defaults_is_config_error(self, tmp_path, capsys,
                                                       defaults, key):
        data = tmp_path / "d.csv"
        data.write_text("year,V_base\n2008,1\n")
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": str(data),
                                           "column_defaults": defaults}}, key)

    @pytest.mark.parametrize("column_map, key", [
        ({"foo": "bar"}, "column_map.foo"), ({"year": 3}, "column_map.year")])
    def test_unknown_column_map_target_is_config_error(self, tmp_path, capsys,
                                                       column_map, key):
        data = tmp_path / "d.csv"
        data.write_text("year,V_base\n2008,1\n")
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": str(data), "column_map": column_map}},
                             key)

    def test_column_map_renames_year_and_series(self, tmp_path):
        synth = tmp_path / "s"
        assert main(["synth", "--preset", "juneau", "--seed", "1",
                     "--out", str(synth)]) == 0
        text = (synth / "dataset.csv").read_text()
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(text.replace("year,V_base,", "Yr,Visits,", 1))
        assert "Yr,Visits," in renamed.read_text()
        bodies = []
        for data, extra in ((synth / "dataset.csv", {}),
                            (renamed, {"column_map": {"Yr": "year", "Visits": "V_base"}})):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"simulate": {"dataset": str(data), **extra}}))
            out = tmp_path / data.stem
            assert main(["simulate", "--preset", "juneau", "--seed", "0",
                         "--config", str(cfg), "--out", str(out)]) == 0
            bodies.append(_read_csv(out / "trajectory.csv"))
        assert bodies[0] == bodies[1]

    def test_invalid_json_is_config_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--preset", "juneau", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["simulate", "--preset", "juneau",
                     "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_unknown_policy_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"policy": {"magic": 1.0}}}))
        assert main(["simulate", "--preset", "juneau", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("capacity_limit", -5), ("tax_rate", "x"), ("carbon_fee", None),
        ("ship_limit", "inf"), ("env_ratio", "nan"), ("tax_rate", 10 ** 400)])
    def test_bad_policy_value_is_config_error(self, tmp_path, capsys, field, value):
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"policy": {field: value}}},
                             f"policy.{field}")

    def test_bad_policy_list_entry_is_config_error(self, tmp_path, capsys):
        # a policy is a field map only; a list of the seven levers is refused
        policy = [0.1, 0.2, 0.5, 2e6, 700.0, 10.0, 0.5]
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"policy": policy}}, "policy must be an object")

    def test_non_numeric_coefficient_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"coefficients": {"alpha": "x"}}},
                             "coefficients.alpha")

    def test_non_object_document_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "simulate", "[1, 2]", "JSON object")

    @pytest.mark.parametrize("section", ["simulate", "common"])
    def test_non_object_section_is_config_error(self, tmp_path, capsys, section):
        _assert_config_error(tmp_path, capsys, "simulate", {section: 5},
                             repr(section))

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @pytest.mark.parametrize("seed", ["x", 1.7, [1], -2, 1e300, 2 ** 64, None])
    def test_bad_config_seed_is_config_error(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"seed": seed}}))
        assert main([command, "--preset", "juneau", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be")

    @pytest.mark.parametrize("command, doc, key", [
        ("simulate", {"simulate": {"seed": True}}, "seed"),
        ("optimize", {"optimize": {"seed": 0, "ea": {"generations": True}}},
         "ea.generations"),
        # a retired key: refused as unknown whatever its value
        ("optimize", {"optimize": {"seed": 0, "ea": {"mutation_prob": False}}},
         "ea.mutation_prob"),
        ("simulate", {"simulate": {"policy": {"tax_rate": False}}}, "policy.tax_rate"),
        ("simulate", {"simulate": {"coefficients": {"alpha": True}}}, "coefficients.alpha"),
        ("sensitivity", {"sensitivity": {"seed": 0, "morris_r": True}}, "morris_r")])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--preset", "juneau", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_integral_float_seed_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"seed": 2.0}}))
        out = tmp_path / "x"
        assert main(["synth", "--preset", "juneau", "--config", str(cfg),
                     "--out", str(out)]) == 0
        ref = tmp_path / "ref"
        assert main(["synth", "--preset", "juneau", "--seed", "2",
                     "--out", str(ref)]) == 0
        body = [ln for ln in (out / "dataset.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert body == [ln for ln in (ref / "dataset.csv").read_text().splitlines()
                        if not ln.startswith("#")]

    @pytest.mark.parametrize("command, doc, key", [
        ("sensitivity", {"sensitivity": {"foo": 1, "morris_r": 2}}, "sensitivity.foo"),
        ("simulate", {"simulate": {"synthetic": True}}, "simulate.synthetic"),
        ("simulate", {"simulate": {"morris_r": 2}}, "simulate.morris_r"),
        ("optimize", {"optimize": {"populaton_size": 4}}, "optimize.populaton_size"),
        ("scenario", {"scenario": {"scenario": "default"}}, "scenario.scenario"),
        ("redistribute", {"redistribute": {"dataset": "x.csv"}}, "redistribute.dataset"),
        ("synth", {"synth": {"policy": {}}}, "synth.policy"),
        ("simulate", {"common": {"sead": 1}}, "common.sead")])
    def test_unknown_section_key_is_config_error(self, tmp_path, capsys, command,
                                                 doc, key):
        _assert_config_error(tmp_path, capsys, command, doc, key)

    def test_common_holds_keys_of_other_commands(self, tmp_path):
        # keys the command does not read change nothing, its config hash included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"morris_r": 2, "ea": {}},
                                   "sensitivity": {"foo": 1}}))
        assert main(["simulate", "--preset", "juneau", "--config", str(cfg),
                     "--seed", "0", "--out", str(tmp_path / "x")]) == 0
        assert main(["simulate", "--preset", "juneau", "--seed", "0",
                     "--out", str(tmp_path / "ref")]) == 0
        assert ((tmp_path / "x" / "trajectory.csv").read_bytes()
                == (tmp_path / "ref" / "trajectory.csv").read_bytes())

    def test_negative_seed_is_config_error(self, tmp_path):
        assert main(["simulate", "--preset", "juneau", "--seed", "-3",
                     "--out", str(tmp_path / "x")]) == 2

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"preset": "iceland"}}))
        out = tmp_path / "x"
        assert main(["simulate", "--preset", "juneau", "--config", str(cfg),
                     "--seed", "0", "--out", str(out)]) == 0
        meta = "".join(_meta_lines(out / "trajectory.csv"))
        assert "juneau" in meta
