import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from touropt.cli import main
from touropt.gsa import full_space

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

    @pytest.mark.parametrize("ea, key", [
        ({"populaton_size": 4}, "ea.populaton_size"),
        ({"mutation_prob": "x"}, "ea.mutation_prob"),
        ({"generations": 1.7}, "ea.generations"),
        ({"population_size": "many"}, "ea.population_size"),
        ({"hv_window": 2.5}, "ea.hv_window"),
        ({"eta_c": float("inf")}, "ea.eta_c"),
        (5, "ea")])
    def test_bad_ea_entry_is_config_error(self, tmp_path, capsys, ea, key):
        _assert_config_error(tmp_path, capsys, "optimize",
                             {"optimize": {"ea": ea}}, key)

    def test_integral_floats_and_null_mutation_prob_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8.0, "generations": 1, "mutation_prob": None}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

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
            "method": "sobol", "output": "f1", "space": "policy",
            "sobol_n": 32, "bootstrap": 20}}))
        assert main(["sensitivity", "--preset", "juneau", "--seed", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sobol_f1.csv")
        assert header == ["parameter", "s1", "st", "ci_low", "ci_high"]
        assert len(rows) == 7
        for r in rows:
            assert float(r[3]) <= float(r[2]) <= float(r[4])

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
                               "bootstrap": 2, "space": {name: bounds}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, f"space.{name}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", ["morris", "sobol"])
    def test_unknown_space_name_is_config_error(self, tmp_path, capsys, method):
        # rejected before sampling, not by simulate_batch's ValueError (exit 4)
        doc = {"sensitivity": {"method": method, "morris_r": 2, "sobol_n": 4,
                               "bootstrap": 2,
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
        ("morris_r", "x"), ("morris_levels", 4.5), ("sobol_n", "many"),
        ("bootstrap", None), ("sobol_n", 32.5)])
    def test_non_integer_setting_is_config_error(self, tmp_path, capsys, key, value):
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"method": "sobol", key: value}}, key)

    @pytest.mark.parametrize("n_boot", [0, -1])
    def test_no_bootstrap_resamples_is_config_error(self, tmp_path, capsys,
                                                    monkeypatch, n_boot):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the bootstrap check")
        monkeypatch.setattr("touropt.gsa.simulate_batch", no_simulation)
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"method": "sobol", "space": "full",
                                              "sobol_n": 16, "bootstrap": n_boot}},
                             "bootstrap")

    def test_one_bootstrap_resample_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensitivity": {
            "method": "sobol", "space": "full", "sobol_n": 16, "bootstrap": 1}}))
        out = tmp_path / "s"
        assert main(["sensitivity", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "sobol_f1.csv")
        assert len(rows) == 12
        assert all(r[3] == r[2] == r[4] for r in rows)  # one resample: zero width

    @pytest.mark.parametrize("key, value", [("method", "laplace"), ("output", "f4"),
                                            ("output", ["f1"])])
    def test_bad_method_or_output_is_config_error(self, tmp_path, capsys, key, value):
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {key: value}}, key)

    @pytest.mark.parametrize("doc, key", [
        ({"morris_r": 0}, "morris_r"),
        ({"morris_levels": 3}, "morris_levels"),
        ({"method": "sobol", "sobol_n": 1}, "sobol_n"),
    ])
    def test_out_of_range_size_names_key(self, tmp_path, capsys, doc, key):
        _assert_config_error(tmp_path, capsys, "sensitivity", {"sensitivity": doc}, key)

    _SETTING = st.one_of(st.integers(-2, 8), st.floats(-2.0, 8.0),
                         st.sampled_from(["", "4", "x", None, True]))

    @settings(max_examples=200, deadline=None, database=None)
    @example(method="sobol", morris_r=2, morris_levels=4, sobol_n=4, bootstrap=0)
    @given(method=st.sampled_from(["morris", "sobol"]),
           morris_r=_SETTING.filter(lambda v: not isinstance(v, (int, float)) or v <= 3),
           morris_levels=_SETTING, sobol_n=_SETTING,
           bootstrap=_SETTING.filter(lambda v: not isinstance(v, (int, float)) or v <= 5))
    def test_fuzz_integer_settings(self, method, morris_r, morris_levels, sobol_n,
                                   bootstrap):
        doc = {"sensitivity": {"method": method, "space": "full",
                               "morris_r": morris_r, "morris_levels": morris_levels,
                               "sobol_n": sobol_n, "bootstrap": bootstrap}}
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
            assert any(key in err.getvalue() for key in
                       ("morris_r", "morris_levels", "sobol_n", "bootstrap"))


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
                                       [2024, "x"], [True, 3]])
    def test_bad_years_is_config_error(self, tmp_path, capsys, years):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"years": years}}, "years")

    @pytest.mark.parametrize("entry, key", [
        ({"price": 3}, "schedule.Blue Lagoon.price"),
        ({"price": ["x"]}, "schedule.Blue Lagoon.price"),
        ({"co2": [1.0, float("nan")]}, "schedule.Blue Lagoon.co2"),
        ({"warp": [1.0]}, "schedule.Blue Lagoon.warp"),
        (3, "schedule.Blue Lagoon")])
    def test_malformed_schedule_is_config_error(self, tmp_path, capsys, entry, key):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"schedule": {"Blue Lagoon": entry}}},
                             key)

    def test_short_schedule_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"redistribute": {"schedule": {"Blue Lagoon": {"price": [1.0]}}}}))
        assert main(["redistribute", "--preset", "iceland", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "f")]) == 3
        assert "too short" in capsys.readouterr().err

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
                             {"redistribute": {"sites": [site]}}, "sites.visitors")

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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--preset", "juneau", "--seed", "8",
                         "--out", str(out)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


class TestConfigHandling:
    def test_non_string_preset_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"preset": ["x"]}}))
        assert main(["simulate", "--seed", "0", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "preset" in err

    def test_non_object_column_map_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("year,V_base\n2008,1\n")
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": str(data), "column_map": 3}},
                             "column_map")

    @pytest.mark.parametrize("defaults, key", [
        (3, "column_defaults"),
        ({"unemployment": "x"}, "column_defaults.unemployment")])
    def test_malformed_column_defaults_is_config_error(self, tmp_path, capsys,
                                                       defaults, key):
        data = tmp_path / "d.csv"
        data.write_text("year,V_base\n2008,1\n")
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"dataset": str(data),
                                           "column_defaults": defaults}}, key)

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
        ("ship_limit", "inf"), ("env_ratio", "nan")])
    def test_bad_policy_value_is_config_error(self, tmp_path, capsys, field, value):
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"policy": {field: value}}},
                             f"policy.{field}")

    def test_bad_policy_list_entry_is_config_error(self, tmp_path, capsys):
        policy = [0.1, 0.2, 0.5, 2e6, -700.0, 10.0, 0.5]
        _assert_config_error(tmp_path, capsys, "simulate",
                             {"simulate": {"policy": policy}}, "policy.ship_limit")

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

    @pytest.mark.parametrize("command", ["sensitivity", "synth", "redistribute"])
    @pytest.mark.parametrize("seed", ["x", 1.7, [1], -2])
    def test_bad_config_seed_is_config_error(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"seed": seed}}))
        assert main([command, "--preset", "juneau", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" in err

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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"common": {"morris_r": 2, "ea": {}},
                                   "sensitivity": {"foo": 1}}))
        assert main(["simulate", "--preset", "juneau", "--config", str(cfg),
                     "--seed", "0", "--out", str(tmp_path / "x")]) == 0

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
