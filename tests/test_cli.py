import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from touropt import cli
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

    @pytest.mark.parametrize("gens, window, reason", [
        (3, 10, "generation_cap"), (60, 1, "hv_plateau")])
    def test_stdout_names_stop_reason(self, tmp_path, capsys, gens, window, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8, "generations": gens, "hv_window": window,
            "hv_rel_tol": 0.5}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert f"generations, stopped by {reason}," in capsys.readouterr().out

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
        ({"hv_rel_tol": -1}, "hv_rel_tol"),
        (5, "ea"),
        ({"eta_c": 0}, "ea.eta_c must be > 0"),
        ({"eta_m": -1.0}, "ea.eta_m must be > 0"),
        ({"population_size": 6.0, "generations": 0}, "ea.generations"),
        ({"seed": 1}, "ea.seed"),  # the seed is --seed or the section's seed
        ({"reference_point": [1, 2, 3]}, "ea.reference_point")])
    def test_bad_ea_entry_is_config_error(self, tmp_path, capsys, ea, key):
        _assert_config_error(tmp_path, capsys, "optimize",
                             {"optimize": {"ea": ea}}, key)

    def test_integral_floats_and_null_mutation_prob_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8.0, "generations": 1, "mutation_prob": None}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("gens, window, reason", [
        (3, 10, "generation_cap"), (60, 1, "hv_plateau")])
    def test_stdout_names_stop_reason(self, tmp_path, capsys, gens, window, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8, "generations": gens, "hv_window": window,
            "hv_rel_tol": 0.5}}}))
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

    @pytest.mark.parametrize("name, bounds", [("kappa", [0.1, 0.1]),
                                              ("kappa", [0.3, 0.1]),
                                              ("tax_rate", [0.2, 0.2])])
    def test_empty_space_range_names_key(self, tmp_path, capsys, name, bounds):
        space = {"tax_rate": [0, 0.2], "kappa": [0.1, 0.3], name: bounds}
        _assert_config_error(tmp_path, capsys, "sensitivity",
                             {"sensitivity": {"space": space}}, f"space.{name}")

    @pytest.mark.parametrize("rel", [-1, 0, 0.0])
    def test_non_positive_uncertainty_rel_names_key(self, tmp_path, capsys, rel):
        doc = {"sensitivity": {"space": "policy_uncertainty", "uncertainty_rel": rel}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, "uncertainty_rel")

    @pytest.mark.parametrize("value", [0, 50])  # a zero box, a box above the bounds
    def test_empty_uncertainty_range_names_policy_key(self, tmp_path, capsys, value):
        doc = {"sensitivity": {"space": "policy_uncertainty",
                               "policy": {"tax_rate": value}}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, "policy.tax_rate")

    def test_tiny_uncertainty_rel_names_key(self, tmp_path, capsys):
        # 0.12 * (1 -+ 1e-300) rounds to 0.12 at both ends
        doc = {"sensitivity": {"space": "policy_uncertainty", "uncertainty_rel": 1e-300}}
        _assert_config_error(tmp_path, capsys, "sensitivity", doc, "uncertainty_rel = 1e-300")

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
              "generations": pick([1, 1.0], [0, 1.5, "1", None]),
              "eta_c": num, "eta_m": num, "mutation_prob": num,
              "crossover_prob": num, "hv_window": pick([1, 2], [0, 1.5]),
              "hv_rel_tol": num}, required=("population_size", "generations"))
    return {
        "simulate": ({}, base | {"policy": policy}),
        "optimize": ({"ea": ea}, base),
        "sensitivity": (
            {"morris_r": pick([1, 2, 3], [0, "x", 2.5]),
             "sobol_n": pick([2, 4, 8], [1, None]),
             "bootstrap": pick([1, 5], [0, True])},
            base | {"policy": policy,
                    "method": pick(["morris", "sobol"], ["laplace", 1]),
                    "morris_levels": pick([4, 6], [3, 4.5]),
                    "output": pick(["all", "f2"], ["f4", ["f1"]]),
                    "uncertainty_rel": num,
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
                                       [2024, "x"], [True, 3], [2025, 2024]])
    def test_bad_years_is_config_error(self, tmp_path, capsys, years):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"years": years}}, "years")

    @pytest.mark.parametrize("entry, key", [
        ({"price": 3}, "schedule.Blue Lagoon.price"),
        ({"price": ["x"]}, "schedule.Blue Lagoon.price"),
        ({"co2": [1.0, float("nan")]}, "schedule.Blue Lagoon.co2"),
        ({"warp": [1.0]}, "schedule.Blue Lagoon.warp"),
        ({"price": [1.0] * 8}, "schedule.Blue Lagoon.price"),  # 10 years need 9
        (3, "schedule.Blue Lagoon")])
    def test_malformed_schedule_is_config_error(self, tmp_path, capsys, entry, key):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"schedule": {"Blue Lagoon": entry}}},
                             key)

    def test_schedule_for_unknown_site_is_config_error(self, tmp_path, capsys):
        _assert_config_error(tmp_path, capsys, "redistribute",
                             {"redistribute": {"schedule": {"Nowhere": {"price": [1.0] * 9}}}},
                             "schedule.Nowhere")

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

    @pytest.mark.parametrize("gens, window, reason", [
        (3, 10, "generation_cap"), (60, 1, "hv_plateau")])
    def test_stdout_names_stop_reason(self, tmp_path, capsys, gens, window, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimize": {"ea": {
            "population_size": 8, "generations": gens, "hv_window": window,
            "hv_rel_tol": 0.5}}}))
        assert main(["optimize", "--preset", "juneau", "--seed", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert f"generations, stopped by {reason}," in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--preset", "juneau", "--seed", "8",
                         "--out", str(out)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()


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

    @pytest.mark.parametrize("command, doc, key", [
        ("simulate", {"simulate": {"seed": True}}, "seed"),
        ("optimize", {"optimize": {"seed": 0, "ea": {"generations": True}}},
         "ea.generations"),
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
