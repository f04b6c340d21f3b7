"""Golden artifact hashes: a change to any result byte fails here.

The sha256s were recorded from small ``optimize`` runs (20 x 8), small
``sensitivity`` runs (Sobol at n = 64, Morris at r = 4), the screen
workload's Sobol run over the full space at n = 512, and the
``simulate``, ``scenario``, ``redistribute`` and ``synth`` commands at
their defaults; a change in the front, its order, the hypervolume log, an
index table, a trajectory, a scenario or flow series, a synthetic dataset
or the file format shows up as a hash mismatch.  Re-record them only for
a declared behaviour change.
"""

import hashlib
import json

import pytest

from touropt.cli import main

OPTIMIZE_GOLDEN = {
    ("juneau", 1): {
        "pareto_front.csv":
            "9d488650361871a50fafb43c4dbfd60c3136a7152617c170dff1f22c665193a8",
        "hypervolume.csv":
            "2ba70edea6220a2af3d6cb1b1b9a185bc5e1efa1dd55c167846f383f963d3b59",
        "pareto_bubble.json":
            "d6fc92f21443588e4f9c7ca6a70b95bee4e760a5bd0dfbc28d6afcec38b36190",
    },
    ("iceland", 2): {
        "pareto_front.csv":
            "f66a6c837c3f69f0fbb35fc7900d7b2550b7834c0b88d35315bdd8c7c519416a",
        "hypervolume.csv":
            "062cb5dd6721f5ef3340d605e35c2ec2bdd06c2f3bc6ad81bc2633d10890322f",
        "pareto_bubble.json":
            "3a8a1f478f3cd14fb87fc352f5ff1a21bf545b1a06e5fe7e96c5b6db4630cbbb",
    },
}


@pytest.mark.parametrize("preset, seed", sorted(OPTIMIZE_GOLDEN))
def test_optimize_artifacts_pinned(tmp_path, preset, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"optimize": {"ea": {"population_size": 20, "generations": 8}}}))
    out = tmp_path / "o"
    assert main(["optimize", "--preset", preset, "--seed", str(seed),
                 "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in OPTIMIZE_GOLDEN[(preset, seed)]}
    assert got == OPTIMIZE_GOLDEN[(preset, seed)]


SENSITIVITY_GOLDEN = {
    ("juneau", 3, "sobol"): {
        "sobol_f1.csv":
            "883c0827ddd3d096f7683ba9facbc6905b28e879344dababa60a17d19745c694",
        "sobol_f2.csv":
            "9798a92107a7518726eca910484078df86f0afacd6eefbece60ec9d1fc941475",
        "sobol_f3.csv":
            "3fdeaf10fa39fd185811bf56b3638c1664b8f32d1b789e5a0d29ca66d40b73d3",
        "sensitivity_matrix.json":
            "474849016733060770aa8ac1aed1e3547ce3649aa85b55dd7baa6719d3c10c3e",
    },
    ("juneau", 3, "morris"): {
        "morris_f1.csv":
            "24a9a213cc4445ce1b1999bbd1c84fdd3e55ed5935b762a28a3ee98e4104199e",
        "morris_f2.csv":
            "a506ab6b0b01e43cfe8d190262f0d781e8b76b2032cc132569d590d7efead799",
        "morris_f3.csv":
            "b9869e225e451a52b2444f007f27cb073b704aad221a81c53e17c81f11f46b6b",
        "sensitivity_matrix.json":
            "f1da00578e6bf263d240c6e025d3e0ea55c2d51a00d5a9ffec698acaf209de23",
    },
    ("iceland", 4, "sobol"): {
        "sobol_f1.csv":
            "50d18649150076fd8cacdb618365ed04fc50e05230e7d93425257b91445bf932",
        "sobol_f2.csv":
            "3b8facfbd8ac700a53fed1efe9c79cd8868bbc09c07dd47923081b515738985c",
        "sobol_f3.csv":
            "488643dadb8790c892e4a14b3e06c4610650b947a2ec5051bda81de1e58efc75",
        "sensitivity_matrix.json":
            "0b145da896bb101c11e0a2015c62d86b414a5c4b61e579fea897aa78cadb7e45",
    },
    ("iceland", 4, "morris"): {
        "morris_f1.csv":
            "323a691fa787a7858b93ae1b5d701e002ce1f6f35cb044414cc5004735076aec",
        "morris_f2.csv":
            "cffc2451080187cc5873274ec363160248e0164a468b45b65002979e1ef8fc76",
        "morris_f3.csv":
            "0e9bbd10d79ff12b026b121c1db8d4b778fb3cba280c9f81dc6e8c1d5fc854c0",
        "sensitivity_matrix.json":
            "19d8bb012dd2832a8ac5acbb36d0e738de27895d3c9db4424259b32e377ceb1d",
    },
}
SENSITIVITY_SIZE = {"sobol": {"sobol_n": 64}, "morris": {"morris_r": 4}}


@pytest.mark.parametrize("preset, seed, method", sorted(SENSITIVITY_GOLDEN))
def test_sensitivity_artifacts_pinned(tmp_path, preset, seed, method):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"sensitivity": {"method": method, **SENSITIVITY_SIZE[method]}}))
    out = tmp_path / "o"
    assert main(["sensitivity", "--preset", preset, "--seed", str(seed),
                 "--config", str(cfg), "--out", str(out)]) == 0
    want = SENSITIVITY_GOLDEN[(preset, seed, method)]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want


# the screen workload's configuration: four 128-value leaves per sum, so
# the bootstrap's means go through the multi-leaf summation tree
SCREEN_CONFIG = {"method": "sobol", "space": "full", "sobol_n": 512}
SCREEN_GOLDEN = {
    ("juneau", 5): {
        "sobol_f1.csv":
            "8ea37ad0c388d87cdae41b78b21edd478053447a746fd769a4612009990d5414",
        "sobol_f2.csv":
            "a5b09e7a4480c6aefa8d842214a718a559645e5a2ceb2aa6d47cb9a0bc22ab65",
        "sobol_f3.csv":
            "cd917d413775878ac760a7ea5cb9110379fea7987b1eb478fa5c1584d38dfbb9",
        "sensitivity_matrix.json":
            "b41dc239077d90b47da4b2b38a8fa1fbf71370cff5a925b5d84b246a04700c13",
    },
    ("iceland", 5): {
        "sobol_f1.csv":
            "8670f587dd2db2cb65a7a308391bb0dcf55f3bfafbb8aee1c142b2c3afe068e3",
        "sobol_f2.csv":
            "8917734e677e57a06e43a5609ba8286e75ce4c9c5d58885652d2b74d1cef605d",
        "sobol_f3.csv":
            "e58c49a03c60399d1d8343adbfb5588e415c4e3c9bbd916ec79723ed7f1e4af9",
        "sensitivity_matrix.json":
            "262095115ea7e1b98fae476e9c06ff7e059892692c086d780a88198393fd6895",
    },
}


@pytest.mark.parametrize("preset, seed", sorted(SCREEN_GOLDEN))
def test_screen_artifacts_pinned(tmp_path, preset, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sensitivity": SCREEN_CONFIG}))
    out = tmp_path / "o"
    assert main(["sensitivity", "--preset", preset, "--seed", str(seed),
                 "--config", str(cfg), "--out", str(out)]) == 0
    want = SCREEN_GOLDEN[(preset, seed)]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want


DESK_GOLDEN = {
    ("simulate", "juneau", 1): {
        "objectives.json":
            "7301881f551fdc888f967eb4c34176457cf9fc89eb4c766fb1faa53b2dc70d6e",
        "trajectory.csv":
            "05eff8fadf289cd9f90946aa7c57d4f69237216792d42e4b2b71497f350c1f36",
    },
    ("simulate", "iceland", 2): {
        "objectives.json":
            "0f867fee694c91dec3044b49949fe55d93e79ff47d5c3b6124eaccd42258b80f",
        "trajectory.csv":
            "8d3e9e15f924e8938a1da59659c7ba31f642ec32387fa4c885e3d14a0903958e",
    },
    ("scenario", "juneau", 1): {
        "scenario_summary.json":
            "f2599650f1b007f4f5a5642317f4a2774a20b8acd02906ac9fc1f6508412a8df",
        "scenario_timeseries.csv":
            "ac4446cdc78ffb0c24bc793856b60c8bf10f82e1e6da16c9b36d640fee46e479",
    },
    ("scenario", "iceland", 2): {
        "scenario_summary.json":
            "ba062d55eb866045d873914100403b35529c90f0cd22e09d14c89afcf474ffc2",
        "scenario_timeseries.csv":
            "485a893bd870faf068849cb8d5814c8e3c5cbba4868878705f3b69388ac7f753",
    },
    ("redistribute", "juneau", 1): {
        "flow_final.json":
            "fccbff3bdb970f713b709a3a29b7f8749875a6ec1c842afa4b4bdbc5e1e49727",
        "flow_sites.csv":
            "6360975726f7a9dbc893eba292fb23a1de354345c468e7e699e2cb968fdd2187",
    },
    ("redistribute", "iceland", 2): {
        "flow_final.json":
            "63e347870a7d124eaae308256d07d4149e415eb83e120602f2c1f0c1cc2c30b1",
        "flow_sites.csv":
            "1e0e1eb436b2708ffbbcc0c22c90c0c3773f191d6a61fbe5c067a5afb452e7e6",
    },
    ("synth", "juneau", 1): {
        "dataset.csv":
            "753823a87a8c4765b5c262ace0a21ab876b4145d58a339c4308f0dfadb11f124",
    },
    ("synth", "iceland", 2): {
        "dataset.csv":
            "b1e1fa7f0c4ad5f9bf3a1ee2c979fb8d80473d4baeb288f0e225a740a7e2ee2b",
    },
}

@pytest.mark.parametrize("command, preset, seed", sorted(DESK_GOLDEN))
def test_desk_artifacts_pinned(tmp_path, command, preset, seed):
    out = tmp_path / "o"
    assert main([command, "--preset", preset, "--seed", str(seed),
                 "--out", str(out)]) == 0
    want = DESK_GOLDEN[(command, preset, seed)]
    assert sorted(p.name for p in out.iterdir()) == sorted(want)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in want}
    assert got == want
