"""Golden artifact hashes: a change to any result byte fails here.

The sha256s were recorded from small ``optimize`` runs (20 x 8) and small
``sensitivity`` runs (Sobol at n = 64, Morris at r = 4); a change in the
front, its order, the hypervolume log, an index table or the file format
shows up as a hash mismatch.  Re-record them only for a declared
behaviour change.
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
