"""Golden artifact hashes: a change to any result byte fails here.

The sha256s were recorded from small ``optimize`` runs (20 x 8); a change
in the front, its order, the hypervolume log or the file format shows up
as a hash mismatch.  Re-record them only for a declared behaviour change.
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
