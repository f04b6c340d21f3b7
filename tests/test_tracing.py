"""The benchmark's span table must name functions that still exist, and
its counters must read the results those functions return.

``bench/tracing.py`` patches each ``WRAPS`` entry's ``(owner, attribute)``
in a traced run; a refactor that renames or drops one of them, or changes
a result a counter reads, would only fail there.  The file is read and
executed here without importing it as a module, so nothing is written
next to it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from touropt.moea import EAConfig, evolve

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner, attribute, span, counter", tracing.WRAPS,
                         ids=[f"{o}.{a}" for o, a, _, _ in tracing.WRAPS])
def test_wrapped_name_resolves(owner, attribute, span, counter):
    target = getattr(tracing.resolve_owner(owner), attribute, None)
    assert callable(target), f"{owner}.{attribute} is gone"
    assert span.partition(".")[0] in tracing.LAYERS


def test_evolve_counters_read_a_real_result():
    def problem(genomes):
        x = genomes[:, 0]
        return np.column_stack([-x * x, -(x - 1.0) ** 2, -(x + 1.0) ** 2])

    args = (problem, [-2.0], [2.0], EAConfig(population_size=8, generations=3, seed=1))
    result = evolve(*args)
    counts = tracing._evolve(args, {}, result)
    assert counts["front_n"] == len(result.front.objectives) > 0
    assert counts["generations"] == result.generations_run
    assert counts["evals"] == 8 * (1 + result.generations_run)
    assert counts["front_hv"] == result.hypervolume_log[-1]
