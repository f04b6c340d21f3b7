"""The benchmark's span table must name functions that still exist.

``bench/tracing.py`` patches each ``WRAPS`` entry's ``(owner, attribute)``
in a traced run; a refactor that renames or drops one of them would only
fail there.  The file is read and executed here without importing it as a
module, so nothing is written next to it.
"""

import types
from pathlib import Path

import pytest

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
