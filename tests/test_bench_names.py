"""Every function the benchmark tracer wraps still exists.

benchmark/tracer.py names the traced functions by owner and attribute.  A
deleted or renamed function would break only the benchmark's own tests, so
this reads the tracer's tables here and resolves each name the way the
tracer does: a method from the class's own namespace, anything else as a
module attribute.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = ([(name, owner, attr) for name, owner, attr, _ in tracer.SPANS]
         + list(tracer.COUNTED))


@pytest.mark.parametrize("name, owner, attr", NAMES, ids=[n for n, _, _ in NAMES])
def test_traced_name_resolves(name, owner, attr):
    if isinstance(owner, type):
        assert callable(vars(owner).get(attr)), name
    else:
        assert callable(getattr(owner, attr, None)), name
