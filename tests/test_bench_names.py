"""Every function the benchmark tracer wraps still exists.

benchmark/tracer.py names the traced functions by owner and attribute.  A
deleted or renamed function would break only the benchmark's own tests, so
this reads the tracer's tables here and resolves each name the way the
tracer does: a method from the class's own namespace, anything else as a
module attribute.  The tracer's cache probes must also find what the space
caches, or the benchmark's cache hit ratio would silently read 0.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import corpus

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


def test_cache_probes_see_the_cache():
    # rspace.cache.hit_ratio reads these probes; a cache key they no longer
    # mirror would read every lookup as a miss
    X = corpus.vertical_torus()
    vals = X.critical_values
    probes = [(tracer._fiber_hit, X.piece_homology, (piece, k))
              for piece in (("V", 0), ("E", 1), None, ("W", 0, len(vals) - 1), ("W", 1, 2),
                            ("P", 0), ("P", 2))
              for k in (0, 1)]
    probes += [(tracer._attach_hit, X.attachment_homology_map, (0, side, k))
               for side in ("left", "right") for k in (0, 1)]
    probes += [(tracer._slice_hit, X.slice_homology, (p, q, k))
               for p, q in ((vals[0], vals[-1]), ((vals[0] + vals[1]) / 2, vals[-1] + 1),
                            (-math.inf, math.inf), (vals[1] + 0.01, vals[1] + 0.02))
               for k in (0, 1)]
    for hit, method, args in probes:
        assert hit(X, *args) == 0, (hit.__name__, args)
        method(*args)
        assert hit(X, *args) == 1, (hit.__name__, args)
