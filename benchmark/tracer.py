"""Outside-in tracer for paramhom's layers.

`Tracer.installed()` replaces each traced function with a wrapper wherever
paramhom looks it up (module globals of every paramhom module, or the class
attribute for a method) and puts the originals back on exit.  Each wrapped
call records a span: name, start, end, parent span, op id, and one integer
of work (matrix cells for rref, module length for decompose, 1 for a cache
lookup that hits).  The hottest leaf functions are counted, not spanned.
Spans stay in memory until `save`; self time comes from the span tree.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

import paramhom
from paramhom import (bottleneck, checks, cohomology, complexes, extended,
                      fieldlin, io, levelset, measures, rspace, zigzag)


def _cells(self, M, *args, **kwargs) -> int:
    rows, cols = np.shape(M)
    return rows * cols


def _nodes(Z, *args, **kwargs) -> int:
    return Z.n


# Cache lookups: 1 when the key is already in the space's homology cache.
# Each key mirrors the one the method builds; reading it changes nothing.
def _fiber_hit(X, piece_key, k) -> int:
    return int(("fiber", piece_key, k) in X._homology)


def _attach_hit(X, i, side, k) -> int:
    return int(("attach", i, side, k) in X._homology)


def _slice_hit(X, p, q, k) -> int:
    return int(("slice", X.slice_plan(p, q), k) in X._homology)


_Space = rspace.ConstructibleRSpace

# (span name, owner, attribute, work function or None)
SPANS = [
    ("fieldlin.rref", fieldlin.PrimeField, "rref", _cells),
    ("fieldlin.quotient_map", fieldlin.PrimeField, "quotient_map", None),
    ("fieldlin.kernel_basis", fieldlin.PrimeField, "kernel_basis", None),
    ("fieldlin.column_space_basis", fieldlin.PrimeField, "column_space_basis", None),
    ("complexes.homology", complexes, "homology", None),
    ("complexes.chain_complex", complexes, "chain_complex", None),
    ("complexes.telescope", complexes, "telescope", None),
    ("complexes.induced_homology_map", complexes, "induced_homology_map", None),
    ("complexes.quotient_complex", complexes, "quotient_complex", None),
    ("complexes.subcomplex", complexes, "subcomplex", None),
    ("rspace.piece_homology", _Space, "piece_homology", _fiber_hit),
    ("rspace.attachment_homology_map", _Space, "attachment_homology_map", _attach_hit),
    ("rspace.slice_homology", _Space, "slice_homology", _slice_hit),
    ("zigzag.decompose", zigzag, "decompose", _nodes),
    ("levelset.levelset_zigzag", levelset, "levelset_zigzag", None),
    ("levelset.translate", levelset, "translate", None),
    ("measures.measure_profile", measures, "measure_profile", None),
    ("measures.full_bar_count", measures, "full_bar_count", None),
    ("cohomology.cohomology_diagrams", cohomology, "cohomology_diagrams", None),
    ("extended.extended_module", extended, "extended_module", None),
    *((f"checks.{s}", checks, s, None) for s in (
        "additivity_suite", "restriction_suite", "equivalence_suite",
        "duality_suite", "bound_suite", "correspondence_suite")),
    ("bottleneck.bottleneck_distance", bottleneck, "bottleneck_distance", None),
    ("io.parse_space", io, "parse_space", None),
    ("io.parse_diagram", io, "parse_diagram", None),
    ("io.dump_diagram", io, "dump_diagram", None),
]

# Called up to millions of times per op: a span each would cost more than
# the call, so these only count.
COUNTED = [
    ("bottleneck.dinf", bottleneck, "dinf"),
    ("bottleneck.diagonal_distance", bottleneck, "diagonal_distance"),
]

CACHE_SPANS = ("rspace.piece_homology", "rspace.attachment_homology_map",
               "rspace.slice_homology")


def _modules() -> list:
    return [paramhom] + [importlib.import_module(f"paramhom.{m.name}")
                         for m in pkgutil.iter_modules(paramhom.__path__)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.stack = [-1]
        self.op_id = -1          # -1 while setting up, else the op index
        self.counts = {name: [0] for name, _, _ in COUNTED}

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, name: str, fn, work):
        nid = self._nid(name)
        start, end, names, parent, op, works, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.work,
            self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            works.append(work(*args, **kwargs) if work else 0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return traced

    @staticmethod
    def _count_wrapper(cell: list, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = _modules()
        undo = []

        def patch(owner, attr, make):
            if isinstance(owner, type):
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, make(original))
                return
            original = getattr(owner, attr)
            wrapped = make(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

        try:
            for name, owner, attr, work in SPANS:
                patch(owner, attr,
                      lambda fn, name=name, work=work: self._span_wrapper(name, fn, work))
            for name, owner, attr in COUNTED:
                patch(owner, attr,
                      lambda fn, cell=self.counts[name]: self._count_wrapper(cell, fn))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op_scope(self, i: int):
        """Attribute the spans of the block to op i, under one "op" span."""
        self.op_id = i
        sid = len(self.start)
        self.name.append(self._nid("op"))
        self.parent.append(self.stack[-1])
        self.op.append(i)
        self.work.append(0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()
            self.op_id = -1

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        cols = {"start": (self.start, np.float64), "end": (self.end, np.float64),
                "name": (self.name, np.int32), "parent": (self.parent, np.int32),
                "op": (self.op, np.int32), "work": (self.work, np.int64)}
        return {k: np.frombuffer(col, dtype=dt).copy() for k, (col, dt) in cols.items()}

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, work.

        Inclusive time counts a span only when no ancestor has its name, so
        nothing is counted twice; self time is the span's duration minus
        its direct children's.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        name, parent = a["name"], a["parent"]
        n = len(dur)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=n)
        self_time = dur - children
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while (live := anc >= 0).any():
            idx = np.nonzero(live)[0]
            nested[idx] |= name[anc[idx]] == name[idx]
            anc[idx] = parent[anc[idx]]
        out = {}
        for nid, label in enumerate(self.names):
            mine = name == nid
            out[label] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine & ~nested].sum()),
                "self_s": float(self_time[mine].sum()),
                "work": int(a["work"][mine].sum()),
            }
        for label, cell in self.counts.items():
            out[label] = {"calls": cell[0], "s": 0.0, "self_s": 0.0, "work": 0}
        return out

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
