"""Tests of the benchmark itself: generators, tracer, failure accounting.

Run from the repository root:

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_library()
sys.path.insert(0, os.path.join(os.path.dirname(run.HERE), "tests"))

import gen  # noqa: E402
from oracles import brute_bottleneck  # noqa: E402
from paramhom import bottleneck, fieldlin, io, levelset  # noqa: E402
from paramhom.diagrams import BehaviorType  # noqa: E402
from paramhom.levelset import all_diagrams  # noqa: E402
from paramhom.rspace import ConstructibleRSpace  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(run.HERE)
PRIMES = (2, 3, 33554393)

# Small versions of each workload, so the tests run in seconds.
SMALL = [
    workloads.DiagramWorkload("wide_fibers", gen.TubeSpec(4, 12, 6, 12, 2), 4.0, ""),
    workloads.DiagramWorkload("many_levels", gen.TubeSpec(9, 5, 3, 5, 3), 4.0, ""),
    workloads.ValidateWorkload("validate", gen.TubeSpec(3, 4, 3, 4, 33554393), 4.0, ""),
    workloads.BottleneckWorkload("bottleneck", gen.PairSpec(12, 4), 4.0, ""),
]


class Args:
    seed = 5
    seconds = 1.0


# Three-level stacks over all three fields; together these seeds give every
# bar shape the closed form has (checked below).
SMALL_TUBES = [(seed, gen.TubeSpec(3, 9, 3, 9, PRIMES[seed % 3])) for seed in range(16)]


@pytest.mark.parametrize("seed,spec", SMALL_TUBES)
def test_tube_stack_is_valid_and_matches_closed_form(seed, spec):
    case = gen.tube_stack(random.Random(seed), spec)
    X, max_dim = io.parse_space(case.doc)
    assert isinstance(X, ConstructibleRSpace) and X.validate() == []
    by_dim = {k: all_diagrams(X, k) for k in range(max_dim + 1)}
    assert io.dump_diagram(io.diagram_entries(by_dim)) == case.expected_document()


def test_closed_form_cases_cover_every_bar_shape():
    shapes = set()
    for seed, spec in SMALL_TUBES:
        case = gen.tube_stack(random.Random(seed), spec)
        shapes.update((e["dim"], e["type"]) for e in case.expected_entries())
    assert shapes == {(0, "cc"), (1, "cc"), (1, "co"), (1, "oc"), (1, "oo")}


@pytest.mark.parametrize("name", ["wide_fibers", "many_levels", "validate"])
def test_workload_space_matches_closed_form(name):
    wl = workloads.WORKLOADS[name]
    case = wl.case(0, 0)
    X, max_dim = wl.parse(case)
    assert X.validate() == []
    by_dim = {k: all_diagrams(X, k) for k in range(max_dim + 1)}
    doc = io.dump_diagram(io.diagram_entries(by_dim))
    assert doc == gen.tube_stack(gen.case_rng(name, 0, 0), wl.spec).expected_document()


@pytest.mark.parametrize("seed", range(6))
def test_separated_pair_distance_is_exact(seed):
    case = gen.separated_pair(random.Random(seed), gen.PairSpec(4, 2))
    A, B = (io.parse_diagram(d) for d in (case.doc_a, case.doc_b))
    t = BehaviorType(case.type)
    a_pts = list(io.entry_multiset(A, case.dim, t).elements())
    b_pts = list(io.entry_multiset(B, case.dim, t).elements())
    assert len(a_pts) == len(b_pts) == 6
    assert brute_bottleneck(a_pts, b_pts) == case.distance
    assert bottleneck.bottleneck_distance(a_pts, b_pts) == case.distance


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_answers_are_identical(wl):
    cases = [wl.case(1, i) for i in range(3)]
    plain = [wl.op(wl.parse(c), c) for c in cases]
    tracer = Tracer()
    originals = (vars(fieldlin.PrimeField)["rref"], levelset.levelset_zigzag,
                 bottleneck.dinf)
    with tracer.installed():
        inputs = [wl.parse(c) for c in cases]
        traced = []
        for i, (c, inp) in enumerate(zip(cases, inputs)):
            with tracer.op_scope(i):
                traced.append(wl.op(inp, c))
    assert traced == plain == [c.expected for c in cases]
    assert (vars(fieldlin.PrimeField)["rref"], levelset.levelset_zigzag,
            bottleneck.dinf) == originals
    summary = tracer.summary()
    assert summary["op"]["calls"] == 3
    if wl.name == "bottleneck":
        assert summary["bottleneck.dinf"]["calls"] > 0
        assert summary["fieldlin.rref"]["calls"] == 0
    else:
        assert summary["fieldlin.rref"]["calls"] > 0
        assert summary["bottleneck.dinf"]["calls"] == 0


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed():
        wl = SMALL[0]
        c = wl.case(2, 0)
        inp = wl.parse(c)
        with tracer.op_scope(0):
            wl.op(inp, c)
    s = tracer.summary()
    hom = s["complexes.homology"]
    assert 0 < hom["self_s"] < hom["s"]
    assert s["op"]["s"] >= s["levelset.levelset_zigzag"]["s"] >= hom["s"]


EXACT = ("fieldlin.rref.calls", "fieldlin.rref.cells", "zigzag.decompose.nodes",
         "bottleneck.dinf.calls", "rspace.cache.hit_ratio")


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_exact_counts_repeat(wl, capsys):
    first = run.traced(wl, Args, save=False)
    second = run.traced(wl, Args, save=False)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    busy = "bottleneck.dinf.calls" if wl.name == "bottleneck" else "fieldlin.rref.cells"
    assert first["metrics"][busy]["value"] > 0


class Flaky:
    """A workload whose op 1 overflows the stack and op 2 answers wrongly."""

    name = "flaky"

    def case(self, seed, i):
        return workloads.Case((), expected=i, size=1)

    def parse(self, case):
        return None

    def op(self, inputs, case):
        if case.expected == 1:
            def down(n):
                return down(n + 1)
            down(0)
        return -1 if case.expected == 2 else case.expected


def test_failures_are_recorded_and_the_run_continues(capsys):
    wl = Flaky()
    cases = [wl.case(0, i) for i in range(4)]
    limit = sys.getrecursionlimit()
    records = run.run_ops(wl, cases, [None] * 4, seconds=60)
    assert sys.getrecursionlimit() == limit
    assert [r.ok for r in records] == [True, False, False, True]
    assert "RecursionError" in capsys.readouterr().err


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    recs = [run.OpRecord(float(t), True, None) for t in range(1, 31)]
    p50, tail, pct, n = run.op_stats(recs)
    assert (p50, tail, n) == (15.5, 20.0, 30)
    assert pct == pytest.approx(100 * 20 / 30)
    recs[0] = run.OpRecord(0.5, False, None)  # a failed op ranks slowest
    assert run.op_stats(recs)[1] == 21.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m: unit for m, _, _, unit in run.LAYER_METRICS}
    layer.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "bottleneck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
