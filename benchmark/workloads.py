"""The benchmark's workloads: what each op runs, on which input, and its answer.

Every op calls paramhom the way its CLI subcommand does.  Library functions
are looked up through their modules at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from paramhom import bottleneck, checks, io, levelset
from paramhom.diagrams import BehaviorType

import gen

SUITES = ("additivity", "restriction", "equivalence", "duality", "bound",
          "correspondence")


@dataclass
class Case:
    """One op's input documents and the answer the op must return."""

    docs: tuple
    expected: object
    size: int           # simplices of the space, or points of the two diagrams
    op_seed: int = 0


class DiagramWorkload:
    """`paramhom diagram`: every degree's diagrams, dumped as a document."""

    def __init__(self, name: str, spec: gen.TubeSpec, rate: float, why: str):
        self.name, self.spec, self.rate, self.why = name, spec, rate, why

    def case(self, seed: int, i: int) -> Case:
        t = gen.tube_stack(gen.case_rng(self.name, seed, i), self.spec)
        return Case((t.doc,), t.expected_document(), t.simplices)

    def parse(self, case: Case):
        return io.parse_space(case.docs[0])

    def op(self, inputs, case: Case) -> str:
        X, max_dim = inputs
        by_dim = {k: levelset.all_diagrams(X, k) for k in range(max_dim + 1)}
        return io.dump_diagram(io.diagram_entries(by_dim))

    def describe(self) -> str:
        s = self.spec
        return (f"field=F_{s.characteristic} levels={s.levels} gap_ring={s.gap_size} "
                f"critical_ring={s.min_critical}-{s.max_critical}")


class ValidateWorkload(DiagramWorkload):
    """`paramhom validate`: the six property suites on one space."""

    samples = 1

    def case(self, seed: int, i: int) -> Case:
        rng = gen.case_rng(self.name, seed, i)
        t = gen.tube_stack(rng, self.spec)
        return Case((t.doc,), [(name, True) for name in SUITES], t.simplices,
                    op_seed=rng.randrange(2 ** 31))

    def op(self, inputs, case: Case) -> list:
        X, _ = inputs
        results = checks.run_all(X, random.Random(case.op_seed), samples=self.samples)
        return [(r.name, r.passed) for r in results]

    def describe(self) -> str:
        return f"{super().describe()} samples={self.samples}"


class BottleneckWorkload:
    """`paramhom bottleneck`: distance between two diagram documents."""

    def __init__(self, name: str, spec: gen.PairSpec, rate: float, why: str):
        self.name, self.spec, self.rate, self.why = name, spec, rate, why

    def case(self, seed: int, i: int) -> Case:
        c = gen.separated_pair(gen.case_rng(self.name, seed, i), self.spec)
        return Case((c.doc_a, c.doc_b), c.distance, len(c.doc_a) + len(c.doc_b))

    def parse(self, case: Case):
        return tuple(io.parse_diagram(doc) for doc in case.docs)

    def op(self, inputs, case: Case) -> float:
        A, B = inputs
        t = BehaviorType(gen.OO)
        return bottleneck.bottleneck_distance(io.entry_multiset(A, 1, t),
                                              io.entry_multiset(B, 1, t))

    def describe(self) -> str:
        s = self.spec
        return (f"grid_points={s.grid_points} noise_points={s.noise_points} "
                f"per diagram")


# `rate` sizes the input pool: about twice the ops per second measured on a
# 2-CPU x86 box, so a run ends on its time limit, not on its inputs.
WORKLOADS = {w.name: w for w in (
    DiagramWorkload(
        "wide_fibers", gen.TubeSpec(6, 72, 36, 72, 2), rate=4.0,
        why="few large rref calls: chain-level homology of wide fibers is the cost"),
    DiagramWorkload(
        "many_levels", gen.TubeSpec(48, 5, 3, 5, 3), rate=2.6,
        why="many levels, tiny fibers: the quadratic zigzag rank table is the cost"),
    ValidateWorkload(
        "validate", gen.TubeSpec(7, 5, 3, 5, 33554393), rate=1.6,
        why="property suites: extended modules, cached slices, largest prime field"),
    BottleneckWorkload(
        "bottleneck", gen.PairSpec(150, 30), rate=4.0,
        why="only workload reaching bottleneck matching; no homology at all"),
)}
