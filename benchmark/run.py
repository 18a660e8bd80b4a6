"""The paramhom benchmark: one command, seeded workloads, verified answers.

Run from the repository root:

    python3 benchmark/run.py --workload wide_fibers --seed 1 --seconds 25 --trace 0

Op i of a run gets its own input, generated from (workload, seed, i), and
parses into a fresh space, as one CLI call per file would.  Every answer is
checked against the generator's closed form outside the timed interval.  One
process, one compute thread, closed loop: each op starts when the previous
one has been checked.

--trace 0 parses a pool of inputs (the set-up), then runs ops until their
summed time reaches --seconds and prints the end-to-end metrics.  --trace 1
runs each op of a fixed window twice, untraced and then traced, checks that
both give identical answers, and prints the per-layer metrics of the traced
pass.

Lines starting with "#" are the run header and notes; the last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_ROUNDS = 3      # set-up is repeated this often and its median reported
TAIL_BEYOND = 10      # op_tail_s: highest percentile with this many ops above it

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "verified_ratio": "ratio"}

# (metric, span, field of the span summary, unit).  Sums over the traced
# window of ops; "work" is the span's own work count (see tracer.py).
LAYER_METRICS = [
    ("fieldlin.rref.calls", "fieldlin.rref", "calls", "count"),
    ("fieldlin.rref.s", "fieldlin.rref", "s", "s"),
    ("fieldlin.rref.cells", "fieldlin.rref", "work", "count"),
    ("fieldlin.quotient_map.calls", "fieldlin.quotient_map", "calls", "count"),
    ("fieldlin.quotient_map.s", "fieldlin.quotient_map", "s", "s"),
    ("fieldlin.kernel_basis.s", "fieldlin.kernel_basis", "s", "s"),
    ("fieldlin.column_space_basis.s", "fieldlin.column_space_basis", "s", "s"),
    ("complexes.homology.calls", "complexes.homology", "calls", "count"),
    ("complexes.homology.s", "complexes.homology", "s", "s"),
    ("complexes.homology.self_s", "complexes.homology", "self_s", "s"),
    ("complexes.chain_complex.s", "complexes.chain_complex", "s", "s"),
    ("complexes.telescope.s", "complexes.telescope", "s", "s"),
    ("complexes.induced_homology_map.s", "complexes.induced_homology_map", "s", "s"),
    ("complexes.quotient_complex.s", "complexes.quotient_complex", "s", "s"),
    ("complexes.subcomplex.s", "complexes.subcomplex", "s", "s"),
    ("rspace.piece_homology.calls", "rspace.piece_homology", "calls", "count"),
    ("rspace.piece_homology.s", "rspace.piece_homology", "s", "s"),
    ("rspace.attachment_homology_map.s", "rspace.attachment_homology_map", "s", "s"),
    ("rspace.slice_homology.calls", "rspace.slice_homology", "calls", "count"),
    ("rspace.slice_homology.s", "rspace.slice_homology", "s", "s"),
    ("zigzag.decompose.calls", "zigzag.decompose", "calls", "count"),
    ("zigzag.decompose.s", "zigzag.decompose", "s", "s"),
    ("zigzag.decompose.self_s", "zigzag.decompose", "self_s", "s"),
    ("zigzag.decompose.nodes", "zigzag.decompose", "work", "count"),
    ("levelset.levelset_zigzag.s", "levelset.levelset_zigzag", "s", "s"),
    ("levelset.translate.s", "levelset.translate", "s", "s"),
    ("measures.measure_profile.calls", "measures.measure_profile", "calls", "count"),
    ("measures.measure_profile.s", "measures.measure_profile", "s", "s"),
    ("measures.full_bar_count.s", "measures.full_bar_count", "s", "s"),
    ("cohomology.cohomology_diagrams.s", "cohomology.cohomology_diagrams", "s", "s"),
    ("extended.extended_module.calls", "extended.extended_module", "calls", "count"),
    ("extended.extended_module.s", "extended.extended_module", "s", "s"),
    ("extended.extended_module.self_s", "extended.extended_module", "self_s", "s"),
    *((f"checks.{s}.s", f"checks.{s}", "s", "s") for s in (
        "additivity_suite", "restriction_suite", "equivalence_suite",
        "duality_suite", "bound_suite", "correspondence_suite")),
    ("bottleneck.bottleneck_distance.calls", "bottleneck.bottleneck_distance",
     "calls", "count"),
    ("bottleneck.bottleneck_distance.s", "bottleneck.bottleneck_distance", "s", "s"),
    ("bottleneck.dinf.calls", "bottleneck.dinf", "calls", "count"),
    ("bottleneck.diagonal_distance.calls", "bottleneck.diagonal_distance",
     "calls", "count"),
    ("io.parse_space.s", "io.parse_space", "s", "s"),
    ("io.parse_diagram.s", "io.parse_diagram", "s", "s"),
    ("io.dump_diagram.s", "io.dump_diagram", "s", "s"),
]
TRACE_UNITS = {"rspace.cache.hit_ratio": "ratio", "trace.ops": "count",
               "trace.op_s": "s", "trace.overhead": "ratio"}


@dataclass
class OpRecord:
    seconds: float
    ok: bool
    result: object


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import paramhom from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "paramhom", "__init__.py")):
        raise SystemExit(f"error: no paramhom sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import paramhom
    import workloads
    if os.path.dirname(os.path.abspath(paramhom.__file__)) != os.path.join(SRC, "paramhom"):
        raise SystemExit(f"error: imported paramhom from {paramhom.__file__}")
    return workloads


def parse_all(wl, cases) -> list:
    """Inputs of each case, or the exception parsing raised."""
    out = []
    for case in cases:
        try:
            out.append(wl.parse(case))
        except Exception as e:  # the op then fails
            out.append(e)
    return out


def run_one(wl, i: int, case, inp, tracer=None, want=None) -> OpRecord:
    """Run and check op i.

    It fails when parsing its input raised, when it raises (any Exception,
    RecursionError included), when its answer differs from the case's
    expected one, or, when `want` is not None, from `want`.
    """
    error = inp if isinstance(inp, Exception) else None
    result, dt = None, 0.0
    if error is None:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(inp, case)
            else:
                with tracer.op_scope(i):
                    result = wl.op(inp, case)
        except Exception as e:
            error = e
        dt = time.perf_counter() - t0
    ok = (error is None and result == case.expected
          and (want is None or want == result))
    if not ok:
        why = f"{type(error).__name__}: {error}" if error else "wrong answer"
        print(f"# op {i} failed: {why}"[:300], file=sys.stderr)
    return OpRecord(dt, ok, result)


def run_ops(wl, cases, inputs: list, seconds: float) -> list:
    """Run ops in order until their summed time reaches `seconds`.

    Each op's input is dropped once it has run, so its space and the
    caches it filled are freed, as they would be when a CLI call exits.
    """
    records, spent = [], 0.0
    for i, case in enumerate(cases):
        if spent >= seconds:
            break
        inp, inputs[i] = inputs[i], None
        records.append(run_one(wl, i, case, inp))
        spent += records[-1].seconds
        del inp
    return records


def op_stats(records) -> tuple[float, float, float, int]:
    """Median and tail op time, ranking failed ops above every verified one.

    The tail is the highest nearest-rank percentile with TAIL_BEYOND ops
    above it (the slowest op when the run has too few); returns (p50, tail,
    tail percentile, sample count).
    """
    ranked = [r.seconds for r in sorted(records, key=lambda r: (not r.ok, r.seconds))]
    n = len(ranked)
    p50 = (ranked[(n - 1) // 2] + ranked[n // 2]) / 2
    j = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return p50, ranked[j], 100.0 * (j + 1) / n, n


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def header(wl, args):
    import numpy
    print(f"# paramhom benchmark workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} threads=1")
    print(f"# why: {wl.why}")
    print(f"# input: {wl.describe()}")


def describe_cases(cases) -> str:
    sizes = [c.size for c in cases]
    return (f"{len(cases)} cases, size mean {statistics.fmean(sizes):.0f} "
            f"min {min(sizes)} max {max(sizes)}")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import paramhom from SRC."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import paramhom; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def measure(wl, args) -> dict:
    """End-to-end metrics: set-up of the input pool, then timed ops.

    One set-up round is what a CLI call pays before its first op: import
    paramhom in a fresh interpreter, then parse every input document of the
    run.  Input generation is the benchmark's own work and is excluded.
    """
    pool = max(TAIL_BEYOND + 1, math.ceil(args.seconds * wl.rate))
    t0 = time.perf_counter()
    cases = [wl.case(args.seed, i) for i in range(pool)]
    print(f"# pool: {describe_cases(cases)}; generated in "
          f"{time.perf_counter() - t0:.3f} s (not set-up)")
    rounds, inputs = [], None
    for _ in range(SETUP_ROUNDS):
        inputs = None  # drop the previous round before building the next
        imported = import_seconds()
        t0 = time.perf_counter()
        inputs = parse_all(wl, cases)
        parsed = time.perf_counter() - t0
        rounds.append((imported + parsed, imported, parsed))
    setup_s = statistics.median(r[0] for r in rounds)
    print("# setup rounds (import + parse): "
          + ", ".join(f"{i:.4f} + {p:.4f} s" for _, i, p in rounds))

    records = run_ops(wl, cases, inputs, args.seconds)
    attempted = len(records)
    verified = sum(r.ok for r in records)
    timed = sum(r.seconds for r in records)
    p50, tail, pct, n = op_stats(records)
    print(f"# ops: attempted {attempted}, verified {verified}, timed {timed:.3f} s; "
          f"op_tail_s is p{pct:.1f} of {n} ops")
    if attempted == len(cases):
        print("# note: the input pool ran out before --seconds elapsed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"ops_per_s": verified / timed if timed > 0 else 0.0,
              "op_p50_s": p50, "op_tail_s": tail, "setup_s": setup_s,
              "peak_rss_mb": peak, "verified_ratio": verified / attempted}
    return {"correct": verified == attempted, "attempted": attempted,
            "failed": attempted - verified,
            "metrics": {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}}


def trace_window(wl, seconds: float) -> int:
    """Ops in the traced window: a tenth of the pool a measured run would use."""
    return max(4, math.ceil(seconds * wl.rate / 10))


def traced(wl, args, save=True) -> dict:
    """Run the window's ops untraced and traced, alternating op by op.

    Alternating keeps warm-up and machine drift out of the overhead ratio;
    each pass gets its own freshly parsed spaces.
    """
    from tracer import CACHE_SPANS, Tracer

    k = trace_window(wl, args.seconds)
    cases = [wl.case(args.seed, i) for i in range(k)]
    print(f"# window: {describe_cases(cases)}")
    tracer = Tracer()
    plain_inputs = parse_all(wl, cases)
    with tracer.installed():
        traced_inputs = parse_all(wl, cases)
    plain, spans = [], []
    for i, case in enumerate(cases):
        plain.append(run_one(wl, i, case, plain_inputs[i]))
        with tracer.installed():
            spans.append(run_one(wl, i, case, traced_inputs[i], tracer,
                                 want=plain[-1].result))
    records = plain + spans
    failed = sum(not r.ok for r in records)
    if save:
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"trace-{wl.name}.npz"))

    summary = tracer.summary()
    out = {m: metric(summary[span][field], unit)
           for m, span, field, unit in LAYER_METRICS}
    lookups = sum(summary[s]["calls"] for s in CACHE_SPANS)
    hits = sum(summary[s]["work"] for s in CACHE_SPANS)
    op_s = sum(r.seconds for r in spans)
    plain_s = sum(r.seconds for r in plain)
    extra = {"rspace.cache.hit_ratio": hits / lookups if lookups else 0.0,
             "trace.ops": len(spans), "trace.op_s": op_s,
             "trace.overhead": op_s / plain_s if plain_s > 0 else 0.0}
    out.update({m: metric(v, TRACE_UNITS[m]) for m, v in extra.items()})
    print(f"# tracing overhead: traced/untraced op time {extra['trace.overhead']:.3f} "
          f"over {len(spans)} ops; {len(tracer.start)} spans")
    shares = sorted(((v["value"] / op_s, m) for m, v in out.items()
                     if m.endswith(".s") and not m.startswith("io.parse")
                     and v["value"] > 0 and op_s > 0), reverse=True)
    print("# top shares of traced op time: "
          + ", ".join(f"{m} {100 * f:.1f}%" for f, m in shares[:6]))
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    header(wl, args)
    result = traced(wl, args) if args.trace else measure(wl, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
