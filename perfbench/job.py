"""One benchmark job: run a workload once in this fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N [--trace SPANS_PATH]

`run.py` starts one of these per job, so no `lru_cache` or module global
of `triality` carries over between jobs.  The job times the workload from
its first call to its last result, then checks every result against an
oracle, and prints one JSON object.  With --trace it installs the span
wrappers first, writes the spans to SPANS_PATH and adds per-boundary
statistics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import oracle
import session
import spans
import speed

VERIFY_JOBS = {
    # workload: (suites, order, number of checks)
    "verify24": (("all",), 24, 100),
    "deep96": (("series", "jacobians", "curve"), 96, 37),
}
DIMS = (72, 24)

# boundaries each workload must reach, and the two it must never reach; a
# traced job fails when these predictions do not hold, because then the
# wrappers missed a path or the workload no longer tests what it claims
FIRES = {
    "verify24": (
        "exact_series.mul", "exact_series.inverse", "exact_series.eta_delta",
        "exact_series.eisenstein", "_poly.mul", "_poly.compose", "_poly.ring_det",
        "linalg.add", "invariant_ring.mul", "invariant_ring.klmn",
        "invariant_ring.express_in_klmn", "sw_curve.ab_to_cd", "sw_curve.evaluate",
        "sw_curve.jacobian_klmn", "enumerator.triality_basis", "enumerator.monomials_of",
        "covariants.transvectant", "covariants.psi_inverse", "covariants.psi_forward",
        "covariants.is_semiinvariant", "covariants.semiinvariant_dimension", "verify.series", "verify.jacobians",
        "verify.curve", "verify.isomorphism", "verify.table1",
    ),
    "deep96": (
        "exact_series.mul", "exact_series.inverse", "exact_series.eta_delta",
        "exact_series.eisenstein", "_poly.compose", "_poly.ring_det", "invariant_ring.mul",
        "invariant_ring.klmn", "sw_curve.ab_to_cd", "sw_curve.evaluate",
        "sw_curve.jacobian_klmn", "verify.series", "verify.jacobians", "verify.curve",
    ),
    "dims72": (
        "_poly.mul", "_poly.compose", "linalg.add", "sw_curve.ab_to_cd",
        "enumerator.triality_basis", "enumerator.monomials_of",
    ),
    "session": (
        "exact_series.mul", "exact_series.eta_delta", "exact_series.eisenstein", "_poly.mul",
        "_poly.compose", "linalg.add", "invariant_ring.mul", "invariant_ring.klmn",
        "invariant_ring.express_in_klmn", "sw_curve.ab_to_cd", "sw_curve.evaluate",
        "enumerator.triality_basis", "covariants.transvectant", "cli.main", "cli.parse_poly",
    ),
}
NEVER = {"dims72": ("exact_series.mul",), "deep96": ("linalg.add",)}


def _timed(work):
    """work() under the speed sampler: its result and the job's timings."""
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
    timing = {
        "raw_wall_s": wall,
        "unit_s": sampler.mean,
        "wall_s": speed.rescale(wall, sampler.mean),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result, timing


def run_verify(workload, seed, tracer):
    from triality import verify

    suites, order, expected = VERIFY_JOBS[workload]
    results, timing = _timed(lambda: [r for s in suites for r in verify.run_suite(s, order)])
    failures = [f"check failed: {r.name}" for r in results if not r.passed]
    if len(results) != expected:
        failures.append(f"{len(results)} checks ran, expected {expected}")
    return dict(timing, attempted=max(expected, len(results)), failures=failures)


def run_dims(workload, seed, tracer):
    from triality import enumerator

    table, timing = _timed(lambda: enumerator.dimension_table(*DIMS))
    expected = oracle.dimension_table(*DIMS)
    failures = [
        f"cell {cell}: {table.get(cell)}, Cayley-Sylvester count {dim}"
        for cell, dim in sorted(expected.items())
        if table.get(cell) != dim
    ]
    failures += [f"unexpected cell {cell}" for cell in sorted(set(table) - set(expected))]
    return dict(timing, attempted=len(expected), failures=failures)


def run_session(workload, seed, tracer):
    items = session.plan(seed)
    session.prepare()
    results, timing = _timed(lambda: session.run(items, tracer))
    failures = []
    busy = {}
    for result in results:
        reason = session.check(result)
        if reason:
            failures.append(f"request {result[0]}: {reason}")
        if result[1] is not None:
            busy[result[0][0]] = busy.get(result[0][0], 0.0) + result[1]
    scale = speed.rescale(1.0, timing["unit_s"])
    return dict(
        timing, attempted=len(items), failures=failures,
        latencies_s=[r[1] * scale for r in results if r[1] is not None],
        busy_s=busy,
    )


WORKLOADS = {
    "verify24": run_verify,
    "deep96": run_verify,
    "dims72": run_dims,
    "session": run_session,
}


def layer_report(workload, tracer):
    stats = spans.boundary_stats(tracer.spans)
    failures = [f"traced boundary {b} never fired" for b in FIRES[workload] if b not in stats]
    failures += [
        f"traced boundary {b} fired {stats[b]['calls']} times, predicted none"
        for b in NEVER.get(workload, ()) if b in stats
    ]
    return stats, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_PATH")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        outcome = WORKLOADS[args.workload](args.workload, args.seed, tracer)
    except Exception:  # run.py counts the job as one failed operation
        traceback.print_exc()
        return 1
    if tracer is not None:
        stats, failures = layer_report(args.workload, tracer)
        outcome["failures"] += failures
        outcome["attempted"] += len(FIRES[args.workload]) + len(NEVER.get(args.workload, ()))
        outcome["layers"] = stats
        outcome["spans"] = len(tracer.spans)
        tracer.dump(args.trace)
    outcome["failed"] = len(outcome["failures"])
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
