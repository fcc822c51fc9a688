"""Span tracing of the triality layers, installed from outside the program.

`install` wraps the public boundary functions of each module in place.  It
rebinds every reference the package holds to a wrapped function: the
defining attribute, the `__rmul__ = __mul__` aliases on classes, the names
other modules bound with `from .x import y`, and values in module-level
dicts such as `verify.SUITES`.  A span records its boundary name, start,
end, parent span and request id, plus one optional number (term pairs of a
multiply, whether a solver row raised the rank, ...).  Spans stay in memory
until the job ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT, REQUEST, VALUE = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = 0
        self._stack = []

    def wrap(self, name, fn, value=None):
        """fn inside a span; value(args, result) gives the span's number."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, result)
            return result

        return traced

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, request, value."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def _pairs(args, result):
    left, right = args[0], args[1]
    return len(left.terms) * (len(right.terms) if hasattr(right, "terms") else 1)


def _repeat_detector():
    """1 for a call whose arguments were seen before (an lru_cache hit)."""
    seen = set()

    def repeated(args, result):
        hit = args in seen
        seen.add(args)
        return int(hit)

    return repeated


def boundaries():
    """(owner, attribute, boundary name, value function) for every traced call."""
    from triality import (
        _poly, cli, covariants, enumerator, exact_series, invariant_ring, linalg,
        sw_curve, verify, weyl_poly,
    )

    out = [
        (exact_series.FracSeries, "__mul__", "exact_series.mul", _pairs),
        (exact_series.FracSeries, "inverse", "exact_series.inverse", None),
        (exact_series, "eta_delta", "exact_series.eta_delta", None),
        (exact_series, "eisenstein", "exact_series.eisenstein", None),
        (_poly.SparsePoly, "__mul__", "_poly.mul", _pairs),
        (_poly, "compose", "_poly.compose", None),
        (_poly, "ring_det", "_poly.ring_det", None),
        (linalg.LinearSolver, "add", "linalg.add", lambda args, grew: int(grew)),
        (linalg.LinearSolver, "__init__", "linalg.solver", lambda args, _: args[1]),
        (invariant_ring.Invariant, "__mul__", "invariant_ring.mul", None),
        (invariant_ring.KLMNPoly, "__mul__", "invariant_ring.mul", None),
        (invariant_ring, "klmn", "invariant_ring.klmn", _repeat_detector()),
        (invariant_ring, "express_in_klmn", "invariant_ring.express_in_klmn", None),
        (sw_curve, "ab_to_cd", "sw_curve.ab_to_cd", None),
        (sw_curve, "cd_to_ab", "sw_curve.cd_to_ab", None),
        (sw_curve, "evaluate_ab", "sw_curve.evaluate", None),
        (sw_curve, "evaluate_cd", "sw_curve.evaluate", None),
        (sw_curve, "jacobian_klmn", "sw_curve.jacobian_klmn", None),
        (enumerator, "triality_basis", "enumerator.triality_basis",
         lambda args, basis: len(basis.monomials)),
        (enumerator, "monomials_of", "enumerator.monomials_of", None),
        (weyl_poly, "zpoly_to_ipoly", "weyl_poly.zpoly_to_ipoly", None),
        (cli, "main", "cli.main", None),
        (cli, "parse_poly", "cli.parse_poly", None),
    ]
    for name in COVARIANTS:
        out.append((covariants, name, f"covariants.{name}", None))
    for suite in SUITES:
        out.append((verify, verify.SUITES[suite].__name__, f"verify.{suite}", None))
    return out


COVARIANTS = (
    "transvectant", "psi_inverse", "psi_forward", "is_semiinvariant", "semiinvariant_dimension",
)
SUITES = ("series", "jacobians", "curve", "isomorphism", "table1")


def install(tracer):
    """Wrap every boundary and rebind every reference the package holds to it."""
    traced = boundaries()  # imports every module first, so none is missed below
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "triality" or name.startswith("triality."))
    ]
    for owner, attr, name, value in traced:
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, value)
        for namespace in (owner, *modules):
            for key, v in list(vars(namespace).items()):
                if v is original:
                    setattr(namespace, key, wrapped)
                elif isinstance(v, dict) and not key.startswith("__"):
                    for k2, v2 in list(v.items()):
                        if v2 is original:
                            v[k2] = wrapped


# -- aggregation -----------------------------------------------------------------

# the solver boundaries are also split by the nearest of these enclosing spans
SOLVER_PARENTS = {
    "invariant_ring.express_in_klmn": "express_in_klmn",
    "enumerator.triality_basis": "triality_basis",
    "covariants.semiinvariant_dimension": "semiinvariant_dimension",
}


def boundary_stats(spans):
    """{boundary: {calls, self_s, total_s, value}} plus solver splits.

    self_s is a span's duration minus the durations of its child spans;
    total_s counts only spans with no enclosing span of the same name, so
    a boundary that re-enters itself is not counted twice.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    stats = {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        keys = [name]
        if name.startswith("linalg."):
            group = _enclosing(spans, rec[PARENT], SOLVER_PARENTS)
            if group:
                keys.append(f"{name}.{group}")
        dur = rec[END] - rec[START]
        outermost = _enclosing(spans, rec[PARENT], {name: True}) is None
        for key in keys:
            s = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0})
            s["calls"] += 1
            s["self_s"] += dur - covered[i]
            if outermost:
                s["total_s"] += dur
            if rec[VALUE] is not None:
                s["value"] += rec[VALUE]
    return stats


def _enclosing(spans, parent, names):
    while parent >= 0:
        found = names.get(spans[parent][NAME])
        if found:
            return found
        parent = spans[parent][PARENT]
    return None


# -- per-layer metrics ------------------------------------------------------------


def _layer_metric_specs():
    """(metric name, boundary key, statistic) in report order."""
    specs = []

    def add(boundary, *stats):
        specs.extend((f"{boundary}.{stat}", boundary, stat) for stat in stats)

    add("exact_series.mul", "calls", "self_s", "pairs")
    add("exact_series.inverse", "calls", "self_s")
    add("exact_series.eta_delta", "total_s")
    add("exact_series.eisenstein", "total_s")
    add("_poly.mul", "calls", "self_s", "pairs")
    add("_poly.compose", "calls", "self_s")
    add("_poly.ring_det", "total_s")
    for parent in ("", *(f".{p}" for p in SOLVER_PARENTS.values())):
        specs += [
            (f"linalg.add.calls{parent}", f"linalg.add{parent}", "calls"),
            (f"linalg.add.self_s{parent}", f"linalg.add{parent}", "self_s"),
            (f"linalg.add.useful_ratio{parent}", f"linalg.add{parent}", "ratio"),
            (f"linalg.solvers{parent}", f"linalg.solver{parent}", "calls"),
            (f"linalg.unknowns{parent}", f"linalg.solver{parent}", "value"),
        ]
    add("invariant_ring.mul", "calls", "self_s")
    add("invariant_ring.klmn", "calls", "total_s", "repeat_ratio")
    add("invariant_ring.express_in_klmn", "calls", "self_s", "total_s")
    add("sw_curve.ab_to_cd", "calls", "total_s")
    add("sw_curve.cd_to_ab", "calls", "total_s")
    add("sw_curve.evaluate", "calls", "self_s", "total_s")
    add("sw_curve.jacobian_klmn", "total_s")
    add("enumerator.triality_basis", "calls", "self_s", "total_s", "ansatz")
    add("enumerator.monomials_of", "total_s")
    for name in COVARIANTS:
        add(f"covariants.{name}", "calls", "total_s")
    add("weyl_poly.zpoly_to_ipoly", "total_s")
    for suite in SUITES:
        add(f"verify.{suite}", "total_s")
    add("cli.main", "calls", "self_s")
    add("cli.parse_poly", "total_s")
    return specs


LAYER_METRICS = _layer_metric_specs()
# statistic -> (unit, which direction is better); pairs, ansatz and value
# are the span numbers summed, the ratios those sums over the call count
STATS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "pairs": ("count", "lower"),
    "ansatz": ("count", "lower"),
    "value": ("count", "lower"),
    "ratio": ("ratio", "higher"),
    "repeat_ratio": ("ratio", "higher"),
}


def layer_metrics(stats, time_scale=1.0):
    """{metric: value} for every LAYER_METRICS entry; unreached boundaries
    read 0, and times are multiplied by time_scale."""
    out = {}
    for metric, boundary, stat in LAYER_METRICS:
        s = stats.get(boundary)
        if s is None:
            out[metric] = 0
        elif stat in ("ratio", "repeat_ratio"):
            out[metric] = s["value"] / s["calls"]
        elif stat in ("pairs", "ansatz", "value"):
            out[metric] = s["value"]
        else:
            out[metric] = s[stat] * (time_scale if STATS[stat][0] == "s" else 1)
    return out
