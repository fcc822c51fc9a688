"""Tests of the benchmark itself: request stream, span arithmetic, percentiles,
oracles and the agreement of BENCHMARK.json with what run.py reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oracle
import run
import session
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_session_plan_is_deterministic_per_seed():
    first, again, other = session.plan(7), session.plan(7), session.plan(8)
    assert first == again
    assert first != other
    assert len(first) == session.REQUESTS
    # seeds reorder the same amount of work: the kinds' counts do not change
    count = lambda items: sorted((k, sum(1 for i in items if i[0] == k)) for k in {i[0] for i in items})
    assert count(first) == count(other)


def test_session_plan_places_derived_requests_after_their_basis():
    items = session.plan(3)
    seen = set()
    for item in items:
        if item[0] == "basis":
            seen.add(item[1:])
        elif item[0] in ("membership", "rewrite"):
            assert item[1:3] in seen


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_synthetic_span_tree():
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 6, 10, 12, 13, 14, 15]))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    again = tracer.wrap("mid", lambda: again_inner())
    again_inner = tracer.wrap("mid", lambda: None)
    root()  # root [0, 10]: mid [1, 4] holds leaf [2, 3]; leaf [5, 6]
    again()  # mid [12, 15] holds mid [13, 14]
    stats = spans.boundary_stats(tracer.spans)
    assert stats["root"]["self_s"] == 10 - 3 - 1
    assert stats["root"]["total_s"] == 10
    assert stats["leaf"] == {"calls": 2, "self_s": 2, "total_s": 2, "value": 0}
    # self time of mid: (3 - 1) + (3 - 1) + 1; nested mid not double counted
    assert stats["mid"]["calls"] == 3
    assert stats["mid"]["self_s"] == 2 + 2 + 1
    assert stats["mid"]["total_s"] == 3 + 3
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 1, 0, -1, 4]


def test_solver_spans_split_by_enclosing_boundary():
    tracer = spans.Tracer(clock=_fake_clock(range(100)))
    add = tracer.wrap("linalg.add", lambda grew: grew, value=lambda args, grew: int(grew))
    basis = tracer.wrap("enumerator.triality_basis", lambda: (add(True), add(False)))
    basis()
    add(True)
    stats = spans.boundary_stats(tracer.spans)
    metrics = spans.layer_metrics(stats)
    assert metrics["linalg.add.calls"] == 3
    assert metrics["linalg.add.calls.triality_basis"] == 2
    assert metrics["linalg.add.useful_ratio.triality_basis"] == 0.5
    assert metrics["linalg.add.calls.express_in_klmn"] == 0


def test_percentiles_need_ten_samples_beyond():
    assert set(run.percentiles(range(1000), (50, 99))) == {50, 99}
    assert set(run.percentiles(range(999), (50, 99))) == {50}
    assert run.percentiles(range(1000), (99,))[99] == 989  # 10 samples above it
    assert run.percentiles(range(19), (50,)) == {}
    assert run.percentiles(range(20), (50,)) == {50: 9}


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(m, spans.STATS[stat][0]) for m, _, stat in spans.LAYER_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers + list(run.TRACE_METRICS)


def test_oracles_agree_with_the_program_on_small_inputs():
    from triality import cli, enumerator, exact_series

    table = enumerator.dimension_table(24, 8)
    assert table == {cell: oracle.invariant_dimension(*cell) for cell in table}
    delta = exact_series.eta_delta(12)[1].truncate(oracle.LATTICE * 12)
    assert delta.to_json()["terms"] == oracle.expected_series_terms("Delta", 12)
    assert exact_series.eisenstein(6, 10).to_json()["terms"] == oracle.expected_series_terms("E6", 10)
    for item in (("transvect", "f^2", "g", 2), ("transvect", "g", "Q", 2), ("transvect", "P", "P", 1)):
        code, out = session._cli(cli.main, session._argv(item, None))
        assert code == 0
        assert session.check((item, 0.0, code, out, None)) is None


def test_install_wraps_aliases_and_from_imports():
    # in a child interpreter: install rebinds the package for good
    script = """
import triality, spans
tracer = spans.Tracer()
spans.install(tracer)  # imports triality.verify, which `import triality` does not
from triality import exact_series, verify
s = exact_series.FracSeries.constant(1, 48)
2 * s  # FracSeries.__rmul__, the alias of __mul__
verify.klmn(4)  # verify binds klmn by `from .invariant_ring import klmn`
print(tracer.spans[0][0], tracer.spans[1][0])
print(verify.SUITES["series"].__wrapped__.__name__)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    assert out == ["exact_series.mul invariant_ring.klmn", "series_checks"]
