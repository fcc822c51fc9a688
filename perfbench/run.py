"""Benchmark of the triality package, end to end and per layer.

Run from the root of a checkout (Python stdlib only, nothing to build):

    python3 perfbench/run.py --workload verify24 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --out report.json

Workloads (closed loop, one client, one process at a time):
  verify24  verify.run_suite("all", 24): the headline job, 100 checks.  It
            also stands in for the tier-1 test wall time, which spends most
            of its time running the table1 suite twice.
  deep96    the series, jacobians and curve suites at order 96 (37 checks):
            series multiplication, and no linear algebra at all.
  dims72    enumerator.dimension_table(72, 24), 481 cells: polynomial
            frame changes and sparse solves, and no q-series at all.
  session   1,000 small seeded requests through triality.cli.main (and a
            few K,L,M,N rewrites) in one interpreter with warm caches.

Each job runs in a fresh interpreter (perfbench/job.py), so no cache
carries over.  A run times the interpreter start plus `import triality`
several times (setup_s), then repeats the workload's job while another one
fits in --seconds (always at least one), and reports medians.  Every result
is checked against an oracle that does not use the program (oracle.py), and
fail_ratio is failed / attempted operations.

Times are rescaled to a reference host speed (speed.py): each job samples a
fixed Fraction probe in its own process while it runs, and a time t is
reported as t * REFERENCE_UNIT_S / (mean probe time).  On a shared host the
raw times of one job drift by up to 1.6x between runs; the raw medians are
printed beside the rescaled ones (raw_setup_s, raw_wall_s).

With --trace 1 one more job runs with span wrappers installed (spans.py),
and the run reports per-layer metrics and the tracing overhead (the traced
job's wall_s minus the untraced median) instead.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify24", "deep96", "dims72", "session")
# (name, unit); the end-to-end metrics gated on every workload
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# reported beside them, not gated: the unscaled times, and for `session`,
# where a job is a stream of requests, its rate and latency percentiles
EXTRA_METRICS = (
    ("raw_setup_s", "s"), ("raw_wall_s", "s"),
    ("requests_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.spans", "count"))
SETUP_REPEATS = 15
# perf_counter is system-wide on Linux, so the child's stamp ends the setup span
SETUP_CODE = """import triality, time
done = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
import speed
print(done, speed.mean_unit(20))
"""
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a broken child)."""


def percentiles(samples, points):
    """{point: nearest-rank value} for each point with >= 10 samples beyond it."""
    xs = sorted(samples)
    out = {}
    for p in points:
        rank = math.ceil(len(xs) * Fraction(str(p)) / 100)
        if rank >= 1 and len(xs) - rank >= 10:
            out[p] = xs[rank - 1]
    return out


def metadata(root):
    src = root / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "src_lines": lines,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, root, seed, deadline):
        self.root = root
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def time_import(self):
        """Seconds from spawning an interpreter to `import triality` done, raw
        and rescaled by a probe the child runs right after."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(here=str(HERE))], cwd=self.root,
            env=self.env, capture_output=True, text=True, timeout=self._timeout(),
        )
        if proc.returncode:
            raise BenchError(f"import triality failed: {proc.stderr.strip()[-500:]}")
        done, unit_s = map(float, proc.stdout.split())
        return done - start, speed.rescale(done - start, unit_s)

    def job(self, workload, spans_path=None):
        """Run job.py once; a crash or timeout is one failed operation."""
        cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
               "--seed", str(self.seed)]
        if spans_path:
            cmd += ["--trace", str(spans_path)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1, "failures": ["job timed out"]}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        if proc.returncode or "wall_s" not in result:
            return {"attempted": 1, "failed": 1,
                    "failures": [f"job exited {proc.returncode}: {proc.stderr.strip()[-800:]}"]}
        return result


def measure(root, workload, seed, seconds, trace):
    """One run of one workload: setup timing, untraced jobs, maybe a traced job."""
    runner = Runner(root, seed, time.monotonic() + RUN_DEADLINE_S)
    probe = speed.mean_unit(200)
    runner.time_import()  # compiles the bytecode caches; users pay that once
    setup = [runner.time_import() for _ in range(SETUP_REPEATS)]
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(runner.job(workload))
        if "wall_s" not in jobs[-1]:
            break
        spent = time.perf_counter() - start
        if spent + spent / len(jobs) > seconds:
            break
    ok = [j for j in jobs if "wall_s" in j]
    report = {
        "workload": workload,
        "seed": seed,
        "jobs": len(jobs),
        "probe_unit_s": probe,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "failures": [f for j in jobs for f in j["failures"]][:20],
        "metrics": {},
    }
    if ok:
        m = report["metrics"]
        m["setup_s"] = statistics.median(s for _, s in setup)
        m["wall_s"] = statistics.median(j["wall_s"] for j in ok)
        m["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        m["raw_wall_s"] = statistics.median(j["raw_wall_s"] for j in ok)
        m["peak_rss_mb"] = statistics.median(j["peak_rss_mb"] for j in ok)
        if workload == "session":
            latencies = [x for j in ok for x in j["latencies_s"]]
            m["requests_per_s"] = sum(j["attempted"] for j in ok) / sum(j["wall_s"] for j in ok)
            for p, value in percentiles(latencies, (50, 99)).items():
                m[f"latency_p{p}_ms"] = value * 1000
            busy = {}
            for j in ok:
                for kind, s in j["busy_s"].items():
                    busy[kind] = busy.get(kind, 0.0) + s
            total = sum(busy.values())
            report["busy_share"] = {k: v / total for k, v in sorted(busy.items())}
    if trace and ok:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        traced = runner.job(workload, out_dir / f"spans-{workload}-{seed}.jsonl")
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["failures"] += traced["failures"][:20]
        if "layers" in traced:
            # span times are rescaled like wall_s, by the traced job's own probe
            time_scale = speed.rescale(1.0, traced["unit_s"])
            layers = spans.layer_metrics(traced["layers"], time_scale)
            layers["trace.overhead_s"] = traced["wall_s"] - report["metrics"]["wall_s"]
            layers["trace.spans"] = traced["spans"]
            report["layers"] = layers
    return report


def _units():
    units = dict(END_TO_END + EXTRA_METRICS + TRACE_METRICS)
    units["fail_ratio"] = "ratio"
    for metric, _, stat in spans.LAYER_METRICS:
        units[metric] = spans.STATS[stat][0]
    return units


def print_report(report, units):
    ratio = report["failed"] / max(report["attempted"], 1)
    print(f"workload {report['workload']} seed {report['seed']}: {report['jobs']} job(s), "
          f"probe unit {report['probe_unit_s'] * 1e3:.4f} ms")
    rows = dict(report["metrics"], fail_ratio=ratio)
    for name, value in rows.items():
        print(f"  {name:<22} {value:>14.6g} {units[name]}")
    if "busy_share" in report:
        shares = ", ".join(f"{k} {v:.0%}" for k, v in report["busy_share"].items())
        print(f"  busy time by request kind: {shares}")
    for name, value in report.get("layers", {}).items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def result_metrics(report, trace, units):
    """The metrics of the final line: every gated end-to-end metric, or every
    per-layer metric for a traced run."""
    if trace:
        chosen = report.get("layers", {})
    else:
        chosen = {name: report["metrics"][name] for name, _ in END_TO_END if name in report["metrics"]}
    return {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full report as JSON here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "triality" / "__init__.py").is_file():
        print(f"error: no src/triality package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = metadata(root)
    print("meta: " + json.dumps(meta, sort_keys=True))
    reports = []
    try:
        for name in names:
            reports.append(measure(root, name, args.seed, args.seconds, args.trace))
            print_report(reports[-1], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        args.out.write_text(json.dumps({"meta": meta, "args": vars(args) | {"out": str(args.out)},
                                        "units": units, "runs": reports}, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = result_metrics(reports[0], args.trace, units)
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in reports
            for trace in {0, args.trace}
            for name, value in result_metrics(r, trace, units).items()
        }
    correct = failed == 0 and all(r["metrics"] for r in reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
