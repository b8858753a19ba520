"""The repository's benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

It starts ``perfbench/passes.py`` in a fresh interpreter once per pass,
starting passes while the next one is likely to end within ``--seconds``
(each workload has a minimum pass count), checks every output, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed; with ``--trace 1`` untraced and traced passes alternate
and the metrics are the per-layer ones plus the tracing overhead.  The
workloads, metrics and the layer-to-metric map are described in
``perfbench/README.md``.

Exit status: 0 when every output is correct, 1 when an output is wrong (a
failed assertion, an analysis error, a bad HTTP answer, a Monte Carlo or
reference mismatch, or bounds that differ between passes), 2 when the
benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("suite", "fig10", "degenerate", "service")

#: The benchmark measures the default code path only.
REFUSED_ENV = (
    "REPRO_DISABLE_HIGHS",
    "REPRO_DISABLE_POLY_KERNEL",
    "REPRO_DISABLE_LP_REDUCE",
    "REPRO_DISABLE_LP_PARALLEL",
    "REPRO_LP_JOBS",
    "REPRO_FAULTS",
)

#: Fewest passes a run makes, whatever ``--seconds`` says: suite needs
#: three (129 checks) for its p90 to have ten samples beyond it; the other
#: workloads pool passes to steady their medians; a traced run needs one
#: pass of each kind.
MIN_PASSES = {"suite": 3, "fig10": 3, "degenerate": 2, "service": 2}

#: Tail percentile per workload for (analysis, job) latencies: the highest
#: of p75/p90/p99 with at least ten samples beyond it at the minimum pass
#: count.  fig10 and degenerate have too few items for any, so their tail
#: is the slowest item; on batch workloads a job is one whole pass.
TAIL_PERCENTILE = {
    "suite": (90, 100),
    "fig10": (100, 100),
    "degenerate": (100, 100),
    "service": (90, 75),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("analysis_p50_ms", "ms"),
    ("analysis_tail_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("decided_ratio", "1"),
    ("tail_bound_gmean", "1"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lang.parse_s", "s"),
    ("logic.static_context_s", "s"),
    ("analysis.derive_s", "s"),
    ("lp.solve_s", "s"),
    ("lp.presolve_s", "s"),
    ("lp.cols", "count"),
    ("lp.rows", "count"),
    ("lp.reduced_cols", "count"),
    ("lp.solve_calls", "count"),
    ("lp.restarts", "count"),
    ("lp.fallback_stages", "count"),
    ("analysis.resolve_s", "s"),
    ("tail.bounds_s", "s"),
    ("policy.evaluate_s", "s"),
    ("service.handle_ms", "ms"),
    ("service.transport_ms", "ms"),
    ("cache.hit_ratio", "1"),
    ("cache.writes", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("queue.wait_ms", "ms"),
    ("queue.run_ms", "ms"),
    ("queue.retries", "count"),
    ("trace.unaccounted_share", "1"),
    ("trace.overhead_s", "s"),
)

#: Set-up is measured at least this many times per run (passes first,
#: then set-up-only starts of the same process) and reported as a median.
SETUP_SAMPLES = 3

#: A run ends within this many seconds: a pass still running at the limit
#: is killed and counted as failed.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory or environment."""


def check_environment(root: Path) -> None:
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        raise BenchmarkError(
            f"refusing to run with {', '.join(refused)} set: the benchmark"
            " measures the default code path only"
        )
    for needed in ("src/repro/__init__.py", "examples/specs"):
        if not (root / needed).exists():
            raise BenchmarkError(f"{needed} is missing: run from the repository root")


def run_pass(root: Path, args, deadline: float, index: int, *flags: str) -> dict:
    """One pass in a fresh interpreter (its own session, so the worker
    processes of the service workload go with it on a kill).  ``flags``
    are passed on: ``--trace``, ``--verify``, ``--setup-only``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(root / "perfbench" / "passes.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--pass-index", str(index), "--spawned-at", repr(time.monotonic()),
    ]
    cmd += flags
    if "--trace" in flags:
        cmd += ["--spans-out", str(root / ".perfbench" / "spans" /
                                   f"{args.workload}-seed{args.seed}-pass{index}.json")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"pass {index} still running after {RUN_LIMIT_S:g} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"crashed": f"pass {index} exited {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def percentile(values: list[float], p: int) -> float:
    if p == 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def failures_of(passes: list[dict]) -> tuple[int, list[str]]:
    """(items attempted, failure messages) over every pass of a run."""
    attempted, failures = 0, []
    digests: dict[str, set[str]] = {}
    for record in passes:
        if "crashed" in record:
            attempted += 1
            failures.append(record["crashed"])
            continue
        failures += record["failures"]
        for item in record["items"]:
            attempted += 1
            if "error" in item:
                failures.append(f"{item['id']}: {item['error']}")
            elif item.get("fail"):
                failures.append(f"{item['id']}: {item['fail']} assertion(s) fail")
            else:
                digests.setdefault(item["digest_key"], set()).add(item["digest"])
    for key, seen in sorted(digests.items()):
        if len(seen) > 1:
            failures.append(
                f"{key}: nondeterministic bounds ({len(seen)} distinct digests)"
            )
    return attempted, failures


def end_to_end(workload: str, passes: list[dict], setups: list[float]) -> dict[str, float]:
    untraced = [p for p in passes if not p["traced"]]
    items = [i for p in untraced for i in p["items"]]
    analysis = [i["ms"] for i in items if i["kind"] == "analysis"]
    if workload == "service":
        jobs = [i["ms"] for i in items if i["kind"] == "job"]
    else:
        jobs = [p["wall_s"] * 1e3 for p in untraced]
    checked = [i for i in items if "assertions" in i]
    tails = [b for i in checked for b in i["tail_bounds"]]
    analysis_tail, job_tail = TAIL_PERCENTILE[workload]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        # Median per pass first: fig10's items are four programs whose
        # times differ tenfold, so a pooled median would sit in the gap.
        "analysis_p50_ms": statistics.median(
            statistics.median(i["ms"] for i in p["items"] if i["kind"] == "analysis")
            for p in untraced
        ),
        "analysis_tail_ms": percentile(analysis, analysis_tail),
        "job_p50_ms": statistics.median(jobs),
        "job_tail_ms": percentile(jobs, job_tail),
        "decided_ratio": sum(i["decided"] for i in checked)
        / sum(i["assertions"] for i in checked),
        "tail_bound_gmean": math.exp(
            statistics.fmean(math.log(max(b, 1e-300)) for b in tails)
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in untraced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        check_environment(root)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        index = len(passes)
        flags = ["--verify"] if index == 0 else []
        if args.trace and index % 2 == 1:
            flags.append("--trace")
        t0 = time.monotonic()
        record = run_pass(root, args, deadline, index, *flags)
        passes.append(record)
        if "crashed" in record:
            break
        durations.append(time.monotonic() - t0)
        enough = len(passes) >= max(MIN_PASSES[args.workload], 2 * args.trace)
        # Start no pass that would likely end after --seconds.
        if enough and (
            time.monotonic() - start + statistics.median(durations) > args.seconds
        ):
            break
    setups = [p["setup_s"] for p in passes if "crashed" not in p]
    while (not args.trace and 0 < len(setups) < SETUP_SAMPLES
           and time.monotonic() + 2 * statistics.median(setups) < deadline):
        probe = run_pass(root, args, deadline, len(passes) + len(setups),
                         "--setup-only")
        if "crashed" in probe:
            passes.append(probe)
            break
        setups.append(probe["setup_s"])

    attempted, failures = failures_of(passes)
    for message in failures:
        print(f"FAILED {message}")
    metrics: dict[str, dict] = {}
    if not failures:
        print("fingerprint " + json.dumps(passes[0]["fingerprint"], sort_keys=True))
        print(f"workload {args.workload}: {len(passes)} passes"
              f" ({sum(p['traced'] for p in passes)} traced)")
        if args.trace:
            values, names = per_layer(passes), PER_LAYER
        else:
            values, names = end_to_end(args.workload, passes, setups), END_TO_END
        for name, unit in names:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:<26} {values[name]:>14.6g} {unit}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
