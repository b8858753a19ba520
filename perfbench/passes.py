"""One pass of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass; it prints one JSON record as
its last line of output.  Run it by hand from the repository root::

    PYTHONPATH=src python3 perfbench/passes.py --workload fig10 --seed 1 \
        --pass-index 0 --spawned-at 0

The record holds the set-up time, the wall time of the pass, one entry per
item (latency, digest of every resolved interval, verdict counts), the
failures found, the peak RSS and, for a traced pass, the per-layer
numbers.  Correctness checks that are not part of the user's wait (the
Monte Carlo check, the in-process reference analyses of the service
workload) run after the timed window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from repro.analysis.pipeline import _TEMPLATE_RESTART_LADDER as RESTART_LADDER
from repro.analysis.pipeline import AnalysisOptions, AnalysisPipeline
from repro.lang import parser as lang_parser
from repro.policy import evaluate as policy_evaluate
from repro.policy.parser import parse_spec
from repro.policy.report import check_to_dict
from repro.policy.suite import load_suite, options_for, resolve_programs
from repro.programs.registry import all_benchmarks
from repro.tail.bounds import costs_nonnegative

SPEC_DIR = "examples/specs"

#: Fig. 10 programs (family, size) with the tail threshold each is
#: checked at: three times its exact expected cost, rounded.
FIG10 = (
    ("coupon_chain", 4, 25.0),
    ("coupon_chain", 8, 65.0),
    ("coupon_chain", 16, 160.0),
    ("rdwalk_chain", 2, 90.0),
)
#: The one input that climbs the template-restart ladder.
DEGENERATE = (("rdwalk_chain", 3, 210.0),)
SYNTHETIC_MOMENTS = 4
#: Tail assertion checked on every synthetic program.
TAIL_PROBABILITY = 0.1

#: Monte Carlo check: trajectories, seed and z-margin (deliberately wide:
#: a sound interval can only miss the sample mean by noise).
MC_TRAJECTORIES = 20_000
MC_SEED = 20210620
MC_Z = 6.0

#: service: visits per registry program, in the 2:1:1 route mix.
SERVICE_ROUTES = ("analyze", "analyze", "check", "job")
SERVICE_WORKERS = 2
JOB_POLL_SECONDS = 0.02


def bounds_of(result_dict: dict) -> dict:
    """Every resolved interval of a result document: symbolic and
    evaluated."""
    return {key: result_dict[key] for key in ("raw_bounds", "evaluated")}


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_counts(check_dict: dict) -> dict:
    """Assertion counts and the tail-probability bounds of one check."""
    outcomes = check_dict["assertions"]
    return {
        "assertions": len(outcomes),
        "decided": sum(o["verdict"] in ("pass", "fail") for o in outcomes),
        "fail": sum(o["verdict"] == "fail" for o in outcomes),
        "tail_bounds": [
            o["evidence"]["bound"]
            for o in outcomes
            if o["evidence"].get("kind") == "tail_bound"
        ],
    }


def run_check(source: str, spec, options: AnalysisOptions, label: str):
    """The suite path: parse, analyze on a cold pipeline, evaluate."""
    program = lang_parser.parse_program(source)
    result = AnalysisPipeline(program).analyze(options)
    check = policy_evaluate.evaluate_spec(
        spec, result, program=label, nonnegative_cost=costs_nonnegative(program)
    )
    return program, result, check_to_dict(check)


# -- batch workloads -----------------------------------------------------------


def suite_inputs() -> list[dict]:
    benches = all_benchmarks()
    items = []
    for relpath, spec in load_suite(SPEC_DIR):
        for name in resolve_programs(spec):
            bench = benches[name]
            items.append({
                "id": f"{relpath}::{name}",
                "source": bench.source,
                "spec": spec,
                "options": options_for(spec, bench),
                "label": name,
            })
    return items


def synthetic_inputs(programs) -> list[dict]:
    from repro.programs import synthetic

    items = []
    for family, size, threshold in programs:
        spec = parse_spec(
            f"@name {family}({size}) tail\n"
            f"P(cost >= {threshold:g}) <= {TAIL_PROBABILITY:g}\n"
        )
        items.append({
            "id": f"{family}({size})",
            "source": getattr(synthetic, f"{family}_source")(size),
            "spec": spec,
            "options": AnalysisOptions(moment_degree=SYNTHETIC_MOMENTS),
            "label": f"{family}({size})",
        })
    return items


def run_batch(items: list[dict], recorder) -> tuple[float, list[dict], dict]:
    """Sequential checks; returns (wall seconds, item records, results).
    Digests are taken after the timed window."""
    records, results, checks = [], {}, {}
    start = time.perf_counter()
    for item in items:
        if recorder is not None:
            recorder.item = item["id"]
        t0 = time.perf_counter()
        try:
            program, result, check = run_check(
                item["source"], item["spec"], item["options"], item["label"]
            )
        except Exception as exc:  # an analysis error is a failed item
            records.append({"id": item["id"], "kind": "analysis",
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"id": item["id"], "kind": "analysis",
                        "ms": (time.perf_counter() - t0) * 1e3})
        results[item["id"]] = (program, result)
        checks[item["id"]] = check
    wall = time.perf_counter() - start
    for record in records:
        if record["id"] in checks:
            check = checks[record["id"]]
            _, result = results[record["id"]]
            record["digest_key"] = record["id"]
            record["digest"] = digest({"bounds": bounds_of(result.to_dict()), "check": check})
            record.update(check_counts(check))
    return wall, records, results


def monte_carlo_failures(results: dict) -> list[str]:
    """Every raw-moment interval must hold the Monte Carlo mean of C^k
    within MC_Z standard errors."""
    import numpy as np

    from repro.interp.vectorized import simulate_costs_vectorized

    failures = []
    for item_id, (program, result) in results.items():
        costs = simulate_costs_vectorized(program, MC_TRAJECTORIES, seed=MC_SEED)
        for k in range(1, result.raw.degree + 1):
            powers = costs.astype(float) ** k
            mean = float(np.mean(powers))
            margin = MC_Z * float(np.std(powers)) / math.sqrt(len(powers))
            interval = result.raw_interval(k)
            if not (interval.lo - margin <= mean <= interval.hi + margin):
                failures.append(
                    f"{item_id}: E[C^{k}] interval [{interval.lo}, {interval.hi}]"
                    f" misses the Monte Carlo mean {mean} (margin {margin})"
                )
    return failures


# -- service workload ------------------------------------------------------------


class _Client:
    """One persistent HTTP/1.1 connection, one request at a time."""

    def __init__(self, port: int, recorder) -> None:
        import http.client

        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.recorder = recorder

    def call(self, method: str, path: str, body: "dict | None" = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        if self.recorder is None:
            return self._send(method, path, data, headers)
        with self.recorder.span("http") as span_id:
            self.recorder.client_span = span_id
            try:
                return self._send(method, path, data, headers)
            finally:
                self.recorder.client_span = None

    def _send(self, method, path, data, headers):
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def service_inputs() -> list[dict]:
    """One entry per registry program: its source, the first spec (in
    sorted path order) that names it, and that spec's analysis options."""
    from repro.service.jobs import options_to_dict

    benches = all_benchmarks()
    programs: dict[str, dict] = {}
    for relpath, spec in load_suite(SPEC_DIR):
        text = (Path(SPEC_DIR) / relpath).read_text()
        for name in resolve_programs(spec):
            if name in programs:
                continue
            bench = benches[name]
            options = options_for(spec, bench)
            programs[name] = {
                "id": name,
                "source": bench.source,
                "spec": spec,
                "spec_text": text,
                "options": options,
                "options_dict": options_to_dict(options),
            }
    return [programs[name] for name in sorted(programs)]


class ServiceFixture:
    """In-process ``make_server`` on a temp-dir disk cache, a job store and
    a 2-worker fleet, as ``repro serve --workers 2`` runs them."""

    def __init__(self, root: Path) -> None:
        import tempfile
        import threading

        from repro.service.cache import ArtifactCache
        from repro.service.jobs import WorkerPool
        from repro.service.server import make_server
        from repro.service.store import JobStore

        root.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=root)
        tmp = Path(self._tmp.name)
        self.cache = ArtifactCache(tmp / "cache")
        db = str(tmp / "jobs.sqlite3")
        self.store = JobStore(db)
        self.pool = WorkerPool(db, SERVICE_WORKERS, str(tmp / "cache")).start()
        self.server = make_server("127.0.0.1", 0, self.cache,
                                  store=self.store, pool=self.pool)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.port = self.server.server_address[1]

    def wait_for_fleet(self) -> None:
        """The fleet completes one no-op job (part of set-up)."""
        client = _Client(self.port, None)
        try:
            status, body = client.call("POST", "/jobs", {"kind": "sleep", "seconds": 0})
            if status != 202:
                raise RuntimeError(f"POST /jobs (sleep) answered {status}: {body}")
            deadline = time.monotonic() + 60
            while client.call("GET", f"/jobs/{body['id']}/result")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("the worker fleet did not start")
                time.sleep(JOB_POLL_SECONDS)
        finally:
            client.close()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.pool.stop(graceful=True)
        self.store.close()
        self._tmp.cleanup()


def run_service(fixture: ServiceFixture, programs: list[dict], order: random.Random,
                recorder) -> tuple[float, list[dict], dict]:
    plan = service_plan(programs, order)
    client = _Client(fixture.port, recorder)
    records, bodies, jobs = [], {}, {}
    start = time.perf_counter()
    try:
        for visit, (program, route) in enumerate(plan):
            item_id = f"{program['id']}#{visit}:{route}"
            if recorder is not None:
                recorder.item = item_id
            record, body = _service_request(client, program, route)
            record["id"] = item_id
            records.append(record)
            if body is not None:
                bodies[item_id] = (program, route, body)
                if route == "job":
                    jobs[item_id] = body["id"]
        wall = time.perf_counter() - start
        # Counters, read after the timed window and outside the trace.
        client.recorder = None
        statuses = {item_id: client.call("GET", f"/jobs/{job_id}")[1]
                    for item_id, job_id in jobs.items()}
        counters = {
            "cache": client.call("GET", "/cache/stats")[1],
            "metrics": client.call("GET", "/metrics")[1],
            "jobs": list(statuses.values()),
        }
    finally:
        client.close()
    for record in records:
        if record["id"] not in bodies:
            continue
        program, route, body = bodies[record["id"]]
        if route == "check":
            record.update(check_counts(body["check"]))
            record["digest_key"] = f"{program['id']}/check"
            record["digest"] = digest(body["check"])
        else:
            record["digest_key"] = f"{program['id']}/bounds"
            record["digest"] = digest(bounds_of(body["result"]))
        if route == "job":
            # The result is fetchable once the worker has stored it: time
            # the job to the store's finish stamp, not to the poll that
            # happened to see it.
            sent_at = record.pop("sent_at")
            record["ms"] = (statuses[record["id"]]["finished_at"] - sent_at) * 1e3
    return wall, records, {"bodies": bodies, "counters": counters}


def service_plan(programs: list[dict], order: random.Random) -> list[tuple]:
    """Every program gets the visits of ``SERVICE_ROUTES``, interleaved in
    seeded order.  Its first visit is a synchronous analysis, which writes
    the cache; its later visits take the other routes in seeded order and
    read the cache.  So the seed moves requests around, never which ones
    run cold."""
    slots = [program for program in programs for _ in SERVICE_ROUTES]
    order.shuffle(slots)
    first, *later = SERVICE_ROUTES
    routes = {}
    for program in programs:
        rest = list(later)
        order.shuffle(rest)
        routes[program["id"]] = [first, *rest]
    return [(program, routes[program["id"]].pop(0)) for program in slots]


def _service_request(client: _Client, program: dict, route: str):
    payload = {"program": program["source"], "options": program["options_dict"]}
    t0 = time.perf_counter()
    sent_at = time.time()
    if route == "analyze":
        status, body = client.call("POST", "/analyze", payload)
        expected = 200
    elif route == "check":
        status, body = client.call("POST", "/check", {**payload, "spec": program["spec_text"]})
        expected = 200
    else:
        status, body = client.call("POST", "/jobs", payload)
        expected = 202
        if status == expected:
            job_id = body["id"]
            while True:
                status, result = client.call("GET", f"/jobs/{job_id}/result")
                if status != 202:
                    break
                time.sleep(JOB_POLL_SECONDS)
            body = {**result, "id": job_id}
            expected = 200
    ms = (time.perf_counter() - t0) * 1e3
    kind = "job" if route == "job" else "analysis"
    if status != expected or not body.get("ok", False):
        return {"kind": kind, "ms": ms,
                "error": f"{route} answered HTTP {status}: {body.get('error', body)}"}, None
    record = {"kind": kind, "ms": ms}
    if route == "job":
        record["sent_at"] = sent_at
    return record, body


def service_reference_failures(programs: list[dict], bodies: dict) -> list[str]:
    """Every response must equal an in-process analysis of the same program
    and options on the suite path (a cold pipeline, no cache)."""
    from repro.service.cache import program_key

    reference = {}
    for program in programs:
        _, result, check = run_check(
            program["source"], program["spec"], program["options"],
            program_key(lang_parser.parse_program(program["source"])),
        )
        reference[program["id"]] = (bounds_of(result.to_dict()), check)
    failures = []
    for item_id, (program, route, body) in bodies.items():
        want_result, want_check = reference[program["id"]]
        if route == "check":
            same = body["check"] == want_check
        else:
            same = bounds_of(body["result"]) == want_result
        if not same:
            failures.append(
                f"{program['id']}: {route} response bounds differ from the"
                " in-process analysis"
            )
    return failures


# -- per-layer numbers -----------------------------------------------------------


def layer_metrics(recorder, wall: float, counters: "dict | None") -> dict:
    """Per-layer numbers of one traced pass (zeros for layers the workload
    does not reach)."""
    layer = spans.layer_seconds(recorder.spans)
    out = {name: value for name, value in layer.items()
           if not name.startswith("service.")}
    lp = {"lp.presolve_s": 0.0, "lp.cols": 0, "lp.rows": 0, "lp.reduced_cols": 0,
          "lp.solve_calls": 0, "lp.restarts": 0, "lp.fallback_stages": 0}
    for solution in recorder.solutions:
        reduction = solution.reduction or {}
        lp["lp.presolve_s"] += reduction.get("presolve_seconds", 0.0)
        lp["lp.cols"] += reduction.get("cols", 0)
        lp["lp.rows"] += reduction.get("rows", 0)
        lp["lp.reduced_cols"] += reduction.get("reduced_cols", 0)
        lp["lp.solve_calls"] += reduction.get("solve_calls", 0)
        if solution.restart_bound is not None:
            lp["lp.restarts"] += RESTART_LADDER.index(solution.restart_bound) + 1
        lp["lp.fallback_stages"] += sum(s != "optimal" for s in solution.statuses)
    out.update(lp)

    handle, transport = [], []
    own = spans.self_times(recorder.spans)
    for span in recorder.spans:
        if span.name == "service.handle" and span.parent is not None:
            handle.append((span.end - span.start) * 1e3)
            transport.append(own[span.parent] * 1e3)
    out["service.handle_ms"] = statistics.median(handle) if handle else 0.0
    out["service.transport_ms"] = statistics.median(transport) if transport else 0.0

    if counters:
        cache = counters["cache"]
        hits = cache["memory_hits"] + cache["disk_hits"]
        asked = hits + cache["misses"]
        out["cache.hit_ratio"] = hits / asked if asked else 0.0
        out["cache.writes"] = cache["writes"]
        out["cache.disk_hits"] = cache["disk_hits"]
        out["cache.misses"] = cache["misses"]
        waits = [(j["started_at"] - j["enqueued_at"]) * 1e3 for j in counters["jobs"]]
        runs = [j["run_seconds"] * 1e3 for j in counters["jobs"]]
        out["queue.wait_ms"] = statistics.median(waits)
        out["queue.run_ms"] = statistics.median(runs)
        out["queue.retries"] = counters["metrics"]["queue"]["retried_total"]
    else:
        out.update({"cache.hit_ratio": 0.0, "cache.writes": 0, "cache.disk_hits": 0,
                    "cache.misses": 0, "queue.wait_ms": 0.0, "queue.run_ms": 0.0,
                    "queue.retries": 0})
    out["trace.unaccounted_share"] = (wall - sum(layer.values())) / wall
    return out


# -- entry point ------------------------------------------------------------------


def fingerprint() -> dict:
    import numpy
    import scipy

    from repro.lp.backends import incremental

    binding = getattr(incremental, "_hs", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": binding.__name__ if binding is not None else None,
    }


def max_rss_mb(who: int) -> float:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest ended
    child (``RUSAGE_CHILDREN``); ru_maxrss is in KiB on Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite", "fig10", "degenerate", "service"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before it started"
                         " this process (0: count set-up from here)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verify", action="store_true",
                    help="also run the checks that sit outside the timed window")
    ap.add_argument("--spans-out", default=None,
                    help="write the traced pass's spans to this JSON file")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up, then stop (extra set-up samples)")
    args = ap.parse_args(argv)
    spawned = args.spawned_at or time.monotonic()
    order = random.Random(f"{args.workload}/{args.seed}/{args.pass_index}")

    fixture = None
    if args.workload == "suite":
        inputs = suite_inputs()
        order.shuffle(inputs)
    elif args.workload == "service":
        inputs = service_inputs()
        fixture = ServiceFixture(Path(".perfbench") / "tmp")
    else:
        inputs = synthetic_inputs(FIG10 if args.workload == "fig10" else DEGENERATE)
        order.shuffle(inputs)
    try:
        if fixture is not None:
            fixture.wait_for_fleet()
        setup_s = time.monotonic() - spawned
        if args.setup_only:
            record = {"setup_s": setup_s}
        else:
            record = measure(args, inputs, fixture, order)
            record["setup_s"] = setup_s
    finally:
        if fixture is not None:
            fixture.close()
    if "peak_rss_mb" in record:
        # The service workers have ended now; add the largest one's peak.
        record["peak_rss_mb"] += max_rss_mb(resource.RUSAGE_CHILDREN)
    print(json.dumps(record))
    return 0


def measure(args, inputs: list[dict], fixture, order: random.Random) -> dict:
    """The timed pass, then the checks that sit outside the timed window."""
    recorder = spans.Recorder() if args.trace else None
    uninstall = spans.install(recorder) if recorder is not None else None
    try:
        if fixture is not None:
            wall, records, extra = run_service(fixture, inputs, order, recorder)
        else:
            wall, records, results = run_batch(inputs, recorder)
            extra = {}
    finally:
        if uninstall is not None:
            uninstall()
    peak_rss = max_rss_mb(resource.RUSAGE_SELF)  # before the checks below

    failures: list[str] = []
    if args.verify and fixture is None:
        if args.workload in ("fig10", "degenerate"):
            failures += monte_carlo_failures(results)
    elif args.verify:
        failures += service_reference_failures(inputs, extra["bodies"])
    record = {
        "workload": args.workload,
        "pass_index": args.pass_index,
        "traced": args.trace,
        "wall_s": wall,
        "items": records,
        "failures": failures,
        "peak_rss_mb": peak_rss,
        "fingerprint": fingerprint(),
    }
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, wall, extra.get("counters"))
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans_out).write_text(json.dumps(recorder.dump()))
    return record


if __name__ == "__main__":
    sys.exit(main())
