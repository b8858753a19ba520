"""Tests of the benchmark itself, at a tiny length.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import passes
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def _declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END) == _declared("end_to_end")
    assert list(run.PER_LAYER) == _declared("per_layer")


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
    for name, unit in declared:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name


def test_refuses_to_run_off_the_default_path(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_LP_REDUCE", "1")
    with pytest.raises(run.BenchmarkError, match="REPRO_DISABLE_LP_REDUCE"):
        run.check_environment(ROOT)


def test_refuses_to_run_without_the_program(tmp_path):
    with pytest.raises(run.BenchmarkError, match="src/repro"):
        run.check_environment(tmp_path)


def _coupon_item(spec_text: str) -> dict:
    from repro.policy.parser import parse_spec

    item = passes.synthetic_inputs((("coupon_chain", 2, 10.0),))[0]
    item["id"] = spec_text.strip()
    item["spec"] = parse_spec(spec_text)
    return item


def test_wrong_expected_value_trips_the_correctness_check():
    # E[cost] of the 2-coupon chain is exactly 3.
    wrong = _coupon_item("E[cost] in [4, 5]\n")
    right = _coupon_item("E[cost] in [2.9, 3.1]\n")
    _, records, _ = passes.run_batch([right, wrong], None)
    attempted, failures = run.failures_of([{"failures": [], "items": records}])
    assert attempted == 2
    assert failures == [f"{wrong['id']}: 1 assertion(s) fail"]


def test_monte_carlo_check_catches_an_interval_that_misses_the_mean():
    from repro.analysis.annotations import MomentAnnotation, PolyInterval
    from repro.poly.polynomial import Polynomial

    item = _coupon_item("E[cost] in [2.9, 3.1]\n")
    _, _, results = passes.run_batch([item], None)
    assert passes.monte_carlo_failures(results) == []
    program, result = results[item["id"]]
    shifted = [PolyInterval(Polynomial.constant(5.0), Polynomial.constant(6.0))]
    result.raw = MomentAnnotation(result.raw.intervals[:1] + shifted)
    failures = passes.monte_carlo_failures(results)
    assert len(failures) == 1 and "E[C^1]" in failures[0]


def test_bounds_that_differ_between_passes_are_reported():
    item = {"id": "p", "kind": "analysis", "ms": 1.0, "digest_key": "p",
            "assertions": 1, "decided": 1, "fail": 0, "tail_bounds": []}
    one = {"failures": [], "items": [{**item, "digest": "a"}]}
    two = {"failures": [], "items": [{**item, "digest": "b"}]}
    assert run.failures_of([one, one])[1] == []
    assert run.failures_of([one, two])[1] == ["p: nondeterministic bounds (2 distinct digests)"]


def test_service_reference_check_catches_a_wrong_response():
    program = passes.service_inputs()[0]
    _, result, check = passes.run_check(
        program["source"], program["spec"], program["options"], "x"
    )
    body = {"result": result.to_dict()}
    assert passes.service_reference_failures([program], {"v": (program, "analyze", body)}) == []
    body["result"]["evaluated"]["E[C^1]"][1] += 1.0
    failures = passes.service_reference_failures([program], {"v": (program, "analyze", body)})
    assert failures == [f"{program['id']}: analyze response bounds differ from the"
                        " in-process analysis"]


def test_self_time_subtracts_children():
    recorded = [
        spans.Span(0, "analyze", 0.0, 10.0, None, "p"),
        spans.Span(1, "solve", 2.0, 6.0, 0, "p"),
        spans.Span(2, "constraint_system", 6.0, 9.0, 0, "p"),
    ]
    layers = spans.layer_seconds(recorded)
    assert layers["analysis.resolve_s"] == pytest.approx(3.0)
    assert layers["lp.solve_s"] == pytest.approx(4.0)
    assert layers["analysis.derive_s"] == pytest.approx(3.0)


def test_untraced_code_is_restored_after_a_traced_pass():
    from repro.analysis.pipeline import AnalysisPipeline
    from repro.lang import parser

    before = (AnalysisPipeline.analyze, parser.parse_program)
    uninstall = spans.install(spans.Recorder())
    assert AnalysisPipeline.analyze is not before[0]
    uninstall()
    assert (AnalysisPipeline.analyze, parser.parse_program) == before
