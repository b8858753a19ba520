"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import _parse_valuation, build_parser, run

RDWALK = """
func rdwalk() pre(x < d + 2) begin
  if x < d then
    t ~ uniform(-1, 2);
    x := x + t;
    call rdwalk;
    tick(1)
  fi
end

func main() pre(d > 0) begin
  x := 0;
  call rdwalk
end
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "rdwalk.appl"
    path.write_text(RDWALK)
    return str(path)


class TestCli:
    def test_analyze_prints_bounds(self, source_file):
        out = io.StringIO()
        code = run(["analyze", source_file, "--at", "d=10,x=0,t=0"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "E[C^1]" in text
        assert "2*d + 4" in text

    def test_profile_flag_prints_stage_hotspots(self, source_file):
        out = io.StringIO()
        code = run(
            ["analyze", source_file, "--at", "d=10,x=0,t=0", "--profile", "5"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        for stage in ("static", "context", "constraints", "solve"):
            assert f"profile: {stage} stage" in text
        assert "cumtime" in text  # cProfile table present
        assert "stage split: derivation" in text
        assert "E[C^1]" in text  # bounds still printed after the profile
        # LP reduction presolve statistics ride along with the solve stage.
        assert "lp reduction:" in text
        from repro.lp.reduce import reduce_enabled

        if reduce_enabled():  # the reduce-off CI leg prints the off notice
            assert "columns eliminated:" in text
            assert "components:" in text
        else:
            assert "lp reduction: off" in text

    def test_no_lp_reduce_flag_bypasses_reduction(self, source_file):
        out = io.StringIO()
        code = run(
            [
                "analyze", source_file, "--at", "d=10,x=0,t=0",
                "--no-lp-reduce", "--profile", "3",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "lp reduction: off" in text
        assert "E[C^1]" in text

    def test_soundness_flag(self, source_file):
        out = io.StringIO()
        run(["analyze", source_file, "--check", "--at", "d=10,x=0,t=0"], out=out)
        assert "soundness (Thm 4.4): OK" in out.getvalue()

    def test_simulation_flag(self, source_file):
        out = io.StringIO()
        run(
            ["analyze", source_file, "--moments", "1", "--simulate", "500",
             "--at", "d=5,x=0,t=0"],
            out=out,
        )
        assert "simulation (500 runs)" in out.getvalue()

    def test_valuation_parsing(self):
        assert _parse_valuation("a=1,b=-2.5") == {"a": 1.0, "b": -2.5}
        assert _parse_valuation("") == {}
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_valuation("oops")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fuzz_command_verifies_small_corpus(self, tmp_path):
        out = io.StringIO()
        code = run(
            ["fuzz", "--seed", "0", "--count", "3", "--samples", "500",
             "--out", str(tmp_path / "violations")],
            out=out,
        )
        text = out.getvalue()
        assert code == 0, text
        assert "[seeds 0..2]" in text
        assert "differential soundness: 3 cases" in text
        # Nothing escaped its interval: no reproducers were dumped.
        assert not (tmp_path / "violations").exists()

    def test_fuzz_accepts_service_flags(self, tmp_path):
        out = io.StringIO()
        code = run(
            ["fuzz", "--seed", "10", "--count", "2", "--samples", "400",
             "--jobs", "2", "--executor", "thread",
             "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path / "violations")],
            out=out,
        )
        assert code == 0, out.getvalue()

    def test_analyze_with_cache_dir_is_reproducible(self, source_file, tmp_path):
        args = ["analyze", source_file, "--at", "d=10,x=0,t=0",
                "--cache-dir", str(tmp_path / "cache")]
        first = io.StringIO()
        assert run(args, out=first) == 0
        second = io.StringIO()
        assert run(args, out=second) == 0
        # The second run resolves from the disk cache: identical bytes,
        # including the recorded solve time.
        assert second.getvalue() == first.getvalue()
        assert "E[C^1]" in first.getvalue()


class TestBatchExitCode:
    BROKEN = """
    func main() begin
      call missing
    end
    """

    def _patch_registry(self, monkeypatch, programs):
        from repro.lang.parser import parse_program
        from repro.programs import registry
        from repro.programs.registry import BenchProgram

        benches = {
            name: BenchProgram(name=name, source=source, valuation={"d": 10.0})
            for name, source in programs.items()
        }
        monkeypatch.setattr(registry, "all_benchmarks", lambda: benches)
        monkeypatch.setattr(
            registry, "parsed", lambda name: parse_program(benches[name].source)
        )

    def test_batch_reports_failure_and_exits_nonzero(self, monkeypatch):
        self._patch_registry(monkeypatch, {"bad": self.BROKEN, "good": RDWALK})
        out = io.StringIO()
        code = run(["batch"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "FAILED" in text and "ValidationError" in text
        # The good program still completed and is reported normally.
        assert "good" in text and "1 failed" in text

    def test_batch_all_green_exits_zero(self, monkeypatch):
        self._patch_registry(monkeypatch, {"good": RDWALK})
        out = io.StringIO()
        assert run(["batch"], out=out) == 0
        assert "FAILED" not in out.getvalue()
