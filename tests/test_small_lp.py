"""The small-LP helper behind entailment and the feasible point.

* parity: every small LP the registry programs and the committed fuzz
  corpus issue — the LP of every entailment query, also one decided
  without it — gets the status, ``x`` and ``fun`` that
  ``linprog(method="highs")`` gives, bit for bit (the oracle lives in
  ``tests/small_lp_oracle.py``);
* every entailment the structural rule forces is the one the LP decides;
* a model HiGHS rejects, or one with a non-finite entry, gets no answer;
* on the analysis path ``linprog`` is not called at all when HiGHS imports.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

import small_lp_oracle as oracle
from repro import AnalysisOptions, analyze
from repro.logic import entail
from repro.lp import small_lp
from repro.lp.backends import highs_available
from repro.programs import registry
from repro.soundness.corpus import load_corpus

CORPUS_DIR = pathlib.Path(__file__).parent / "data" / "fuzz_corpus"

SCIPY_BUNDLES_HIGHS = importlib.util.find_spec("scipy.optimize._highspy") is not None


def _bits(value) -> "bytes | None":
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


@pytest.fixture(scope="module")
def recorded():
    """Entailment queries and small LPs of the 42 registry programs and
    the corpus."""
    with oracle.recording() as recording:
        for name in sorted(registry.all_benchmarks()):
            oracle.small_lps_of(registry.parsed(name))
        for entry in load_corpus(CORPUS_DIR):
            oracle.small_lps_of(entry.case().parse())
    return recording


@pytest.fixture(scope="module")
def recorded_lps(recorded):
    """Distinct small LPs of the registry and the corpus, one per
    entailment query whether or not it was forced."""
    return recorded.lps()


class TestLinprogParity:
    def test_recorded_lps_cover_both_callers(self, recorded_lps):
        # Feasible-point LPs carry the one bounded slack column (upper 10).
        # (Many programs share a pre-condition, hence few distinct ones.)
        feasible_point = [lp for lp in recorded_lps if lp.upper[-1] == 10.0]
        assert len(feasible_point) >= 5
        assert len(recorded_lps) - len(feasible_point) >= 350

    def test_status_x_and_fun_are_bitwise_linprog(self, recorded_lps):
        compared = 0
        for lp in recorded_lps:
            got = small_lp.solve(*lp)
            if got.status == small_lp.REJECTED:
                continue  # linprog calls these infeasible or raises
            want = oracle.linprog_reference(lp)
            assert got.status == want.status, lp
            assert _bits(got.x) == _bits(want.x), lp
            assert _bits(got.fun) == _bits(want.fun), lp
            compared += 1
        assert compared == len(recorded_lps)


class TestForcedEntailment:
    def test_forced_decisions_are_the_lp_decisions(self, recorded):
        """Every distinct query of the registry and the corpus: wherever
        the structural rule fires, the LP decides the same."""
        fired = 0
        for gamma, target in recorded.distinct_queries():
            if entail.forced(gamma, target):
                assert entail.lp_decision(gamma, target), (gamma, target)
                fired += 1
        assert fired >= 380

    def test_forced_queries_solve_no_lp(self, recorded):
        """Only the queries the rule leaves open reach HiGHS.  (Queries
        that differ only in the target's constant share one LP.)"""

        def lp_keys(forced: bool) -> set:
            return {
                oracle.as_small_lp(lp).key()
                for query in recorded.distinct_queries()
                if entail.forced(*query) == forced
                and (lp := entail.query_lp(*query)) is not None
            }

        forced_only = lp_keys(True) - lp_keys(False)
        assert forced_only
        assert not forced_only & {lp.key() for lp in recorded.solved}


class TestNoAnswer:
    FREE = np.full(2, np.inf)

    def test_huge_matrix_entry_is_rejected_not_infeasible(self):
        # x >= 0, 1e16 x + y >= 0: x = y = 0 is feasible, but HiGHS refuses
        # the model and linprog reports that as infeasible.
        a = np.array([[-1.0, 0.0], [-1e16, -1.0]])
        got = small_lp.solve([0.0, 0.0], a, [0.0, 0.0], -self.FREE, self.FREE)
        assert got.status == small_lp.REJECTED and not got.success
        want = oracle.linprog_reference(
            oracle.SmallLP(np.zeros(2), a, np.zeros(2), -self.FREE, self.FREE)
        )
        assert want.status == small_lp.INFEASIBLE

    @pytest.mark.parametrize("where", ["c", "a_ub", "b_ub"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_rejected(self, where, bad):
        parts = {
            "c": np.array([1.0, 0.0]),
            "a_ub": np.array([[-1.0, 0.0]]),
            "b_ub": np.array([0.0]),
        }
        parts[where].flat[0] = bad
        got = small_lp.solve(
            parts["c"], parts["a_ub"], parts["b_ub"], -self.FREE, self.FREE
        )
        assert got == (small_lp.REJECTED, None, None)


class TestBinding:
    @pytest.mark.skipif(not SCIPY_BUNDLES_HIGHS, reason="scipy without HiGHS")
    def test_binding_is_scipys_bundled_highs(self):
        assert small_lp.binding() == "scipy.optimize._highspy._core"

    @pytest.mark.skipif(
        not (SCIPY_BUNDLES_HIGHS and highs_available()),
        reason="a platform without HiGHS bindings solves through linprog",
    )
    def test_analysis_never_calls_linprog(self, monkeypatch):
        """rdwalk never reaches the incremental backend's dense fallback,
        so with HiGHS importable nothing on its path calls linprog."""
        import scipy.optimize

        from repro.lp.backends import scipy_dense

        linprog = scipy.optimize.linprog
        linprog_calls = []

        def counting_linprog(*args, **kwargs):
            linprog_calls.append(kwargs.get("method"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
        monkeypatch.setattr(scipy_dense, "linprog", counting_linprog)
        with oracle.recording() as recorded:
            result = analyze(
                registry.parsed("rdwalk"), AnalysisOptions(moment_degree=2)
            )
        assert result.raw_interval(1).hi > 0
        assert recorded.solved  # the analysis did solve small LPs
        assert linprog_calls == []
