"""Parity oracle for the small-LP helper: ``scipy.optimize.linprog``.

The context analysis decides its entailments and picks its default
objective valuation through :func:`repro.lp.small_lp.solve`, which calls
HiGHS directly.  This module keeps the call that replaced —
``linprog(method="highs")`` with the arguments the analyzer used to pass —
and a recorder that captures every entailment query and every small LP an
analysis issues, so ``tests/test_small_lp.py`` can check that the helper's
status, ``x`` and ``fun`` are bitwise equal to ``linprog``'s, and that
each structurally forced entailment is the one the LP decides:

* :func:`recording` captures every entailment query and the
  ``(c, a_ub, b_ub, lower, upper)`` of every
  :func:`~repro.lp.small_lp.solve` call made inside it;
  :meth:`Recording.lps` adds the LP of every query, forced or not;
* :func:`small_lps_of` runs the stages of one analysis that issue them
  (the context analysis and the automatic objective valuation);
* :func:`linprog_reference` solves one recorded LP the old way.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
import pytest
from scipy.optimize import linprog

from repro import AnalysisOptions, AnalysisPipeline
from repro.logic import entail
from repro.logic.linear import LinIneq
from repro.lp import small_lp


class SmallLP(NamedTuple):
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def key(self) -> tuple:
        return tuple(np.asarray(part).tobytes() for part in self) + (
            np.shape(self.a_ub),
        )


@dataclass
class Recording:
    """What the analyses inside :func:`recording` asked: entailment
    queries ``(gamma, target)`` and the small LPs actually solved (the
    feasible-point LPs and the entailments no structural rule decides)."""

    queries: list[tuple[tuple[LinIneq, ...], LinIneq]] = field(default_factory=list)
    solved: list[SmallLP] = field(default_factory=list)

    def distinct_queries(self) -> list[tuple[tuple[LinIneq, ...], LinIneq]]:
        return list(dict.fromkeys(self.queries))

    def lps(self) -> list[SmallLP]:
        """Distinct small LPs: every one solved, plus the LP of every
        entailment query, also where no LP was solved for it."""
        built = (entail.query_lp(*query) for query in self.distinct_queries())
        lps = self.solved + [as_small_lp(lp) for lp in built if lp is not None]
        return list({lp.key(): lp for lp in lps}.values())


def as_small_lp(parts) -> SmallLP:
    return SmallLP(*(np.array(p, dtype=np.float64) for p in parts))


@contextmanager
def recording() -> Iterator[Recording]:
    """Every entailment query and every small LP solved inside the block,
    in call order.  The entailment memo is cleared on entry, so no query
    is answered from an earlier analysis."""
    recorded = Recording()
    solve = small_lp.solve
    entails_cached = entail._entails_cached

    def recording_solve(c, a_ub, b_ub, lower, upper):
        recorded.solved.append(as_small_lp((c, a_ub, b_ub, lower, upper)))
        return solve(c, a_ub, b_ub, lower, upper)

    def recording_entails(gamma, target):
        recorded.queries.append((gamma, target))
        return entails_cached(gamma, target)

    entails_cached.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(small_lp, "solve", recording_solve)
        patch.setattr(entail, "_entails_cached", recording_entails)
        yield recorded
    entails_cached.cache_clear()


def small_lps_of(program) -> None:
    """Run the analysis stages that solve small LPs: the context analysis
    (every entailment) and the automatic objective valuation (the
    feasible-point LP)."""
    pipe = AnalysisPipeline(program)
    pipe.context_map()
    pipe._objective_valuations(AnalysisOptions())


def linprog_reference(lp: SmallLP) -> small_lp.SmallLPResult:
    """``lp`` through ``linprog(method="highs")``, as the analyzer solved
    it before the helper."""
    rows = len(lp.b_ub)
    result = linprog(
        lp.c,
        A_ub=lp.a_ub if rows else None,
        b_ub=lp.b_ub if rows else None,
        bounds=[
            (None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
            for lo, hi in zip(lp.lower, lp.upper)
        ],
        method="highs",
    )
    return small_lp.SmallLPResult(result.status, result.x, result.fun)
