"""Parity oracle for the small-LP helper: ``scipy.optimize.linprog``.

The context analysis decides its entailments and picks its default
objective valuation through :func:`repro.lp.small_lp.solve`, which calls
HiGHS directly.  This module keeps the call that replaced —
``linprog(method="highs")`` with the arguments the analyzer used to pass —
and a recorder that captures every small LP an analysis issues, so
``tests/test_small_lp.py`` can check that the helper's status, ``x`` and
``fun`` are bitwise equal to ``linprog``'s:

* :func:`recording` captures the ``(c, a_ub, b_ub, lower, upper)`` of
  every :func:`~repro.lp.small_lp.solve` call made inside it;
* :func:`small_lps_of` runs the stages of one analysis that issue them
  (the context analysis and the automatic objective valuation);
* :func:`linprog_reference` solves one recorded LP the old way.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple

import numpy as np
import pytest
from scipy.optimize import linprog

from repro import AnalysisOptions, AnalysisPipeline
from repro.logic import entail
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


@contextmanager
def recording() -> Iterator[list[SmallLP]]:
    """Every small LP solved inside the block, in call order.  The
    entailment memo is cleared on entry, so no query is answered from an
    earlier analysis."""
    recorded: list[SmallLP] = []
    solve = small_lp.solve

    def recording_solve(c, a_ub, b_ub, lower, upper):
        parts = (c, a_ub, b_ub, lower, upper)
        recorded.append(SmallLP(*(np.array(p, dtype=np.float64) for p in parts)))
        return solve(c, a_ub, b_ub, lower, upper)

    entail._entails_cached.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(small_lp, "solve", recording_solve)
        yield recorded
    entail._entails_cached.cache_clear()


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
