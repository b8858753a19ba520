"""Small dense LPs solved straight on HiGHS.

The context analysis decides every entailment ``Γ |= e >= 0`` and picks
the default objective valuation with a tiny LP: a handful of columns, a
few dozen rows, solved hundreds of times per program.  Through
``scipy.optimize.linprog(method="highs")`` most of each call is scipy's
Python (input cleaning, per-call option validation, result checking), not
the HiGHS solve.  :func:`solve` hands HiGHS *the same model and options*
``linprog`` does and applies the checks of scipy's ``_check_result`` that a
caller can observe, so the decisions match ``linprog`` bit for bit
(``tests/test_small_lp.py`` checks this against the ``linprog`` oracle in
``tests/small_lp_oracle.py``):

* model: the column-wise CSC of the dense rows (zeros dropped, row indices
  ascending), rows ``(-inf, b_ub]``, infinite bounds mapped to
  ``±kHighsInf``;
* options: ``presolve="on"``, dual simplex, no output, all else default;
* a fresh solver object per call (no process-global solver state).

The binding is always the one scipy bundles for ``linprog``
(``scipy.optimize._highspy._core``), also where a standalone ``highspy``
is installed: it is the HiGHS build ``linprog`` would have run.  Where it
does not import, :func:`solve` calls ``linprog`` itself.

One deliberate difference: a model HiGHS rejects (a matrix entry of
magnitude >= 1e15, say) or one with a non-finite entry has no answer and
gets :data:`REJECTED`.  ``linprog`` reports the first as "infeasible",
which would read as "this context entails everything", and raises on the
second.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

try:
    from scipy.optimize._highspy import _core as _hs  # type: ignore
except ImportError:  # pragma: no cover - scipy without bundled HiGHS
    _hs = None

#: ``linprog``'s status codes, plus one for a model HiGHS refuses to load.
OPTIMAL, LIMIT, INFEASIBLE, UNBOUNDED, FAILED, REJECTED = range(6)

#: Slack and bound tolerance of scipy's ``_check_result`` (``tol=1e-9``).
_TOL = np.sqrt(1e-9) * 10


class SmallLPResult(NamedTuple):
    status: int
    x: "np.ndarray | None"
    fun: "float | None"

    @property
    def success(self) -> bool:
        return self.status == OPTIMAL


_NO_ANSWER = SmallLPResult(REJECTED, None, None)

if _hs is not None:
    _STATUS = {
        _hs.HighsModelStatus.kOptimal: OPTIMAL,
        _hs.HighsModelStatus.kTimeLimit: LIMIT,
        _hs.HighsModelStatus.kIterationLimit: LIMIT,
        _hs.HighsModelStatus.kInfeasible: INFEASIBLE,
        _hs.HighsModelStatus.kUnbounded: UNBOUNDED,
        _hs.HighsModelStatus.kModelError: REJECTED,
    }


def binding() -> "str | None":
    """Module name of the HiGHS binding :func:`solve` runs on (``None``:
    it falls back to ``linprog``)."""
    return None if _hs is None else _hs.__name__


def solve(c, a_ub, b_ub, lower, upper) -> SmallLPResult:
    """``min c·x  s.t.  a_ub @ x <= b_ub,  lower <= x <= upper``.

    ``a_ub`` is dense (``len(b_ub)`` rows, ``len(c)`` columns, possibly no
    rows); ``lower``/``upper`` may hold ``±inf``.  The status is
    ``linprog``'s (``x``/``fun`` are set iff HiGHS reached an optimum, and
    kept when the result check demotes it to :data:`FAILED`), or
    :data:`REJECTED`.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b_ub, dtype=np.float64)
    a = np.asarray(a_ub, dtype=np.float64).reshape(len(b), len(c))
    if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
        return _NO_ANSWER
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if _hs is None:  # pragma: no cover - scipy without bundled HiGHS
        return _solve_linprog(c, a, b, lower, upper)

    n, m = len(c), len(b)
    cols, rows = np.nonzero(a.T)
    lp = _hs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.col_cost_ = c
    lp.col_lower_ = _finite(lower)
    lp.col_upper_ = _finite(upper)
    lp.row_lower_ = np.full(m, -_hs.kHighsInf)
    lp.row_upper_ = b
    matrix = lp.a_matrix_
    matrix.format_ = _hs.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1)).astype(np.int32)
    matrix.index_ = rows.astype(np.int32)
    matrix.value_ = a[rows, cols]

    h = _hs._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("log_to_console", False)
    h.setOptionValue("presolve", "on")
    h.setOptionValue("simplex_strategy", 1)  # dual
    if h.passModel(lp) == _hs.HighsStatus.kError:
        return _NO_ANSWER
    h.run()
    status = _STATUS.get(h.getModelStatus(), FAILED)
    if status != OPTIMAL:
        return SmallLPResult(status, None, None)
    solution = h.getSolution()
    x = np.array(solution.col_value)
    fun = h.getInfo().objective_function_value
    slack = b - np.asarray(solution.row_value)
    if not _checks_out(x, fun, slack, lower, upper):
        status = FAILED
    return SmallLPResult(status, x, fun)


def _finite(bounds: np.ndarray) -> np.ndarray:
    """``±inf`` replaced by ``±kHighsInf``, as ``linprog`` hands HiGHS."""
    return np.where(np.isinf(bounds), np.sign(bounds) * _hs.kHighsInf, bounds)


def _checks_out(x, fun, slack, lower, upper) -> bool:
    """scipy's ``_check_result`` for an optimal status: no NaNs, no slack
    below ``-tol`` and ``x`` within its bounds up to ``tol``."""
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return False
    return bool(
        (x >= lower - _TOL).all()
        and (x <= upper + _TOL).all()
        and not (slack < -_TOL).any()
    )


def _solve_linprog(c, a, b, lower, upper) -> SmallLPResult:  # pragma: no cover
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=a if len(b) else None,
        b_ub=b if len(b) else None,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    status = result.status
    if status == INFEASIBLE and not result.message.startswith(
        "The problem is infeasible"
    ):
        # linprog reports a model HiGHS refused to load as infeasible too.
        status = REJECTED
    return SmallLPResult(status, result.x, result.fun)
