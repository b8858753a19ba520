"""Entailment between linear assertions.

``Γ |= e >= 0`` over the reals holds iff the minimum of ``e`` subject to the
constraints of Γ is nonnegative (including the vacuous case where Γ is
infeasible).  By LP duality this is equivalent to the Farkas certificate
``e = λ0 + Σ λ_i g_i`` with ``λ >= 0`` that the paper's rewrite functions
use; solving the primal with HiGHS is both exact enough and simpler.

Most queries have a forced answer: the target is an atom ``g`` of Γ, or
``a·g + s`` with ``a > 0`` and ``s >= 0`` (a Farkas certificate with one
multiplier), which :func:`forced` reads off the coefficients.  Every other
query is one small LP (:func:`query_lp`), solved by
:mod:`repro.lp.small_lp` (HiGHS directly, with the model and options
scipy's HiGHS wrapper would use).  Both are memoized per distinct query.

A context HiGHS cannot load — a non-finite coefficient, or one beyond
HiGHS's matrix-value limit — gets no answer, and no answer is read
conservatively: it entails nothing beyond the trivial, and it is feasible.
So :func:`forced` fires only on a query HiGHS would load as written, and
leaves every other one to the LP.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.logic.linear import LinExpr, LinIneq
from repro.lp import small_lp

#: HiGHS drops a matrix value of magnitude <= 1e-9 and refuses one >= 1e15.
#: Constants share the upper limit, far below HiGHS's 1e20 "infinite" bound.
_SMALLEST, _LARGEST = 1e-9, 1e15


@lru_cache(maxsize=100_000)
def _entails_cached(
    gamma: tuple[LinIneq, ...], target: LinIneq
) -> bool:
    return forced(gamma, target) or lp_decision(gamma, target)


def forced(gamma: tuple[LinIneq, ...], target: LinIneq) -> bool:
    """Is ``target`` equal to ``a·g + s`` for an atom ``g`` of ``gamma``,
    with ``a > 0`` and ``s >= 0`` (``g`` itself: ``a = 1``, ``s = 0``),
    compared in float with no tolerance, in a query HiGHS would load whole?
    ``False`` means "not forced", not "no"."""
    t = target.expr
    names = [v for v, _ in t.coeffs]
    for g in gamma:
        e = g.expr
        if not (e.coeffs and e.coeffs[0][1]) or [v for v, _ in e.coeffs] != names:
            continue
        a = t.coeffs[0][1] / e.coeffs[0][1]
        if (
            a > 0
            and all(tc == a * ec for (_, tc), (_, ec) in zip(t.coeffs, e.coeffs))
            and t.const - a * e.const >= 0
        ):
            return _loads(gamma, target)
    return False


def _loads(gamma: tuple[LinIneq, ...], target: LinIneq) -> bool:
    """Would HiGHS take the query's LP as written: every coefficient of
    magnitude in ``(1e-9, 1e15)``, every constant finite and below 1e15?"""
    for g in (*gamma, target):
        if not abs(g.expr.const) < _LARGEST:
            return False
        if not all(_SMALLEST < abs(c) < _LARGEST for _, c in g.expr.coeffs):
            return False
    return True


def query_lp(
    gamma: tuple[LinIneq, ...], target: LinIneq
) -> "tuple[np.ndarray, ...] | None":
    """The arguments of :func:`repro.lp.small_lp.solve` that minimize
    ``target`` over ``gamma``: ``(c, a_ub, b_ub, lower, upper)`` over the
    sorted variables of the query, or ``None`` when it has none."""
    variables = sorted(
        set().union(*(g.variables() for g in gamma), target.variables())
        if gamma
        else target.variables()
    )
    if not variables:
        return None
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    # Constraints g_i(x) >= 0  become  -coeffs . x <= const.
    a_ub = np.zeros((len(gamma), n))
    b_ub = np.zeros(len(gamma))
    for row, g in enumerate(gamma):
        for v, c in g.expr.coeffs:
            a_ub[row, index[v]] = -c
        b_ub[row] = g.expr.const

    objective = np.zeros(n)
    for v, c in target.expr.coeffs:
        objective[index[v]] = c

    free = np.full(n, np.inf)
    return objective, a_ub, b_ub, -free, free


def lp_decision(gamma: tuple[LinIneq, ...], target: LinIneq) -> bool:
    """Decide ``gamma |= target`` by minimizing ``target`` over ``gamma``."""
    lp = query_lp(gamma, target)
    if lp is None:
        if not np.isfinite([g.expr.const for g in gamma]).all():
            return False  # a non-finite row: no answer
        feasible = all(g.expr.const >= 0 for g in gamma)
        return (not feasible) or target.expr.const >= -1e-9

    result = small_lp.solve(*lp)
    if result.status == small_lp.INFEASIBLE:  # entails everything
        return True
    if not result.success:  # unbounded below, rejected, or failed
        return False
    return result.fun + target.expr.const >= -1e-7


def entails(gamma: "tuple[LinIneq, ...] | list[LinIneq]", target: LinIneq) -> bool:
    """Does the conjunction of ``gamma`` entail ``target`` over the reals?"""
    if target.is_trivial():
        return True
    return _entails_cached(tuple(gamma), target)


def is_feasible(gamma: "tuple[LinIneq, ...] | list[LinIneq]") -> bool:
    """Is the conjunction of ``gamma`` satisfiable over the reals?"""
    contradiction = LinIneq(LinExpr.constant(-1.0))
    return not entails(tuple(gamma), contradiction)
