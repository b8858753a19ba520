"""Entailment between linear assertions, decided exactly via LP.

``Γ |= e >= 0`` over the reals holds iff the minimum of ``e`` subject to the
constraints of Γ is nonnegative (including the vacuous case where Γ is
infeasible).  By LP duality this is equivalent to the Farkas certificate
``e = λ0 + Σ λ_i g_i`` with ``λ >= 0`` that the paper's rewrite functions
use; solving the primal with HiGHS is both exact enough and simpler.

Each distinct query is one small LP, solved by :mod:`repro.lp.small_lp`
(HiGHS directly, with the model and options scipy's HiGHS wrapper would
use) and memoized.  A context HiGHS cannot load — a non-finite
coefficient, or one beyond HiGHS's matrix-value limit — gets no answer,
and no answer is read conservatively: it entails nothing beyond the
trivial, and it is feasible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.logic.linear import LinExpr, LinIneq
from repro.lp import small_lp


@lru_cache(maxsize=100_000)
def _entails_cached(
    gamma: tuple[LinIneq, ...], target: LinIneq
) -> bool:
    variables = sorted(
        set().union(*(g.variables() for g in gamma), target.variables())
        if gamma
        else target.variables()
    )
    if not variables:
        if not np.isfinite([g.expr.const for g in gamma]).all():
            return False  # a non-finite row: no answer
        feasible = all(g.expr.const >= 0 for g in gamma)
        return (not feasible) or target.expr.const >= -1e-9

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
    result = small_lp.solve(objective, a_ub, b_ub, -free, free)
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
