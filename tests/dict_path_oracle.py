"""Parity oracle for the symbolic kernel: the textbook dict-path loops.

The analyzer derives constraints through one path — the basis-change plans
and term accumulator of :mod:`repro.poly.kernel` and the column-compressed
certificate bases of :mod:`repro.logic.handelman`.  This module keeps the
plain loops those replace, written directly over ``Polynomial.coeffs`` and
the chained ``scale``/``oplus`` annotation arithmetic, so
``tests/test_poly_kernel.py`` can check that the fast path produces the
same floats *in the same insertion order* (which fixes LP row layout):

* unit parity — each function below against its kernel counterpart;
* analyzer parity — :func:`installed` swaps every oracle into the
  analyzer, so whole analyses can be compared bit for bit.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from repro.analysis import transformer
from repro.analysis.annotations import MomentAnnotation, PolyInterval
from repro.logic import handelman
from repro.lp.affine import AffBuilder
from repro.poly.polynomial import Polynomial
from repro.rings.moment import binomial


# -- polynomials ----------------------------------------------------------------


def substitute(poly: Polynomial, var: str, replacement: Polynomial) -> Polynomial:
    """``poly[replacement / var]``, one ``_add_term`` per expanded term."""
    result = Polynomial()
    powers: dict[int, Polynomial] = {0: Polynomial.constant(1.0)}

    def replacement_power(e: int) -> Polynomial:
        while e not in powers:
            k = max(powers)
            powers[k + 1] = powers[k] * replacement
        return powers[e]

    for mono, c in poly.coeffs.items():
        e = mono.exponent_of(var)
        if e == 0:
            result._add_term(mono, c)
            continue
        rest = mono.without(var)
        for sub_mono, sub_c in replacement_power(e).coeffs.items():
            result._add_term(rest * sub_mono, c * sub_c)
    return result


def expect_powers(
    poly: Polynomial, var: str, moment: Callable[[int], float]
) -> Polynomial:
    """Each power ``var^k`` replaced by ``moment(k)`` (rule Q-Sample)."""
    result = Polynomial()
    for mono, c in poly.coeffs.items():
        e = mono.exponent_of(var)
        if e == 0:
            result._add_term(mono, c)
        else:
            result._add_term(mono.without(var), c * moment(e))
    return result


# -- moment annotations -----------------------------------------------------------


def annotation_substitute(
    ann: MomentAnnotation, var: str, poly: Polynomial
) -> MomentAnnotation:
    return MomentAnnotation(
        [iv.map_ends(lambda e: substitute(e, var, poly)) for iv in ann.intervals]
    )


def annotation_expect(ann: MomentAnnotation, var: str, dist) -> MomentAnnotation:
    return MomentAnnotation(
        [
            iv.map_ends(lambda e: expect_powers(e, var, dist.moment))
            for iv in ann.intervals
        ]
    )


def oplus_all(annotations: list[MomentAnnotation]) -> MomentAnnotation:
    """The left fold of ``oplus``."""
    if not annotations:
        raise ValueError("oplus_all of no annotations")
    folded = annotations[0]
    for ann in annotations[1:]:
        folded = folded.oplus(ann)
    return folded


def prefix_cost(ann: MomentAnnotation, cost: float) -> MomentAnnotation:
    """Rule Q-Tick as chained sums of scaled intervals."""
    m = ann.degree
    powers = [1.0]
    for _ in range(m):
        powers.append(powers[-1] * cost)
    result = []
    for k in range(m + 1):
        acc = PolyInterval.zero()
        for i in range(k + 1):
            acc = acc + ann.intervals[k - i].scale(binomial(k, i) * powers[i])
        result.append(acc)
    return MomentAnnotation(result)


def prob_mix(
    ann: MomentAnnotation, p: float, other: MomentAnnotation
) -> MomentAnnotation:
    """Rule Q-Prob as two scalings and an ``oplus``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("branch probability must lie in [0, 1]")
    return ann.scale(p).oplus(other.scale(1.0 - p))


# -- certificates -------------------------------------------------------------------


def emit_nonneg_certificate(
    lp,
    ctx,
    poly: Polynomial,
    degree: int,
    label: str = "cert",
    minus: Polynomial | None = None,
) -> None:
    """Certificate emission with a per-product, per-monomial λ loop."""
    target = handelman._certificate_target(ctx, poly, minus)
    if target is None:
        return
    cert_degree = max(degree, max(m.degree for m in target))
    products = handelman.certificate_products(ctx, cert_degree)
    lam_base = None
    for j, prod in enumerate(products):
        lam = lp.fresh_nonneg(f"{label}.λ{j}")
        if lam_base is None:
            lam_base = lam.index
        for mono, c in prod.coeffs.items():
            target.setdefault(mono, AffBuilder()).add_var(lam, -float(c))
    lp.note_cert_span(lam_base, len(products))
    for mono, builder in target.items():
        lp.add_eq(builder, note=f"{label}[{mono!r}]")


# -- the analyzer on the oracle -----------------------------------------------------


@contextmanager
def installed():
    """Run the analyzer on the oracle loops instead of the kernel."""
    patches = [
        (MomentAnnotation, "substitute", annotation_substitute),
        (MomentAnnotation, "expect", annotation_expect),
        (MomentAnnotation, "prefix_cost", prefix_cost),
        (MomentAnnotation, "prob_mix", prob_mix),
        (MomentAnnotation, "oplus_all", staticmethod(oplus_all)),
        (transformer, "emit_nonneg_certificate", emit_nonneg_certificate),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
