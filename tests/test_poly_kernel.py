"""The symbolic kernel must be invisible: same numbers, faster.

The kernel is the analyzer's only derivation path; ``dict_path_oracle``
keeps the textbook dict loops it replaces.  Three layers of evidence, from
unit to end-to-end:

1. Property suites over seeded random polynomials (dyadic coefficients, as
   in the fuzz generator, so float arithmetic round-trips exactly): the
   plan-routed template operations reproduce the oracle results including
   coefficient dict insertion order (which feeds LP row layout).
2. Constraint-system parity: the LP emitted by certificate emission is
   byte-identical — same triplets, same row order, same variable names —
   to the oracle's per-product loop.
3. Analyzer parity: `analyze` bounds are identical (same floats, not just
   close) for the fixed-seed fuzz corpus and registry programs with the
   oracle loops swapped into the analyzer.
"""

from __future__ import annotations

import numpy as np
import pytest

import dict_path_oracle as oracle
from repro import AnalysisOptions, AnalysisPipeline
from repro.analysis.annotations import MomentAnnotation, PolyInterval
from repro.logic.handelman import (
    certificate_basis,
    certificate_cache_stats,
    clear_certificate_caches,
    emit_nonneg_certificate,
)
from repro.logic.context import Context
from repro.logic.linear import LinExpr, LinIneq
from repro.lp.affine import AffForm
from repro.lp.backends import ScipyDenseBackend
from repro.lp.backends.base import EQ, GE
from repro.lp.core import LPInfeasibleError
from repro.lp.problem import LPProblem
from repro.poly.kernel import ExpectationPlan, clear_plan_caches, substitution_plan
from repro.poly.monomial import Monomial, intern_id, monomial_of_id, product_id
from repro.poly.polynomial import Polynomial
from repro.programs.fuzz import generate_corpus
from repro.programs.synthetic import coupon_chain, rdwalk_chain

VARS = ("x", "y", "d")


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_certificate_caches()
    clear_plan_caches()
    yield
    clear_certificate_caches()
    clear_plan_caches()


def random_poly(rng: np.random.Generator, max_terms: int = 6, max_exp: int = 3) -> Polynomial:
    """A random concrete polynomial with dyadic coefficients."""
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        powers = {
            v: int(rng.integers(0, max_exp + 1))
            for v in VARS
            if rng.random() < 0.6
        }
        mono = Monomial.from_dict(powers)
        coeff = int(rng.integers(-64, 65)) / 16.0
        if coeff:
            terms[mono] = terms.get(mono, 0.0) + coeff
    return Polynomial(terms)


def random_template(rng: np.random.Generator, lp: LPProblem) -> Polynomial:
    """A random template polynomial: AffForm coefficients over fresh vars."""
    poly = random_poly(rng)
    coeffs = {}
    for i, (mono, c) in enumerate(poly.coeffs.items()):
        if i % 2 == 0:
            coeffs[mono] = AffForm.of_var(lp.fresh(f"t{i}"), c)
        else:
            coeffs[mono] = c
    return Polynomial(coeffs)


def poly_items(poly: Polynomial):
    """Coefficient items *in insertion order* — the LP-visible layout."""
    return [(m.powers, c) for m, c in poly.coeffs.items()]


# ---------------------------------------------------------------------------
# Interned monomials
# ---------------------------------------------------------------------------


class TestInternTable:
    def test_product_table_matches_structural_product(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Monomial.from_dict(
                {v: int(rng.integers(0, 4)) for v in VARS if rng.random() < 0.7}
            )
            b = Monomial.from_dict(
                {v: int(rng.integers(0, 4)) for v in VARS if rng.random() < 0.7}
            )
            prod = a * b
            expected = {v: a.exponent_of(v) + b.exponent_of(v) for v in VARS}
            assert prod == Monomial.from_dict(expected)
            # Commutative, and memoized to the same interned instance.
            assert (b * a) is prod or (b * a) == prod

    def test_interned_ids_are_stable_and_roundtrip(self):
        m = Monomial.from_dict({"x": 2, "y": 1})
        assert monomial_of_id(m.iid) == m
        assert intern_id(Monomial.from_dict({"x": 2, "y": 1})) == m.iid
        assert product_id(m.iid, m.iid) == Monomial.from_dict({"x": 4, "y": 2}).iid

    def test_unit_product_identity(self):
        m = Monomial.of("x", 3)
        assert m * Monomial.unit() is m
        assert Monomial.unit() * m is m

    def test_pickle_drops_process_local_state(self):
        import pickle

        m = Monomial.from_dict({"x": 2})
        _ = m.iid, hash(m), repr(m), m.degree  # populate every cache
        clone = pickle.loads(pickle.dumps(m))
        assert clone == m
        assert not hasattr(clone, "_iid")  # re-derived lazily, not shipped
        assert clone.iid == m.iid  # same process, same table

    def test_unit_monomial_pickle_roundtrip(self):
        import pickle

        clone = pickle.loads(pickle.dumps(Monomial.unit()))
        assert clone == Monomial.unit()
        assert clone.is_unit()

    def test_from_dict_rejects_negative_exponents(self):
        # Regression: the validation used to run *after* the ``e > 0``
        # filter, so negative exponents were silently dropped instead of
        # rejected.
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": -1})
        with pytest.raises(ValueError):
            Monomial.from_dict({"x": 2, "y": -3})


# ---------------------------------------------------------------------------
# Plans: identical values AND identical insertion order
# ---------------------------------------------------------------------------


class TestPolynomialEntryPoints:
    """``Polynomial.substitute`` / ``expect_powers`` route through the plans."""

    def test_substitute_matches_dict_path(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p, repl = random_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
            var = VARS[int(rng.integers(0, len(VARS)))]
            expected = oracle.substitute(p, var, repl)
            assert poly_items(p.substitute(var, repl)) == poly_items(expected)

    def test_expect_powers_matches_dict_path(self):
        rng = np.random.default_rng(29)
        moments = {k: (k + 1) / 2.0 for k in range(1, 16)}
        for _ in range(100):
            p = random_poly(rng)
            var = VARS[int(rng.integers(0, len(VARS)))]
            expected = oracle.expect_powers(p, var, moments.__getitem__)
            got = p.expect_powers(var, moments.__getitem__)
            assert poly_items(got) == poly_items(expected)

    def test_template_replacement_rejected(self):
        lp = LPProblem(backend=ScipyDenseBackend())
        template = Polynomial({Monomial.of("y"): AffForm.of_var(lp.fresh("u"))})
        with pytest.raises(TypeError):
            Polynomial.var("x").substitute("x", template)


class TestPlans:
    def test_substitution_plan_matches_legacy_exactly(self):
        rng = np.random.default_rng(37)
        for _ in range(120):
            p, repl = random_poly(rng), random_poly(rng, max_terms=3, max_exp=2)
            var = VARS[int(rng.integers(0, len(VARS)))]
            expected = oracle.substitute(p, var, repl)
            clear_plan_caches()
            got = substitution_plan(var, repl).apply(p)
            assert poly_items(got) == poly_items(expected)

    def test_substitution_plan_on_templates(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            lp = LPProblem(backend=ScipyDenseBackend())
            p = random_template(rng, lp)
            repl = random_poly(rng, max_terms=3, max_exp=2)
            var = VARS[int(rng.integers(0, len(VARS)))]
            expected = oracle.substitute(p, var, repl)
            clear_plan_caches()
            got = substitution_plan(var, repl).apply(p)
            assert poly_items(got) == poly_items(expected)
            for mono, c in expected.coeffs.items():
                mirror = got.coeffs[mono]
                assert type(mirror) is type(c)
                if isinstance(c, AffForm):
                    assert list(mirror.terms.items()) == list(c.terms.items())

    def test_expectation_plan_matches_legacy_exactly(self):
        rng = np.random.default_rng(43)
        moments = {k: (2.0 ** -k) * 3 for k in range(1, 16)}
        for _ in range(60):
            lp = LPProblem(backend=ScipyDenseBackend())
            p = random_template(rng, lp)
            var = VARS[int(rng.integers(0, len(VARS)))]
            expected = oracle.expect_powers(p, var, moments.__getitem__)
            got = ExpectationPlan(var, moments.__getitem__).apply(p)
            assert poly_items(got) == poly_items(expected)

    def test_plans_are_memoized(self):
        repl = Polynomial({Monomial.of("x"): 1.0, Monomial.unit(): -1.0})
        assert substitution_plan("x", repl) is substitution_plan("x", repl)

    def test_annotation_ops_match_with_kernel_off(self):
        """prefix_cost / prob_mix / oplus_all: fused vs chained oracle."""
        rng = np.random.default_rng(47)
        for _ in range(30):
            lp = LPProblem(backend=ScipyDenseBackend())

            def ann():
                return MomentAnnotation(
                    [
                        PolyInterval(random_template(rng, lp), random_template(rng, lp))
                        for _ in range(3)
                    ]
                )

            a, b = ann(), ann()
            cost = int(rng.integers(-8, 9)) / 4.0
            prob = int(rng.integers(1, 16)) / 16.0
            fused = (
                a.prefix_cost(cost),
                a.prob_mix(prob, b),
                MomentAnnotation.oplus_all([a, b, a]),
            )
            chained = (
                oracle.prefix_cost(a, cost),
                oracle.prob_mix(a, prob, b),
                oracle.oplus_all([a, b, a]),
            )
            for got, want in zip(fused, chained):
                for iv_g, iv_w in zip(got.intervals, want.intervals):
                    assert poly_items(iv_g.lo) == poly_items(iv_w.lo)
                    assert poly_items(iv_g.hi) == poly_items(iv_w.hi)


# ---------------------------------------------------------------------------
# Certificate emission parity
# ---------------------------------------------------------------------------


def _ctx(*pairs) -> Context:
    return Context(tuple(LinIneq(LinExpr.build(dict(c), k)) for c, k in pairs))


def _lp_fingerprint(lp: LPProblem):
    # The dense backend stores (terms dict, const) per row; listing the
    # items preserves insertion order, so this captures the exact layout the
    # solver would see — and works on every CI leg (no HiGHS required).
    rows = lp.backend._rows
    return (
        [v.name for v in lp.pool.variables],
        sorted(lp.nonneg_indices),
        {
            kind: [(list(terms.items()), const) for terms, const in rows[kind]]
            for kind in (EQ, GE)
        },
    )


class TestEmissionParity:
    def test_emission_is_byte_identical(self):
        rng = np.random.default_rng(53)
        ctx = _ctx(({"x": 1.0}, 0.0), ({"x": -1.0, "d": 1.0}, 2.0))
        for trial in range(25):
            fingerprints = []
            for emit in (emit_nonneg_certificate, oracle.emit_nonneg_certificate):
                clear_certificate_caches()
                clear_plan_caches()
                lp = LPProblem(backend=ScipyDenseBackend())
                template_rng = np.random.default_rng(1000 + trial)
                poly = random_template(template_rng, lp)
                minus = random_template(template_rng, lp)
                error = None
                try:
                    emit(lp, ctx, poly, 2, label=f"t{trial}", minus=minus)
                except LPInfeasibleError as err:
                    # A trivially contradictory row (all-constant target)
                    # must surface identically — same message, same
                    # partially emitted system — on both paths.
                    error = str(err)
                fingerprints.append((error, _lp_fingerprint(lp)))
            assert fingerprints[0] == fingerprints[1]

    def test_basis_matches_products(self):
        from repro.logic.handelman import certificate_products

        ctx = _ctx(({"x": 1.0}, 0.0), ({"y": 1.0}, 1.0))
        basis = certificate_basis(ctx, 3)
        products = certificate_products(ctx, 3)
        assert basis.n_products == len(products)
        rebuilt: dict = {}
        for mono, rows, negs in basis.columns:
            for j, neg in zip(rows.tolist(), negs):
                rebuilt.setdefault(j, {})[mono] = -neg
        for j, prod in enumerate(products):
            assert rebuilt.get(j, {}) == dict(prod.coeffs)

    def test_basis_is_cached_per_context_and_degree(self):
        ctx = _ctx(({"x": 1.0}, 0.0))
        b1 = certificate_basis(ctx, 2)
        assert certificate_basis(ctx, 2) is b1
        assert certificate_basis(ctx, 3) is not b1
        # A structurally equal context hits the same entry.
        assert certificate_basis(_ctx(({"x": 1.0}, 0.0)), 2) is b1
        assert certificate_cache_stats()["bases"] == 2


# ---------------------------------------------------------------------------
# End-to-end: analyzer outputs are byte-identical
# ---------------------------------------------------------------------------


def _bounds_fingerprint(result):
    def ann_items(ann):
        return [
            (poly_items(iv.lo), poly_items(iv.hi)) for iv in ann.intervals
        ]

    return (
        ann_items(result.raw),
        {
            name: (
                [ann_items(a) for a in fb.pres],
                [ann_items(a) for a in fb.posts],
            )
            for name, fb in sorted(result.functions.items())
        },
        result.objective_values,
    )


def _analyze(program, options):
    clear_certificate_caches()
    clear_plan_caches()
    try:
        return _bounds_fingerprint(AnalysisPipeline(program).analyze(options))
    except LPInfeasibleError as err:
        return ("infeasible", str(err))


def _analyze_both(program, options):
    """(kernel, oracle) fingerprints of one analysis."""
    kernel = _analyze(program, options)
    with oracle.installed():
        return kernel, _analyze(program, options)


class TestAnalyzerParity:
    def test_fuzz_corpus_bounds_identical(self):
        for case in generate_corpus(8, seed=0):
            got, want = _analyze_both(
                case.parse(), AnalysisOptions(moment_degree=2)
            )
            assert got == want, f"kernel changed bounds for fuzz seed {case.seed}"

    def test_registry_programs_bounds_identical(self):
        from repro.programs import registry

        sample = [
            "rdwalk",
            "geo",
            "absynth-prdwalk",
            "absynth-race",
            "wang-running-example",
            "kura-1-1",
        ]
        available = registry.all_benchmarks()
        for name in sample:
            if name not in available:
                continue
            bench = available[name]
            options = AnalysisOptions(
                moment_degree=min(bench.moment_degree, 2),
                template_degree=bench.template_degree,
                degree_cap=bench.degree_cap,
                objective_valuations=(bench.valuation,),
            )
            got, want = _analyze_both(registry.parsed(name), options)
            assert got == want, f"kernel changed bounds for registry {name!r}"

    def test_synthetic_m4_bounds_identical(self):
        for program in (coupon_chain(3), rdwalk_chain(1)):
            got, want = _analyze_both(program, AnalysisOptions(moment_degree=4))
            assert got == want
