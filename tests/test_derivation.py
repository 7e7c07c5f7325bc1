import random

import pytest

from conftest import check_coboundary_factorizations, monomials
from cotor.dga import Element, Monomial, enumerate_basis, gen
from cotor.derivation import (
    NAMED_GENERATOR_NAMES, build_named_generators, partial, partial2,
    raw_evaluator,
)
from cotor.differential import Differential
from cotor.relations import DERIVATIVE_CATALOG, derivative_catalog_report


@pytest.fixture(scope="module")
def d():
    return Differential("parity")


@pytest.fixture(scope="module")
def named(d):
    return build_named_generators(d)


def test_partial_on_generators():
    assert partial(gen("b16")) == -gen("a8")
    assert partial(gen("b12")) == -gen("a4")
    assert partial(gen("b18")) == -gen("a10")
    assert partial(gen("a4")).is_zero()


def test_partial_rejects_word_terms():
    with pytest.raises(ValueError):
        partial(gen("a9"))


def test_characteristic_three_cube():
    assert partial(gen("b12") ** 3).is_zero()
    assert partial2(gen("b12") ** 3).is_zero()


def test_second_derivative_values():
    ev = raw_evaluator()
    assert partial2(ev("b12*b16")) == ev("-a4*a8")
    assert partial2(ev("b16*b18^2")) == ev("a8*a10*b18 - a10^2*b16")


def test_partial_is_a_derivation():
    rng = random.Random(9)

    def rand_s(max_deg):
        while True:
            n = rng.choice(range(0, max_deg + 1, 2))
            monos = [m for m in monomials(enumerate_basis(n)) if not m.word]
            if monos:
                break
        return Element({m: rng.randint(1, 2) for m in
                        rng.sample(monos, min(2, len(monos)))})

    for _ in range(200):
        p, q = rand_s(24), rand_s(24)
        assert partial(p * q) == partial(p) * q + p * partial(q)


def test_triple_derivative_vanishes_up_to_60():
    for n in range(0, 61, 2):
        for m in monomials(enumerate_basis(n)):
            if m.word:
                continue
            assert partial(partial(partial(
                Element({m: 1})))).is_zero(), m.text()


def test_second_derivative_lands_in_kernel():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.choice(range(12, 40, 2))
        monos = [m for m in monomials(enumerate_basis(n)) if not m.word]
        q = Element({m: rng.randint(1, 2)
                     for m in rng.sample(monos, min(3, len(monos)))})
        assert partial(partial2(q)).is_zero()


def test_all_named_generators_are_cocycles(d, named):
    assert sorted(named) == sorted(NAMED_GENERATOR_NAMES)
    for g in named.values():
        assert d(g.element).is_zero()
        assert g.element.degree() == g.degree


def test_named_generator_formulas(named):
    ev = raw_evaluator()
    assert named["y20"].element == ev("a8*b12 - a4*b16")
    assert named["x36"].element == ev("b12^3")
    assert named["y58"].element == partial2(ev("b12^2*b16^2*b18"))
    a9, c17 = gen("a9"), gen("c17")
    assert named["x26"].element == a9 * c17 + c17 * a9


def bridge_identity(q, named, d):
    """x26 * partial2(-Q) = d(a9*Q + c17*partial(Q)): the x26 family
    identity x26 * partial2(Q') = d(-(a9*Q' + c17*partial(Q'))) at Q' = -Q."""
    checks = check_coboundary_factorizations(-q, named, d)
    return {c.label: c for c in checks}["x26"]


def test_bridge_identity_simple_cases(d, named):
    ev = raw_evaluator()
    # vanishing second derivative: both sides zero
    chk = bridge_identity(gen("b12"), named, d)
    assert chk.ok
    for q in ("b12^2", "b12*b16*b18", "b16^2*b18", "a8*b12*b18^2"):
        chk = bridge_identity(ev(q), named, d)
        assert chk.ok, q
        # the identity is not vacuous here
        assert not (named["x26"].element * partial2(ev(q))).is_zero(), q


def test_bridge_identity_all_monomials_up_to_40(d, named):
    for n in range(0, 41, 2):
        for m in monomials(enumerate_basis(n)):
            if m.word:
                continue
            assert bridge_identity(Element({m: 1}), named, d).ok, m.text()


def test_coboundary_factorizations(d, named):
    ev = raw_evaluator()
    for q in ("b12^2", "b16*b18", "a4", "b12*b16^2*b18"):
        checks = check_coboundary_factorizations(ev(q), named, d)
        assert [c.label for c in checks] == ["a9", "y21", "y25", "y27", "x26"]
        assert all(c.ok for c in checks), q


def catalog_polynomials() -> tuple:
    """The catalog's input monomials, as Elements of S."""
    ev = raw_evaluator()
    return tuple(ev(q) for q, _, _ in DERIVATIVE_CATALOG)


def test_catalog_covers_all_cubefree_b_monomials():
    qs = {q for q, _, _ in DERIVATIVE_CATALOG}
    assert len(qs) == 26
    polys = catalog_polynomials()
    assert all(p.in_commutative_subalgebra() for p in polys)


def test_catalog_report(engine):
    rows = {r.q: r for r in derivative_catalog_report(engine)}
    assert len(rows) == 26
    # simple rows match exactly
    r = rows["b12"]
    assert r.partial_display.verdict == "exact"
    assert r.partial2_displays[0].verdict == "exact"
    r2 = rows["b12^2"]
    assert r2.partial2_displays[-1].text == "-a4^2"
    assert r2.partial2_displays[-1].verdict == "exact"
    # every expanded form matches the machine value up to one overall sign
    assert all(r.expanded_ok for r in rows.values())


def test_catalog_triple_row_verdicts(engine):
    # the three-symbol displays of the triple product are mutually
    # inconsistent as literal polynomials: exactly one is exact, the other
    # two reconcile only after a sign flip
    row = {r.q: r for r in derivative_catalog_report(engine)}["b12*b16*b18"]
    verdicts = {v.text: v for v in row.partial2_displays}
    assert verdicts["a4*y26 + a8*y22"].verdict == "exact"
    assert verdicts["-a4*y26 + a10*y20"].verdict == "sign_flip"
    assert verdicts["-a8*y22 - a10*y20"].verdict == "sign_flip"
    assert verdicts["-a4*a8*b18 - a4*a10*b16 - a8*a10*b12"].verdict == "exact"


def test_engine_signed_three_term_identity_is_literally_zero(named):
    lhs = (gen("a4") * named["y26"].element
           - gen("a8") * named["y22"].element
           - gen("a10") * named["y20"].element)
    assert lhs.is_zero()


def test_quoted_power_rule_has_corrected_exponent():
    # moving the odd letter past b^n costs n transfer terms with exponent
    # n-1 (the n-2 variant printed elsewhere is degree-inconsistent)
    a9, c17 = gen("a9"), gen("c17")
    for name, aname in (("b12", "a4"), ("b16", "a8"), ("b18", "a10")):
        b, a = gen(name), gen(aname)
        for n in (1, 2, 3, 4):
            lhs = (b ** n) * a9
            rhs = a9 * b ** n + (c17 * a * b ** (n - 1)).scaled(n)
            assert lhs == rhs


def per_b_partial(m) -> Element:
    """Reference derivation of a word-free monomial: b_j -> -a_{j-8}, one
    b-generator at a time."""
    out = Element.zero()
    for b, a in ((3, 0), (4, 1), (5, 2)):       # b12, b16, b18 -> a4, a8, a10
        if m.exps[b]:
            exps = list(m.exps)
            exps[b] -= 1
            exps[a] += 1
            out = out + Element({Monomial((), tuple(exps)): -m.exps[b]})
    return out


def test_partial_matches_the_per_generator_rule_through_80():
    # partial is read off times_a9; the per-b_j loop is the reference
    count = 0
    for n in range(0, 81, 2):
        for m in monomials(enumerate_basis(n)):
            if not m.word:
                assert partial(Element({m: 1})) == per_b_partial(m), m.text()
                count += 1
    assert count == 2_670
