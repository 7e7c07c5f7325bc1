import math
import random
from functools import lru_cache

import pytest

from conftest import (
    ZERO_EXPS, element_weight, monomial_weight, monomials, of_mono,
    parse_monomial,
)
from cotor import dga
from cotor.dga import (
    A9, C17, COMM_NAMES, GEN_DEGREES, Element, Monomial,
    comm_keys, decode, element_planes, encode, enumerate_basis, gen,
    key_mul, key_weight, times_a9,
)

# -- reference: the rewrite applied one exponent unit at a time -------------

# b12 -> a4, b16 -> a8, b18 -> a10 (index into the commutative block)
B_TO_A = {3: 0, 4: 1, 5: 2}


@lru_cache(maxsize=None)
def push_gen(g: int, word: tuple):
    """Move one commutative generator g from the left of a word to the right.

    Returns a tuple of ((word, exps), coeff) terms in normal form; the
    moved generator (or its rewrite product) lands in the exps block.
    """
    if not word:
        exps = list(ZERO_EXPS)
        exps[g] = 1
        return (((word, tuple(exps)), 1),)
    head, rest = word[0], word[1:]
    if head == A9 and g in B_TO_A:
        out = []
        for (w, e), c in push_gen(g, rest):
            out.append((((A9,) + w, e), c))
        for (w, e), c in push_gen(B_TO_A[g], rest):
            out.append((((C17,) + w, e), c))
        return tuple(out)
    return tuple((((head,) + w, e), c) for (w, e), c in push_gen(g, rest))


def pushed_product(m1: Monomial, m2: Monomial) -> dict:
    """m1 * m2 by pushing the commutative part of m1, one generator at a
    time, through the word of m2."""
    terms = {(m2.word, ZERO_EXPS): 1}
    for g, e in enumerate(m1.exps):
        for _ in range(e):
            nxt = {}
            for (w, q), c in terms.items():
                for (w2, dq), c2 in push_gen(g, w):
                    key = (w2, tuple(a + b for a, b in zip(q, dq)))
                    nxt[key] = (nxt.get(key, 0) + c * c2) % 3
            terms = {key: c for key, c in nxt.items() if c}
    out = {}
    for (w, q), c in terms.items():
        mono = Monomial(m1.word + w, tuple(a + b for a, b in zip(q, m2.exps)))
        out[mono] = (out.get(mono, 0) + c) % 3
    return {m: c for m, c in out.items() if c}


def E(name):
    return gen(name)


def text_of(x):
    return x.text()


def test_rewrite_past_the_odd_letter():
    # moving b12 left of a9 costs the correction term
    assert (E("b12") * E("a9")) == E("a9") * E("b12") + E("c17") * E("a4")


def test_even_generators_commute():
    prod = E("a4") * E("a8")
    assert len(prod.terms) == 1
    assert prod == E("a8") * E("a4")


def test_iterated_rewrite():
    # b12^2 * a9 = a9 b12^2 + 2 c17 a4 b12
    lhs = E("b12") * E("b12") * E("a9")
    rhs = (E("a9") * E("b12") * E("b12")
           + (E("c17") * E("a4") * E("b12")).scaled(2))
    assert lhs == rhs


def key_product(m1: Monomial, m2: Monomial) -> dict:
    """``key_mul`` of two monomials, decoded."""
    return {decode(k): c for k, c in key_mul(encode(m1), encode(m2)).items()}


def element_product(m1: Monomial, m2: Monomial) -> dict:
    """The product of two monomials as Elements, decoded."""
    return dict((Element({m1: 1}) * Element({m2: 1})).terms)


def test_times_a9_closed_form_matches_the_rewrite():
    # the key product is built on times_a9, so the push-through loop is
    # the reference here
    a9 = parse_monomial("a9")
    for n in range(49):
        for m in monomials(enumerate_basis(n)):
            product = {decode(k): c for k, c in times_a9(encode(m))}
            assert product == pushed_product(m, a9), m.text()


def test_word_free_fast_path_matches_the_general_route():
    # a word-free right factor takes the fast path in Element.__mul__ (one
    # key addition); it, and key_mul's general route, match the
    # push-through loop on every pair of total degree <= 48
    pairs = 0
    for n1 in range(49):
        for m1 in monomials(enumerate_basis(n1)):
            for n2 in range(49 - n1):
                for k in comm_keys(n2):
                    m2 = decode(k + dga.ONE_KEY)
                    expected = pushed_product(m1, m2)
                    assert element_product(m1, m2) == expected, \
                        (m1.text(), m2.text())
                    assert key_product(m1, m2) == expected, \
                        (m1.text(), m2.text())
                    pairs += 1
    assert pairs > 5_000


def test_word_on_the_right_matches_the_push_through():
    # a right factor with a word is folded letter by letter over times_a9;
    # the push-through loop is the reference, on every such pair of total
    # degree <= 48
    pairs = 0
    for n1 in range(49):
        for m1 in monomials(enumerate_basis(n1)):
            for n2 in range(9, 49 - n1):
                for m2 in monomials(enumerate_basis(n2)):
                    if m2.word:
                        expected = pushed_product(m1, m2)
                        assert key_product(m1, m2) == expected, \
                            (m1.text(), m2.text())
                        assert element_product(m1, m2) == expected, \
                            (m1.text(), m2.text())
                        pairs += 1
    assert pairs == 3_825


def test_random_products_with_words_on_both_sides():
    # seeded element pairs, each with a word on both sides somewhere,
    # checked term by term against the push-through loop
    rng = random.Random(29)
    pairs = 0
    while pairs < 300:
        x = _random_homogeneous(rng, 40)
        y = _random_homogeneous(rng, 40)
        if all(not m.word for m in x.terms) or all(not m.word for m in y.terms):
            continue
        expected = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                for m, c in pushed_product(m1, m2).items():
                    expected[m] = (expected.get(m, 0) + c1 * c2 * c) % 3
        assert dict((x * y).terms) == {m: c for m, c in expected.items() if c}
        pairs += 1


def test_products_past_the_key_range_are_refused():
    # a4^300 would overflow its 8-bit field; it is refused, never wrapped
    a4_200 = Monomial((), (200, 0, 0, 0, 0, 0))
    a9_a4_100 = Monomial((A9,), (100, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        key_mul(encode(a4_200), encode(a9_a4_100))
    with pytest.raises(ValueError):
        Element({a4_200: 1}) * Element({a9_a4_100: 1})
    # word-free: a carry out of a4's field would land in the word
    with pytest.raises(ValueError):
        gen("a4") ** 200 * gen("a4") ** 100
    # a carry out of a lower field would land in the next one up
    with pytest.raises(ValueError):
        gen("b18") ** 200 * gen("b18") ** 56
    assert (gen("a4") ** 200 * gen("a4") ** 55).degree() == 1020


def test_word_letters_multiply_freely():
    a9, c17 = E("a9"), E("c17")
    sq = a9 * a9
    assert len(sq.terms) == 1 and not sq.is_zero()
    assert a9 * c17 != c17 * a9
    assert not (c17 * c17).is_zero()


def test_basis_small_degrees():
    assert [m.text() for m in monomials(enumerate_basis(4))] == ["a4"]
    assert [m.text() for m in monomials(enumerate_basis(9))] == ["a9"]
    b18 = enumerate_basis(18)
    assert len(b18) == 4
    assert {m.text() for m in monomials(b18)} == {
        "a9 a9", "b18", "a4^2 a10", "a8 a10"}


def test_basis_deterministic_order():
    a = enumerate_basis(30)
    b = enumerate_basis(30)
    assert monomials(a) == monomials(b)
    assert a.keys == tuple(map(encode, monomials(a)))


def test_blocks_from_word_runs_match_the_grading_of_every_key():
    # blocks adds each word's grading to the cached gradings of its
    # commutative run; it must name and order positions as grading does
    assert enumerate_basis(0).blocks == {0: (0,)}
    for n in range(151):
        basis = enumerate_basis(n)
        by_key = {}
        for i, k in enumerate(basis.keys):
            by_key.setdefault(dga.grading(k), []).append(i)
        assert list(basis.blocks.items()) == [
            (g, tuple(at)) for g, at in by_key.items()], n
    assert dga.DegreeBasis(-1, ()).blocks == {}


def test_basis_counts_against_series():
    # generating-function cross-check for the graded dimensions
    n_max = 50
    w = [0] * (n_max + 1)
    w[0] = 1
    for k in range(1, n_max + 1):
        w[k] = (w[k - 9] if k >= 9 else 0) + (w[k - 17] if k >= 17 else 0)
    p = [0] * (n_max + 1)
    p[0] = 1
    for d in (4, 8, 10, 12, 16, 18):
        for k in range(d, n_max + 1):
            p[k] += p[k - d]
    for n in range(n_max + 1):
        expected = sum(w[k] * p[n - k] for k in range(n + 1))
        assert len(enumerate_basis(n)) == expected


def _random_homogeneous(rng, max_degree):
    while True:
        n = rng.randint(1, max_degree)
        basis = enumerate_basis(n)
        if len(basis):
            break
    terms = {}
    for m in rng.sample(list(monomials(basis)), rng.randint(1, min(3, len(basis)))):
        terms[m] = rng.randint(1, 2)
    return Element(terms)


def test_associativity_random():
    rng = random.Random(42)
    for _ in range(1000):
        x = _random_homogeneous(rng, 14)
        y = _random_homogeneous(rng, 14)
        z = _random_homogeneous(rng, 12)
        assert (x * y) * z == x * (y * z)


def test_degree_additivity():
    rng = random.Random(7)
    for _ in range(300):
        x = _random_homogeneous(rng, 20)
        y = _random_homogeneous(rng, 20)
        prod = x * y
        if prod.is_zero():
            continue
        assert prod.degree() == x.degree() + y.degree()


def test_normal_form_stability_any_parenthesization():
    rng = random.Random(3)
    gens = [gen(n) for n in GEN_DEGREES]
    for _ in range(200):
        factors = [rng.choice(gens) for _ in range(5)]
        left = factors[0]
        for f in factors[1:]:
            left = left * f
        right = factors[-1]
        for f in reversed(factors[:-1]):
            right = f * right
        mid = (factors[0] * factors[1]) * (factors[2]
                                           * (factors[3] * factors[4]))
        assert left == right == mid


def min_word_length(x: Element) -> float:
    """Shortest word among the terms of x (+infinity for 0)."""
    return min((len(m.word) for m in x.terms), default=math.inf)


def test_word_length_never_drops_and_s_is_closed():
    rng = random.Random(11)
    for _ in range(300):
        x = _random_homogeneous(rng, 25)
        y = _random_homogeneous(rng, 25)
        lo = min_word_length(x) + min_word_length(y)
        prod = x * y
        for m in prod.terms:
            assert len(m.word) >= lo
    s1 = Element({parse_monomial("a4 b12^2"): 1})
    s2 = Element({parse_monomial("b16 b18^2"): 2})
    assert (s1 * s2).in_commutative_subalgebra()


@pytest.mark.parametrize("scheme", ["weight_s3", "may_s5"])
def test_weight_monotonicity(scheme):
    rng = random.Random(17)
    for _ in range(200):
        x = _random_homogeneous(rng, 25)
        y = _random_homogeneous(rng, 25)
        prod = x * y
        if prod.is_zero():
            continue
        assert element_weight(prod, scheme) >= (element_weight(x, scheme)
                                                + element_weight(y, scheme))


def test_weights_of_named_monomials():
    for m, scheme, w in ((Monomial((0, 1), (0,) * 6), "weight_s3", 3),
                         (Monomial((), (0, 0, 0, 5, 0, 0)), "weight_s3", 0),
                         (Monomial((0, 1), (1, 0, 0, 0, 0, 0)), "may_s5", 4)):
        assert key_weight(encode(m), scheme) == monomial_weight(m, scheme) == w
        assert element_weight(Element({m: 2}), scheme) == w
    assert element_weight(Element.zero(), "weight_s3") == float("inf")


def test_monomial_text_roundtrip():
    for n in (0, 9, 26, 35, 44):
        for m in monomials(enumerate_basis(n)):
            assert parse_monomial(m.text()) == m


def test_keys_roundtrip_and_refuse_overflow():
    from cotor.differential import Differential

    for n in (0, 9, 26, 35, 44):
        basis = enumerate_basis(n)
        assert [encode(m) for m in monomials(basis)] == list(basis.keys)
        assert all(decode(encode(m)) == m for m in monomials(basis))
    # an exponent past its 8-bit field is refused, never wrapped
    a4_256 = Monomial((), (256, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        encode(a4_256)
    with pytest.raises(ValueError):
        of_mono(Differential(), a4_256)
    with pytest.raises(ValueError):
        enumerate_basis(dga.MAX_KEY_DEGREE + 1)
    top = Monomial((1, 0), (249, 0, 0, 0, 0, 0))    # degree 1022
    assert decode(encode(top)) == top


def test_element_planes_lookup():
    basis = enumerate_basis(18)
    x = Element({monomials(basis)[1]: 2, monomials(basis)[3]: 1})
    # entry 1 is 2 (neg plane), entry 3 is 1 (pos plane)
    assert element_planes(x, basis.index) == (0b1000, 0b10)
    assert [basis.index[encode(m)] for m in monomials(basis)] == [0, 1, 2, 3]
    with pytest.raises(KeyError):
        element_planes(gen("a4"), basis.index)


def test_generator_names_and_degrees():
    for name in COMM_NAMES + ("a9", "c17"):
        g = gen(name)
        assert g.degree() == int(name[1:])
    with pytest.raises(KeyError):
        gen("z99")
