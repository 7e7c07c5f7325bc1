"""The graded algebra under study, as a concrete rewriting system.

Generators: six commuting even ones (a4, a8, a10, b12, b16, b18) and two
odd word letters (a9, c17) that generate a free factor.  The defining
relations say every even generator commutes with everything except that
moving a b-generator left past a9 costs a correction term:

    b_j * a9  ->  a9 * b_j + c17 * a_{j-8}      (j = 12, 16, 18)

For a commutative monomial E this reads E * a9 = a9 * E - c17 * partial(E),
with ``derivation.partial``.  The rule is coded once, in ``times_a9`` on
flat keys; ``mono_mul`` and ``derivation.partial`` are built on it.

Since every commuting pair involves an even generator, no Koszul signs
ever enter the multiplication; signs only matter for the differential
(see ``differential``).  Normal-form monomials are a free word in
{a9, c17} followed by a commutative monomial, and the rewrite above only
ever lengthens words, so the commutative subalgebra S spanned by
word-free monomials is closed under multiplication.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple

A9, C17 = 0, 1

WORD_NAMES = ("a9", "c17")
WORD_DEGREES = (9, 17)

COMM_NAMES = ("a4", "a8", "a10", "b12", "b16", "b18")
COMM_DEGREES = (4, 8, 10, 12, 16, 18)

GEN_DEGREES = dict(zip(COMM_NAMES, COMM_DEGREES)) | dict(zip(WORD_NAMES, WORD_DEGREES))

# b12 -> a4, b16 -> a8, b18 -> a10 (index into the commutative block)
_B_TO_A = {3: 0, 4: 1, 5: 2}

ZERO_EXPS = (0, 0, 0, 0, 0, 0)

# weight of a generator under each filtration scheme:
# (a4, a8, a10, b12, b16, b18) block and (a9, c17) block
WEIGHT_SCHEMES = {
    "weight_s3": ((2, 2, 2, 0, 0, 0), (1, 2)),
    "may_s5": ((1, 1, 1, 1, 1, 1), (1, 2)),
    "trivial": ((0, 0, 0, 0, 0, 0), (0, 0)),
}


class Monomial(NamedTuple):
    """Normal-form basis monomial: free word then commutative exponents."""

    word: tuple
    exps: tuple

    def degree(self) -> int:
        return (sum(map(WORD_DEGREES.__getitem__, self.word))
                + sum(map(mul, self.exps, COMM_DEGREES)))

    def weight(self, scheme: str) -> int:
        cw, ww = WEIGHT_SCHEMES[scheme]
        return (sum(ww[x] for x in self.word)
                + sum(e * w for e, w in zip(self.exps, cw)))

    def text(self) -> str:
        word = " ".join(WORD_NAMES[x] for x in self.word)
        comm = " ".join(
            n if e == 1 else f"{n}^{e}"
            for n, e in zip(COMM_NAMES, self.exps) if e)
        if word and comm:
            return f"{word} | {comm}"
        return word or comm or "1"


ONE = Monomial((), ZERO_EXPS)


def _merge(acc: dict, m: Monomial, c: int):
    c = (acc.get(m, 0) + c) % 3
    if c:
        acc[m] = c
    else:
        acc.pop(m, None)


# -- flat integer keys ----------------------------------------------------
#
# The bases and the differential's recursion work on monomials packed into
# one int.  The six exponents sit in 8-bit fields, a4 in the highest, so
# packed exponents order like exponent tuples; above them the word is a
# bit string (a9 = 0, c17 = 1) under a sentinel 1 bit.  Multiplying by a
# commutative generator adds its field unit, and appending a letter x
# turns the word bits w into 2w + x.  An exponent of a monomial of degree
# n is at most n // 4, so every monomial of degree <= MAX_KEY_DEGREE fits.

EXP_BITS = 8
WORD_SHIFT = 6 * EXP_BITS
EXPS_MASK = (1 << WORD_SHIFT) - 1
UNIT = tuple(1 << EXP_BITS * (5 - g) for g in range(6))
ONE_KEY = 1 << WORD_SHIFT
MAX_KEY_DEGREE = 4 * (1 << EXP_BITS) - 1
# per b_j: the shift of its exponent field, and the key change of a_{j-8}
# taking the place of one b_j
_B_SWAPS = tuple((EXP_BITS * (5 - b), UNIT[a] - UNIT[b])
                 for b, a in _B_TO_A.items())


def encode(m: Monomial) -> int:
    """The key of a monomial (ValueError past ``MAX_KEY_DEGREE``)."""
    if m.degree() > MAX_KEY_DEGREE:
        raise ValueError(f"monomial {m.text()} is beyond degree "
                         f"{MAX_KEY_DEGREE}")
    w = 1
    for x in m.word:
        w = w << 1 | x
    return w << WORD_SHIFT | int.from_bytes(bytes(m.exps), "big")


def decode(k: int) -> Monomial:
    """The monomial of a key."""
    return Monomial(tuple(map(int, bin(k >> WORD_SHIFT)[3:])),
                    tuple((k & EXPS_MASK).to_bytes(6, "big")))


def times_a9(k: int) -> list:
    """m * a9 in normal form for the monomial with key k, as (key, coeff)
    pairs.

    Pushing the commutative part E of m through a9 rewrites each b_j factor
    once, and the c17 it leaves behind commutes with everything, so
    E * a9 = a9 * E + c17 * sum_j e_j * a_{j-8} * E / b_j.
    """
    w = k >> WORD_SHIFT
    out = [(k + (w << WORD_SHIFT), 1)]
    with_c17 = k + (w + 1 << WORD_SHIFT)
    for shift, swap in _B_SWAPS:
        e = (k >> shift & 0xFF) % 3
        if e:
            out.append((with_c17 + swap, e))
    return out


def mono_mul(m1: Monomial, m2: Monomial) -> dict:
    """Product of two normal-form monomials, as Monomial -> coeff.

    The commutative part of m1 is pushed through the word of m2 one letter
    at a time: past a9 by ``times_a9``, past c17 for free (c17 commutes
    with every even generator); then the exponents of m2 are added.  With a
    word on the right, the product must lie within ``MAX_KEY_DEGREE``.
    """
    if not m2.word:
        # nothing to push through: the exponents just add
        return {Monomial(m1.word,
                         tuple(a + b for a, b in zip(m1.exps, m2.exps))): 1}
    if m1.degree() + m2.degree() > MAX_KEY_DEGREE:
        raise ValueError(f"product is beyond degree {MAX_KEY_DEGREE}")
    terms = {encode(m1): 1}
    for x in m2.word:
        pushed = {}
        for k, c in terms.items():
            # appending c17 turns the word bits w into 2w + 1
            for k2, c2 in (times_a9(k) if x == A9 else
                           ((k + ((k >> WORD_SHIFT) + 1 << WORD_SHIFT), 1),)):
                pushed[k2] = pushed.get(k2, 0) + c * c2
        terms = pushed
    e2 = int.from_bytes(bytes(m2.exps), "big")
    return {decode(k + e2): c % 3 for k, c in terms.items() if c % 3}


def grading(k: int) -> int:
    """The internal Z^4 degree of a monomial key, packed into one int.

    g(a4), g(a8), g(a10) and g(a9) are the unit vectors, g(c17) = 2 g(a9)
    and g(b_j) = g(a_{j-8}) + g(a9); the differential and the rewrite
    both preserve g.  The three a-components sit in the low three bytes
    (each at most n // 4), the a9-component above them.
    """
    e = k & EXPS_MASK
    w = k >> WORD_SHIFT
    b = e & 0xFFFFFF                    # the b12, b16, b18 fields
    a9 = (w.bit_length() + w.bit_count() - 2     # a9 once, c17 twice
          + (b >> 16) + (b >> 8 & 0xFF) + (b & 0xFF))
    return (a9 << 24) + (e >> 24) + b


def key_weight(k: int, scheme: str) -> int:
    """``Monomial.weight`` of the monomial with key k."""
    cw, ww = WEIGHT_SCHEMES[scheme]
    w = k >> WORD_SHIFT
    c17 = w.bit_count() - 1
    a4, a8, a10, b12, b16, b18 = (k & EXPS_MASK).to_bytes(6, "big")
    return (ww[0] * (w.bit_length() - 1 - c17) + ww[1] * c17
            + cw[0] * a4 + cw[1] * a8 + cw[2] * a10
            + cw[3] * b12 + cw[4] * b16 + cw[5] * b18)


class Element:
    """Finite GF(3)-linear combination of normal-form monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c % 3 for m, c in (terms or {}).items() if c % 3}

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls({ONE: 1})

    @classmethod
    def monomial(cls, m: Monomial, c: int = 1) -> "Element":
        return cls({m: c})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _merge(out, m, c)
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _merge(out, m, -c)
        return Element(out)

    def __neg__(self) -> "Element":
        return Element({m: -c for m, c in self.terms.items()})

    def scaled(self, c: int) -> "Element":
        return Element({m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for m, c in mono_mul(m1, m2).items():
                    _merge(out, m, c12 * c)
        return Element(out)

    def __rmul__(self, c: int) -> "Element":
        return self.scaled(c)

    def __pow__(self, n: int) -> "Element":
        out = Element.one()
        for _ in range(n):
            out = out * self
        return out

    def degrees(self) -> set:
        return {m.degree() for m in self.terms}

    def degree(self) -> int | None:
        """Degree of a homogeneous element (None for 0)."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def weight(self, scheme: str) -> float:
        """min over terms; the zero element has weight +infinity."""
        if not self.terms:
            return math.inf
        return min(m.weight(scheme) for m in self.terms)

    def in_commutative_subalgebra(self) -> bool:
        return all(not m.word for m in self.terms)

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"+{c}*{m.text()}"
                        for m, c in sorted(self.terms.items()))

    def __repr__(self):
        return f"Element({self.text()})"


@lru_cache(maxsize=None)
def gen(name: str) -> Element:
    """The generator with the given name, as an Element."""
    if name in WORD_NAMES:
        return Element({Monomial((WORD_NAMES.index(name),), ZERO_EXPS): 1})
    if name in COMM_NAMES:
        exps = list(ZERO_EXPS)
        exps[COMM_NAMES.index(name)] = 1
        return Element({Monomial((), tuple(exps)): 1})
    raise KeyError(f"unknown generator {name!r}")


# -- basis enumeration ---------------------------------------------------

@lru_cache(maxsize=None)
def comm_keys(n: int, first: int = 0) -> tuple:
    """Packed exponents of the commutative monomials of degree n in the
    generators ``first``..b18, ascending (so exponent-lexicographic)."""
    d, unit = COMM_DEGREES[first], UNIT[first]
    if first == 5:
        return (n // d * unit,) if n % d == 0 else ()
    out = []
    for e in range(n // d + 1):
        out.extend(e * unit + k for k in comm_keys(n - e * d, first + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def comm_gradings(n: int) -> tuple:
    """``grading`` of each monomial of ``comm_keys(n)``, in its order.  Equal
    gradings share one int (through degree 91, 4,436 monomials have 1,811
    gradings), which halves what the cache holds."""
    shared = {}
    return tuple(shared.setdefault(g, g)
                 for g in (grading(ONE_KEY + e) for e in comm_keys(n)))


@lru_cache(maxsize=None)
def words_of_degree(k: int) -> tuple:
    """All words in {a9, c17} of total degree k, lex sorted."""
    if k == 0:
        return ((),)
    out = []
    if k >= 9:
        out.extend((A9,) + w for w in words_of_degree(k - 9))
    if k >= 17:
        out.extend((C17,) + w for w in words_of_degree(k - 17))
    return tuple(sorted(out))


class DegreeBasis:
    """Ordered monomial basis of one total degree, held as monomial keys;
    the lookups by key and the decoded monomials are built on first use."""

    def __init__(self, degree: int, keys: tuple):
        self.degree = degree
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    @cached_property
    def monomials(self) -> tuple:
        return tuple(map(decode, self.keys))

    @cached_property
    def index(self) -> dict:
        """Monomial key (``encode``) -> position."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def blocks(self) -> dict:
        """Z^4 degree (``grading``) -> the ascending positions holding it.

        The keys run word by word, each word w followed by the
        commutative monomials ``comm_keys`` of the degree it leaves (the
        order ``enumerate_basis`` makes), and ``grading`` is additive, so
        a run's gradings are g(w) plus the cached ``comm_gradings``."""
        out = {}
        keys, i = self.keys, 0
        while i < len(keys):
            w = keys[i] >> WORD_SHIFT
            c17 = w.bit_count() - 1
            a9 = w.bit_length() - 1 - c17
            gs = comm_gradings(self.degree - WORD_DEGREES[A9] * a9
                               - WORD_DEGREES[C17] * c17)
            gw = grading(w << WORD_SHIFT)
            for j, g in enumerate(gs, i):
                out.setdefault(gw + g, []).append(j)
            i += len(gs)
        return {g: tuple(at) for g, at in out.items()}


def enumerate_basis(n: int) -> DegreeBasis:
    """All normal-form monomials of total degree n, deterministically ordered
    (word lexicographic, then exponent lexicographic)."""
    if not 0 <= n <= MAX_KEY_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_KEY_DEGREE}")
    # words of different degrees differ, so sorting the words and taking
    # each word's exponents in order sorts the monomials
    words = sorted(w for k in range(n + 1) if comm_keys(n - k)
                   for w in words_of_degree(k))
    keys = []
    for w in words:
        head = 1
        for x in w:
            head = head << 1 | x
        head <<= WORD_SHIFT
        keys.extend(head + e for e in comm_keys(
            n - sum(WORD_DEGREES[x] for x in w)))
    return DegreeBasis(n, tuple(keys))


def element_planes(x: Element, index, key=None) -> tuple:
    """The bit planes ``(pos, neg)`` of an element's coefficients over
    ``index``, a mapping from monomials, or from their ``key(m)`` (say
    ``encode``), to positions (KeyError for a term outside it)."""
    pos = neg = 0
    for m, c in x.terms.items():
        bit = 1 << index[m if key is None else key(m)]
        if c == 1:
            pos |= bit
        else:
            neg |= bit
    return pos, neg
