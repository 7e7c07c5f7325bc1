"""The graded algebra under study, as a concrete rewriting system.

Generators: six commuting even ones (a4, a8, a10, b12, b16, b18) and two
odd word letters (a9, c17) that generate a free factor.  The defining
relations say every even generator commutes with everything except that
moving a b-generator left past a9 costs a correction term:

    b_j * a9  ->  a9 * b_j + c17 * a_{j-8}      (j = 12, 16, 18)

For a commutative monomial E this reads E * a9 = a9 * E - c17 * partial(E),
with ``derivation.partial``.  The rule is coded once, in ``times_a9``;
the product ``key_mul`` and ``derivation.partial`` are built on it.

Since every commuting pair involves an even generator, no Koszul signs
ever enter the multiplication; signs only matter for the differential
(see ``differential``).  Normal-form monomials are a free word in
{a9, c17} followed by a commutative monomial, and the rewrite above only
ever lengthens words, so the commutative subalgebra S spanned by
word-free monomials is closed under multiplication.

Inside the library a monomial is one packed int key (below) in the
bases, d, the cache and ``Element``; a word-free right factor multiplies
by one integer addition.  ``Monomial`` is the text boundary only:
``Element`` accepts it and decodes to it (``Element.terms``) to print.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

A9, C17 = 0, 1

WORD_NAMES = ("a9", "c17")
WORD_DEGREES = (9, 17)

COMM_NAMES = ("a4", "a8", "a10", "b12", "b16", "b18")
COMM_DEGREES = (4, 8, 10, 12, 16, 18)

GEN_DEGREES = dict(zip(COMM_NAMES, COMM_DEGREES)) | dict(zip(WORD_NAMES, WORD_DEGREES))

# b12 -> a4, b16 -> a8, b18 -> a10 (index into the commutative block)
_B_TO_A = {3: 0, 4: 1, 5: 2}

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

    def text(self) -> str:
        word = " ".join(WORD_NAMES[x] for x in self.word)
        comm = " ".join(
            n if e == 1 else f"{n}^{e}"
            for n, e in zip(COMM_NAMES, self.exps) if e)
        if word and comm:
            return f"{word} | {comm}"
        return word or comm or "1"


# -- flat integer keys ----------------------------------------------------
#
# Every monomial inside the library is packed into one int.  The six
# exponents sit in 8-bit fields, a4 in the highest, so packed exponents
# order like exponent tuples; above them the word is a bit string (a9 = 0,
# c17 = 1) under a sentinel 1 bit.  Multiplying by a commutative generator
# adds its field unit, and appending a letter x turns the word bits w into
# 2w + x.  An exponent of a monomial of degree n is at most n // 4, so
# every monomial of degree <= MAX_KEY_DEGREE fits.

EXP_BITS = 8
WORD_SHIFT = 6 * EXP_BITS
EXPS_MASK = (1 << WORD_SHIFT) - 1
UNIT = tuple(1 << EXP_BITS * (5 - g) for g in range(6))
ONE_KEY = 1 << WORD_SHIFT
# the key of a9, the least key with a word: the keys below it are word-free
A9_KEY = 2 * ONE_KEY
MAX_KEY_DEGREE = 4 * (1 << EXP_BITS) - 1
# the bits that a carry out of one of the six exponent fields lands on
_CARRIES = sum(1 << EXP_BITS * g for g in range(1, 7))
# per b_j: the shift of its exponent field, and the key change of a_{j-8}
# taking the place of one b_j
_B_SWAPS = tuple((EXP_BITS * (5 - b), UNIT[a] - UNIT[b])
                 for b, a in _B_TO_A.items())


def word_key(word) -> int:
    """The key of a word with no commutative part."""
    w = 1
    for x in word:
        w = w << 1 | x
    return w << WORD_SHIFT


def encode(m: Monomial) -> int:
    """The key of a monomial (ValueError past ``MAX_KEY_DEGREE``)."""
    if m.degree() > MAX_KEY_DEGREE:
        raise ValueError(f"monomial {m.text()} is beyond degree "
                         f"{MAX_KEY_DEGREE}")
    return word_key(m.word) | int.from_bytes(bytes(m.exps), "big")


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


def key_mul(k1: int, k2: int) -> dict:
    """The product of the monomials with keys k1 and k2, as key -> coeff,
    within ``MAX_KEY_DEGREE`` (so no field overflows).

    The commutative part of m1 is pushed through the word of m2 one letter
    at a time: past a9 by ``times_a9``, past c17 for free (c17 commutes
    with every even generator); then the exponents of m2 are added.
    """
    if key_degree(k1) + key_degree(k2) > MAX_KEY_DEGREE:
        raise ValueError(f"product is beyond degree {MAX_KEY_DEGREE}")
    terms = {k1: 1}
    w2 = k2 >> WORD_SHIFT
    for i in range(w2.bit_length() - 2, -1, -1):    # m2's letters in turn
        pushed = {}
        for k, c in terms.items():
            # appending c17 turns the word bits w into 2w + 1
            for k3, c3 in (times_a9(k) if w2 >> i & 1 == A9 else
                           ((k + ((k >> WORD_SHIFT) + 1 << WORD_SHIFT), 1),)):
                pushed[k3] = pushed.get(k3, 0) + c * c3
        terms = pushed
    e2 = k2 & EXPS_MASK
    return {k + e2: c % 3 for k, c in terms.items() if c % 3}


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


def _key_sum(k: int, comm: tuple, word: tuple) -> int:
    """The sum over the factors of the monomial with key k of ``comm`` (by
    commutative generator) and ``word`` (by letter)."""
    w = k >> WORD_SHIFT
    c17 = w.bit_count() - 1
    return (word[0] * (w.bit_length() - 1 - c17) + word[1] * c17
            + sum(map(mul, (k & EXPS_MASK).to_bytes(6, "big"), comm)))


def key_degree(k: int) -> int:
    """The degree of the monomial with key k (``Monomial.degree``)."""
    return _key_sum(k, COMM_DEGREES, WORD_DEGREES)


def key_weight(k: int, scheme: str) -> int:
    """The weight under a scheme of the monomial with key k: the sum of
    its generators' weights."""
    return _key_sum(k, *WEIGHT_SCHEMES[scheme])


class Element:
    """Finite GF(3)-linear combination of normal-form monomials, held as
    ``by_key``: monomial key -> coefficient in {1, 2}, which the library
    reads and builds (``from_keys``).  ``Element(terms)`` takes {Monomial:
    coeff} (``encode``: a ValueError past ``MAX_KEY_DEGREE``), ``terms``
    is a decoded read-only view, and ``text`` prints in Monomial order."""

    __slots__ = ("by_key",)

    def __init__(self, terms: dict | None = None):
        self.by_key = {encode(m): c % 3 for m, c in (terms or {}).items()
                       if c % 3}

    @classmethod
    def from_keys(cls, by_key: dict) -> "Element":
        """The element {key: coeff}, coefficients taken mod 3."""
        x = cls.__new__(cls)
        x.by_key = {k: r for k, c in by_key.items() if (r := c % 3)}
        return x

    @classmethod
    def zero(cls) -> "Element":
        return cls.from_keys({})

    @classmethod
    def one(cls) -> "Element":
        return cls.from_keys({ONE_KEY: 1})

    @property
    def terms(self) -> MappingProxyType:
        """Monomial -> coefficient, decoded (read-only)."""
        return MappingProxyType({decode(k): c for k, c in self.by_key.items()})

    def __bool__(self):
        return bool(self.by_key)

    def is_zero(self) -> bool:
        return not self.by_key

    def __eq__(self, other):
        return isinstance(other, Element) and self.by_key == other.by_key

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.by_key)
        for k, c in other.by_key.items():
            out[k] = out.get(k, 0) + c
        return Element.from_keys(out)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scaled(-1)

    def __neg__(self) -> "Element":
        return self.scaled(-1)

    def scaled(self, c: int) -> "Element":
        return Element.from_keys({k: c * v for k, v in self.by_key.items()})

    def __mul__(self, other: "Element") -> "Element":
        out = {}
        get = out.get
        right = other.by_key.items()
        for k1, c1 in self.by_key.items():
            for k2, c2 in right:
                if k2 < A9_KEY:
                    # word-free: the exponents add, unless a field carries
                    e2 = k2 - ONE_KEY
                    k = k1 + e2
                    if (k ^ k1 ^ e2) & _CARRIES:
                        raise ValueError(f"product is beyond degree "
                                         f"{MAX_KEY_DEGREE}")
                    out[k] = get(k, 0) + c1 * c2
                else:
                    c12 = c1 * c2
                    for k, c in key_mul(k1, k2).items():
                        out[k] = get(k, 0) + c12 * c
        return Element.from_keys(out)

    def __pow__(self, n: int) -> "Element":
        out = Element.one()
        for _ in range(n):
            out = out * self
        return out

    def degree(self) -> int | None:
        """Degree of a homogeneous element (None for 0)."""
        degs = set(map(key_degree, self.by_key))
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def in_commutative_subalgebra(self) -> bool:
        return all(k < A9_KEY for k in self.by_key)

    def text(self) -> str:
        return " ".join(f"+{c}*{m.text()}" for m, c in sorted(
            (decode(k), c) for k, c in self.by_key.items())) or "0"

    def __repr__(self):
        return f"Element({self.text()})"


@lru_cache(maxsize=None)
def gen(name: str) -> Element:
    """The generator with the given name, as an Element."""
    if name in WORD_NAMES:
        return Element.from_keys({word_key((WORD_NAMES.index(name),)): 1})
    if name in COMM_NAMES:
        return Element.from_keys({ONE_KEY + UNIT[COMM_NAMES.index(name)]: 1})
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
def comm_weights(n: int, scheme: str) -> tuple:
    """``key_weight`` under a scheme of each monomial of ``comm_keys(n)``,
    in its order."""
    return tuple(key_weight(ONE_KEY + e, scheme) for e in comm_keys(n))


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
    the lookups by key and by Z^4 degree are built on first use."""

    def __init__(self, degree: int, keys: tuple):
        self.degree = degree
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    @cached_property
    def index(self) -> dict:
        """Monomial key -> position."""
        return {k: i for i, k in enumerate(self.keys)}

    def word_runs(self):
        """(word key, degree left to the commutative part) for each run of
        keys with one word, in order.  The keys run word by word, each word
        followed by the commutative monomials ``comm_keys`` of the degree
        it leaves (the order ``enumerate_basis`` makes)."""
        keys, i = self.keys, 0
        while i < len(keys):
            w = keys[i] >> WORD_SHIFT
            c17 = w.bit_count() - 1
            rest = (self.degree - WORD_DEGREES[A9] * (w.bit_length() - 1 - c17)
                    - WORD_DEGREES[C17] * c17)
            yield w << WORD_SHIFT, rest
            i += len(comm_keys(rest))

    @cached_property
    def blocks(self) -> dict:
        """Z^4 degree (``grading``) -> the ascending positions holding it.
        ``grading`` is additive, so a word run's gradings are g(w) plus the
        cached ``comm_gradings``."""
        out, i = {}, 0
        for word, rest in self.word_runs():
            gw, gs = grading(word), comm_gradings(rest)
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
        head = word_key(w)
        keys.extend(head + e for e in comm_keys(
            n - sum(WORD_DEGREES[x] for x in w)))
    return DegreeBasis(n, tuple(keys))


def element_planes(x: Element, index) -> tuple:
    """The bit planes ``(pos, neg)`` of an element's coefficients over
    ``index``, a mapping from monomial keys to positions (KeyError for a
    term outside it)."""
    pos = neg = 0
    for k, c in x.by_key.items():
        bit = 1 << index[k]
        if c == 1:
            pos |= bit
        else:
            neg |= bit
    return pos, neg
