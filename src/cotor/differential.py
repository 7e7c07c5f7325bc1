"""The degree-+1 differential, its matrices, and the sign-rule audit.

On generators the differential is fixed: it kills a4, a8, a10 and a9,
sends c17 to a9^2 and b_j to -a9*a_{j-8}.  What the defining data do NOT
fix is how to extend it to products; the extension is by a Leibniz rule

    d(x * y) = d(x) * y + eps(x) * x * d(y)

over the canonical factor sequence of a normal-form monomial, and the
candidate rules for eps are audited mechanically: a rule is admissible
when the result is independent of the factorization used (a genuine
derivation on the quotient) and squares to zero (one pass up the degrees
on one memo).  The unsigned rule is provably inconsistent with the
rewrite b_j*a9 = a9*b_j + c17*a_{j-8};
the audit certifies the total-degree parity rule and pins down the
degree-26 word-type cocycle (a9*c17 +/- c17*a9) by kernel computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from .dga import (
    _B_TO_A, A9, C17, COMM_DEGREES, COMM_NAMES, EXP_BITS, EXPS_MASK,
    GEN_DEGREES, MAX_KEY_DEGREE, ONE_KEY, UNIT, WORD_DEGREES, WORD_SHIFT,
    DegreeBasis, Element, decode, enumerate_basis, gen, grading, key_degree,
    times_a9, word_key,
)
from .gf3 import BlockDiagonalF3, column_entries

CONVENTIONS = ("parity", "plus", "minus")
DEFAULT_CONVENTION = "parity"

# d(m) reads d of a prefix at most one generator degree below m, so a
# build of degree n reads no d_k with k < n - PREFIX_DEPTH
PREFIX_DEPTH = max(GEN_DEGREES.values())


def _eps_parity(k: int, degree: int) -> int:
    # every commutative generator has even degree, so the product of the
    # per-factor signs (-1)^deg(x) is (-1)^deg(m)
    return -1 if degree & 1 else 1


def _eps_plus(k: int, degree: int) -> int:
    return 1


def _eps_minus(k: int, degree: int) -> int:
    # -1 per canonical factor: per word letter and per unit of exponent
    w = k >> WORD_SHIFT
    factors = w.bit_length() - 1 + sum((k & EXPS_MASK).to_bytes(6, "big"))
    return -1 if factors & 1 else 1


# Leibniz sign eps(m) of a monomial, from its key and degree: the product
# of the signs of its canonical factors
_EPS = {"parity": _eps_parity, "plus": _eps_plus, "minus": _eps_minus}

# field unit of a_{j-8}, by the index of b_j
_A_UNIT = {b: UNIT[a] for b, a in _B_TO_A.items()}


class Differential:
    """d with a fixed sign convention, plus per-degree matrices.  It holds
    nothing but its sign rule: d of a prefix is read from a lower d_k the
    caller holds (``matrix``), or by a recursion whose memo the caller owns
    (``_recursion``: one ``__call__``, or one square-zero pass)."""

    def __init__(self, convention: str = DEFAULT_CONVENTION):
        if convention not in CONVENTIONS:
            raise KeyError(f"unknown sign convention {convention!r}")
        self.convention = convention
        self._eps = _EPS[convention]

    @property
    def copied_field(self) -> int:
        """The key field of a4's exponent if ``matrix`` builds a4-divisible
        columns as copies, which it does when the rule's sign on a4 alone
        is +1, else 0.  No prefix that ``matrix`` reads a column of has a
        bit in it."""
        a4 = self._eps(ONE_KEY + UNIT[0], COMM_DEGREES[0])
        return _A4_FIELD if a4 == 1 else 0

    def _leibniz(self, shifted, n: int, m: int) -> dict:
        """d of the degree-n monomial with key m, as {key: coeff}, given
        ``shifted(m', k, a, b)``: d of its prefix m' of degree k as a new
        dict {a*t + b: coeff} over the keys t of d(m').

        Peels off the last canonical factor f of m = m'*f and applies
        d(m) = d(m')*f + eps(m')*m'*d(f).  A prefix of the canonical factor
        sequence is itself the normal form m', so this is the factor-by-
        factor Leibniz rule regrouped.  Since f is the last commutative
        generator, or the last letter of a word-only m, d(m')*f is d(m')
        with each key shifted: f's field unit added, or the letter appended
        (d(m') is word-only too, and appending x to the word of a word-only
        key t gives 2t + (x << WORD_SHIFT)).  d(f) is nonzero only for
        b12, b16, b18 (-a9*a_{j-8}) and c17 (a9^2), and m'*d(f) has a closed
        form: ``times_a9`` for b_j, and for c17 the prefix is word-only, so
        a9^2 is appended.
        """
        e = m & EXPS_MASK
        if e:
            # the lowest nonzero field holds the last commutative factor
            g = 5 - ((e & -e).bit_length() - 1) // EXP_BITS
            f = UNIT[g]
            prefix, pn = m - f, n - COMM_DEGREES[g]
            out = shifted(prefix, pn, 1, f)
            a = _A_UNIT.get(g)
            if a is not None:
                # eps(m') * m' * d(b_g) = -eps(m') * (m' * a9) * a_{g-8}
                sign = -self._eps(prefix, pn)
                for t, c in times_a9(prefix):
                    t += a
                    c = (out.get(t, 0) + sign * c) % 3
                    if c:
                        out[t] = c
                    else:
                        del out[t]
            return out
        if m == ONE_KEY:
            return {}
        # word-only m: f = x is its last letter
        w = m >> WORD_SHIFT
        x = w & 1
        prefix, pn = w >> 1 << WORD_SHIFT, n - WORD_DEGREES[x]
        out = shifted(prefix, pn, 2, x << WORD_SHIFT)
        if x == C17:
            # eps(m') * m' * d(c17) = eps(m') * m' * a9^2; the terms
            # above end in c17, so this one lands on a fresh key
            out[prefix << 2] = self._eps(prefix, pn) % 3
        return out

    def _recursion(self, memo: dict):
        """``shifted`` for ``_leibniz`` by recursion on prefixes, each image
        worked once into ``memo`` (key -> image), which the caller owns."""

        def shifted(m: int, n: int, a: int, b: int) -> dict:
            image = memo.get(m)
            if image is None:
                image = memo[m] = self._leibniz(shifted, n, m)
            return {a * t + b: c for t, c in image.items()}

        return shifted

    def __call__(self, x: Element) -> Element:
        memo = {}           # monomial key -> its image, for this call only
        shifted = self._recursion(memo)
        out = {}
        for m, c in x.by_key.items():
            n = key_degree(m)
            if n >= MAX_KEY_DEGREE:
                raise ValueError(f"d of {decode(m).text()} is beyond degree "
                                 f"{MAX_KEY_DEGREE}")
            for t, v in shifted(m, n, 1, 0).items():
                out[t] = out.get(t, 0) + c * v
        memo.clear()        # free the images now, not at the next collection
        return Element.from_keys(out)

    def eps(self, x: Element) -> int:
        """Leibniz sign of a homogeneous element (per its monomials' factors)."""
        if self.convention == "parity":
            return -1 if x.degree() % 2 else 1
        if self.convention == "plus":
            return 1
        # "minus" is per-factor and need not be constant on a degree; it is
        # well-defined on single monomials only
        (m, _), = x.by_key.items()
        return _eps_minus(m, key_degree(m))

    def leibniz(self, x: Element, y: Element) -> Element:
        """d(x*y) computed through the product rule (for the audit)."""
        return self(x) * y + (x * self(y)).scaled(self.eps(x))

    def matrix(self, n: int, bn: DegreeBasis, bn1: DegreeBasis,
               window, gradings=None) -> BlockDiagonalF3:
        """Blocks of the matrix of d from degree n, basis ``bn``, to degree
        n+1, basis ``bn1``: one per internal Z^4 degree in ``gradings``
        (default every grading of ``bn``, that is, all of d_n; d preserves
        it, and an image term outside its column's block is a RuntimeError).

        Block g reads only block g - g(f) of d_{n - deg f} for each
        generator f (``STENCIL``), which the caller holds: ``window(k)``
        gives d_k's blocks (``block(h)``, None for a block with no rows),
        the keys of its rows (``row_keys``, the basis of degree k+1), and,
        as a dict, its nonzero columns by Z^4 degree, then by monomial key
        (``gf3.block_columns``); it is asked once for each degree k the
        routes below read, and a block it does not hold is a KeyError.

        a4 commutes with every generator and d(a4) = 0, so when the rule's
        sign on a4 alone is +1 (parity and plus, not minus), eps(a4*m) =
        eps(m) and the last-factor recursion gives d(a4*m) = a4*d(m).  Then
        each a4-divisible column of block g is a shifted copy of the column
        of m/a4 in block g - g(a4) of d_{n-4}.  m -> m/a4 keeps the order
        of the columns (a4 is the highest exponent field, so they are a
        suffix of each word's run in the block), so the copies are that
        block's columns in turn, each moved to its rows' a4-multiples by
        ``_a4_pieces``.

        Every other column is built by ``_leibniz``: d of its prefix m/f is
        a column of block g - g(f) of d_{n - deg f}."""
        copy = n >= COMM_DEGREES[0] and bool(self.copied_field)
        # prefix degree n - deg f -> (d of that degree's columns, g(f));
        # with copies no prefix is m/a4, so d_{n-4}'s columns are not read
        sources = {n - deg: (window(n - deg), dg) for deg, dg in
                   (STENCIL[1:] if copy else STENCIL) if deg <= n}

        def shifted(m: int, k: int, a: int, b: int) -> dict:
            columns, dg = sources[k]
            column = columns[g - dg].get(m)
            return {} if column is None else column_entries(column, a, b)

        def leaves(c: int, r: int):
            return RuntimeError(f"d of degree {n} leaves a Z^4 block: column "
                                f"{c} has an entry in row {r} of another "
                                "block")

        if copy:
            d4 = window(n - COMM_DEGREES[0])
            keys4 = d4.row_keys
        row_keys, col_keys, blocks = bn1.keys, bn.keys, {}
        for g in bn.blocks if gradings is None else gradings:
            cols = bn.blocks[g]
            rows = bn1.blocks.get(g, ())
            at = {row_keys[r]: i for i, r in enumerate(rows)}
            pos, neg = [0] * len(cols), [0] * len(cols)
            todo = range(len(cols))
            if copy:
                copies, todo = [], []
                for j, c in enumerate(cols):
                    (copies if col_keys[c] & _A4_FIELD else todo).append(j)
                # no source block: it has no rows in degree n - 3, and the
                # copies are 0
                source = copies and d4.block(g - _A4_GRADING)
                if source:
                    s_rows, _, s_pos, s_neg = source
                    to = [at.get(keys4[r] + UNIT[0]) for r in s_rows]
                    pieces, outside = _a4_pieces(to)
                    for j, p, q in zip(copies, s_pos, s_neg):
                        if outside and (p | q) & outside:
                            low = (p | q) & outside
                            raise leaves(cols[j], keys4[s_rows[(
                                low & -low).bit_length() - 1]] + UNIT[0])
                    _move(zip(copies, s_pos, s_neg), to, pieces, pos, neg)
            for j in todo:
                image = self._leibniz(shifted, n, col_keys[cols[j]])
                for r, v in image.items():
                    i = at.get(r)
                    if i is None:
                        raise leaves(cols[j], r)
                    if v == 1:
                        pos[j] |= 1 << i
                    else:
                        neg[j] |= 1 << i
            if rows:
                blocks[g] = tuple(rows), tuple(cols), tuple(pos), tuple(neg)
        return BlockDiagonalF3(len(bn1), len(bn), blocks)


# (deg f, g(f)) per generator f, a4 first: block g of d_n reads block
# g - g(f) of d_{n - deg f}, which holds the prefix m/f of each column m
# whose last canonical factor is f, and, for f = a4, the sources of the
# copies
STENCIL = (tuple((deg, grading(ONE_KEY + unit))
                 for deg, unit in zip(COMM_DEGREES, UNIT))
           + tuple((deg, grading(word_key((x,))))
                   for x, deg in enumerate(WORD_DEGREES)))
# the key field of a4's exponent, and the Z^4 degree of a4
_A4_FIELD = ((1 << EXP_BITS) - 1) * UNIT[0]
_A4_GRADING = grading(ONE_KEY + UNIT[0])


def _a4_pieces(to: list) -> tuple:
    """The runs of ``to``, the bit (or None) that a4 moves each row of a
    source block to: ``(pieces, outside)``, where ``outside`` masks the
    rows with None, and a column with none of them moves to the OR of
    ``(x >> shift & mask) << t`` over the ``(shift, mask, t)`` of
    ``pieces``, one per run of rows that a4 moves by the same offset."""
    starts, outside = [], 0
    for i, t in enumerate(to):
        if t is None:
            outside |= 1 << i
        elif not starts or t - i != starts[-1][1]:
            starts.append((i, t - i))
    ends = [i for i, _ in starts[1:]] + [len(to)]
    return [(i, (1 << end - i) - 1, i + offset)
            for (i, offset), end in zip(starts, ends)], outside


def _move(columns, to: list, pieces: list, pos: list, neg: list):
    """Set ``pos[j], neg[j]`` to each column ``(j, p, q)`` moved by ``to``
    (`_a4_pieces`, with no entry in an outside row): by its pieces, or,
    when it has fewer entries than there are pieces, entry by entry.
    Within a word's run of rows the a4-multiples are consecutive (a4 is
    the highest exponent field), so a piece is a word or more; a wide
    block has hundreds of them, and sparse columns."""
    if len(pieces) == 1:
        (shift, mask, t), = pieces
        for j, p, q in columns:
            pos[j], neg[j] = (p >> shift & mask) << t, (q >> shift & mask) << t
        return
    for j, p, q in columns:
        tp = tq = 0
        if (p | q).bit_count() >= len(pieces):
            for shift, mask, t in pieces:
                tp |= (p >> shift & mask) << t
                tq |= (q >> shift & mask) << t
        else:
            while p:                    # `bits`, inlined: this is hot
                low = p & -p
                p ^= low
                tp |= 1 << to[low.bit_length() - 1]
            while q:
                low = q & -q
                q ^= low
                tq |= 1 << to[low.bit_length() - 1]
        pos[j], neg[j] = tp, tq


# -- audit ----------------------------------------------------------------


@dataclass
class ConventionVerdict:
    convention: str
    admissible: bool
    factorization_failures: list = field(default_factory=list)
    dd_failures: list = field(default_factory=list)


@dataclass
class AuditReport:
    verdicts: list
    selected: str | None
    x26_coefficients: tuple | None   # coefficients on (a9*c17, c17*a9)
    x26: Element | None
    degree_bound: int

    @property
    def admissible(self) -> list:
        return [v.convention for v in self.verdicts if v.admissible]


def _random_homogeneous(rng, bases: list, max_degree: int) -> Element:
    """A random element of a random degree 1..max_degree with a nonempty
    basis; ``bases[n]`` is the basis of degree n."""
    n = rng.choice([d for d in range(1, max_degree + 1) if len(bases[d]) > 0])
    basis = bases[n]
    k = rng.randint(1, min(3, len(basis)))
    out = {}
    for m in rng.sample(basis.keys, k):
        out[m] = rng.randint(1, 2)
    return Element.from_keys(out)


def _square_zero_failures(d: Differential, bases: list,
                          degree_bound: int) -> list:
    """(m, d(d(m))) as text for the first three basis monomials m, in
    basis order, of the lowest degree <= degree_bound where d(d(m)) != 0.
    One pass up the degrees on one memo works each image once; images of
    degree n and n + 1 read prefixes of degree >= n - PREFIX_DEPTH, so
    the lower ones are dropped, by the keys of their basis."""
    memo = {}
    image = d._recursion(memo)
    failures = []
    for n in range(degree_bound + 1):
        if n > PREFIX_DEPTH:
            for k in bases[n - PREFIX_DEPTH - 1].keys:
                del memo[k]
        for m in bases[n].keys:
            dd = {}
            for t, c in image(m, n, 1, 0).items():
                for u, v in image(t, n + 1, 1, 0).items():
                    dd[u] = dd.get(u, 0) + c * v
            if len(failures) < 3 and any(v % 3 for v in dd.values()):
                failures.append((decode(m).text(),
                                 Element.from_keys(dd).text()))
        if failures:
            break
    memo.clear()
    return failures


def audit_conventions(degree_bound: int = 40, pair_samples: int = 1000,
                      pair_max_degree: int = 20, seed: int = 0,
                      candidates=CONVENTIONS) -> AuditReport:
    """Mechanically select an admissible Leibniz sign rule.

    Admissibility: (a) d(x*y) computed by the product rule agrees with d
    applied to the normalized product, for all ordered generator pairs and
    for ``pair_samples`` random homogeneous pairs (``Element`` arithmetic);
    (b) d(d(m)) = 0 on every basis monomial of degree <= degree_bound
    (``_square_zero_failures``).  Fails loudly if no candidate survives.
    """
    rng = random.Random(seed)
    bases = [enumerate_basis(n)
             for n in range(max(degree_bound, pair_max_degree) + 1)]
    gens = [gen(n) for n in COMM_NAMES] + [gen("a9"), gen("c17")]
    pairs = [(x, y) for x in gens for y in gens]
    pairs += [(_random_homogeneous(rng, bases, pair_max_degree),
               _random_homogeneous(rng, bases, pair_max_degree))
              for _ in range(pair_samples)]

    verdicts = []
    for name in candidates:
        d = Differential(name)
        v = ConventionVerdict(name, True)
        for x, y in pairs:
            try:
                lhs = d.leibniz(x, y)
            except ValueError:
                # the per-factor minus rule takes its sign from a single
                # monomial (Differential.eps), so a sample with several
                # terms raises here: 18 of the 60 seed-0 selection pairs do
                v.admissible = False
                break
            rhs = d(x * y)
            if lhs != rhs:
                v.admissible = False
                v.factorization_failures.append(
                    (x.text(), y.text(), (lhs - rhs).text()))
                if len(v.factorization_failures) == 3:
                    # the verdict keeps three counterexamples: the rule
                    # is rejected and the rest would change nothing
                    break
        if v.admissible:
            v.dd_failures = _square_zero_failures(d, bases, degree_bound)
            v.admissible = not v.dd_failures
        verdicts.append(v)

    admissible = [v.convention for v in verdicts if v.admissible]
    if not admissible:
        raise RuntimeError(
            "no candidate sign convention is admissible: "
            + "; ".join(f"{v.convention}: {v.factorization_failures or v.dd_failures}"
                        for v in verdicts))
    selected = admissible[0]
    coeffs, x26 = select_x26(Differential(selected))
    return AuditReport(verdicts, selected, coeffs, x26, degree_bound)


def select_x26(d: Differential):
    """The degree-26 word-type cocycle, by direct kernel computation.

    Exactly one of a9*c17 +/- c17*a9 is a cocycle; the sign is NOT a
    convention choice but a consequence of the admissible Leibniz rule.
    The representative is normalized to leading coefficient +1 on a9*c17.
    """
    m1, m2 = word_key((A9, C17)), word_key((C17, A9))
    kernel = []
    for mu, nu in ((1, 1), (1, 2)):
        x = Element.from_keys({m1: mu, m2: nu})
        if d(x).is_zero():
            kernel.append(((mu, nu), x))
    if len(kernel) != 1:
        raise RuntimeError(
            f"degree-26 word kernel is {len(kernel)}-dimensional, expected 1")
    return kernel[0]
