"""The degree-+1 differential, its matrices, and the sign-rule audit.

On generators the differential is fixed: it kills a4, a8, a10 and a9,
sends c17 to a9^2 and b_j to -a9*a_{j-8}.  What the defining data do NOT
fix is how to extend it to products; the extension is by a Leibniz rule

    d(x * y) = d(x) * y + eps(x) * x * d(y)

over the canonical factor sequence of a normal-form monomial, and the
candidate rules for eps are audited mechanically: a rule is admissible
when the result is independent of the factorization used (a genuine
derivation on the quotient) and squares to zero.  The unsigned rule is
provably inconsistent with the rewrite b_j*a9 = a9*b_j + c17*a_{j-8};
the audit certifies the total-degree parity rule and pins down the
degree-26 word-type cocycle (a9*c17 +/- c17*a9) by kernel computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import random

from .dga import (
    _B_TO_A, A9, C17, COMM_DEGREES, COMM_NAMES, WORD_DEGREES, ZERO_EXPS,
    DegreeBasis, Element, Monomial, _merge, enumerate_basis, gen, times_a9,
)
from .gf3 import SparseMatrixF3

CONVENTIONS = ("parity", "plus", "minus")
DEFAULT_CONVENTION = "parity"


def _eps_factor(convention: str, factor_degree: int) -> int:
    if convention == "parity":
        return -1 if factor_degree % 2 else 1
    if convention == "plus":
        return 1
    if convention == "minus":
        return -1
    raise KeyError(f"unknown sign convention {convention!r}")


def _eps_mono(convention: str, m: Monomial) -> int:
    """Leibniz sign of a monomial: the product over its canonical factors."""
    s = 1
    for x in m.word:
        s *= _eps_factor(convention, WORD_DEGREES[x])
    for g, e in enumerate(m.exps):
        if e % 2:
            s *= _eps_factor(convention, COMM_DEGREES[g])
    return s


def _times_gen(m: Monomial, g: int) -> Monomial:
    """m * g for a commutative generator g: g lands right of the word,
    so no rewrite fires and only an exponent moves."""
    return Monomial(m.word, m.exps[:g] + (m.exps[g] + 1,) + m.exps[g + 1:])


class Differential:
    """d with a fixed sign convention, plus per-degree matrices."""

    def __init__(self, convention: str = DEFAULT_CONVENTION):
        if convention not in CONVENTIONS:
            raise KeyError(f"unknown sign convention {convention!r}")
        self.convention = convention
        self._mono_cache: dict[Monomial, Element] = {}

    def of_mono(self, m: Monomial) -> Element:
        """d of one normal-form monomial, memoized.

        Peels off the last canonical factor f of m = m'*f and applies
        d(m) = d(m')*f + eps(m')*m'*d(f).  A prefix of the canonical factor
        sequence is itself the normal form m', so this is the factor-by-
        factor Leibniz rule regrouped; d(m') comes from the memo (an
        ascending build has made it already).  Since f is the last
        commutative generator, or the last letter of a word-only m,
        d(m')*f is an exponent shift or an appended letter.  d(f) is
        nonzero only for b12, b16, b18 (-a9*a_{j-8}) and c17 (a9^2), and
        m'*d(f) has a closed form: ``times_a9`` for b_j, and for c17 the
        prefix is word-only, so a9^2 is appended.
        """
        v = self._mono_cache.get(m)
        if v is not None:
            return v
        g = 5
        while g >= 0 and not m.exps[g]:
            g -= 1
        if g >= 0:
            prefix = Monomial(m.word,
                              m.exps[:g] + (m.exps[g] - 1,) + m.exps[g + 1:])
            out = {_times_gen(t, g): c
                   for t, c in self.of_mono(prefix).terms.items()}
            if g in _B_TO_A:
                # eps(m') * m' * d(b_g) = -eps(m') * (m' * a9) * a_{g-8}
                sign = -_eps_mono(self.convention, prefix)
                for t, c in times_a9(prefix).items():
                    _merge(out, _times_gen(t, _B_TO_A[g]), sign * c)
        elif m.word:
            # word-only m: d(m') is word-only too, so f = x is appended
            x = m.word[-1]
            prefix = Monomial(m.word[:-1], ZERO_EXPS)
            out = {Monomial(t.word + (x,), ZERO_EXPS): c
                   for t, c in self.of_mono(prefix).terms.items()}
            if x == C17:
                # eps(m') * m' * d(c17) = eps(m') * m' * a9^2
                _merge(out, Monomial(prefix.word + (A9, A9), ZERO_EXPS),
                       _eps_mono(self.convention, prefix))
        else:
            out = {}
        v = self._mono_cache[m] = Element(out)
        return v

    def __call__(self, x: Element) -> Element:
        out = Element.zero()
        for m, c in x.terms.items():
            out = out + self.of_mono(m).scaled(c)
        return out

    def eps(self, x: Element) -> int:
        """Leibniz sign of a homogeneous element (per its monomials' factors)."""
        if self.convention == "parity":
            return -1 if x.degree() % 2 else 1
        if self.convention == "plus":
            return 1
        # "minus" is per-factor and need not be constant on a degree; it is
        # well-defined on single monomials only
        (m, _), = x.terms.items()
        return _eps_mono("minus", m)

    def leibniz(self, x: Element, y: Element) -> Element:
        """d(x*y) computed through the product rule (for the audit)."""
        return self(x) * y + (x * self(y)).scaled(self.eps(x))

    def matrix(self, n: int, basis_n: DegreeBasis | None = None,
               basis_n1: DegreeBasis | None = None) -> SparseMatrixF3:
        """Matrix of d from degree n to degree n+1 in basis coordinates."""
        bn = basis_n or enumerate_basis(n)
        bn1 = basis_n1 or enumerate_basis(n + 1)
        index = bn1.index
        entries = {}
        for j, m in enumerate(bn.monomials):
            for t, c in self.of_mono(m).terms.items():
                entries[(index[t], j)] = c
        return SparseMatrixF3(len(bn1), len(bn), entries)


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


def _random_homogeneous(rng, max_degree: int) -> Element:
    n = rng.choice([d for d in range(1, max_degree + 1)
                    if len(enumerate_basis(d)) > 0])
    basis = enumerate_basis(n)
    k = rng.randint(1, min(3, len(basis)))
    out = {}
    for m in rng.sample(list(basis.monomials), k):
        out[m] = rng.randint(1, 2)
    return Element(out)


def audit_conventions(degree_bound: int = 40, pair_samples: int = 1000,
                      pair_max_degree: int = 20, seed: int = 0,
                      candidates=CONVENTIONS) -> AuditReport:
    """Mechanically select an admissible Leibniz sign rule.

    Admissibility: (a) d(x*y) computed by the product rule agrees with d
    applied to the normalized product, for all ordered generator pairs and
    for ``pair_samples`` random homogeneous pairs; (b) d(d(m)) = 0 on every
    basis monomial of degree <= degree_bound.  Fails loudly if no candidate
    survives.
    """
    rng = random.Random(seed)
    gens = [gen(n) for n in COMM_NAMES] + [gen("a9"), gen("c17")]
    pairs = [(x, y) for x in gens for y in gens]
    pairs += [(_random_homogeneous(rng, pair_max_degree),
               _random_homogeneous(rng, pair_max_degree))
              for _ in range(pair_samples)]

    verdicts = []
    for name in candidates:
        d = Differential(name)
        v = ConventionVerdict(name, True)
        for x, y in pairs:
            try:
                lhs = d.leibniz(x, y)
            except ValueError:
                # non-homogeneous sign (cannot happen for our samples)
                v.admissible = False
                break
            rhs = d(x * y)
            if lhs != rhs:
                v.admissible = False
                diff = lhs - rhs
                if len(v.factorization_failures) < 3:
                    v.factorization_failures.append(
                        (x.text(), y.text(), diff.text()))
        if v.admissible:
            for n in range(degree_bound + 1):
                for m in enumerate_basis(n).monomials:
                    ddm = d(d.of_mono(m))
                    if not ddm.is_zero():
                        v.admissible = False
                        if len(v.dd_failures) < 3:
                            v.dd_failures.append((m.text(), ddm.text()))
                if not v.admissible:
                    break
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
    m1 = Monomial((A9, C17), ZERO_EXPS)
    m2 = Monomial((C17, A9), ZERO_EXPS)
    kernel = []
    for mu, nu in ((1, 1), (1, 2)):
        x = Element({m1: mu, m2: nu})
        if d(x).is_zero():
            kernel.append(((mu, nu), x))
    if len(kernel) != 1:
        raise RuntimeError(
            f"degree-26 word kernel is {len(kernel)}-dimensional, expected 1")
    return kernel[0]
