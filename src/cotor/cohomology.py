"""Cohomology of the complex: dimension oracle and additive basis.

Two independent routes to the same numbers:

* ``poincare_coeffs`` expands the closed rational form of the Poincare
  series (exact integer arithmetic; numerators and denominator degrees
  are frozen data),
* rank arithmetic on the differential matrices gives
  ``dim H^n = dim ker d_n - rank d_{n-1}``.

The additive basis enumerates its classes as products of the named
cocycle generators, organized in four free-module families (two
word-free ones forming the split subalgebra, two word-positive ones
forming the ideal), all over the cube polynomial ring; the engine
evaluates each product to its representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import NAMED_DEGREES

# numerator exponent -> coefficient, and denominator factor degrees
# (one (1 - t^k) factor per listed k) for the two summands
G_NUMERATOR = {0: 1, 20: 1, 22: 1, 26: 1, 30: -1, 40: 1, 42: 1, 44: 1,
               46: 1, 48: 1, 50: -1, 56: -1, 58: 1, 60: 1, 64: 1, 68: -1,
               76: 1}
C_DENOMINATORS = (4, 8, 10, 36, 48, 54)
H_NUMERATOR = {9: 1, 21: 1, 25: 1, 26: 1, 27: 1, 29: 1, 30: 1, 31: 1,
               34: 1, 35: 1, 36: 1, 46: 1, 47: 1, 48: 1, 52: 1, 56: 1}
D_DENOMINATORS = (26, 36, 48, 54)


def expand_rational(numerator: dict, denominators, n_max: int) -> list:
    """Coefficients of numerator / prod(1 - t^k) up to degree n_max."""
    coeffs = [0] * (n_max + 1)
    for e, c in numerator.items():
        if e <= n_max:
            coeffs[e] += c
    for k in denominators:
        for i in range(k, n_max + 1):
            coeffs[i] += coeffs[i - k]
    return coeffs


def poincare_coeffs(n_max: int) -> list:
    """Expected dim H^n for 0 <= n <= n_max, from the closed series."""
    c_part = expand_rational(G_NUMERATOR, C_DENOMINATORS, n_max)
    d_part = expand_rational(H_NUMERATOR, D_DENOMINATORS, n_max)
    out = [a + b for a, b in zip(c_part, d_part)]
    bad = [n for n, c in enumerate(out) if c < 0]
    if bad:
        raise ArithmeticError(f"negative series coefficients at {bad}")
    return out


# -- additive basis families -------------------------------------------------

CUBE_RING = ("x36", "x48", "x54")


@dataclass(frozen=True)
class ModuleFamily:
    """Free module Z3[ring]{gens} (ring exponents >= ring_min)."""

    side: str                  # "C" (word-free) or "D" (word-positive ideal)
    ring: tuple
    gens: tuple                # each generator a tuple of named-generator names
    ring_min: tuple = ()       # parallel to ring; default all zero

    def min_exps(self):
        return self.ring_min or (0,) * len(self.ring)


FAMILIES = (
    ModuleFamily("C", ("a4", "a8", "a10") + CUBE_RING,
                 ((), ("y20",), ("y20", "y20"), ("y22",), ("y22", "y22"),
                  ("y20", "y22"), ("y58",), ("y60",), ("y76",))),
    ModuleFamily("C", ("a8", "a10") + CUBE_RING,
                 (("y26",), ("y26", "y26"), ("y20", "y26"), ("y22", "y26"),
                  ("y64",))),
    ModuleFamily("D", ("x26",) + CUBE_RING,
                 ((), ("a4",), ("a8",), ("a10",), ("y20",), ("y22",),
                  ("a10", "y20"), ("y26",)),
                 ring_min=(1, 0, 0, 0)),
    ModuleFamily("D", ("x26",) + CUBE_RING,
                 (("a9",), ("y21",), ("y25",), ("y27",), ("y21", "a8"),
                  ("y21", "a10"), ("y25", "a10"), ("y21", "y26"))),
)


def _gen_degree(names) -> int:
    return sum(NAMED_DEGREES[n] for n in names)


# (ring, mins) -> for each suffix ring[i:] of the ring, i = 0..len(ring),
# its exponent tuples (each at least its entry of mins) by total degree
_RING_TABLES: dict = {}


def _ring_monomials(ring: tuple, mins: tuple, degree: int) -> tuple:
    """Exponent tuples over `ring` of the given total degree, each at least
    its entry of `mins`, in lexicographic order.  As ``dga.comm_keys``
    does, they come from per-degree tables, one per suffix of the ring:
    the tuples of ring[i:] of degree r are e followed by those of
    ring[i+1:] of degree r - e*deg(ring[i]), for e ascending.  The tables
    are extended from the last generator back, to the degree asked."""
    if degree < 0:
        return ()
    tables = _RING_TABLES.get((ring, mins))
    if tables is None:
        tables = _RING_TABLES[ring, mins] = [[] for _ in ring] + [[((),)]]
    tables[-1].extend([()] * (degree + 1 - len(tables[-1])))
    for i in range(len(ring) - 1, -1, -1):
        d, low, tails = NAMED_DEGREES[ring[i]], mins[i], tables[i + 1]
        table = tables[i]
        for r in range(len(table), degree + 1):
            table.append(tuple((e,) + t for e in range(low, r // d + 1)
                               for t in tails[r - e * d]))
    return tables[0][degree]


@dataclass(frozen=True)
class BasisClass:
    label: str
    side: str
    powers: tuple              # sorted ((name, exponent), ...): a formal monomial


@dataclass(frozen=True)
class CotorBasis:
    degree: int
    classes: tuple

    def __len__(self):
        return len(self.classes)


def class_label(powers) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in powers) or "1"


def additive_basis_classes(n: int) -> CotorBasis:
    """Enumerate the degree-n additive basis (labels and power tuples).

    Count equals the Poincare coefficient by construction of the series;
    representative Elements and the independence check live on the engine,
    which owns the differential.
    """
    classes = []
    for fam in FAMILIES:
        mins = fam.min_exps()
        for g in fam.gens:
            rest = n - _gen_degree(g)
            if rest < 0:
                continue
            for exps in _ring_monomials(fam.ring, mins, rest):
                powers: dict[str, int] = {}
                for name in g:
                    powers[name] = powers.get(name, 0) + 1
                for name, e in zip(fam.ring, exps):
                    if e:
                        powers[name] = powers.get(name, 0) + e
                pw = tuple(sorted(powers.items()))
                classes.append(BasisClass(class_label(pw), fam.side, pw))
    classes.sort(key=lambda c: (c.side, c.label))
    return CotorBasis(n, tuple(classes))
