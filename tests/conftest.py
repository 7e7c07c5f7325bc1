import math
import weakref
from typing import NamedTuple

import pytest

from cotor.dga import (
    COMM_NAMES, WEIGHT_SCHEMES, WORD_NAMES, Element, Monomial, decode,
)
from cotor.derivation import NAMED_DEGREES, family_identities
from cotor.engine import Engine
from cotor.gf3 import Echelon, from_planes, to_planes

# criterion index -> (label, passed); printed at the end of the run
ACCEPTANCE_RESULTS = {}


def record_acceptance(index: int, label: str, ok: bool):
    ACCEPTANCE_RESULTS[index] = (label, ok)
    return ok


@pytest.fixture(scope="session")
def engine():
    """One shared session engine under the audited sign rule."""
    return Engine(convention="parity")


@pytest.fixture(scope="session")
def full_engine(engine):
    """The session engine with all matrices materialized through degree 81."""
    engine.build_range(81)
    return engine


def class_element(cls, named: dict) -> Element:
    """Reference representative of a basis class: the product of its named
    generators' powers, multiplied out here independently of the engine's
    evaluator."""
    out = Element.one()
    for name, e in cls.powers:
        out = out * (named[name].element ** e)
    return out


ZERO_EXPS = (0, 0, 0, 0, 0, 0)


_MONOMIALS = weakref.WeakKeyDictionary()


def monomials(basis) -> tuple:
    """The monomials of a ``dga.DegreeBasis``, decoded, in its order (kept
    while the basis lives)."""
    out = _MONOMIALS.get(basis)
    if out is None:
        out = _MONOMIALS[basis] = tuple(map(decode, basis.keys))
    return out


def parse_monomial(text: str) -> Monomial:
    """Inverse of Monomial.text()."""
    text = text.strip()
    if text == "1":
        return Monomial((), ZERO_EXPS)
    if "|" in text:
        wpart, cpart = text.split("|")
    elif text.split()[0] in WORD_NAMES:
        wpart, cpart = text, ""
    else:
        wpart, cpart = "", text
    word = tuple(WORD_NAMES.index(t) for t in wpart.split())
    exps = [0] * 6
    for tok in cpart.split():
        name, _, e = tok.partition("^")
        exps[COMM_NAMES.index(name)] = int(e) if e else 1
    return Monomial(word, tuple(exps))


def of_mono(d, m: Monomial) -> Element:
    """d of one normal-form monomial."""
    return d(Element({m: 1}))


def monomial_weight(m: Monomial, scheme: str) -> int:
    """The weight of a monomial under a scheme, summed over its word
    letters and exponents: the tests' route to ``dga.key_weight``."""
    cw, ww = WEIGHT_SCHEMES[scheme]
    return (sum(ww[x] for x in m.word)
            + sum(e * w for e, w in zip(m.exps, cw)))


def element_weight(x: Element, scheme: str) -> float:
    """The least weight of a term of x (+infinity for 0)."""
    return min((monomial_weight(m, scheme) for m in x.terms),
               default=math.inf)


class IdentityCheck(NamedTuple):
    label: str
    ok: bool
    residual: Element


def check_coboundary_factorizations(q: Element, named: dict, d) -> list:
    """One IdentityCheck of w * partial2(Q) = d(witness) per family of
    `derivation.family_identities`."""
    out = []
    for w, lhs, witness in family_identities(q, named):
        res = lhs - d(witness)
        out.append(IdentityCheck(w, res.is_zero(), res))
    return out


def gf3mat(m) -> str:
    """GF3MAT v1 text of any matrix with ``entries`` (also one with an entry
    joining two blocks), by sorting them: the reference the block writer's
    bytes are checked against, and how tests write planted files."""
    lines = [f"GF3MAT v1 {m.n_rows} {m.n_cols} {len(m.entries)}"]
    for (r, c), v in sorted(m.entries.items(),
                            key=lambda rcv: (rcv[0][1], rcv[0][0])):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"


class SparseMatrixF3:
    """Reference GF(3) matrix, a dict (row, col) -> {1, 2}: what tests build
    matrices, planted faults and products against.  `Echelon` reads it
    through ``n_rows``, ``n_cols`` and ``entries``."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries=None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative matrix dimensions")
        self.n_rows = n_rows
        self.n_cols = n_cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            v %= 3
            if v == 0:
                continue
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, rows) -> "SparseMatrixF3":
        """The matrix whose rows are the given sequences of integers."""
        rows = [list(row) for row in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ValueError("rows of different lengths")
        return cls(len(rows), n_cols, {
            (r, c): int(v) for r, row in enumerate(rows)
            for c, v in enumerate(row) if v % 3})

    def transpose(self) -> "SparseMatrixF3":
        return SparseMatrixF3(
            self.n_cols, self.n_rows,
            {(c, r): v for (r, c), v in self.entries.items()})

    def matvec(self, v) -> tuple:
        """The product with a vector of integers, as a tuple of residues."""
        v = [int(x) for x in v]
        if len(v) != self.n_cols:
            raise ValueError("vector length does not match n_cols")
        out = [0] * self.n_rows
        for (r, c), a in self.entries.items():
            out[r] += a * v[c]
        return tuple(x % 3 for x in out)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrixF3)
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and self.entries == other.entries)


class RrefResult(NamedTuple):
    matrix: SparseMatrixF3
    rank: int
    pivot_columns: list


class SolveResult(NamedTuple):
    solution: tuple | None
    residual: tuple

    @property
    def in_image(self) -> bool:
        return self.solution is not None


def echelon_solve(ech: Echelon, v) -> SolveResult:
    """`Echelon.solve_planes` on a vector of integers."""
    v = list(v)
    if len(v) != ech.n_rows:
        raise ValueError(
            f"right-hand side has length {len(v)}, expected {ech.n_rows}")
    x, residual = ech.solve_planes(*to_planes(v))
    return SolveResult(None if x is None else from_planes(*x, ech.n_cols),
                       from_planes(*residual, ech.n_rows))


def rref(m) -> RrefResult:
    """Reduced row-echelon form over GF(3), with rank and pivot columns:
    row i is e_i on the pivot columns and, on a free column j, minus the
    pivot part of j's (checked) kernel vector."""
    ech = Echelon(m)
    pivot_columns = ech.pivot_columns
    free = sorted(set(range(ech.n_cols)) - set(pivot_columns))
    entries = {(i, c): 1 for i, c in enumerate(pivot_columns)}
    for j, k in zip(free, ech.kernel()):
        for i, c in enumerate(pivot_columns):
            if k[c]:
                entries[(i, j)] = 3 - k[c]
    return RrefResult(SparseMatrixF3(ech.n_rows, ech.n_cols, entries),
                      ech.rank, pivot_columns)


def kernel_basis(m) -> list:
    """Basis of the right kernel, as tuples of residues."""
    return Echelon(m).kernel()


def solve_in_image(m, v) -> SolveResult:
    """Solve m @ x = v, or report the residual left over the column space;
    a dimension mismatch is a ValueError, never a "not in image" verdict."""
    return echelon_solve(Echelon(m), v)


def cols_ge(ss, q, m: int) -> int:
    """The basis monomials of degree m with weight >= q, in the weights
    of a ``SpectralSequence``."""
    return sum(k for p, k in ss.profile(m).weights.items() if p >= q)


def rank_sub(ss, q, w, m: int) -> int:
    """The rank of d_m on its columns of weight >= q and rows of weight
    < w: the pairs of d_m whose two ends have such weights."""
    return sum(k for (c, length), k in ss.profile(m).pairs.items()
               if c >= q and c + length < w)


def reference_page_dim(ss, r: int, p: int, n: int) -> int:
    """dim E_r^{p,n} of a ``SpectralSequence``, cell by cell: four
    ``Z_s(q, m) = cols_ge(q) - rank_sub(q, q + s)``, the reference the
    page tables are checked against."""
    def dim_z(s, q, m):
        return cols_ge(ss, q, m) - rank_sub(ss, q, q + s, m)
    return (dim_z(r, p, n) - dim_z(r - 1, p + 1, n)
            - dim_z(r - 1, p - r + 1, n - 1) + dim_z(r, p - r + 1, n - 1))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[index]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {index}: {verdict} - {label}")


def ring_monomials(ring: tuple, mins: tuple, degree: int) -> tuple:
    """Exponent tuples over `ring` of the given total degree, each at least
    its entry of `mins`, by recursion on the generators: the reference for
    ``cohomology._ring_monomials``."""
    out = []

    def rec(i, remaining, acc):
        if i == len(ring):
            if remaining == 0:
                out.append(tuple(acc))
            return
        d = NAMED_DEGREES[ring[i]]
        for e in range(mins[i], remaining // d + 1):
            rec(i + 1, remaining - e * d, acc + [e])

    if degree >= 0:
        rec(0, degree, [])
    return tuple(out)
