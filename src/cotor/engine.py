"""Session object: one sign convention, shared caches, derived data.

Everything downstream of the differential (matrices, ranks, cohomology
dimensions, class solvers) is memoized here; all cached values are
immutable after construction.  The degree cap only bounds what the
*matrix-backed* operations may touch; identity checks by direct
evaluation are uncapped.

d preserves the internal Z^4 degree (``dga.grading``), and so does every
class representative (checked when the classes of a degree are first
grouped, also under -O).  So rank d, and the matrix [class columns |
d_{n-1}] behind ``decompose`` and ``check_additive_basis``, are worked
one Z^4 block at a time: one small elimination per block, built on first
use, in place of one over the whole degree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from . import cohomology
from .cache import MatrixCache
from .cohomology import BasisClass, CotorBasis, additive_basis_classes
from .derivation import build_named_generators, named_evaluator
from .dga import (
    DegreeBasis, Element, element_planes, enumerate_basis, grading,
)
from .differential import PREFIX_DEPTH, Differential, audit_conventions
from .gf3 import BlockDiagonalF3, Echelon, Planes, bits, combination

DEFAULT_MAX_DEGREE = 80

_NO_COLUMNS = ((), (), ())      # a block of d with no columns: (cols, pos, neg)


def _block_rank(block) -> int:
    """The rank of one block ``(rows, cols, pos, neg)`` of d; with one row
    or one column it is 1 exactly when the block is nonzero."""
    rows, cols, pos, neg = block
    if len(rows) == 1 or len(cols) == 1:
        return int(any(pos) or any(neg))
    return Echelon(Planes(len(rows), len(cols), pos, neg),
                   transform=False).rank


@dataclass(frozen=True)
class ClassDecomposition:
    degree: int
    coefficients: dict          # class label -> coefficient in {1, 2}
    witness: Element            # input - sum(c_i * rep_i) = d(witness)


class Engine:
    def __init__(self, max_degree: int = DEFAULT_MAX_DEGREE,
                 convention: str = "audit", cache_dir=None):
        self.max_degree = max_degree
        if convention == "audit":
            # selection audit: small bounds suffice to reject the bad rules;
            # the full-depth audit is its own verification surface
            convention = audit_conventions(
                degree_bound=12, pair_samples=60).selected
        self.convention = convention
        self.d = Differential(convention)
        self.cache = MatrixCache(cache_dir, convention) if cache_dir else None
        self._bases: dict[int, DegreeBasis] = {}
        self._matrices: dict[int, BlockDiagonalF3] = {}
        # degree -> d's nonzero columns by key, for the degrees builds read
        self._columns: dict[int, dict] = {}
        self._ranks: dict[int, int] = {}
        self._additive_bases: dict[int, CotorBasis] = {}
        self._representatives: dict[BasisClass, Element] = {}
        self._class_groups: dict[int, dict] = {}
        self._block_solvers: dict[tuple, tuple] = {}
        self._split_solvers: dict[int, object] = {}

    # -- bases and matrices -------------------------------------------------

    def basis(self, n: int) -> DegreeBasis:
        if n < 0:
            return DegreeBasis(n, ())
        b = self._bases.get(n)
        if b is None:
            b = self._bases[n] = enumerate_basis(n)
        return b

    def d_matrix(self, n: int) -> BlockDiagonalF3:
        m = self._matrices.get(n)
        if m is not None:
            return m
        rows, cols = self.basis(n + 1), self.basis(n)
        if self.cache is not None:      # a refused file is rebuilt, rewritten
            m = self.cache.load(n, rows.blocks, cols.blocks)
        if m is None:
            m = self.d.matrix(n, cols, rows, self._columns_of, lambda k: (
                self.d_matrix(k), self.basis(k + 1).keys))
            # building degree n + 1 reads no columns of degree <= n - depth
            for k in [k for k in self._columns if k <= n - PREFIX_DEPTH]:
                del self._columns[k]
            if self.cache is not None:
                self.cache.store(n, m)
        self._matrices[n] = m
        return m

    def _columns_of(self, k: int) -> dict:
        """d_k's nonzero columns by monomial key (``BlockDiagonalF3.
        columns``), what ``Differential.matrix`` reads prefixes from; kept
        while a build of higher degree can read them."""
        columns = self._columns.get(k)
        if columns is None:
            columns = self._columns[k] = self.d_matrix(k).columns(
                self.basis(k).keys, self.basis(k + 1).keys,
                self.d.copied_field)
        return columns

    def build_range(self, n_max: int):
        """Materialize matrices for all degrees <= n_max, in ascending order
        (so the d_k each build reads its prefixes from are built already),
        then drop the columns kept for those builds: a later build of a
        higher degree reads them again from the matrices."""
        for n in range(n_max + 1):
            self.d_matrix(n)
        self._columns.clear()

    def rank(self, n: int) -> int:
        """rank d_n, summed over its internal Z^4 blocks (d preserves the
        Z^4 degree, so d_n is block diagonal), by ``_block_rank``."""
        if n < 0:
            return 0
        r = self._ranks.get(n)
        if r is None:
            r = self._ranks[n] = sum(map(_block_rank,
                                         self.d_matrix(n).blocks.values()))
        return r

    # -- cohomology ----------------------------------------------------------

    def dim_h(self, n: int) -> int:
        dim_v = len(self.basis(n))
        return dim_v - self.rank(n) - self.rank(n - 1)

    def series_coeffs(self, n_max: int) -> list:
        return cohomology.poincare_coeffs(n_max)

    # -- named generators and additive basis ----------------------------------

    @cached_property
    def named(self) -> dict:
        """The 18 named cocycles, built and checked once per engine."""
        return build_named_generators(self.d)

    @cached_property
    def named_evaluator(self):
        return named_evaluator(self.named)

    def additive_basis(self, n: int) -> CotorBasis:
        b = self._additive_bases.get(n)
        if b is None:
            b = self._additive_bases[n] = additive_basis_classes(n)
        return b

    def representative(self, cls: BasisClass) -> Element:
        """The class's representative, the product of its named generators'
        powers, built once per class (the memo is keyed by the class's
        value, and the evaluator it is built with belongs to this engine)."""
        rep = self._representatives.get(cls)
        if rep is None:
            rep = self._representatives[cls] = self.named_evaluator.monomial(
                cls.powers)
        return rep

    def blocks_of(self, x: Element, n: int) -> dict:
        """A degree-n element cut by Z^4 degree (``grading``): each degree
        to the bit planes of x's part over that block of the degree-n
        basis, at the positions within the block (KeyError for a term
        outside the basis)."""
        basis = self.basis(n)
        index, blocks = basis.index, basis.blocks
        parts = {}
        for k, c in x.by_key.items():
            g = grading(k)
            bit = 1 << bisect_left(blocks[g], index[k])
            p, q = parts.get(g, (0, 0))
            parts[g] = (p | bit, q) if c == 1 else (p, q | bit)
        return parts

    def apply_d(self, parts: dict, n: int) -> dict:
        """d_n of a degree-n element given by its parts (``blocks_of``),
        read off d_n's blocks one at a time: Z^4 degree -> the nonzero bit
        planes of the image over that block of the degree-(n+1) basis."""
        blocks = self.d_matrix(n).blocks
        out = {}
        for g, (vp, vq) in parts.items():
            if g in blocks:
                image = combination(vp, vq, *blocks[g][2:])
                if image != (0, 0):
                    out[g] = image
        return out

    def _class_blocks(self, n: int) -> dict:
        """Z^4 degree -> (classes, pos, neg, (cols, pos, neg)) for each
        block of the degree-n basis: the classes of that degree with their
        representatives' planes over the block, and the block of d_{n-1}
        landing there (columns are positions in degree n - 1; maybe none).
        A representative that is not Z^4-homogeneous is a RuntimeError."""
        out = self._class_groups.get(n)
        if out is not None:
            return out
        out = {}
        if n >= 1:
            for g, (_, cols, pos, neg) in self.d_matrix(n - 1).blocks.items():
                out[g] = [], [], [], (cols, pos, neg)
        for cls in self.additive_basis(n).classes:
            try:
                parts = self.blocks_of(self.representative(cls), n)
            except KeyError:
                raise RuntimeError(f"class {cls.label} has wrong degree")
            if len(parts) > 1:
                raise RuntimeError(f"class {cls.label}: representative is "
                                   "not Z^4-homogeneous")
            for g, (p, q) in parts.items():
                classes, pos, neg, _ = out.setdefault(
                    g, ([], [], [], _NO_COLUMNS))
                classes.append(cls)
                pos.append(p)
                neg.append(q)
        self._class_groups[n] = out
        return out

    def split_solver(self, n: int):
        """(solver, monomial key -> row, classes) over the word-free basis
        classes of degree n, in S-coordinates."""
        cached = self._split_solvers.get(n)
        if cached is None:
            classes = [c for c in self.additive_basis(n).classes
                       if c.side == "C"]
            reps = [self.representative(c) for c in classes]
            monos = sorted({k for rep in reps for k in rep.by_key})
            idx = {m: i for i, m in enumerate(monos)}
            a = Planes.from_columns(
                len(monos), (element_planes(rep, idx) for rep in reps))
            cached = self._split_solvers[n] = (Echelon(a), idx, classes)
        return cached

    def check_additive_basis(self, n: int) -> bool:
        """Count == dim H^n and representatives independent mod im(d), one
        Z^4 block at a time: with the block's d_{n-1} columns first, every
        class column must be a pivot."""
        count = len(self.additive_basis(n))
        if count != self.dim_h(n):
            return False
        rows = self.basis(n).blocks
        independent = 0
        for g, (classes, pos, neg, (cols, dp, dq)) in self._class_blocks(
                n).items():
            if not classes:
                continue
            ech = Echelon(Planes(len(rows[g]), len(cols) + len(classes),
                                 [*dp, *pos], [*dq, *neg]), transform=False)
            independent += sum(c >= len(cols) for _, c in ech.pivots)
        return independent == count

    def decompose(self, z: Element, n: int | None = None) -> ClassDecomposition:
        """Write a cocycle as basis classes plus an explicit coboundary,
        solving each Z^4 part of it in its own block (an input that d_n does
        not kill is a ValueError)."""
        if n is None:
            n = z.degree() or 0
        parts = self.blocks_of(z, n)
        if self.apply_d(parts, n):
            raise ValueError("decompose: input is not a cocycle")
        rows, prev = self.basis(n).blocks, self.basis(n - 1).keys
        coeffs, witness, recon = {}, {}, Element.zero()
        for g, (vp, vq) in parts.items():
            cached = self._block_solvers.get((n, g))
            if cached is None:          # [class columns | d_{n-1}] on block g
                classes, pos, neg, (cols, dp, dq) = self._class_blocks(
                    n).get(g, ((), (), (), _NO_COLUMNS))
                cached = self._block_solvers[n, g] = (Echelon(Planes(
                    len(rows[g]), len(classes) + len(cols),
                    [*pos, *dp], [*neg, *dq])), classes, cols)
            solver, classes, cols = cached
            x, _ = solver.solve_planes(vp, vq)
            if x is None:
                raise RuntimeError(
                    f"cocycle of degree {n} not spanned by classes + im(d); "
                    "additive basis is incomplete here")
            # column j < k is class j of the block, column k + i is basis
            # monomial cols[i] of degree n - 1; x is 1 on its pos plane and
            # 2 on its neg plane
            k = len(classes)
            xp, xq = x
            for j in bits(xp | xq):
                c = 1 if xp >> j & 1 else 2
                if j < k:
                    coeffs[classes[j].label] = c
                    recon = recon + self.representative(classes[j]).scaled(c)
                else:
                    witness[prev[cols[j - k]]] = c
        witness = Element.from_keys(witness)
        # reconstruction identity, checked on every call (also under -O)
        if z - recon != self.d(witness):
            raise RuntimeError(
                f"decompose: reconstruction failed in degree {n}: input minus "
                "class combination is not d(witness)")
        return ClassDecomposition(n, coeffs, witness)
