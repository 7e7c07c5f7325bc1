"""Session object: one sign convention, shared caches, derived data.

Everything downstream of the differential (matrices, ranks, cohomology
dimensions, class solvers) is memoized here; all cached values are
immutable after construction.  The degree cap only bounds what the
*matrix-backed* operations may touch; identity checks by direct
evaluation are uncapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import cohomology
from .cache import MatrixCache, log
from .cohomology import BasisClass, CotorBasis, additive_basis_classes
from .derivation import build_named_generators, named_evaluator
from .dga import (
    DegreeBasis, Element, decode, element_planes, enumerate_basis,
)
from .differential import Differential, audit_conventions
from .gf3 import BlockDiagonalF3, Echelon, Planes, bits, hstack

DEFAULT_MAX_DEGREE = 80


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
        self._ranks: dict[int, int] = {}
        self._additive_bases: dict[int, CotorBasis] = {}
        self._representatives: dict[BasisClass, Element] = {}
        self._class_columns: dict[int, tuple] = {}
        self._decompose_solvers: dict[int, Echelon] = {}
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
        loaded = self.cache.load(n) if self.cache is not None else None
        if loaded is not None:
            try:                # a corrupt file is rebuilt and rewritten
                if (loaded.n_rows, loaded.n_cols) != (len(rows), len(cols)):
                    raise ValueError("wrong shape")
                m = BlockDiagonalF3.from_sparse(
                    loaded, rows.blocks, cols.blocks)
            except ValueError as exc:   # or an entry joining two Z^4 blocks
                log.warning("corrupted cache file %s (%s); rebuilding",
                            self.cache.path(n), exc)
        if m is None:
            m = self.d.matrix(n, cols, rows)
            if self.cache is not None:
                self.cache.store(n, m)
        self._matrices[n] = m
        return m

    def build_range(self, n_max: int):
        """Materialize matrices for all degrees <= n_max, in ascending order
        (so each monomial's prefix already has its differential memoized,
        and the memo stays within ``MEMO_DEPTH`` degrees of the top)."""
        for n in range(n_max + 1):
            self.d_matrix(n)

    def rank(self, n: int) -> int:
        """rank d_n, from one elimination per internal Z^4 degree (d
        preserves it, so d_n is block diagonal)."""
        if n < 0:
            return 0
        r = self._ranks.get(n)
        if r is None:
            r = self._ranks[n] = sum(
                Echelon(Planes(len(rs), len(cs), p, q), transform=False).rank
                for rs, cs, p, q in self.d_matrix(n).blocks)
        return r

    # -- cohomology ----------------------------------------------------------

    def dim_h(self, n: int) -> int:
        dim_v = len(self.basis(n))
        return dim_v - self.rank(n) - self.rank(n - 1)

    def homology_dims(self, n_max: int) -> list:
        return [self.dim_h(n) for n in range(n_max + 1)]

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

    def class_columns(self, n: int):
        """(classes, planes of their representatives) at degree n."""
        cols = self._class_columns.get(n)
        if cols is None:
            basis = self.basis(n)
            classes = self.additive_basis(n).classes
            planes = []
            for cls in classes:
                rep = self.representative(cls)
                if rep.degree() not in (None, n):
                    raise RuntimeError(f"class {cls.label} has wrong degree")
                planes.append(element_planes(rep, basis.index))
            cols = self._class_columns[n] = (
                classes, Planes.from_columns(len(basis), planes))
        return cols

    def _classes_and_boundaries(self, n: int) -> Planes:
        """The planes of [class columns | d_{n-1}] at degree n."""
        _, cols = self.class_columns(n)
        return hstack(cols, self.d_matrix(n - 1)) if n >= 1 else cols

    def split_solver(self, n: int):
        """(solver, monomial index, classes) over the word-free basis
        classes of degree n, in S-coordinates."""
        cached = self._split_solvers.get(n)
        if cached is None:
            classes = [c for c in self.additive_basis(n).classes
                       if c.side == "C"]
            reps = [self.representative(c) for c in classes]
            monos = sorted({m for rep in reps for m in rep.terms})
            idx = {m: i for i, m in enumerate(monos)}
            a = Planes.from_columns(
                len(monos), (element_planes(rep, idx) for rep in reps))
            cached = self._split_solvers[n] = (Echelon(a), idx, classes)
        return cached

    def check_additive_basis(self, n: int) -> bool:
        """Count == dim H^n and representatives independent mod im(d)."""
        classes, _ = self.class_columns(n)
        if len(classes) != self.dim_h(n):
            return False
        rank = Echelon(self._classes_and_boundaries(n), transform=False).rank
        return rank == len(classes) + self.rank(n - 1)

    def decompose(self, z: Element, n: int | None = None) -> ClassDecomposition:
        """Write a cocycle as basis classes plus an explicit coboundary."""
        if n is None:
            n = z.degree() or 0
        if not self.d(z).is_zero():
            raise ValueError("decompose: input is not a cocycle")
        solver = self._decompose_solvers.get(n)
        if solver is None:
            solver = self._decompose_solvers[n] = Echelon(
                self._classes_and_boundaries(n))
        classes, _ = self.class_columns(n)
        x, _ = solver.solve_planes(*element_planes(z, self.basis(n).index))
        if x is None:
            raise RuntimeError(
                f"cocycle of degree {n} not spanned by classes + im(d); "
                "additive basis is incomplete here")
        # column j < k is class j, column k + i is basis monomial i of
        # degree n - 1; x is 1 on its pos plane and 2 on its neg plane
        k = len(classes)
        xp, xq = x
        coeffs, witness, recon = {}, {}, Element.zero()
        for j in bits(xp | xq):
            c = 1 if xp >> j & 1 else 2
            if j < k:
                coeffs[classes[j].label] = c
                recon = recon + self.representative(classes[j]).scaled(c)
            else:
                witness[decode(self.basis(n - 1).keys[j - k])] = c
        witness = Element(witness)
        # reconstruction identity, checked on every call (also under -O)
        if z - recon != self.d(witness):
            raise RuntimeError(
                f"decompose: reconstruction failed in degree {n}: input minus "
                "class combination is not d(witness)")
        return ClassDecomposition(n, coeffs, witness)
