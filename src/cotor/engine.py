"""Session object: one sign convention, shared caches, derived data.

Everything downstream of the differential (matrices, ranks, cohomology
dimensions, class solvers) is memoized here; all cached values are
immutable after construction.  The degree cap only bounds what the
*matrix-backed* operations may touch; identity checks by direct
evaluation are uncapped.

d preserves the internal Z^4 degree (``dga.grading``), and so does every
class representative (checked when the classes of a degree are first
grouped, also under -O).  So each grading is a finite complex of its
own, and one block of d, (degree n, grading g), is the unit the engine
builds, holds (one dict, degree -> grading -> block) and reads
(``d_blocks``).  Block g of d_n reads only the blocks g - g(f) of
d_{n - deg f}, one per generator f (``differential.STENCIL``), so a block
is built after those, lowest degree first, and a reader of a few gradings
builds a few blocks: ``apply_d`` (the matrix route of ``relations.
verify_witness``), word-type ``relations.discover_relation``,
``decompose`` and ``check_additive_basis``.  rank d, and the matrix
[class columns | d_{n-1}] behind the last two, are worked one block at a
time too.  A whole d_n (``d_matrix``: ranks, spectral pages, the cache)
is its blocks in basis order; only a whole d_n is stored in the cache,
and a degree the cache holds is read whole, into every grading, the
first time any block of it is asked for.
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
from .differential import (
    PREFIX_DEPTH, STENCIL, Differential, audit_conventions,
)
from .gf3 import (
    BlockDiagonalF3, Echelon, Planes, bits, block_columns, combination,
)

DEFAULT_MAX_DEGREE = 80

_NO_BLOCK = ((), (), (), ())     # a block of d with no columns


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


class _Window(dict):
    """Z^4 degree -> the nonzero columns by key (``gf3.block_columns``) of
    that block of one d_k, made on first use from the block that
    ``block(g)`` gives (None: no rows) over the rows ``row_keys``."""

    def __init__(self, block, col_keys, row_keys, skip: int):
        super().__init__()
        self.block, self.row_keys = block, row_keys
        self.labels = col_keys, row_keys, skip

    def __missing__(self, g: int) -> dict:
        block = self.block(g)
        columns = self[g] = {} if block is None else block_columns(
            block, *self.labels)
        return columns


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
        # degree -> Z^4 degree -> block of d (None: no rows), one entry per
        # block built or loaded (``_held``)
        self._d: dict[int, dict] = {}
        self._cached: set = set()       # degrees the cache holds
        # degree -> Z^4 degree -> that block of d's nonzero columns by key,
        # for the blocks builds read
        self._columns: dict[int, _Window] = {}
        self._ranks: dict[int, int] = {}
        self._additive_bases: dict[int, CotorBasis] = {}
        self._representatives: dict[BasisClass, Element] = {}
        self._class_groups: dict[int, dict] = {}
        self._block_solvers: dict[tuple, tuple] = {}
        self._split_solvers: dict[int, object] = {}

    # -- bases and matrices -------------------------------------------------

    def basis(self, n: int) -> DegreeBasis:
        b = self._bases.get(n)
        if b is None:
            b = self._bases[n] = (enumerate_basis(n) if n >= 0 else
                                  DegreeBasis(n, ()))
        return b

    def d_matrix(self, n: int) -> BlockDiagonalF3:
        """d_n whole: its blocks (``d_blocks``) in the order of ``basis(n).
        blocks``, stored in the cache the first time unless read from it."""
        cols = self.basis(n).blocks
        held = self._held(n, cols)
        m = BlockDiagonalF3(len(self.basis(n + 1)), len(self.basis(n)), {
            g: b for g in cols if (b := held[g]) is not None})
        if self.cache is not None and n not in self._cached:
            self._cached.add(n)
            self.cache.store(n, m)
        return m

    def _held(self, k: int, gradings=()) -> dict:
        """The blocks of d_k held (``_d``), after those of ``gradings`` not
        held are built (``_build``); on first ask every block where the
        cache holds d_k, else none."""
        held, have = self._d.get(k), self.basis(k).blocks
        if held is None:
            m = None if self.cache is None else self.cache.load(
                k, self.basis(k + 1).blocks, have)
            if m is not None:
                self._cached.add(k)
            held = self._d[k] = {} if m is None else (
                dict.fromkeys(have) | m.blocks)
        if len(held) < len(have):       # d_k is not whole
            self._build(k, [g for g in gradings
                            if g in have and g not in held])
        return held

    def d_blocks(self, n: int, gradings) -> dict:
        """Z^4 degree -> that block ``(rows, cols, pos, neg)`` of d_n, for
        each of ``gradings`` (None: the block has no rows, or the degree-n
        basis has no monomial of that grading).  A block not held is built,
        after the blocks of lower degree it reads (``_build``); d_n is read
        whole where the cache holds it (a degree built in part is not)."""
        held = self._held(n, gradings)
        return {g: held.get(g) for g in gradings}

    def _build(self, n: int, gradings: list):
        """Build the blocks ``gradings`` of d_n, none of them held.  Block g of
        d_n reads block g - g(f) of d_{n - deg f} for each generator f
        (``differential.STENCIL``), and deg f > 0; so the blocks to build are
        found from degree n down, each lower d_k read whole where the cache
        holds it, and built from the lowest degree up, one
        ``Differential.matrix`` per degree."""
        if not gradings:
            return
        plan = {n: gradings}
        for k in range(n, -1, -1):
            for deg, dg in STENCIL if plan.get(k) else ():
                j = k - deg
                have, held = self.basis(j).blocks, self._d.get(j, {})
                if len(held) == len(have):      # d_j is whole, or j < 0
                    continue
                need = {h for g in plan[k] if (h := g - dg) in have
                        and h not in held}
                if need and len(self._held(j)) < len(have):
                    plan.setdefault(j, set()).update(need)
        for k in sorted(plan):
            want = (gradings if k == n else
                    [g for g in self.basis(k).blocks if g in plan[k]])
            blocks = self.d.matrix(k, self.basis(k), self.basis(k + 1),
                                   self._window, want).blocks
            self._d[k].update(dict.fromkeys(want) | blocks)
            # a build of degree above k reads no columns of degree
            # k - PREFIX_DEPTH or below
            for j in [j for j in self._columns if j <= k - PREFIX_DEPTH]:
                del self._columns[j]

    def _window(self, k: int) -> _Window:
        """d_k's blocks held (a KeyError for one of its gradings that is
        not), and its nonzero columns by Z^4 degree, then by monomial key:
        what ``Differential.matrix`` copies and reads prefixes from; kept
        while a build of higher degree can read them."""
        window = self._columns.get(k)
        if window is None:
            have = self.basis(k).blocks
            window = self._columns[k] = _Window(
                lambda g: self._d[k][g] if g in have else None,
                self.basis(k).keys, self.basis(k + 1).keys,
                self.d.copied_field)
        return window

    def build_range(self, n_max: int):
        """Materialize matrices for all degrees <= n_max, in ascending order
        (so the d_k each build reads its prefixes from are built already),
        then drop the columns kept for those builds: a later build of a
        higher degree reads them again from the blocks held."""
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
        read off those blocks of d_n alone (``d_blocks``): Z^4 degree ->
        the nonzero bit planes of the image over that block of the
        degree-(n+1) basis."""
        out = {}
        for g, block in self.d_blocks(n, parts).items():
            if block is not None:
                image = combination(*parts[g], *block[2:])
                if image != (0, 0):
                    out[g] = image
        return out

    def _class_blocks(self, n: int) -> dict:
        """Z^4 degree -> (classes, pos, neg) for each block of the degree-n
        basis that holds a class: the classes of that degree with their
        representatives' planes over the block.  A representative that is
        not Z^4-homogeneous is a RuntimeError."""
        out = self._class_groups.get(n)
        if out is not None:
            return out
        out = {}
        for cls in self.additive_basis(n).classes:
            try:
                parts = self.blocks_of(self.representative(cls), n)
            except KeyError:
                raise RuntimeError(f"class {cls.label} has wrong degree")
            if len(parts) > 1:
                raise RuntimeError(f"class {cls.label}: representative is "
                                   "not Z^4-homogeneous")
            for g, (p, q) in parts.items():
                classes, pos, neg = out.setdefault(g, ([], [], []))
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
        rows, groups = self.basis(n).blocks, self._class_blocks(n)
        independent = 0
        for g, block in self.d_blocks(n - 1, groups).items():
            # block g of d_{n-1}'s columns first, then the classes
            _, cols, dp, dq = block or _NO_BLOCK
            classes, pos, neg = groups[g]
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
        groups = self._class_blocks(n)
        for g, block in self.d_blocks(n - 1, [
                g for g in parts if (n, g) not in self._block_solvers]).items():
            # [class columns | d_{n-1}] on block g
            classes, pos, neg = groups.get(g, ((), (), ()))
            _, cols, dp, dq = block or _NO_BLOCK
            self._block_solvers[n, g] = (Echelon(Planes(
                len(rows[g]), len(classes) + len(cols),
                [*pos, *dp], [*neg, *dq])), classes, cols)
        coeffs, witness, recon = {}, {}, Element.zero()
        for g, (vp, vq) in parts.items():
            solver, classes, cols = self._block_solvers[n, g]
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
