"""Exact linear algebra over the field with three elements.

Scalars are canonical residues in {0, 1, 2}; every operation reduces
eagerly, so equality of values is equality of representations.  The heavy
kernels (row reduction, column-echelon profiles) live in a compiled
extension when available and in a numpy fallback otherwise; both expose
the same contract and the benchmark suite compares them.

The public matrix type is sparse-by-triples (the per-degree differential
matrices are tall, thin and very sparse), but elimination densifies: at
the degree caps this engine targets, dense uint8 working copies are far
below memory limits and are what both backends operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

try:  # compiled core, optional
    from . import _gf3core as _backend
    HAVE_COMPILED_CORE = True
except ImportError:  # pragma: no cover - depends on build environment
    from . import _gf3numpy as _backend
    HAVE_COMPILED_CORE = False

from . import _gf3numpy

BACKEND_NAME = _backend.BACKEND_NAME


def backends():
    """All importable backends, name -> module (for tests/benchmarks)."""
    out = {"numpy": _gf3numpy}
    if HAVE_COMPILED_CORE:
        out["cython"] = _backend
    return out


def inv3(a: int) -> int:
    """Multiplicative inverse mod 3; every nonzero scalar is its own inverse."""
    if a % 3 == 0:
        raise ZeroDivisionError("0 is not invertible in GF(3)")
    return a % 3


class SparseMatrixF3:
    """Immutable sparse matrix over GF(3), stored as (row, col) -> {1, 2}."""

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
    def from_dense(cls, a) -> "SparseMatrixF3":
        a = np.asarray(a)
        ent = {}
        for r, c in zip(*np.nonzero(a % 3)):
            ent[(int(r), int(c))] = int(a[r, c]) % 3
        return cls(a.shape[0], a.shape[1], ent)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_cols), dtype=np.uint8)
        for (r, c), v in self.entries.items():
            a[r, c] = v
        return a

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SparseMatrixF3":
        return SparseMatrixF3(
            self.n_cols, self.n_rows,
            {(c, r): v for (r, c), v in self.entries.items()})

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        if v.shape[0] != self.n_cols:
            raise ValueError("vector length does not match n_cols")
        out = np.zeros(self.n_rows, dtype=np.int64)
        for (r, c), a in self.entries.items():
            out[r] += a * v[c]
        return (out % 3).astype(np.uint8)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrixF3)
                and self.n_rows == other.n_rows
                and self.n_cols == other.n_cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n_rows, self.n_cols,
                     frozenset(self.entries.items())))

    def __repr__(self):
        return (f"SparseMatrixF3({self.n_rows}x{self.n_cols}, "
                f"nnz={self.nnz})")

    # -- canonical text serialization (cache format) --------------------

    def serialize(self) -> str:
        """Canonical text form: bit-exact across platforms."""
        lines = [f"GF3MAT v1 {self.n_rows} {self.n_cols} {self.nnz}"]
        for (r, c), v in sorted(self.entries.items(),
                                key=lambda rcv: (rcv[0][1], rcv[0][0])):
            lines.append(f"{r} {c} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "SparseMatrixF3":
        lines = text.strip().split("\n")
        head = lines[0].split()
        if len(head) != 5 or head[0] != "GF3MAT" or head[1] != "v1":
            raise ValueError("not a GF3MAT v1 header")
        n_rows, n_cols, nnz = int(head[2]), int(head[3]), int(head[4])
        if len(lines) - 1 != nnz:
            raise ValueError("GF3MAT entry count does not match header")
        ent = {}
        for line in lines[1:]:
            r, c, v = map(int, line.split())
            if v not in (1, 2):
                raise ValueError("GF3MAT scalar out of range")
            if (r, c) in ent:
                raise ValueError("GF3MAT duplicate entry")
            ent[(r, c)] = v
        return cls(n_rows, n_cols, ent)


@dataclass(frozen=True)
class RrefResult:
    matrix: SparseMatrixF3
    rank: int
    pivot_columns: list


def rref(m: SparseMatrixF3) -> RrefResult:
    """Reduced row-echelon form over GF(3), with rank and pivot columns."""
    r, rank, pivots = _backend.rref(m.to_dense())
    # checked on every call (also under -O): row i has its pivot in column
    # pivots[i], and that column is zero elsewhere
    if rank != len(pivots) or not np.array_equal(
            r[:, list(pivots)], np.eye(m.n_rows, rank, dtype=np.uint8)):
        raise RuntimeError("rref: a pivot column is not a unit vector")
    return RrefResult(SparseMatrixF3.from_dense(r), rank, list(pivots))


def kernel_basis(m: SparseMatrixF3) -> list:
    """Basis of the right kernel, as uint8 column vectors."""
    a = m.to_dense()
    r, rank, pivots = _backend.rref(a)
    pivset = set(pivots)
    free = [c for c in range(m.n_cols) if c not in pivset]
    basis = []
    for f in free:
        v = np.zeros(m.n_cols, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-int(r[i, f])) % 3
        basis.append(v)
    # checked on every call (also under -O): A K = 0 (mod 3)
    if basis and _backend.matmul(a, np.stack(basis, axis=1)).any():
        raise RuntimeError("kernel_basis: a basis vector is not in the kernel")
    return basis


@dataclass(frozen=True)
class SolveResult:
    solution: np.ndarray | None
    residual: np.ndarray

    @property
    def in_image(self) -> bool:
        return self.solution is not None


def solve_in_image(m: SparseMatrixF3, v) -> SolveResult:
    """Solve m @ x = v, or report the residual left over the column space.

    A dimension mismatch is a contract violation (ValueError), never a
    "not in image" verdict.
    """
    v = np.asarray(v, dtype=np.uint8) % 3
    if v.shape != (m.n_rows,):
        raise ValueError(
            f"right-hand side has length {v.shape}, expected {m.n_rows}")
    aug = np.concatenate([m.to_dense(), v.reshape(-1, 1)], axis=1)
    r, rank, pivots = _backend.rref(aug)
    x = np.zeros(m.n_cols, dtype=np.uint8)
    consistent = True
    for i, p in enumerate(pivots):
        if p == m.n_cols:
            consistent = False
            continue
        x[p] = r[i, m.n_cols]
    residual = (v.astype(np.int64) - m.matvec(x).astype(np.int64)) % 3
    residual = residual.astype(np.uint8)
    if consistent:
        if residual.any():
            raise RuntimeError("solve_in_image: solution leaves a residual")
        return SolveResult(x, residual)
    return SolveResult(None, residual)


class GF3Solver:
    """Repeated-solve helper: one elimination, many right-hand sides.

    Wraps a dense matrix ``a`` and precomputes the row operations ``e``
    with ``e @ a`` in RREF, so that ``solve`` and ``rank`` are cheap.
    """

    def __init__(self, a):
        a = np.ascontiguousarray(np.asarray(a, dtype=np.uint8) % 3)
        self.a = a
        m, n = a.shape
        aug = np.concatenate(
            [a, np.eye(m, dtype=np.uint8)], axis=1) if m else a.copy()
        r, _, pivots = _backend.rref(aug)
        # pivots falling in the identity block do not count toward rank(a)
        self.pivots = [p for p in pivots if p < n]
        self.rank = len(self.pivots)
        self.rref = r[:, :n] if m else r
        self.ops = r[:, n:] if m else np.zeros((0, 0), dtype=np.uint8)

    def solve(self, v) -> SolveResult:
        v = np.asarray(v, dtype=np.uint8) % 3
        if v.shape != (self.a.shape[0],):
            raise ValueError("right-hand side length mismatch")
        u = _backend.matvec(self.ops, v) if self.a.shape[0] else v[:0]
        x = np.zeros(self.a.shape[1], dtype=np.uint8)
        for i, p in enumerate(self.pivots):
            x[p] = u[i]
        residual = ((v.astype(np.int64)
                     - _backend.matvec(self.a, x).astype(np.int64)) % 3
                    ).astype(np.uint8)
        if residual.any():
            return SolveResult(None, residual)
        return SolveResult(x, residual)

    def kernel_basis(self) -> list:
        n = self.a.shape[1]
        pivset = set(self.pivots)
        basis = []
        for f in (c for c in range(n) if c not in pivset):
            v = np.zeros(n, dtype=np.uint8)
            v[f] = 1
            for i, p in enumerate(self.pivots):
                v[p] = (-int(self.rref[i, f])) % 3
            basis.append(v)
        return basis


@dataclass
class PrefixRankTable:
    """Ranks of all top-left submatrices of a (row/column sorted) matrix.

    Built from one greedy column-echelon pass; ``rank(rows < r, cols < c)``
    is the number of recorded pivots dominated by ``(r, c)``.
    """

    n_rows: int
    n_cols: int
    pivots: list = field(default_factory=list)

    @classmethod
    def of(cls, dense) -> "PrefixRankTable":
        dense = np.asarray(dense, dtype=np.uint8)
        return cls(dense.shape[0], dense.shape[1],
                   list(_backend.col_profile(dense)))

    def rank(self, rows: int | None = None, cols: int | None = None) -> int:
        rows = self.n_rows if rows is None else rows
        cols = self.n_cols if cols is None else cols
        return sum(1 for (r, c) in self.pivots if r < rows and c < cols)
