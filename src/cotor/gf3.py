"""Exact linear algebra over the field with three elements.

Scalars are canonical residues in {0, 1, 2}; every operation reduces
eagerly, so equality of values is equality of representations.

A matrix is held as the bit planes of its columns: `Planes`, or, when it
is block diagonal (a differential that preserves an internal grading),
`BlockDiagonalF3`, the planes of each block under the block's name (for d,
its Z^4 degree), which is what GF3MAT text (the cache format) is read into
and written from.  All elimination goes through one primitive, `Echelon`:
a greedy column-echelon pass that reads rank, prefix ranks, kernels,
solves and the reduced basis of the column span off the same reduction.
It works on bitsliced vectors (after Boothby and Bradshaw,
arXiv:0901.1413): a vector is a pair of Python integers ``(pos, neg)``
whose bit ``i`` says that entry ``i`` is +1, respectively -1 (= 2), so
one vector addition is a handful of word-parallel bit operations.  Bit
planes are the one vector format: solves and products take and give
planes, and the kernel and reduced basis come back as plain tuples of
residues.
"""

from __future__ import annotations

from typing import NamedTuple


def _add(ap, an, bp, bn):
    """(a + b) mod 3 on bit-plane pairs."""
    x = ap ^ bp
    y = an ^ bn
    z = x & y
    return (x ^ z) | (an & bn), (y ^ z) | (ap & bp)


def to_planes(v) -> tuple:
    """A vector of integers as a bit-plane pair ``(pos, neg)``."""
    pos = neg = 0
    for i, x in enumerate(v):
        x = int(x) % 3
        if x == 1:
            pos |= 1 << i
        elif x == 2:
            neg |= 1 << i
    return pos, neg


def from_planes(p: int, q: int, length: int) -> tuple:
    """A bit-plane pair as a tuple of ``length`` entries in {0, 1, 2}."""
    return tuple((p >> i & 1) | (q >> i & 1) << 1 for i in range(length))


class Planes(NamedTuple):
    """A matrix as the bit-plane pairs of its columns."""

    n_rows: int
    n_cols: int
    pos: list
    neg: list

    @classmethod
    def of(cls, a) -> "Planes":
        """The columns of a matrix: `Planes` pass through, and anything
        with ``n_rows``, ``n_cols`` and ``entries``, a dict (row, col) ->
        value in {1, 2}, is read (else a TypeError)."""
        if isinstance(a, Planes):
            return a
        try:
            n_rows, n_cols, entries = a.n_rows, a.n_cols, a.entries
        except AttributeError:
            raise TypeError(f"expected a GF(3) matrix or Planes, got "
                            f"{type(a).__name__}") from None
        pos, neg = [0] * n_cols, [0] * n_cols
        for (r, c), v in entries.items():
            if v == 1:
                pos[c] |= 1 << r
            else:
                neg[c] |= 1 << r
        return cls(n_rows, n_cols, pos, neg)

    @classmethod
    def from_columns(cls, n_rows: int, columns) -> "Planes":
        """The matrix whose columns are the given bit-plane pairs."""
        columns = list(columns)
        return cls(n_rows, len(columns), [p for p, _ in columns],
                   [q for _, q in columns])


def hstack(a, b) -> Planes:
    """The columns of a and then of b (matrices or `Planes`)."""
    a, b = Planes.of(a), Planes.of(b)
    if a.n_rows != b.n_rows:
        raise ValueError(f"hstack: {a.n_rows} rows against {b.n_rows}")
    return Planes(a.n_rows, a.n_cols + b.n_cols, a.pos + b.pos, a.neg + b.neg)


class BlockDiagonalF3(NamedTuple):
    """A GF(3) matrix that is block diagonal once its rows and columns are
    grouped: ``blocks`` maps each block's name to ``(rows, cols, pos,
    neg)``, its rows and columns, ascending, and its columns' bit planes
    over its rows, all tuples of ints (which the garbage collector skips).
    A row or column in no block is zero; ``entries`` is built on each use."""

    n_rows: int
    n_cols: int
    blocks: dict

    @classmethod
    def deserialize(cls, text: str, row_blocks: dict,
                    col_blocks: dict) -> "BlockDiagonalF3":
        """The matrix of GF3MAT text, cut into blocks: ``row_blocks`` and
        ``col_blocks`` map each block's name to its rows and columns,
        ascending.  A bad header, count, shape, entry (as `serialize` writes
        it) or duplicate, or one joining two blocks is a ValueError."""
        lines = text.strip().split("\n")
        head = lines[0].split()
        if len(head) != 5 or head[0] != "GF3MAT" or head[1] != "v1":
            raise ValueError("not a GF3MAT v1 header")
        n_rows, n_cols, nnz = int(head[2]), int(head[3]), int(head[4])
        shape = [sum(map(len, b.values())) for b in (row_blocks, col_blocks)]
        if [n_rows, n_cols] != shape:
            raise ValueError(f"GF3MAT shape {n_rows}x{n_cols}, not {shape}")
        # keyed by text, so a line needs no int(): row -> (its block's
        # planes, bit), column -> (planes, position), value -> plane
        row_at, col_at, plane_of, blocks = {}, {}, {"1": 0, "2": 1}, {}
        for b, cols in col_blocks.items():
            rows = row_blocks.get(b, ())
            planes = [0] * len(cols), [0] * len(cols)
            blocks[b] = tuple(rows), tuple(cols), planes
            for i, r in enumerate(rows):
                row_at[str(r)] = planes, 1 << i
            for j, c in enumerate(cols):
                col_at[str(c)] = planes, j
        for line in lines[1:]:
            r, c, v = line.split()
            try:
                planes, bit = row_at[r]
                at, j = col_at[c]
                plane = planes[plane_of[v]]
            except KeyError:
                raise ValueError(f"GF3MAT entry {line!r} out of range or "
                                 "in no block") from None
            if planes is not at:
                raise ValueError(f"column {c} has an entry in row {r} of "
                                 "another block")
            plane[j] |= bit
        m = cls(n_rows, n_cols, {b: (rows, cols, *map(tuple, planes))
                                 for b, (rows, cols, planes) in blocks.items()
                                 if rows})
        # nnz lines, each setting a new bit: else one is missing or repeated
        if len(lines) - 1 != nnz or m.nnz != nnz:
            raise ValueError("GF3MAT entries: a duplicate, or not the count "
                             "in the header")
        return m

    def triples(self):
        """The nonzero entries ``(row, col, value)``, by column, then row."""
        by_col = [((), 0, 0)] * self.n_cols
        for rows, cols, pos, neg in self.blocks.values():
            for c, p, q in zip(cols, pos, neg):
                by_col[c] = rows, p, q
        for c, (rows, p, q) in enumerate(by_col):
            x = p | q
            while x:                    # `bits`, inlined: this is hot
                low = x & -x
                x ^= low
                yield rows[low.bit_length() - 1], c, 1 if p & low else 2

    @property
    def entries(self) -> dict:
        """The nonzero entries, by column, then row."""
        return {(r, c): v for r, c, v in self.triples()}

    @property
    def nnz(self) -> int:
        return sum((p | q).bit_count()
                   for _, _, pos, neg in self.blocks.values()
                   for p, q in zip(pos, neg))

    def __repr__(self):
        return (f"{type(self).__name__}({self.n_rows}x{self.n_cols}, "
                f"nnz={self.nnz})")

    def serialize(self) -> str:
        """The canonical GF3MAT v1 text: ``GF3MAT v1 <rows> <cols> <nnz>``,
        then one ``<row> <col> <value>`` line per entry, by column, then
        row; bit-exact across platforms.  Each block's row numbers are
        made text once, and each column's entries end in one of its two
        suffixes ``" <col> 1\\n"`` and ``" <col> 2\\n"``."""
        by_col = [None] * self.n_cols
        for rows, cols, pos, neg in self.blocks.values():
            names = None
            for c, p, q in zip(cols, pos, neg):
                if p | q:
                    names = names or list(map(str, rows))
                    by_col[c] = names, p, q
        body = []
        add = body.append
        for c, column in enumerate(by_col):
            if column is None:
                continue
            names, p, q = column
            plus, minus = f" {c} 1\n", f" {c} 2\n"
            x = p | q
            while x:                    # `bits`, inlined: this is hot
                low = x & -x
                x ^= low
                add(names[low.bit_length() - 1])
                add(plus if p & low else minus)
        return (f"GF3MAT v1 {self.n_rows} {self.n_cols} {len(body) // 2}\n"
                + "".join(body))

    def pivot_weights(self, row_weight, col_weight) -> tuple:
        """``(pairs, compatible)``: the ``(row weight, column weight)`` of
        each pivot of ``Echelon(a, transform=False)``, ``a`` being this
        matrix with its rows by ascending ``row_weight[r]`` and its columns
        by descending ``col_weight[c]``, run one block at a time, and
        whether no entry lies in a row of lower weight than its column.
        The rows of weight below w and the columns of weight at least q
        make a prefix submatrix of ``a``, the direct sum of its blocks'
        ones, so the pivots with such weights count its rank, whatever the
        order among equal weights.  A block with one row or one column
        needs no pass: its pivot, if any, pairs the least weight of its
        nonzero rows with the greatest of its nonzero columns."""
        out, compatible = [], True
        for rows, cols, pos, neg in self.blocks.values():
            rw = list(map(row_weight.__getitem__, rows))
            cw = list(map(col_weight.__getitem__, cols))
            if len(rows) == 1 or len(cols) == 1:
                nonzero = [q for q, p, n in zip(cw, pos, neg) if p | n]
                if nonzero:
                    out.append((rw[0] if len(rows) == 1 else min(
                        map(rw.__getitem__, bits(pos[0] | neg[0]))),
                        max(nonzero)))
                    compatible = compatible and out[-1][0] >= out[-1][1]
                continue
            if rw != sorted(rw):                    # move the bits
                order = sorted(range(len(rows)), key=rw.__getitem__)
                shift = sorted(range(len(rows)), key=order.__getitem__)
                pos, neg = ([sum(1 << shift[i] for i in bits(x)) for x in xs]
                            for xs in (pos, neg))
                rw.sort()
            # each column's lowest set bit is now its row of least weight
            compatible = compatible and all(
                rw[(x & -x).bit_length() - 1] >= q
                for x, q in zip(map(int.__or__, pos, neg), cw) if x)
            col_order = sorted(range(len(cols)), key=cw.__getitem__,
                               reverse=True)
            ech = Echelon(Planes(len(rows), len(cols),
                                 [pos[j] for j in col_order],
                                 [neg[j] for j in col_order]), transform=False)
            out.extend((rw[i], cw[col_order[j]]) for i, j in ech.pivots)
        return out, compatible


def bits(x: int):
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        x ^= low
        yield low.bit_length() - 1


def block_columns(block, col_labels, row_labels, skip: int = 0) -> dict:
    """The nonzero columns of a block ``(rows, cols, pos, neg)`` of a
    `BlockDiagonalF3` by label, leaving out the labels that share a bit
    with ``skip``: ``col_labels[c]`` -> (the ``row_labels`` of the block's
    rows, pos, neg), read by `column_entries`."""
    rows, cols, pos, neg = block
    at = tuple(map(row_labels.__getitem__, rows))
    return {col_labels[c]: (at, p, q) for c, p, q in zip(cols, pos, neg)
            if p | q and not col_labels[c] & skip}


def column_entries(column, a: int, b: int) -> dict:
    """A column ``(labels, pos, neg)`` of `block_columns` as
    {a * label + b: value in {1, 2}}."""
    labels, p, q = column
    out = {}
    while p:                            # `bits`, inlined: this is hot
        low = p & -p
        p ^= low
        out[a * labels[low.bit_length() - 1] + b] = 1
    while q:
        low = q & -q
        q ^= low
        out[a * labels[low.bit_length() - 1] + b] = 2
    return out


def combination(cp, cq, pos, neg, index=None):
    """The sum of c_i times column i (or column ``index[i]``) over the
    nonzero entries i of the bit-plane vector c."""
    sp = sq = 0
    rest = cp | cq
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        if index is not None:
            i = index[i]
        if cp & low:
            sp, sq = _add(sp, sq, pos[i], neg[i])
        else:
            sp, sq = _add(sp, sq, neg[i], pos[i])
    return sp, sq


class Echelon:
    """One greedy column-echelon pass over a GF(3) matrix.

    Columns are reduced left to right against the earlier pivot columns,
    always at their topmost nonzero row, so the pivots ``(lead_row, col)``
    form the rank profile: ``rank(a[:r, :c])`` is the number of pivots
    with ``lead_row < r`` and ``col < c``.  With ``transform`` the pass
    also records, for every column, the combination of original columns
    it reduced to; the columns that reduce to zero give the kernel, and
    the pivot columns (back-reduced once, on the first solve or read of the
    reduced basis, to unit vectors at the lead rows) give ``x = T v[leads]``
    and the reduced basis.  Without it only the pivot list is kept.

    Every kernel vector, solution and reduced basis vector is checked
    against the original columns before it is returned (``RuntimeError``
    on failure, also under ``python -O``).
    """

    def __init__(self, a, transform: bool = True):
        m, n, pos, neg = Planes.of(a)
        self.n_rows, self.n_cols = m, n
        lead_of = [-1] * m          # lead row -> pivot index
        red_pos, red_neg = [], []   # reduced pivot columns
        tr_pos, tr_neg = [], []     # their transforms
        kernel = []                 # (free column, transform)
        pivots = []
        for j in range(n):
            p, q = pos[j], neg[j]
            tp, tn = 1 << j, 0
            while True:
                nz = p | q
                if not nz:
                    if transform:
                        kernel.append((j, tp, tn))
                    break
                low = nz & -nz
                lead = low.bit_length() - 1
                k = lead_of[lead]
                if k < 0:
                    if q & low:             # scale so the lead entry is 1
                        p, q, tp, tn = q, p, tn, tp
                    lead_of[lead] = len(pivots)
                    pivots.append((lead, j))
                    red_pos.append(p)
                    red_neg.append(q)
                    if transform:
                        tr_pos.append(tp)
                        tr_neg.append(tn)
                    break
                # subtract v[lead] times the pivot column (lead entry 1)
                if p & low:
                    p, q = _add(p, q, red_neg[k], red_pos[k])
                    if transform:
                        tp, tn = _add(tp, tn, tr_neg[k], tr_pos[k])
                else:
                    p, q = _add(p, q, red_pos[k], red_neg[k])
                    if transform:
                        tp, tn = _add(tp, tn, tr_pos[k], tr_neg[k])
        self.pivots = pivots
        self.rank = len(pivots)
        self.pivot_columns = [c for _, c in pivots]
        self.transform = transform
        if transform:
            self._cols = (pos, neg)
            self._lead_of = lead_of
            self._reduced = (red_pos, red_neg)
            self._trans = (tr_pos, tr_neg)
            self._kernel = kernel
            self._back_reduced = False

    # -- reading the transform ------------------------------------------

    def _need_transform(self):
        if not self.transform:
            raise ValueError("Echelon built without transform")

    def _apply(self, xp, xq):
        """A x on bit planes, from the original columns."""
        return combination(xp, xq, *self._cols)

    def _at_leads(self, vp, vq, cols):
        """The sum of v[lead_k] times ``cols[k]`` over the pivots k."""
        mask = self._lead_mask
        return combination(vp & mask, vq & mask, *cols, self._lead_of)

    def kernel(self, start: int = 0) -> list:
        """Kernel vectors (tuples of length ``n_cols``) of the free
        columns ``>= start``, in column order; A K = 0 is checked."""
        self._need_transform()
        out = []
        for j, tp, tn in self._kernel:
            if j < start:
                continue
            if self._apply(tp, tn) != (0, 0):
                raise RuntimeError(
                    f"Echelon.kernel: the vector of free column {j} is not "
                    "in the kernel")
            out.append(from_planes(tp, tn, self.n_cols))
        return out

    def _back_reduce(self):
        """Clear every reduced pivot column at the other pivots' leads.

        A pivot column is zero above its lead, so only leads below it need
        clearing; going by descending lead, the columns subtracted are
        already unit vectors at the leads."""
        red_pos, red_neg = self._reduced
        tr_pos, tr_neg = self._trans
        lead_of = self._lead_of
        mask = 0
        for lead, _ in self.pivots:
            mask |= 1 << lead
        for lead, _ in sorted(self.pivots, reverse=True):
            k = lead_of[lead]
            # minus the entries at the other leads (swapped planes); the
            # columns they pick are zero at every lead but their own
            other = mask & ~(1 << lead)
            cp, cq = red_neg[k] & other, red_pos[k] & other
            red_pos[k], red_neg[k] = _add(red_pos[k], red_neg[k], *combination(
                cp, cq, red_pos, red_neg, lead_of))
            tr_pos[k], tr_neg[k] = _add(tr_pos[k], tr_neg[k], *combination(
                cp, cq, tr_pos, tr_neg, lead_of))
        self._lead_mask = mask
        self._back_reduced = True

    def reduced_basis(self) -> list:
        """The reduced echelon basis of the column span: the back-reduced
        pivot columns (tuples of length ``n_rows``) by lead row, each 1 at
        its lead and 0 at the other leads, so they are the nonzero rows of
        the RREF of the transpose; A times each one's transform is checked
        to give it."""
        self._need_transform()
        if not self._back_reduced:
            self._back_reduce()
        (red_pos, red_neg), (tr_pos, tr_neg) = self._reduced, self._trans
        out = []
        for lead in sorted(lead for lead, _ in self.pivots):
            k = self._lead_of[lead]
            if self._apply(tr_pos[k], tr_neg[k]) != (red_pos[k], red_neg[k]):
                raise RuntimeError(
                    f"Echelon.reduced_basis: the column with lead row {lead} "
                    "is not A times its transform")
            out.append(from_planes(red_pos[k], red_neg[k], self.n_rows))
        return out

    def solve_planes(self, vp: int, vq: int):
        """Solve A x = v for v given as bit planes ``(vp, vq)``, with x
        supported on the pivot columns.

        Returns ``(x, residual)`` as bit-plane pairs: ``x`` is None when v
        is not in the column span, and the residual is v - A x of the
        candidate (zero for a solution).  A x = v is checked for the
        returned solution; a vector that the reduced columns place in the
        column span but whose candidate does not solve is a fault
        (``RuntimeError``), not a verdict.
        """
        self._need_transform()
        if vp & vq or (vp | vq) >> self.n_rows:
            raise ValueError(
                f"right-hand side planes are not a vector of length "
                f"{self.n_rows}")
        if not self._back_reduced:
            self._back_reduce()
        xp, xq = self._at_leads(vp, vq, self._trans)
        ap, aq = self._apply(xp, xq)
        if (ap, aq) == (vp, vq):
            return (xp, xq), (0, 0)
        if self._at_leads(vp, vq, self._reduced) == (vp, vq):
            raise RuntimeError(
                "Echelon.solve: v is in the column span but the solution "
                "read off the transform does not solve")
        return None, _add(vp, vq, aq, ap)
