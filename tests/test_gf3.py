import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cotor
from conftest import (
    SparseMatrixF3, echelon_solve, gf3mat, kernel_basis, rref, solve_in_image,
)
from cotor.dga import Element
from cotor.gf3 import (
    BlockDiagonalF3, Echelon, Planes, block_columns, column_entries,
    from_planes,
)
from cotor.relations import _canonical_rows


# -- reference: the dense numpy kernels the library used before Echelon -------


def ref_rref(a):
    """Reduced row echelon form mod 3 by row operations on a dense copy.

    Returns ``(r, rank, pivots)``: ``r`` is the RREF of ``a`` and ``pivots``
    the pivot column of each of the first ``rank`` rows.
    """
    r = np.array(a, dtype=np.uint8, order="C", copy=True)
    m, n = r.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        p = row + int(nz[0])
        if p != row:
            r[[row, p], :] = r[[p, row], :]
        if r[row, col] == 2:
            r[row, :] = (r[row, :] * 2) % 3
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            mult = (3 - r[others, col].astype(np.int16)) % 3
            r[others, :] = (r[others, :] + np.outer(mult, r[row, :])) % 3
        pivots.append(col)
        row += 1
    return r, row, pivots


def ref_col_profile(a):
    """Greedy column-echelon pivots ``(lead_row, col)`` on dense columns."""
    work = np.array(a, dtype=np.uint8, order="C", copy=True)
    m, n = work.shape
    lead_of_row = {}          # leading row -> normalized pivot column
    pivots = []
    for j in range(n):
        v = work[:, j]
        while True:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                break
            r = int(nz[0])
            piv = lead_of_row.get(r)
            if piv is None:
                if v[r] == 2:
                    v = (v * 2) % 3
                lead_of_row[r] = v.copy()
                pivots.append((r, j))
                break
            v = (v + (3 - int(v[r])) * piv) % 3
            v = v.astype(np.uint8)
    return pivots


def ref_in_image(a, v):
    """v in the column span of a: the augmented column is not a pivot."""
    aug = np.concatenate([a, np.reshape(v, (-1, 1))], axis=1).astype(np.uint8)
    return a.shape[1] not in ref_rref(aug)[2]


def matmul3(a, b):
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % 3


def M(rows):
    return SparseMatrixF3.from_dense(rows)


def sparse(a):
    """A dense array as a SparseMatrixF3 of the same shape (`from_dense`
    reads the column count off the first row, so an array without rows
    needs its shape given)."""
    a = np.asarray(a)
    return SparseMatrixF3.from_dense(a) if len(a) else SparseMatrixF3(*a.shape)


def to_dense(m):
    """A SparseMatrixF3 as a dense uint8 array, for the reference kernels."""
    a = np.zeros((m.n_rows, m.n_cols), dtype=np.uint8)
    for (r, c), v in m.entries.items():
        a[r, c] = v
    return a


def test_scalar_arithmetic():
    assert (1 + 2) % 3 == 0
    assert (2 * 2) % 3 == 1


def test_rref_identity():
    r = rref(M([[1, 0], [0, 1]]))
    assert r.rank == 2 and r.pivot_columns == [0, 1]


def test_rref_zero():
    r = rref(SparseMatrixF3(2, 2))
    assert r.rank == 0 and r.pivot_columns == []


def test_rref_dependent_rows():
    # second row is 2x the first over GF(3)
    r = rref(M([[1, 2], [2, 1]]))
    assert r.rank == 1


def test_rref_idempotent():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=(17, 11)).astype(np.uint8)
    first = rref(SparseMatrixF3.from_dense(a))
    second = rref(first.matrix)
    assert first.matrix == second.matrix


def test_kernel_of_sum_constraint():
    vecs = kernel_basis(M([[1, 1]]))
    assert len(vecs) == 1
    v = vecs[0]
    # proportional to (1, 2)
    assert (v[0] + v[1]) % 3 == 0 and any(v)


def test_kernel_identity_and_zero():
    assert kernel_basis(M([[1, 0], [0, 1]])) == []
    assert len(kernel_basis(SparseMatrixF3(3, 3))) == 3


def test_solve_identity():
    res = solve_in_image(M([[1, 0], [0, 1]]), [2, 1])
    assert res.in_image and list(res.solution) == [2, 1]
    # plain tuples of residues, not arrays
    assert res.solution == (2, 1) and res.residual == (0, 0)


def test_solve_zero_matrix_not_in_image():
    res = solve_in_image(SparseMatrixF3(2, 2), [1, 0])
    assert not res.in_image
    assert list(res.residual) == [1, 0]


def test_solve_column_hit():
    m = M([[1, 2], [2, 1]])
    res = solve_in_image(m, [2, 1])
    assert res.in_image
    assert list(m.matvec(res.solution)) == [2, 1]


def test_solve_dimension_mismatch_is_an_error():
    with pytest.raises(ValueError):
        solve_in_image(M([[1, 2]]), [1, 2])


def test_serialization_roundtrip_and_format():
    m = M([[0, 2], [1, 0]])
    text = gf3mat(m)
    head, *lines = text.strip().split("\n")
    assert head == "GF3MAT v1 2 2 2"
    # triples sorted by (col, row)
    assert lines == ["1 0 1", "0 1 2"]
    read = BlockDiagonalF3.deserialize(text, ONE_BLOCK, ONE_BLOCK)
    assert read.entries == m.entries
    assert read.serialize() == text


# a 2 x 2 matrix read as one block, or as two 1 x 1 blocks on the diagonal
ONE_BLOCK = {0: (0, 1)}
TWO_BLOCKS = {0: (0,), 1: (1,)}


def test_deserialize_rejects_garbage():
    def read(text, rows=ONE_BLOCK, cols=ONE_BLOCK):
        return BlockDiagonalF3.deserialize(text, rows, cols)

    for text in (
            "", "BOGUS v1 1 1 0", "GF3MAT v2 2 2 0",
            "GF3MAT v1 2 2 1\n0 0 3",          # a value outside {1, 2}
            "GF3MAT v1 2 2 1\n0 0 0", "GF3MAT v1 2 2 1\n0 0 12",
            "GF3MAT v1 2 2 2\n0 0 1",          # fewer entries than the header
            "GF3MAT v1 2 2 1\n0 0 1\n1 1 1",   # more
            "GF3MAT v1 2 2 1\n0 0 1\n0 0 1",   # more, by a repeat
            "GF3MAT v1 2 2 1\n0 x 1", "GF3MAT v1 2 2 1\n0 0 1 1",
            "GF3MAT v1 -1 2 0",                # the wrong shape
            "GF3MAT v1 3 2 0", "GF3MAT v1 2 1 0",
            "GF3MAT v1 2 2 2\n0 0 1\n0 0 2",   # a duplicate entry
            "GF3MAT v1 2 2 2\n1 0 1\n1 0 1"):
        with pytest.raises(ValueError):
            read(text)
    for entry in ("2 0 1", "0 2 1", "-1 0 1", "0 -1 1"):    # outside the shape
        with pytest.raises(ValueError):
            read(f"GF3MAT v1 2 2 1\n{entry}")
    # an entry joining two blocks, or in a block with no rows
    for entry in ("0 1 1", "1 0 2"):
        with pytest.raises(ValueError, match="another block"):
            read(f"GF3MAT v1 2 2 1\n{entry}", TWO_BLOCKS, TWO_BLOCKS)
    with pytest.raises(ValueError, match="another block"):
        read("GF3MAT v1 1 2 1\n0 1 1", {0: (0,)}, TWO_BLOCKS)
    # the same entries inside the blocks are read, and a block without
    # rows is dropped
    diag = read("GF3MAT v1 2 2 2\n0 0 1\n1 1 2\n", TWO_BLOCKS, TWO_BLOCKS)
    assert diag.blocks == {0: ((0,), (0,), (1,), (0,)),
                           1: ((1,), (1,), (0,), (1,))}
    assert read("GF3MAT v1 1 2 1\n0 0 2", {0: (0,)}, TWO_BLOCKS).blocks == {
        0: ((0,), (0,), (0,), (1,))}


def test_entries_validation():
    with pytest.raises(ValueError):
        SparseMatrixF3(2, 2, {(2, 0): 1})
    # zero values are dropped, scalars reduced
    m = SparseMatrixF3(2, 2, {(0, 0): 3, (1, 1): 5})
    assert m.entries == {(1, 1): 2}
    # from_dense reads plain sequences; rows must agree in length
    assert SparseMatrixF3.from_dense([[3, -1], [0, 4]]).entries == {
        (0, 1): 2, (1, 1): 1}
    with pytest.raises(ValueError):
        SparseMatrixF3.from_dense([[1, 2], [1]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.randoms())
def test_fuzz_rank_properties(rows, cols, rnd):
    rng = np.random.default_rng(rnd.randrange(2**32))
    a = (rng.random((rows, cols)) < 0.3) * rng.integers(1, 3, (rows, cols))
    m = SparseMatrixF3.from_dense(a.astype(np.uint8))
    r = rref(m)
    # rank-nullity
    assert r.rank + len(kernel_basis(m)) == m.n_cols
    # row rank equals column rank
    assert rref(m.transpose()).rank == r.rank
    for v in kernel_basis(m):
        assert not any(m.matvec(v))
    # solve reproduces a constructed image vector
    x = rng.integers(0, 3, cols).astype(np.uint8)
    res = solve_in_image(m, m.matvec(x))
    assert res.in_image
    assert np.array_equal(m.matvec(res.solution), m.matvec(x))


def test_fuzz_larger_matrices_seeded():
    # dims up to 200, density <= 10%
    rng = np.random.default_rng(20240)
    for _ in range(4):
        rows = int(rng.integers(50, 201))
        cols = int(rng.integers(50, 201))
        a = ((rng.random((rows, cols)) < 0.08)
             * rng.integers(1, 3, (rows, cols))).astype(np.uint8)
        m = SparseMatrixF3.from_dense(a)
        r = rref(m)
        assert r.rank + len(kernel_basis(m)) == cols
        assert rref(m.transpose()).rank == r.rank
        x = rng.integers(0, 3, cols).astype(np.uint8)
        res = solve_in_image(m, m.matvec(x))
        assert res.in_image
        assert np.array_equal(m.matvec(res.solution), m.matvec(x))


def test_solver_repeated_solves_and_kernel():
    rng = np.random.default_rng(11)
    a = ((rng.random((40, 25)) < 0.25)
         * rng.integers(1, 3, (40, 25))).astype(np.uint8)
    solver = Echelon(sparse(a))
    m = SparseMatrixF3.from_dense(a)
    assert solver.rank == rref(m).rank
    for _ in range(5):
        x = rng.integers(0, 3, 25).astype(np.uint8)
        v = m.matvec(x)
        res = echelon_solve(solver, v)
        assert res.in_image
        assert np.array_equal(m.matvec(res.solution), v)
    for k in solver.kernel():
        assert not any(m.matvec(k))


def test_prefix_rank_table_matches_direct_ranks():
    rng = np.random.default_rng(13)
    a = ((rng.random((30, 30)) < 0.2)
         * rng.integers(1, 3, (30, 30))).astype(np.uint8)
    table = Echelon(sparse(a), transform=False)
    for r, c in [(0, 0), (5, 7), (12, 3), (30, 30), (17, 29)]:
        direct = rref(sparse(a[:r, :c])).rank
        assert prefix_rank(table.pivots, r, c) == direct
    assert prefix_rank(table.pivots, 30, 30) == table.rank


def prefix_rank(pivots, rows: int, cols: int) -> int:
    """rank a[:rows, :cols], read off the pivots of a's echelon pass."""
    return sum(1 for r, c in pivots if r < rows and c < cols)


def _set_entry(planes, i, value):
    """A bit-plane pair (pos, neg) with entry i set to value in {0, 1, 2}."""
    p, q = planes
    bit = 1 << i
    p, q = p & ~bit, q & ~bit
    return (p | bit, q) if value == 1 else (p, q | bit) if value == 2 else (p, q)


def _plant_kernel(ech, index, value):
    j, tp, tn = ech._kernel[0]
    ech._kernel[0] = (j, *_set_entry((tp, tn), index, value))


def _plant_pivot_transform(ech, index, value):
    tr_pos, tr_neg = ech._trans
    tr_pos[0], tr_neg[0] = _set_entry((tr_pos[0], tr_neg[0]), index, value)


# (call, matrix, plant into the Echelon it builds, message); each plant
# changes one transform entry without touching rank or pivots
_PLANTED = {
    # the canonical rows of the unit vectors are the reduced pivot columns
    # of the identity; a wrong transform must not pass their check
    "canonical_rows": (lambda m: _canonical_rows(to_dense(m).tolist()),
                       [[1, 0], [0, 1]],
                       lambda e: _plant_pivot_transform(e, 1, 1),
                       "reduced_basis"),
    "kernel_basis": (lambda m: kernel_basis(m), [[1, 1, 0], [0, 0, 1]],
                     lambda e: _plant_kernel(e, 2, 1), "kernel"),
    # the transform of pivot column 0 picks up column 1 as well
    "solve_in_image": (lambda m: solve_in_image(m, [2, 1]),
                       [[1, 0], [0, 1]],
                       lambda e: _plant_pivot_transform(e, 1, 1), "solve"),
    # the same fault behind the bit-plane entry point: v = (2, 1) is
    # pos plane 0b10, neg plane 0b01
    "solve_planes": (lambda m: Echelon(m).solve_planes(0b10, 0b01),
                     [[1, 0], [0, 1]],
                     lambda e: _plant_pivot_transform(e, 1, 1), "solve"),
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_planted_backend_fault_raises(name, monkeypatch):
    # a fault in the elimination's output must raise, not return
    call, rows, plant, message = _PLANTED[name]
    call(M(rows))           # the honest pass passes the check
    init = Echelon.__init__

    def planted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        plant(self)

    monkeypatch.setattr(Echelon, "__init__", planted_init)
    with pytest.raises(RuntimeError, match=message):
        call(M(rows))


def test_planted_backend_faults_raise_under_python_O():
    # the checks are not asserts: they must survive python -O
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "test_planted_backend_fault_raises"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert f"{len(_PLANTED)} passed" in proc.stdout


# -- Echelon against the reference kernels ------------------------------------


def _check_against_reference(a, rng):
    a = np.asarray(a, dtype=np.uint8)
    m, n = a.shape
    ech = Echelon(sparse(a))
    assert ech.pivots == ref_col_profile(a)
    assert Echelon(sparse(a), transform=False).pivots == ech.pivots
    r, rank, pivots = ref_rref(a)
    assert ech.rank == rank and ech.pivot_columns == pivots
    # the reduced basis of the column span: the RREF rows of the transpose
    rows = ref_rref(a.T)[0][:rank]
    assert ech.reduced_basis() == [tuple(map(int, row)) for row in rows]
    mine = to_dense(rref(sparse(a)).matrix)
    assert mine.shape == r.shape and mine.tobytes() == r.tobytes()
    kernel = ech.kernel()
    assert len(kernel) == n - rank
    if kernel:
        assert not matmul3(a, np.stack(kernel, axis=1)).any()
    image = matmul3(a, rng.integers(0, 3, n)) if n else np.zeros(m, np.int64)
    for v in (image, rng.integers(0, 3, m), np.zeros(m, dtype=np.int64)):
        res = echelon_solve(ech, v)
        assert res.in_image == ref_in_image(a, v)
        if res.in_image:
            assert np.array_equal(matmul3(a, res.solution), v % 3)
            assert not any(res.residual)
        else:
            assert any(res.residual)


def test_echelon_matches_reference_on_random_matrices():
    rng = np.random.default_rng(2024)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3), (3, 7)]
    shapes += [(int(rng.integers(1, 70)), int(rng.integers(1, 70)))
               for _ in range(40)]
    for m, n in shapes:
        _check_against_reference(np.zeros((m, n), dtype=np.uint8), rng)
        for density in (0.05, 0.3, 0.9):
            a = ((rng.random((m, n)) < density)
                 * rng.integers(1, 3, (m, n))).astype(np.uint8)
            _check_against_reference(a, rng)
    # low rank: products of thin factors, many dependent columns
    for _ in range(10):
        k = int(rng.integers(1, 6))
        a = matmul3(rng.integers(0, 3, (40, k)), rng.integers(0, 3, (k, 50)))
        _check_against_reference(a, rng)


def test_echelon_matches_reference_on_d_matrices(engine):
    rng = np.random.default_rng(60)
    for n in range(61):
        dense = to_dense(engine.d_matrix(n))
        _check_against_reference(dense, rng)
        # the matrix itself gives the same pass, and its blocks' passes
        # (what Engine.rank and the weight profiles count) the same pivots,
        # named by distinct weights
        direct = Echelon(engine.d_matrix(n), transform=False)
        assert direct.pivots == Echelon(sparse(dense)).pivots
        d = engine.d_matrix(n)
        assert direct.pivots == _positions(
            d.pivot_weights(range(d.n_rows), [-c for c in range(d.n_cols)]))
        assert direct.rank == engine.rank(n)


def _positions(result) -> list:
    """The pivots ``(row, col)``, by column, that the weight pairs of a
    ``pivot_weights`` result name when row r has weight r and column c
    weight -c; every row then outweighs every column, so the result must
    also say that no entry lowers weight."""
    pairs, compatible = result
    assert compatible
    return sorted(((r, -c) for r, c in pairs), key=lambda p: p[1])


def test_block_matvec_matches_the_reference_on_d_matrices(engine):
    # the per-block product on planes (Engine.apply_d of the parts
    # Engine.blocks_of cuts) against the dict matrix's product
    rng = np.random.default_rng(41)
    for n in range(41):
        d = engine.d_matrix(n)
        ref = SparseMatrixF3(d.n_rows, d.n_cols, d.entries)
        keys, rows = engine.basis(n).keys, engine.basis(n + 1).blocks
        for density in (0.05, 0.5, 1.0):
            x = ((rng.random(d.n_cols) < density)
                 * rng.integers(1, 3, d.n_cols)).tolist()
            parts = engine.blocks_of(
                Element.from_keys({k: c for k, c in zip(keys, x) if c}), n)
            image = [0] * d.n_rows
            for g, planes in engine.apply_d(parts, n).items():
                for r, v in zip(rows[g], from_planes(*planes, len(rows[g]))):
                    image[r] = v
            assert tuple(image) == ref.matvec(x), n
    # a term outside the basis of the degree is refused
    with pytest.raises(KeyError):
        engine.blocks_of(Element.from_keys({engine.basis(8).keys[0]: 1}), 4)


def test_columns_by_label_read_back_every_entry(engine):
    # what d's construction reads prefixes from: every nonzero column of
    # d_0..d_60, by label, gives back its entries under the row labels
    for n in range(61):
        d = engine.d_matrix(n)
        cols, rows = engine.basis(n).keys, engine.basis(n + 1).keys
        by_label = {}
        for block in d.blocks.values():
            by_label.update(block_columns(block, cols, rows))
        read = {(rows.index(r), cols.index(c)): v
                for c, column in by_label.items()
                for r, v in column_entries(column, 1, 0).items()}
        assert read == d.entries, n
        # the labels mapped by l -> a*l + b, as d's construction reads them
        for c, column in list(by_label.items())[:20]:
            assert column_entries(column, 2, 5) == {
                2 * r + 5: v for r, v in column_entries(column, 1, 0).items()}
        assert len(by_label) == len({c for _, c in d.entries}), n


def test_thin_blocks_are_ranked_without_elimination(engine):
    # Engine.rank reads a block with one row or one column as rank 1 when
    # it is nonzero; every block of d_0..d_90 against its own elimination
    from cotor.engine import _block_rank

    thin = 0
    for n in range(91):
        blocks = list(engine.d_matrix(n).blocks.values())
        ranks = [Echelon(Planes(len(rows), len(cols), pos, neg),
                         transform=False).rank
                 for rows, cols, pos, neg in blocks]
        assert list(map(_block_rank, blocks)) == ranks, n
        assert engine.rank(n) == sum(ranks)
        thin += sum(len(rows) == 1 or len(cols) == 1
                    for rows, cols, _, _ in blocks)
    assert thin >= 1319


def test_block_reader_round_trips_every_d_through_sixty(engine):
    # the cache's route: the text of d_n, from its planes, is the generic
    # writer's text, and reads back into the same blocks
    for n in range(61):
        d = engine.d_matrix(n)
        text = d.serialize()
        assert text == gf3mat(d)
        assert BlockDiagonalF3.deserialize(
            text, engine.basis(n + 1).blocks, engine.basis(n).blocks) == d


def test_block_diagonal_matches_one_global_pass():
    # block-diagonal matrices with their rows and columns shuffled
    rng = np.random.default_rng(77)
    for _ in range(30):
        sizes = [(int(rng.integers(0, 9)), int(rng.integers(0, 9)))
                 for _ in range(int(rng.integers(1, 6)))]
        row_blocks = [b for b, (r, _) in enumerate(sizes) for _ in range(r)]
        col_blocks = [b for b, (_, c) in enumerate(sizes) for _ in range(c)]
        rng.shuffle(row_blocks)
        rng.shuffle(col_blocks)
        m, n = len(row_blocks), len(col_blocks)
        a = np.zeros((m, n), dtype=np.uint8)
        for i in range(m):
            for j in range(n):
                if row_blocks[i] == col_blocks[j] and rng.random() < 0.5:
                    a[i, j] = rng.integers(1, 3)
        blocked = BlockDiagonalF3.deserialize(
            gf3mat(sparse(a)), _members(row_blocks), _members(col_blocks))
        assert (blocked.n_rows, blocked.n_cols, blocked.entries) == (
            m, n, sparse(a).entries)
        assert blocked.serialize() == gf3mat(sparse(a))
        whole = Echelon(sparse(a), transform=False)
        pivots = _positions(
            blocked.pivot_weights(range(m), [-c for c in range(n)]))
        assert pivots == whole.pivots
        assert len(pivots) == whole.rank
        assert prefix_rank(pivots, m // 2, n // 2) == rref(
            sparse(a[:m // 2, :n // 2])).rank
        # and with rows and columns permuted: row i to row_at[i], ...
        row_at, col_at = rng.permutation(m), rng.permutation(n)
        b = np.zeros_like(a)
        b[np.ix_(row_at, col_at)] = a
        assert _positions(blocked.pivot_weights(
            row_at.tolist(), (-col_at).tolist())) == Echelon(
                sparse(b), transform=False).pivots
    # an entry joining two blocks is refused
    with pytest.raises(ValueError):
        BlockDiagonalF3.deserialize(gf3mat(SparseMatrixF3(2, 2, {(0, 1): 1})),
                                    TWO_BLOCKS, TWO_BLOCKS)


def _members(labels) -> dict:
    """label -> the ascending positions that carry it."""
    out = {}
    for i, b in enumerate(labels):
        out.setdefault(b, []).append(i)
    return out


def test_solve_planes_is_solve_on_bit_planes():
    rng = np.random.default_rng(5)
    a = ((rng.random((12, 9)) < 0.3) * rng.integers(1, 3, (12, 9))).astype(
        np.uint8)
    ech = Echelon(sparse(a))
    for v in (matmul3(a, rng.integers(0, 3, 9)), rng.integers(0, 3, 12)):
        vp = sum(1 << i for i in range(12) if v[i] % 3 == 1)
        vq = sum(1 << i for i in range(12) if v[i] % 3 == 2)
        x, (rp, rq) = ech.solve_planes(vp, vq)
        res = echelon_solve(ech, v)
        assert res.in_image == (x is not None)
        if x is not None:
            xp, xq = x
            assert [int(c) for c in res.solution] == [
                (xp >> j & 1) + 2 * (xq >> j & 1) for j in range(9)]
        assert [int(c) for c in res.residual] == [
            (rp >> i & 1) + 2 * (rq >> i & 1) for i in range(12)]
    # planes that overlap or run past the last row are not a vector
    for vp, vq in ((1, 1), (1 << 12, 0), (0, 1 << 13)):
        with pytest.raises(ValueError):
            ech.solve_planes(vp, vq)


def test_canonical_rows_are_the_reference_rref_rows():
    # the reduced basis of the vectors as columns is the RREF of the
    # matrix with them as rows, zero, repeated and single vectors included
    rng = np.random.default_rng(17)
    cases = [[[0, 0, 0]], [[2, 1, 0]], [[0, 2, 1], [0, 2, 1]],
             [[1, 2], [2, 1], [0, 0]]]
    for _ in range(200):
        k, length = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        vectors = ((rng.random((k, length)) < rng.random())
                   * rng.integers(1, 3, (k, length))).tolist()
        vectors += [[0] * length] * int(rng.integers(0, 2))
        vectors += [vectors[int(i)] for i in rng.integers(0, k, 2)]
        rng.shuffle(vectors)
        cases.append(vectors)
    for vectors in cases:
        r, rank, _ = ref_rref(vectors)
        assert _canonical_rows(vectors) == tuple(
            tuple(map(int, row)) for row in r[:rank]), vectors
    assert _canonical_rows([]) == ()


def test_package_exports_resolve():
    for name in cotor.__all__:
        getattr(cotor, name)


def test_rank_only_pass_has_no_transform():
    ech = Echelon(sparse(np.eye(3, dtype=np.uint8)), transform=False)
    assert ech.rank == 3
    with pytest.raises(ValueError):
        ech.kernel()


def test_echelon_refuses_dense_arrays():
    for dense in (np.eye(3, dtype=np.uint8), [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            Echelon(dense)
