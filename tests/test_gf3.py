import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cotor
from cotor import gf3
from cotor.gf3 import (
    GF3Solver, PrefixRankTable, SparseMatrixF3, backends, inv3,
    kernel_basis, rref, solve_in_image,
)


def M(rows):
    return SparseMatrixF3.from_dense(np.array(rows, dtype=np.uint8))


def test_scalar_arithmetic():
    assert (1 + 2) % 3 == 0
    assert (2 * 2) % 3 == 1
    assert inv3(2) == 2
    with pytest.raises(ZeroDivisionError):
        inv3(0)


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
    assert (v[0] + v[1]) % 3 == 0 and v.any()


def test_kernel_identity_and_zero():
    assert kernel_basis(M([[1, 0], [0, 1]])) == []
    assert len(kernel_basis(SparseMatrixF3(3, 3))) == 3


def test_solve_identity():
    res = solve_in_image(M([[1, 0], [0, 1]]), [2, 1])
    assert res.in_image and list(res.solution) == [2, 1]


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
    text = m.serialize()
    head, *lines = text.strip().split("\n")
    assert head == "GF3MAT v1 2 2 2"
    # triples sorted by (col, row)
    assert lines == ["1 0 1", "0 1 2"]
    assert SparseMatrixF3.deserialize(text) == m


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        SparseMatrixF3.deserialize("BOGUS v1 1 1 0")
    with pytest.raises(ValueError):
        SparseMatrixF3.deserialize("GF3MAT v1 2 2 1\n0 0 3")
    with pytest.raises(ValueError):
        SparseMatrixF3.deserialize("GF3MAT v1 2 2 2\n0 0 1")


def test_entries_validation():
    with pytest.raises(ValueError):
        SparseMatrixF3(2, 2, {(2, 0): 1})
    # zero values are dropped, scalars reduced
    m = SparseMatrixF3(2, 2, {(0, 0): 3, (1, 1): 5})
    assert m.entries == {(1, 1): 2}


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
        assert not m.matvec(v).any()
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


def test_backends_agree():
    mods = backends()
    rng = np.random.default_rng(5)
    a = ((rng.random((60, 45)) < 0.2)
         * rng.integers(1, 3, (60, 45))).astype(np.uint8)
    results = {}
    for name, mod in mods.items():
        r, rank, piv = mod.rref(a)
        results[name] = (r.tobytes(), rank, list(piv), mod.col_profile(a))
    vals = list(results.values())
    assert all(v == vals[0] for v in vals)


def test_solver_repeated_solves_and_kernel():
    rng = np.random.default_rng(11)
    a = ((rng.random((40, 25)) < 0.25)
         * rng.integers(1, 3, (40, 25))).astype(np.uint8)
    solver = GF3Solver(a)
    m = SparseMatrixF3.from_dense(a)
    assert solver.rank == rref(m).rank
    for _ in range(5):
        x = rng.integers(0, 3, 25).astype(np.uint8)
        v = m.matvec(x)
        res = solver.solve(v)
        assert res.in_image
        assert np.array_equal(m.matvec(res.solution), v)
    for k in solver.kernel_basis():
        assert not m.matvec(k).any()


def test_prefix_rank_table_matches_direct_ranks():
    rng = np.random.default_rng(13)
    a = ((rng.random((30, 30)) < 0.2)
         * rng.integers(1, 3, (30, 30))).astype(np.uint8)
    table = PrefixRankTable.of(a)
    for r, c in [(0, 0), (5, 7), (12, 3), (30, 30), (17, 29)]:
        direct = rref(SparseMatrixF3.from_dense(a[:r, :c])).rank
        assert table.rank(rows=r, cols=c) == direct


class _PlantedBackend:
    """The active backend, with one entry of rref's output overwritten."""

    def __init__(self, real, entry, value):
        self.real, self.entry, self.value = real, entry, value

    def __getattr__(self, name):
        return getattr(self.real, name)

    def rref(self, a):
        r, rank, pivots = self.real.rref(a)
        r = r.copy()
        r[self.entry] = self.value
        return r, rank, pivots


# (call, matrix, planted rref entry and value); each plant breaks what the
# call returns without touching rank or pivots
_PLANTED = {
    # pivot column 1 of rref([[1, 1], [0, 1]]) = I gets a second nonzero
    "rref": (lambda m: rref(m), [[1, 1], [0, 1]], (0, 1), 1),
    # free column 1 of [[1, 1, 0], [0, 0, 1]]: the kernel vector goes wrong
    "kernel_basis": (lambda m: kernel_basis(m), [[1, 1, 0], [0, 0, 1]],
                     (0, 1), 2),
    # the solution read off the augmented column no longer solves
    "solve_in_image": (lambda m: solve_in_image(m, [2, 1]),
                       [[1, 0], [0, 1]], (0, 2), 1),
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_planted_backend_fault_raises(name, monkeypatch):
    call, rows, entry, value = _PLANTED[name]
    call(M(rows))           # the honest backend passes the check
    monkeypatch.setattr(gf3, "_backend",
                        _PlantedBackend(gf3._backend, entry, value))
    with pytest.raises(RuntimeError, match=name):
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
