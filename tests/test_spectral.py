import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    SparseMatrixF3, cols_ge, gf3mat, monomial_weight, monomials, rank_sub,
    reference_page_dim,
)
from cotor.cohomology import poincare_coeffs
from cotor.dga import key_weight
from cotor.engine import Engine
from cotor.gf3 import BlockDiagonalF3, Echelon, from_planes, to_planes
from cotor.spectral import (
    LAST_PAGE, SCHEMES, SpectralSequence, may_page1_oracle,
    page4_series_oracle, run_scheme_checks,
)

N = 42      # unit-test bound; the acceptance suite runs the full 60


@pytest.fixture(scope="module")
def prepared(engine):
    engine.build_range(N + 1)
    return engine


@pytest.mark.parametrize("scheme", SCHEMES)
def test_basis_weights_by_word_run_match_each_key(engine, scheme):
    # a word's weight plus the cached weights of the commutative monomials
    # is the weight of every key, in basis order
    ss = SpectralSequence(engine, scheme)
    for n in range(121):
        assert ss._weights(n) == [key_weight(k, scheme)
                                  for k in engine.basis(n).keys], n


def test_unknown_scheme_rejected(prepared):
    with pytest.raises(KeyError):
        SpectralSequence(prepared, "nope")


def test_trivial_scheme_first_page_is_cohomology(prepared):
    ss = SpectralSequence(prepared, "trivial")
    for n in range(N + 1):
        assert ss.page_table(1, n).get((0, n), 0) == prepared.dim_h(n)
    assert ss.collapse_check(1, N) == []


def test_filtration_compatibility(prepared):
    for scheme in ("weight_s3", "may_s5", "trivial"):
        assert SpectralSequence(prepared, scheme) \
            .check_filtration_compatibility(30)


def test_page_dims_monotone(prepared):
    for scheme in ("weight_s3", "may_s5"):
        ss = SpectralSequence(prepared, scheme)
        tables = [ss.page_table(r, 30) for r in range(0, 9)]
        for a, b in zip(tables, tables[1:]):
            keys = set(a) | set(b)
            assert all(b.get(k, 0) <= a.get(k, 0) for k in keys)


def test_reflexive_page_equality(prepared):
    ss = SpectralSequence(prepared, "may_s5")
    assert ss.page_equality_check(2, 2, 20) == []


def test_may_first_page_small_degrees(prepared):
    ss = SpectralSequence(prepared, "may_s5")
    page1 = ss.page_table(1, 10)
    assert sum(d for (p, n), d in page1.items() if n == 8) == 2
    assert sum(d for (p, n), d in page1.items() if n == 9) == 1


def test_may_first_page_matches_free_algebra(prepared):
    ss = SpectralSequence(prepared, "may_s5")
    oracle = may_page1_oracle(N)
    page1 = ss.page_table(1, N)
    assert page1 == {k: v for k, v in oracle.items() if k[1] <= N}


def test_may_collapse_at_three(prepared):
    ss = SpectralSequence(prepared, "may_s5")
    assert ss.collapse_check(3, N) == []
    # and not earlier: the second differential is genuinely nonzero
    assert ss.collapse_check(2, N) != []


def test_weight_scheme_page_equalities(prepared):
    ss = SpectralSequence(prepared, "weight_s3")
    assert ss.page_equality_check(1, 3, N) == []
    assert ss.page_equality_check(4, 6, N) == []
    assert ss.collapse_check(7, N) == []


def test_weight_scheme_active_pages(prepared):
    # the differential moves weight by 0, 3 and 6: measured, not assumed
    ss = SpectralSequence(prepared, "weight_s3")
    assert ss.active_pages(N) == [0, 3, 6]


def test_may_active_pages(prepared):
    ss = SpectralSequence(prepared, "may_s5")
    assert ss.active_pages(N) == [0, 1, 2]


def test_convergence_totals(prepared):
    for scheme in ("weight_s3", "may_s5", "trivial"):
        ss = SpectralSequence(prepared, scheme)
        assert ss.convergence_check(N) == []


def test_page4_series_oracle(prepared):
    ss = SpectralSequence(prepared, "weight_s3")
    oracle = page4_series_oracle(N)
    page4 = ss.page_table(4, N)
    for n in range(N + 1):
        assert sum(d for (p, m), d in page4.items() if m == n) == oracle[n]


def test_scheme_reports(prepared):
    for scheme in ("weight_s3", "may_s5", "trivial"):
        report = run_scheme_checks(prepared, scheme, 30)
        assert report.ok, (scheme, report.checks)


def test_rank_table_matches_prefix_ranks(engine):
    # every (rows, cols) breakpoint of the weight orders through degree
    # 60: prefix counts of the pair counters against a walk over the
    # pivots' weight pairs, and cols_ge against a direct count
    for scheme in SCHEMES:
        ss = SpectralSequence(engine, scheme)
        for n in range(61):
            rows_w, cols_w = ([monomial_weight(m, scheme) for m in
                               monomials(engine.basis(k))] for k in (n + 1, n))
            assert ss.profile(n).weights == Counter(cols_w)
            pivots, _ = engine.d_matrix(n).pivot_weights(rows_w, cols_w)
            qs = ([min(cols_w, default=0) - 1] + sorted(set(cols_w))
                  + [max(cols_w, default=0) + 1])
            ws = ([min(rows_w, default=0) - 1] + sorted(set(rows_w))
                  + [max(rows_w, default=0) + 1, math.inf])
            for q in qs:
                cols = sum(1 for x in cols_w if x >= q)
                assert cols_ge(ss, q, n) == cols, (scheme, n, q)
                for w in ws:
                    assert rank_sub(ss, q, w, n) == sum(
                        1 for rw, cw in pivots if cw >= q and rw < w), (
                        scheme, n, q, w)


def test_memoized_tables_match_a_fresh_sequence(prepared):
    for scheme in ("weight_s3", "may_s5"):
        ss = SpectralSequence(prepared, scheme)
        first = [ss.page_table(r, 30) for r in range(9)]
        limit = ss.limit_table(30)
        first[1][(0, 0)] = -1           # a caller's edit stays its own
        limit.clear()
        fresh = SpectralSequence(prepared, scheme)
        for r in range(9):
            assert ss.page_table(r, 30) == fresh.page_table(r, 30)
        assert ss.limit_table(30) == fresh.limit_table(30) != {}
        assert ss.page_table(1, 20) == fresh.page_table(1, 20)


def test_blocked_passes_match_one_global_echelon(engine):
    # ranks, and the weights of the weight-ordered pivots, per Z^4 block
    # against one pass over the whole matrix, with the weight orders
    # rebuilt from monomial_weight
    engine.build_range(100)
    weights = {(scheme, n): [monomial_weight(m, scheme)
                             for m in monomials(engine.basis(n))]
               for scheme in SCHEMES for n in range(102)}
    sequences = {scheme: SpectralSequence(engine, scheme)
                 for scheme in SCHEMES}
    for n in range(101):
        d = engine.d_matrix(n)
        assert engine.rank(n) == Echelon(d, transform=False).rank, n
        for scheme in SCHEMES:
            colw, roww = weights[scheme, n], weights[scheme, n + 1]
            row_at = np.argsort(sorted(range(len(roww)),
                                       key=lambda i: roww[i])).tolist()
            col_at = np.argsort(sorted(range(len(colw)),
                                       key=lambda j: -colw[j])).tolist()
            permuted = SparseMatrixF3(d.n_rows, d.n_cols, {
                (row_at[r], col_at[c]): v for (r, c), v in d.entries.items()})
            rows_asc, cols_desc = sorted(roww), sorted(colw, reverse=True)
            assert sequences[scheme].profile(n).pairs == Counter(
                (cols_desc[c], rows_asc[r] - cols_desc[c]) for r, c in Echelon(
                    permuted, transform=False).pivots), (scheme, n)


def _plant(engine, n: int, r: int, c: int):
    """Set entry (r, c) of the engine's d_n to 1, with row r moved into
    column c's block: it must be a row in no block, or in that one."""
    rows, cols = engine.basis(n + 1).blocks, engine.basis(n).blocks
    g = next(g for g, members in cols.items() if c in members)
    rows = {h: [x for x in members if x != r] for h, members in rows.items()}
    rows[g] = sorted(rows.get(g, []) + [r])
    d = engine.d_matrix(n)
    planted = BlockDiagonalF3.deserialize(gf3mat(
        SparseMatrixF3(d.n_rows, d.n_cols, {**d.entries, (r, c): 1})),
        rows, cols).blocks
    engine._d[n] = {h: planted.get(h) for h in cols}
    return planted[g]


def test_filtration_check_reports_a_planted_weight_drop():
    # (row 10, column 33) of d_38 is the first place where a row and a
    # column of one Z^4 block have the row of lower weight, in both
    # weighted schemes; (row 0, column 2) of d_17 makes a thin block of
    # the 1 x 1 block of column 2 and a row in no block; and in the block
    # of (row 134, column 102) of d_55 column 102's first row in basis
    # order is heavy enough, so only the rows by weight show the drop
    weighted = ("weight_s3", "may_s5")
    for n, r, c in ((38, 10, 33), (17, 0, 2), (55, 134, 102)):
        engine = Engine(convention="parity")
        engine.build_range(n + 1)
        for scheme in weighted:
            ss = SpectralSequence(engine, scheme)
            assert ss.check_filtration_compatibility(n + 1)
            assert ss._weights(n + 1)[r] < ss._weights(n)[c]
        rows, cols, pos, neg = _plant(engine, n, r, c)
        if n == 17:
            assert (rows, cols) == ((0, 3), (2,))
        if n == 55:
            j = cols.index(c)
            x = (pos[j] | neg[j]) & ~(1 << rows.index(r))
            for scheme in weighted:
                ss = SpectralSequence(engine, scheme)
                rw = [ss._weights(n + 1)[i] for i in rows]
                assert rw != sorted(rw)
                assert rw[(x & -x).bit_length() - 1] >= ss._weights(n)[c]
        for scheme in weighted:
            assert not SpectralSequence(engine, scheme) \
                .check_filtration_compatibility(n + 1)


def _reference_pivot_weights(a, row_weight, col_weight):
    """What ``pivot_weights`` gives, from one pass over each block with
    its rows by ascending and its columns by descending weight, and a
    check of every entry's two weights."""
    pairs, compatible = [], True
    for rows, cols, pos, neg in a.blocks.values():
        rw = [row_weight[r] for r in rows]
        cw = [col_weight[c] for c in cols]
        entries = {(i, j): v for j, (p, q) in enumerate(zip(pos, neg))
                   for i, v in enumerate(from_planes(p, q, len(rows))) if v}
        compatible &= all(rw[i] >= cw[j] for i, j in entries)
        row_order = sorted(range(len(rows)), key=rw.__getitem__)
        col_order = sorted(range(len(cols)), key=lambda j: -cw[j])
        row_at, col_at = ({x: k for k, x in enumerate(order)}
                          for order in (row_order, col_order))
        permuted = SparseMatrixF3(len(rows), len(cols), {
            (row_at[i], col_at[j]): v for (i, j), v in entries.items()})
        pairs += [(rw[row_order[i]], cw[col_order[j]])
                  for i, j in Echelon(permuted, transform=False).pivots]
    return sorted(pairs), compatible


def test_thin_blocks_match_a_pass_by_weight():
    # random blocks, most with one row or one column, random weights
    rng = np.random.default_rng(25)
    flags = set()
    for _ in range(300):
        blocks, n_rows, n_cols = {}, 0, 0
        for b in range(int(rng.integers(1, 6))):
            shape = [1, int(rng.integers(1, 7))]
            if rng.random() < 0.5:
                shape.reverse()
            if rng.random() < 0.2:
                shape = [int(rng.integers(2, 6)), int(rng.integers(2, 6))]
            dense = (rng.random(shape) < 0.5) * rng.integers(1, 3, shape)
            blocks[b] = (tuple(range(n_rows, n_rows + shape[0])),
                         tuple(range(n_cols, n_cols + shape[1])),
                         *zip(*map(to_planes, dense.T)))
            n_rows, n_cols = n_rows + shape[0], n_cols + shape[1]
        a = BlockDiagonalF3(n_rows, n_cols, blocks)
        row_weight = rng.integers(0, 5, n_rows).tolist()
        col_weight = rng.integers(0, 5, n_cols).tolist()
        pairs, compatible = a.pivot_weights(row_weight, col_weight)
        assert (sorted(pairs), compatible) == _reference_pivot_weights(
            a, row_weight, col_weight)
        flags.add(compatible)
    assert flags == {True, False}


def test_tables_match_the_per_cell_formula(engine):
    # every page r <= LAST_PAGE through degree 60, cell by cell, also
    # outside the p range the tables cover; and the limit table against
    # a page past every weight gap, where the recursion has converged
    n_max = 60
    for scheme in SCHEMES:
        ss = SpectralSequence(engine, scheme)
        top = [max(ss.profile(n).weights, default=0)
               for n in range(n_max + 2)]
        cells = [(p, n) for n in range(n_max + 1)
                 for p in range(-2, top[n] + 4)]
        last = 2 + max(top)
        for r in (*range(LAST_PAGE + 1), last):
            reference = {(p, n): dim for p, n in cells
                         if (dim := reference_page_dim(ss, r, p, n))}
            assert ss.page_table(r, n_max) == reference, (scheme, r)
        assert ss.limit_table(n_max) == reference, scheme


def test_convergence_check_reports_a_planted_rank():
    # the limit totals are dim V_n less the pairs of d_n and d_{n-1}, so
    # one pair dropped from the counter of d_30 shows in the two degrees
    # it joins, against the series
    engine = Engine(convention="parity")
    series = poincare_coeffs(35)
    for scheme in SCHEMES:
        ss = SpectralSequence(engine, scheme)
        assert ss.convergence_check(35) == []
        prof = ss.profile(30)
        pairs = prof.pairs.copy()
        pairs[next(iter(pairs))] -= 1
        ss = SpectralSequence(engine, scheme)
        ss._profiles[30] = prof._replace(pairs=pairs)
        assert ss.convergence_check(35) == [
            (30, series[30] + 1, series[30]), (31, series[31] + 1, series[31])]
