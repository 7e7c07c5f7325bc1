"""Spectral-sequence page dimensions for the weight filtrations.

A weight scheme assigns each generator a weight; monomial weight is the
sum, the filtration is decreasing (level p = span of monomials of weight
at least p), and the differential never lowers weight (checked
exhaustively before any page is computed).

Every page entry is a count of persistence pairs (Edelsbrunner, Letscher
and Zomorodian 2002; Basu and Parida 2017).  One greedy column-echelon
pass over d_n, its rows by ascending and its columns by descending
weight, run one internal Z^4 block at a time (none for a block with one
row or one column), pairs each pivot's column (degree n, weight q) with
its row (degree n+1, weight w >= q), and also tells whether d lowers
weight anywhere.  A pair of length w - q is cancelled by the differential
of page w - q, so it is on pages 0 .. w - q at both its ends and gone
after:

    E_r(p, n) = #{basis monomials of degree n and weight p}
                - #{pairs of d_n with column weight p and length < r}
                - #{pairs of d_{n-1} with row weight p and length < r}

and the limit page subtracts every pair.  Each degree keeps two counters,
its basis monomials by weight and d_n's pairs by (column weight, length),
so a page costs the same whatever r is.  The limit totals are checked
against the Poincare series, a route that needs no d.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import cohomology
from .dga import WEIGHT_SCHEMES, comm_weights, key_weight

SCHEMES = tuple(WEIGHT_SCHEMES)

# the highest page that active_pages and collapsed_at look at
LAST_PAGE = 9


class DegreeCounts(NamedTuple):
    """Degree n's basis monomials by weight, d_n's persistence pairs by
    (column weight, length), and whether d_n keeps weight."""

    weights: Counter
    pairs: Counter
    compatible: bool = True


class SpectralSequence:
    def __init__(self, engine, scheme: str):
        if scheme not in WEIGHT_SCHEMES:
            raise KeyError(f"unknown filtration scheme {scheme!r}")
        self.engine = engine
        self.scheme = scheme
        # degree -1 has no basis and d_{-1} no pairs
        self._profiles: dict[int, DegreeCounts] = {
            -1: DegreeCounts(Counter(), Counter())}
        self._basis_weights: dict[int, list] = {}
        self._tables: dict[tuple, dict] = {}

    # -- filtration-compatibility of d (precondition for everything) ------

    def check_filtration_compatibility(self, n_max: int) -> bool:
        """No entry of d_0..d_{n_max} maps a column to a row of lower
        weight: read off each degree's weight-ordered pass."""
        return all(self.profile(n).compatible for n in range(n_max + 1))

    def _weights(self, n: int) -> list:
        """The weight of every basis monomial of degree n, in basis order:
        per word run, the word's weight plus the cached ``comm_weights``."""
        w = self._basis_weights.get(n)
        if w is None:
            w = self._basis_weights[n] = []
            for word, rest in self.engine.basis(n).word_runs():
                base = key_weight(word, self.scheme)
                w.extend([base + c for c in comm_weights(rest, self.scheme)])
        return w

    # -- profiles ----------------------------------------------------------

    def profile(self, m: int) -> DegreeCounts:
        """The counters of degree m, from one weight-ordered pass over
        d_m per internal Z^4 block (filtration levels are spanned by
        monomials, so the pairs of d_m are those of its blocks)."""
        prof = self._profiles.get(m)
        if prof is not None:
            return prof
        colw = self._weights(m)
        pairs, compatible = self.engine.d_matrix(m).pivot_weights(
            self._weights(m + 1), colw)
        prof = self._profiles[m] = DegreeCounts(
            Counter(colw), Counter((q, w - q) for w, q in pairs), compatible)
        del self._basis_weights[m]      # its one other reader: profile(m - 1)
        return prof

    # -- tables and checks -----------------------------------------------------

    def page_table(self, r, n_max: int) -> dict:
        """{(p, n): dim E_r^{p,n}}, zero entries omitted; a copy of the
        table, built once."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        table = self._tables.get((r, n_max))
        if table is None:
            table = self._tables[r, n_max] = {}
            for n in range(n_max + 1):
                dims = self.profile(n).weights.copy()
                for (q, length), k in self.profile(n).pairs.items():
                    if length < r:
                        dims[q] -= k                # d_n's column
                for (q, length), k in self.profile(n - 1).pairs.items():
                    if length < r:
                        dims[q + length] -= k       # d_{n-1}'s row
                table.update(((p, n), dim) for p, dim in sorted(dims.items())
                             if dim)
        return dict(table)

    def limit_table(self, n_max: int) -> dict:
        """The page past every pair's length: every pair subtracted."""
        return self.page_table(math.inf, n_max)

    def page_equality_check(self, r1: int, r2: int, n_max: int):
        mismatches = []
        for r in range(min(r1, r2), max(r1, r2)):
            keys = [k for k, _, _ in _mismatches(
                self.page_table(r, n_max), self.page_table(r + 1, n_max))]
            if keys:
                mismatches.append((r, r + 1, keys[:10]))
        return mismatches

    def collapse_check(self, r: int, n_max: int):
        """Does page r already have the limit dimensions everywhere?"""
        return _mismatches(self.page_table(r, n_max), self.limit_table(n_max))

    def convergence_check(self, n_max: int):
        """Total limit dimension per degree against the Poincare series.

        The limit total of degree n is dim V_n less the pairs of d_n and
        of d_{n-1}, their ranks, so this checks the weight-ordered
        eliminations against a route that needs neither d nor any rank
        (``Engine.rank`` meets the series in ``homology``)."""
        return _mismatches(
            _degree_totals(self.limit_table(n_max), n_max),
            dict(enumerate(cohomology.poincare_coeffs(n_max))))

    def active_pages(self, n_max: int) -> list:
        """Pages r < LAST_PAGE where E_r != E_{r+1} somewhere (measured,
        not assumed)."""
        active = []
        prev = self.page_table(0, n_max)
        for r in range(LAST_PAGE):
            nxt = self.page_table(r + 1, n_max)
            if prev != nxt:
                active.append(r)
            prev = nxt
        return active

    def collapsed_at(self, n_max: int) -> int | None:
        """Smallest page <= LAST_PAGE already equal to the limit everywhere
        (measured)."""
        for r in range(1, LAST_PAGE + 1):
            if not self.collapse_check(r, n_max):
                return r
        return None


def _mismatches(a: dict, b: dict) -> list:
    """``(key, a[key], b[key])`` wherever two tables differ, by key; a
    missing entry is 0."""
    return [(k, a.get(k, 0), b.get(k, 0)) for k in sorted(
        k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0))]


def _degree_totals(table: dict, n_max: int) -> dict:
    """Degree n -> the sum of the entries (p, n) of a page table, for
    every n <= n_max."""
    totals = dict.fromkeys(range(n_max + 1), 0)
    for (_, n), dim in table.items():
        totals[n] += dim
    return totals


# -- enumeration oracles -------------------------------------------------------


@lru_cache(maxsize=None)
def _free_algebra_table(gens: tuple, n_max: int) -> dict:
    """{(weight, degree): dim} for a free graded-commutative algebra.

    ``gens`` lists (degree, weight, exterior?) triples; exterior
    generators square to zero, the rest are polynomial.
    """
    table = {(0, 0): 1}
    for deg, wt, exterior in gens:
        nxt = {}
        for (p, n), c in table.items():
            e = 0
            while n + e * deg <= n_max and (e <= 1 or not exterior):
                key = (p + e * wt, n + e * deg)
                nxt[key] = nxt.get(key, 0) + c
                e += 1
        table = nxt
    return table


# first-page generators of the May-type filtration: the word-free
# generators, one exterior class, and the degree-26 word-type class
MAY_PAGE1_GENERATORS = (
    (26, 3, False),
    (4, 1, False), (8, 1, False), (10, 1, False),
    (9, 1, True),
    (12, 1, False), (16, 1, False), (18, 1, False),
)


def may_page1_oracle(n_max: int) -> dict:
    """{(p, n): dim} of the free algebra the May-type first page equals."""
    table = _free_algebra_table(MAY_PAGE1_GENERATORS, n_max)
    return {(p, n): c for (p, n), c in table.items() if n <= n_max and c}


# module families of the weight-filtration fourth page: pairs of
# (polynomial coefficient degrees, module generator degrees)
_PAGE4_FAMILIES = (
    ((4, 8, 10, 26, 36, 48, 54), (0, 20, 40, 22, 44, 42, 58, 60, 76)),
    ((8, 10, 26, 36, 48, 54), (26, 52, 46, 48, 64)),
    ((26, 36, 48, 54), (9, 21, 25, 27, 29, 31, 35, 47)),
    ((10, 26, 36, 48, 54), (43, 61, 39, 45)),
    ((8, 10, 26, 36, 48, 54), (41, 59, 77)),
    ((4, 8, 10, 26, 36, 48, 54), (33, 51, 69, 49, 67, 85, 65, 83, 101)),
    ((10, 26, 36, 48, 54), (57, 65)),
    ((8, 10, 26, 36, 48, 54), (37, 55, 73, 53, 71, 89)),
)


def page4_series_oracle(n_max: int) -> list:
    """Total dim per degree of the weight-filtration fourth page."""
    out = [0] * (n_max + 1)
    for ring, gens in _PAGE4_FAMILIES:
        ring_coeffs = [0] * (n_max + 1)
        ring_coeffs[0] = 1
        for k in ring:
            for i in range(k, n_max + 1):
                ring_coeffs[i] += ring_coeffs[i - k]
        for g in gens:
            for n in range(g, n_max + 1):
                out[n] += ring_coeffs[n - g]
    return out


@dataclass
class SpectralReport:
    scheme: str
    n_max: int
    filtration_compatible: bool
    active_pages: list
    collapsed_at: int | None = None
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.filtration_compatible and all(
            not v for v in self.checks.values())


def run_scheme_checks(engine, scheme: str, n_max: int) -> SpectralReport:
    """All page claims for one scheme, as mismatch lists (empty = pass)."""
    ss = SpectralSequence(engine, scheme)
    report = SpectralReport(scheme, n_max,
                            ss.check_filtration_compatibility(n_max),
                            ss.active_pages(n_max), ss.collapsed_at(n_max))
    if scheme == "weight_s3":
        report.checks["pages_1_to_3_equal"] = ss.page_equality_check(1, 3, n_max)
        report.checks["pages_4_to_6_equal"] = ss.page_equality_check(4, 6, n_max)
        report.checks["page_7_is_limit"] = ss.collapse_check(7, n_max)
        report.checks["page_4_series_oracle"] = _mismatches(
            _degree_totals(ss.page_table(4, n_max), n_max),
            dict(enumerate(page4_series_oracle(n_max))))
    elif scheme == "may_s5":
        report.checks["page_1_free_algebra"] = _mismatches(
            ss.page_table(1, n_max), may_page1_oracle(n_max))
        report.checks["collapse_at_3"] = ss.collapse_check(3, n_max)
    else:
        report.checks["page_1_is_cohomology"] = ss.collapse_check(1, n_max)
    report.checks["convergence"] = ss.convergence_check(n_max)
    return report
