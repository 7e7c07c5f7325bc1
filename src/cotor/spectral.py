"""Spectral-sequence page dimensions for the weight filtrations.

A weight scheme assigns each generator a weight; monomial weight is the
sum, the filtration is decreasing (level p = span of monomials of weight
at least p), and the differential never lowers weight (checked
exhaustively before any page is computed).

Everything reduces to one quantity per degree: the rank of the
differential restricted to columns of weight >= q and rows of weight < w.
Sorting columns by descending and rows by ascending weight turns all of
these into prefix ranks of a single matrix, which one greedy
column-echelon pass answers for every (q, w) at once.  The pass runs one
internal Z^4 block at a time (none for a block with one row or one
column), keeps each pivot's two weights only, and also tells whether d
lowers weight anywhere.  Writing Z_s(q, m) = dim { x in level q of
degree m : d(x) in level q+s } as one list over q per (s, m), built
once, each page entry is arithmetic on four lists:

    E_r(p, n) = Z_r(p, n) - Z_{r-1}(p+1, n)
                - Z_{r-1}(p-r+1, n-1) + Z_r(p-r+1, n-1)

and the limit page comes from the induced filtration on cohomology,
independent of the page recursion; its totals meet the Poincare series.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count, zip_longest

from . import cohomology
from .dga import WEIGHT_SCHEMES, key_weight

SCHEMES = tuple(WEIGHT_SCHEMES)

# the highest page that active_pages and collapsed_at look at
LAST_PAGE = 9


@dataclass
class DegreeProfile:
    """Weight-sorted rank data for the differential out of one degree.

    ``rank_sub(q, w)`` counts the pivots whose column has weight >= q and
    whose row has weight < w.  ``counts`` holds that count at every pair
    of the pivots' weight levels (a cumulative table built once from the
    pivot list), so a query is two bisections, not a walk over the pivots.
    """

    col_weights_desc: list          # weights of columns, descending
    pivots: list                    # (row weight, column weight)
    compatible: bool = True         # d out of this degree keeps weight
    row_levels: list = field(init=False, repr=False)
    col_levels: list = field(init=False, repr=False)
    counts: list = field(init=False, repr=False)
    _dense: tuple = field(init=False, repr=False)
    _z: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.row_levels = sorted({w for w, _ in self.pivots})
        self.col_levels = sorted({q for _, q in self.pivots})
        row_at = {w: i for i, w in enumerate(self.row_levels)}
        col_at = {q: j for j, q in enumerate(self.col_levels)}
        grid = [[0] * len(self.col_levels) for _ in self.row_levels]
        for w, q in self.pivots:
            grid[row_at[w]][col_at[q]] += 1
        # counts[i][j]: pivots on row levels < i and column levels >= j
        self.counts = [[0] * (len(self.col_levels) + 1)]
        for line in grid:
            at_least = list(accumulate(reversed(line)))[::-1] + [0]
            self.counts.append(
                [a + b for a, b in zip(self.counts[-1], at_least)])
        # cols_ge and both level indices at weights 0..top, where each
        # is final (weights are >= 0: below 0 each is as at 0)
        top = 1 + max(self.col_weights_desc[:1] + self.row_levels, default=0)
        xs = range(top + 1)
        self._dense = ([self.cols_ge(x) for x in xs],
                       [bisect.bisect_left(self.row_levels, x) for x in xs],
                       [bisect.bisect_left(self.col_levels, x) for x in xs])

    def cols_ge(self, q: int) -> int:
        # the negated weights ascend: count those <= -q
        return bisect.bisect_right(self.col_weights_desc, -q, key=operator.neg)

    def rank_sub(self, q: int, w) -> int:
        i = (len(self.row_levels) if w is None
             else bisect.bisect_left(self.row_levels, w))
        return self.counts[i][bisect.bisect_left(self.col_levels, q)]

    def z_list(self, s: int) -> list:
        """``Z_s(q) = cols_ge(q) - rank_sub(q, q + s)`` at index q + s + 1
        for q = -s - 1 .. the top column weight (past it, 0), from the dense
        lists; dropped once a list for an s two or more away is built."""
        z = self._z.get(s)
        if z is None:
            for k in [k for k in self._z if abs(k - s) > 1]:
                del self._z[k]
            ge, row_at, col_at = self._dense
            hi = self.col_weights_desc[0] if self.col_weights_desc else 0
            rows = ([0] + row_at[:hi + s + 1]       # at weights -1 .. hi + s
                    + row_at[-1:] * (hi + s + 1 - len(row_at)))
            z = self._z[s] = [g - self.counts[i][j] for g, i, j in zip(
                ge[:1] * (s + 1) + ge[:hi + 1], rows,
                [0] * (s + 1) + col_at[:hi + 1])]
        return z


_NO_PIVOTS = DegreeProfile([], [])      # d_{-1}, which has no columns


class SpectralSequence:
    def __init__(self, engine, scheme: str):
        if scheme not in WEIGHT_SCHEMES:
            raise KeyError(f"unknown filtration scheme {scheme!r}")
        self.engine = engine
        self.scheme = scheme
        self._profiles: dict[int, DegreeProfile] = {-1: _NO_PIVOTS}
        self._basis_weights: dict[int, list] = {}
        self._tables: dict[tuple, dict] = {}

    # -- filtration-compatibility of d (precondition for everything) ------

    def check_filtration_compatibility(self, n_max: int) -> bool:
        """No entry of d_0..d_{n_max} maps a column to a row of lower
        weight: read off each degree's weight-ordered pass."""
        return all(self.profile(n).compatible for n in range(n_max + 1))

    def _weights(self, n: int) -> list:
        """The weight of every basis monomial of degree n, in basis order."""
        w = self._basis_weights.get(n)
        if w is None:
            w = self._basis_weights[n] = [
                key_weight(k, self.scheme) for k in self.engine.basis(n).keys]
        return w

    # -- profiles ----------------------------------------------------------

    def profile(self, m: int) -> DegreeProfile:
        """Rank data of d_m in weight order, eliminated one internal Z^4
        degree at a time (filtration levels are spanned by monomials, so
        every prefix rank is a sum over the blocks)."""
        prof = self._profiles.get(m)
        if prof is not None:
            return prof
        colw = self._weights(m)
        prof = self._profiles[m] = DegreeProfile(
            sorted(colw, reverse=True), *self.engine.d_matrix(m).pivot_weights(
                self._weights(m + 1), colw))
        del self._basis_weights[m]      # its one other reader: profile(m - 1)
        return prof

    def max_weight(self, n: int) -> int:
        prof = self.profile(n)
        return prof.col_weights_desc[0] if prof.col_weights_desc else 0

    # -- page dimensions -----------------------------------------------------

    def page_dim(self, r: int, p: int, n: int) -> int:
        return self.page_table(r, n).get((p, n), 0)

    def limit_dim(self, p: int, n: int) -> int:
        """dim of the p-graded piece of the induced filtration on H^n."""
        return self._h_filtration(p, n) - self._h_filtration(p + 1, n)

    def _h_filtration(self, p: int, n: int) -> int:
        prof = self.profile(n)
        cocycles = prof.cols_ge(p) - prof.rank_sub(p, None)
        prev = self.profile(n - 1)
        boundaries = prev.rank_sub(0, None) - prev.rank_sub(0, p)
        return cocycles - boundaries

    # -- tables and checks -----------------------------------------------------

    def page_table(self, r: int, n_max: int) -> dict:
        """{(p, n): dim E_r^{p,n}}, zero entries omitted."""
        if r < 0:
            raise ValueError("page index must be >= 0")

        def dims(n):        # at p = 0, 1, ...: see z_list for the indices
            z, z_prev = self.profile(n).z_list, self.profile(n - 1).z_list
            return (a - b - c + d for a, b, c, d in zip_longest(
                z(r)[r + 1:], z(r - 1)[r + 1:], z_prev(r - 1)[1:],
                z_prev(r)[2:], fillvalue=0))
        return self._table(("page", r, n_max), n_max, dims)

    def limit_table(self, n_max: int) -> dict:
        return self._table(("limit", n_max), n_max, lambda n: (
            self.limit_dim(p, n) for p in count()))

    def _table(self, key: tuple, n_max: int, dims) -> dict:
        """A copy of the table ``key``, built once from ``dims(n)``, the
        dims at p = 0, 1, ... in degree n."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = {
                (p, n): dim for n in range(n_max + 1)
                for p, dim in zip(range(self.max_weight(n) + 2), dims(n))
                if dim}
        return dict(table)

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

        The limit pieces of degree n telescope to dim V_n minus the
        profiles' rank of d_n and of d_{n-1}, so this checks the
        weight-ordered eliminations against a route that needs neither d
        nor any rank (``Engine.rank`` meets the series in ``homology``)."""
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
