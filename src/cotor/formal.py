"""Tiny parser/evaluator for formal polynomials in named generators.

The relation catalogs and displayed-table transcriptions are kept as
human-auditable strings like ``"-a4*y76 - a4*a8^2*y60 + a8^3*a10^2*x36"``.
A formal polynomial is a mapping  monomial -> coefficient  where a
monomial is a sorted tuple of (generator name, exponent) pairs.

Sorting the factors treats a monomial as commutative bookkeeping.  That
is sound for every catalog entry because even generators are central,
the word-free cocycles commute exactly with all representatives, and
each printed monomial lists its (pairwise non-commuting) word-type
factors in alphabetical order anyway; the test suite asserts that
printed-order evaluation agrees.  Where order genuinely matters (bare
word letters, e.g. the two orderings of the degree-26 product), build
Elements directly instead of going through this layer.
"""

from __future__ import annotations

import re

from .dga import Element

_TERM_RE = re.compile(r"([+-])?\s*([A-Za-z0-9^*\s]+)")
_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def parse_poly(text: str) -> dict:
    """Parse a signed sum of products of powers into {monomial: coeff}.

    All printed coefficients in the catalogs are +/-1; general integer
    coefficients are accepted as a leading bare integer factor.
    """
    out: dict[tuple, int] = {}
    text = text.strip()
    if text in ("0", ""):
        return out
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or not m.group(2).strip():
            raise ValueError(f"cannot parse term at {text[pos:]!r}")
        sign_tok, body = m.group(1), m.group(2).strip()
        if sign_tok is None and not first:
            raise ValueError(f"missing sign before {body!r}")
        coeff = -1 if sign_tok == "-" else 1
        powers: dict[str, int] = {}
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            f = _FACTOR_RE.match(factor)
            if not f:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            name, exp = f.group(1), int(f.group(2) or 1)
            powers[name] = powers.get(name, 0) + exp
        key = tuple(sorted(powers.items()))
        out[key] = out.get(key, 0) + coeff
        pos = m.end()
        first = False
    return {k: v for k, v in out.items() if v % 3}


def poly_text(poly: dict) -> str:
    """Canonical text of a formal polynomial (for reports)."""
    if not poly:
        return "0"
    parts = []
    for mono, c in sorted(poly.items()):
        c %= 3
        sign = "+" if c == 1 else "-"
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono) or "1"
        parts.append(f"{sign}{body}")
    return " ".join(parts)


def mono_text(mono: tuple) -> str:
    """Unsigned product text of one formal monomial."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono) or "1"


def monomial_degree(mono: tuple, degree_of: dict) -> int:
    return sum(degree_of[name] * e for name, e in mono)


class Evaluator:
    """Evaluate formal polynomials through a name -> Element table."""

    def __init__(self, table: dict):
        self.table = table
        self._powers: dict[tuple, Element] = {}

    def power(self, name: str, e: int):
        key = (name, e)
        try:
            return self._powers[key]
        except KeyError:
            v = self.table[name] ** e
            self._powers[key] = v
            return v

    def monomial(self, mono: tuple):
        out = Element.one()
        for name, e in mono:
            out = out * self.power(name, e)
        return out

    def __call__(self, poly):
        if isinstance(poly, str):
            poly = parse_poly(poly)
        out = Element.zero()
        for mono, c in poly.items():
            out = out + self.monomial(mono).scaled(c)
        return out
