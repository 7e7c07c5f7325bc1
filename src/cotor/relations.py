"""Machine verification of the printed catalogs: the relation ideal with
its coboundary witnesses, and the table of derivative images.

Three groups of relations present the cohomology ring over the 18 named
generators:

* group i: identities among the word-free generators.  Each is checked as
  an exact polynomial identity in the commutative subalgebra S (no linear
  algebra: every term is word-free and no nonzero coboundary lies in S).
* group ii: ten word-type ideal generators, each with an explicit
  coboundary witness d(c17 * ...).
* group iii: word-type products and the second-derivative families, again
  with explicit witnesses.

The printed catalogs carry known sign slips.  Nothing is patched: every
record is verified under the engine's canonical representatives, a global
per-generator sign assignment is solved for mechanically (a GF(2) linear
system; one free overall sign per identity, realized by the witness sign
where there is a witness), and anything the assignment cannot reconcile
is emitted as errata with the machine-corrected coefficient vector from
relation discovery, re-verified exact before it is reported.

One search reconciles printed signs (`_match_vector`): a printed vector
against the linear relations the machine finds, up to sign flips of
named generators.  It serves relation discovery and, with the sign of a
whole displayed row as one more flippable name, the derivative-image
catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, product

from .derivation import (
    NAMED_DEGREES, NAMED_GENERATOR_NAMES, family_identities, partial, partial2,
)
from .dga import Element, element_planes
from .formal import mono_text, monomial_degree, parse_poly, poly_text
from .gf3 import Echelon, Planes, combination, to_planes

GROUP_I = (
    "a4*y26 = -a8*y22 + a10*y20",
    "a4*y64 = -a8*y60 - a8^3*y22^2 - a10*y58",
    "y22^3 = -a4^3*x54 - a4^2*a8^2*a10^2*y22 + a4*a8*a10*y22^2"
    " + a4*a10^2*y20*y22 + a10^3*x36",
    "y20^2*y22 = -a4*y58 + a8^2*a10*x36",
    "y20*y22^2 = -a4*y60 + a8*a10^2*x36",
    "y58*y22 = -a4*y76 - a4*a8^2*y60 + a8^3*a10^2*x36 + a8*a10*x36*y26",
    "y60*y22 = a4^2*x54*y20 + a4*a8^2*a10^2*y20*y22 + a4*a8*a10*y60"
    " + a4*a10^2*y58 + a8^2*a10^3*x36 - a10^2*x36*y26",
    "y76*y22 = -a4*x54*y20^2 - a4^2*a8^2*x54*y20 + a4^2*a10^2*x48*y22"
    " + a4*a8^4*a10^2*y20*y22 + a4*a8^2*a10^2*y58 + a4*a8*a10*y76"
    " - a8^4*a10^3*x36 + a10*x36*y26^2",
    "y22*y26^2 = -a4*a8^2*x54 - a8^4*a10^2*y22 + a8^2*a10*y22*y26"
    " + a10*y64",
    "y20*y22*y26 = a8*y60 - a10*y58",
    "y22^2*y26 = a4^2*a8*x54 + a4*a8^3*a10^2*y22 - a8^2*a10*y22^2"
    " - a8*a10^2*y20*y22 - a10*y60",
    "y64*y22 = a4^2*a8^3*x54 - a4*a8*x54*y20 + a4*a8^5*a10^2*y22"
    " - a8^4*a10*y22^2 + a8^3*a10^2*y20*y22 - a8*a10^2*y58 + a10*y76",
    "y20^3 = a4^3*x48 - a4^2*a8^4*y20 - a4*a8^2*y20^2 + a8^3*x36",
    "y20^2*y22 = -a4*y58 + a8^2*a10*x36",
    "y58*y20 = -a4^2*x48*y22 - a4*a8^2*y58 + a4*a8^4*y20*y22"
    " + a8^2*x36*y26 + a8^4*a10*x36",
    "y60*y20 = -a4*y76 - a4*a8^2*y60 + a8^3*a10^2*x36 - a8*a10*x36*y26",
    "y76*y20 = a4*x48*y22^2 + a4*a8^4*y60 + a8*x36*y26^2 - a8^5*a10^2*x36",
    "y20*y26^2 = a4*a10^2*x48 + a8*y64 - a8^3*y22*y26 - a8^4*a10^2*y20"
    " - a8^2*a10*y20*y26",
    "y20^2*y26 = a4^2*a10*x48 - a4*a8^4*a10*y20 + a8*y58 - a8^2*a10*y20^2",
    "y64*y20 = a4*a10*x48*y22 + a8*y76 - a8^3*y60 - a8^4*a10*y20*y22"
    " + a8^2*a10*y58",
    "y58^2 = -a4^2*x48*y60 - a4^2*a8^2*x48*y22^2 - a4^2*a8^6*y60"
    " + a4*a8^7*a10^2*x36 + a4*a8*a10^2*x36*x48 + a8^2*x36*y64",
    "y58*y60 = -a4^4*x48*x54 + a4^3*a8^4*x54*y20 + a4^3*a8^2*a10^2*x48*y22"
    " + a4^2*a8^2*x54*y20^2 - a4^2*a8^6*a10^2*y20*y22 - a4^2*a8^4*a10^2*y58"
    " - a4^2*a8^3*a10*y76 + a4^2*a8*a10*x48*y22^2 + a4^2*a10^2*x48*y20*y22"
    " - a4*a8^3*x36*x54 + a4*a8^6*a10^3*x36 + a4*a10^3*x36*x48"
    " - a8^5*a10^2*x36*y22 - a8^2*a10^2*x36*y20*y26 - a8*a10*x36*y64",
    "y58*y76 = a4^3*x48*x54*y20 + a4^3*a8^4*a10^2*x48*y22"
    " - a4^2*a8^4*x54*y20^2 - a4^2*a8^8*a10^2*y20*y22 + a4^2*a8^7*a10*y60"
    " - a4^2*a8^6*a10^2*y58 + a4^2*a8^5*a10*y76"
    " + a4^2*a8^2*a10^2*x48*y20*y22 + a4^2*a8*a10*x48*y60"
    " + a4^2*a10^2*x48*y58 + a4*a8^2*a10^3*x36*x48 + a8^3*x36*x54*y20"
    " - a8^6*a10^3*x36*y20 + a8^4*a10^2*x36*y20*y26 - a8*a10^2*x36*x48*y22"
    " - a10^3*x36*x48*y20",
    "y58*y26 = -a4*a10*x48*y22 + a8*y76 + a8^3*y60 + a8^4*a10*y20*y22"
    " - a8^2*a10*y58",
    "y58*y64 = a4^3*a8*x48*x54 - a4^2*a8^5*x54*y20 + a4*a8^3*x54*y20^2"
    " - a4*a8^6*a10*y60 - a4*a8^4*a10*y76 - a4*a8*a10^2*x48*y20*y22"
    " + a4*a10*x48*y60 + a8^4*x36*x54 + a8^7*a10^3*x36"
    " - a8^5*a10^2*x36*y26 - a8^3*a10*x36*y26^2 + a8*a10^3*x36*x48",
    "y60^2 = a4^2*x54*y58 + a4^3*a8*a10^3*x48*y22 - a4^2*a8^5*a10^3*y20*y22"
    " - a4^2*a8^3*a10^3*y58 - a4^2*a8^2*a10^2*y76 - a4^2*a8*a10*x54*y20^2"
    " + a4^2*a10^2*x48*y22^2 + a4*a8^5*a10^4*x36 - a4*a8^2*a10*x36*x54"
    " - a8^4*a10^3*x36*y22 + a8^3*a10^4*x36*y20 + a8^2*a10^2*x36*y22*y26"
    " + a8*a10^3*x36*y20*y26 + a10^2*x36*y64",
    "y60*y76 = a4^3*x48*x54*y22 + a4^4*a8*a10*x48*x54"
    " - a4^3*a8^5*a10*x54*y20 + a4^3*a8^3*a10^3*x48*y22"
    " - a4^2*a8^4*x54*y20*y22 - a4^2*a8^7*a10^3*y20*y22"
    " + a4^2*a8^6*a10^2*y60 - a4^2*a8^5*a10^3*y58 + a4^2*a8^4*a10^2*y76"
    " - a4^2*a8*a10^3*x48*y20*y22 + a4^2*a10^2*x48*y60"
    " + a4*a8^4*a10*x36*x54 + a4*a8*a10^4*x36*x48 + a8^3*x36*x54*y22"
    " + a8^4*a10^2*x36*y22*y26 + a8^2*a10*x36*x54*y20"
    " - a8^2*a10^2*x36*y64 - a10^3*x36*x48*y22",
    "y60*y26 = -a4*a8*x54*y20 - a8^3*a10^2*y20*y22 + a8^2*a10*y60"
    " - a8*a10^2*y58 - a10*y76",
    "y60*y64 = a4^4*a10*x48*x54 + a4^3*a8^4*a10*x54*y20"
    " + a4^3*a8^2*a10^3*x48*y22 - a4^2*a8*x54*y58 - a4^2*a8^3*x54*y20*y22"
    " + a4^2*a8^6*a10^3*y20*y22 + a4^2*a8^5*a10^2*y60"
    " + a4^2*a8^4*a10^3*y58 + a4^2*a8*a10^2*x48*y22^2"
    " - a4^2*a10^3*x48*y20*y22 + a4*a8^6*a10^4*x36 - a4*a8^3*a10*x36*x54"
    " - a4*a10^4*x36*x48 + a8^5*a10^3*x36*y22 - a8^4*a10^4*x36*y20",
    "y26^3 = a8^3*x54 - a8^4*a10^2*y26 - a8^2*a10*y26^2 + a10^3*x48",
    "y64*y26 = -a4*a8^4*x54 + a8^2*x54*y20 - a8^6*a10^2*y22"
    " + a8^4*a10*y22*y26 + a8^2*a10*y64 + a10^2*x48*y22",
    "y64^2 = -a4^2*a8^7*a10*x54 + a4^2*a8*a10*x48*x54 - a4*a8^6*x54*y22"
    " - a4*a8^9*a10^3*y22 + a4*a8^5*a10*x54*y20 + a4*a8^3*a10^3*x48*y22"
    " + a8^2*x54*y58 - a8^4*x54*y20*y22 - a8^7*a10^3*y20*y22"
    " + a8^5*a10^3*y58 - a8^4*a10^2*y76 - a8^2*a10^2*x48*y22^2"
    " - a8*a10^3*x48*y20*y22 - a10^2*x48*y60",
    "y76^2 = -a4^2*x48*x54*y20*y22 - a4^4*a8^3*a10*x48*x54"
    " - a4^3*a8^2*x48*x54*y22 + a4^3*a8^7*a10*x54*y20"
    " + a4^3*a8^5*a10^3*x48*y22 - a4^3*a8*a10*x48*x54*y20"
    " - a4^2*a8^4*x54*y58 + a4^2*a8^6*x54*y20*y22"
    " - a4^2*a8^9*a10^3*y20*y22 - a4^2*a8^8*a10^2*y60"
    " - a4^2*a8^7*a10^3*y58 + a4^2*a8^5*a10*x54*y20^2"
    " - a4^2*a8^4*a10^2*x48*y22^2 - a4^2*a8*a10^3*x48*y58"
    " + a4^2*a10^2*x48*y76 - a4*a8^9*a10^4*x36 - a4*a8^3*a10^4*x36*x48"
    " + a8^2*x36*x54*y20*y26 - a8^5*x36*x54*y22 + a8^8*a10^3*x36*y22"
    " - a8^7*a10^4*x36*y20 - a8^5*a10^3*x36*y20*y26 + a8^4*a10^2*x36*y64"
    " - a8^2*a10^3*x36*x48*y22 + a10^2*x36*x48*y22*y26",
    "y76*y26 = a4*a8^3*x54*y20 - a4*a8*a10^2*x48*y22 + a8*x54*y20^2"
    " - a8^5*a10^2*y20*y22 + a8^4*a10*y60 - a8^3*a10^2*y58"
    " - a8^2*a10*y76 + a10*x48*y22^2",
    "y64*y76 = -a4^3*a8^2*a10*x48*x54 - a4^2*a8*x48*x54*y22"
    " - a4^2*a8^6*a10*x54*y20 - a4^2*a10*x48*x54*y20 - a4*a8^3*x54*y58"
    " - a4*a8^5*x54*y20*y22 + a4*a8^8*a10^3*y20*y22 + a4*a8^7*a10^2*y60"
    " + a4*a8^6*a10^3*y58 - a4*a8^5*a10^2*y76 - a4*a8^4*a10*x54*y20^2"
    " - a4*a8^3*a10^2*x48*y22^2 + a4*a8*a10^2*x48*y60 - a4*a10^3*x48*y58"
    " + a8^3*x36*x54*y26 + a8^8*a10^4*x36 - a8^6*a10^3*x36*y26"
    " + a8^5*a10*x36*x54 + a8^5*a10^2*y58*y22 + a8^4*a10^2*x36*y26^2"
    " + a8^2*a10^4*x36*x48 + a10^3*x36*x48*y26",
)

# word-type ideal generators with their displayed coboundary witnesses
GROUP_II = (
    ("a9^2", "c17"),
    ("y21^2", "c17*b12^2"),
    ("y25^2", "c17*b16^2"),
    ("y27^2", "c17*b18^2"),
    ("a9*y21 + x26*a4", "c17*b12"),
    ("a9*y25 + x26*a8", "c17*b16"),
    ("a9*y27 + x26*a10", "c17*b18"),
    ("y21*y25 + x26*y20", "c17*b12*b16"),
    ("y21*y27 - x26*y22", "c17*b12*b18"),
    ("y25*y27 - x26*y26", "c17*b16*b18"),
)

GROUP_III = (
    ("a9*a4", "b12"),
    ("a9*a8", "b16"),
    ("a9*a10", "b18"),
    ("y21*a4", "b12^2"),
    ("y25*a8", "b16^2"),
    ("y27*a10", "b18^2"),
    ("y21*a8 + a9*y20", "b12*b16"),
    ("y25*a4 - a9*y20", "b12*b16"),
    ("y21*a10 - a9*y22", "b12*b18"),
    ("y27*a4 + a9*y22", "b12*b18"),
    ("y25*a10 - a9*y26", "b16*b18"),
    ("y27*a8 + a9*y26", "b16*b18"),
    ("y21*y20", "-b12^2*b16"),
    ("y25*y20", "-b12*b16^2"),
    ("y21*y22", "-b12^2*b18"),
    ("y27*y22", "-b12*b18^2"),
    ("y25*y26", "-b16^2*b18"),
    ("y27*y26", "-b16*b18^2"),
    ("y27*y20 - y25*y22", "-b12*b16*b18"),
    ("y25*y22 + y21*y26", "-b12*b16*b18"),
    ("-y27*y20 - y21*y26", "-b12*b16*b18"),
)

# One row per cube-free b-monomial: (Q, displayed dQ, displayed d2Q forms).
# The last d2Q form of each multi-form row is the fully expanded polynomial;
# y-symbols refer to the named cocycles.
DERIVATIVE_CATALOG = (
    ("b12", "-a4", ("0",)),
    ("b16", "-a8", ("0",)),
    ("b18", "-a10", ("0",)),
    ("b12^2", "a4*b12", ("-a4^2",)),
    ("b16^2", "a8*b16", ("-a8^2",)),
    ("b18^2", "a10*b18", ("-a10^2",)),
    ("b12*b16", "-a4*b16 - a8*b12", ("-a4*a8",)),
    ("b12*b18", "-a4*b18 - a10*b12", ("-a4*a10",)),
    ("b16*b18", "-a8*b18 - a10*b16", ("-a8*a10",)),
    ("b12^2*b16", "a4*b12*b16 - a8*b12^2",
     ("-a4*y20", "-a4^2*b16 + a4*a8*b12")),
    ("b12*b16^2", "-a4*b16^2 + a8*b12*b16",
     ("a8*y20", "a4*a8*b16 - a8^2*b12")),
    ("b12^2*b18", "a4*b12*b18 - a10*b12^2",
     ("-a4*y22", "-a4^2*b18 + a4*a10*b12")),
    ("b12*b18^2", "-a4*b18^2 + a10*b12*b18",
     ("a10*y22", "a4*a10*b18 - a10^2*b12")),
    ("b16^2*b18", "a8*b16*b18 - a10*b16^2",
     ("-a8*y26", "-a8^2*b18 + a8*a10*b16")),
    ("b16*b18^2", "-a8*b18^2 + a10*b16*b18",
     ("a10*y26", "a8*a10*b18 - a10^2*b16")),
    ("b12*b16*b18", "-a4*b16*b18 - a8*b12*b18 - a10*b12*b16",
     ("-a4*y26 + a10*y20", "-a8*y22 - a10*y20", "a4*y26 + a8*y22",
      "-a4*a8*b18 - a4*a10*b16 - a8*a10*b12")),
    ("b12^2*b16^2", "a4*b12*b16^2 + a8*b12^2*b16",
     ("-y20^2", "-a4^2*b16^2 - a4*a8*b12*b16 - a8^2*b12^2")),
    ("b12^2*b18^2", "a4*b12*b18^2 + a10*b12^2*b18",
     ("-y22^2", "-a4^2*b18^2 - a4*a10*b12*b18 - a10^2*b12^2")),
    ("b16^2*b18^2", "a8*b16*b18^2 + a10*b16^2*b18",
     ("-y26^2", "-a8^2*b18^2 - a8*a10*b16*b18 - a10^2*b16^2")),
    ("b12^2*b16*b18", "a4*b12*b16*b18 - a8*b12^2*b18 - a10*b12^2*b16",
     ("-y20*y22",
      "-a4^2*b16*b18 + a4*a8*b12*b18 + a4*a10*b12*b16 - a8*a10*b12^2")),
    ("b12*b16^2*b18", "-a4*b16^2*b18 + a8*b12*b16*b18 - a10*b12*b16^2",
     ("y20*y26",
      "a4*a8*b16*b18 - a4*a10*b16^2 - a8^2*b12*b18 + a8*a10*b12*b16")),
    ("b12*b16*b18^2", "-a4*b16*b18^2 - a8*b12*b18^2 + a10*b12*b16*b18",
     ("-y22*y26",
      "-a4*a8*b18^2 + a4*a10*b16*b18 + a8*a10*b12*b18 - a10^2*b12*b16")),
    ("b12^2*b16^2*b18",
     "a4*b12*b16^2*b18 + a8*b12^2*b16*b18 - a10*b12^2*b16^2",
     ("y58",
      "-a4^2*b16^2*b18 - a4*a8*b12*b16*b18 + a4*a10*b12*b16^2"
      " - a8^2*b12^2*b18 + a8*a10*b12^2*b16")),
    ("b12^2*b16*b18^2",
     "a4*b12*b16*b18^2 - a8*b12^2*b18^2 + a10*b12^2*b16*b18",
     ("y60",
      "-a4^2*b16*b18^2 + a4*a8*b12*b18^2 - a4*a10*b12*b16*b18"
      " + a8*a10*b12^2*b18 - a10^2*b12^2*b16")),
    ("b12*b16^2*b18^2",
     "-a4*b16^2*b18^2 + a8*b12*b16*b18^2 + a10*b12*b16^2*b18",
     ("y64",
      "a4*a8*b16*b18^2 + a4*a10*b16^2*b18 - a8^2*b12*b18^2"
      " - a8*a10*b12*b16*b18 - a10^2*b12*b16^2")),
    ("b12^2*b16^2*b18^2",
     "a4*b12*b16^2*b18^2 + a8*b12^2*b16*b18^2 + a10*b12^2*b16^2*b18",
     ("y76",
      "-a4^2*b16^2*b18^2 - a4*a8*b12*b16*b18^2 - a4*a10*b12*b16^2*b18"
      " - a8^2*b12^2*b18^2 - a8*a10*b12^2*b16*b18 - a10^2*b12^2*b16^2")),
)


@dataclass(frozen=True)
class RelationRecord:
    rid: str
    group: str
    lhs_text: str
    rhs_text: str
    witness_text: str | None
    lhs: Element            # lhs - rhs, expanded through engine representatives
    witness: Element | None
    degree: int
    paper_poly: dict        # formal terms of lhs - rhs (empty for family rows)


def _formal_degree(poly: dict) -> int:
    degs = {monomial_degree(m, NAMED_DEGREES) for m in poly}
    if len(degs) != 1:
        raise ValueError(f"relation is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def _is_homogeneous(poly: dict) -> bool:
    return len({monomial_degree(m, NAMED_DEGREES) for m in poly}) <= 1


def relation_catalog(engine) -> list:
    """Every relation record of groups i-iii, expanded through the engine
    representatives.

    One printed relation is not even degree-homogeneous (its left product
    and its right-hand terms differ by 4); it is kept as printed and left
    for the errata machinery, which replaces it by the machine expression
    of the left product in basis-class coordinates.
    """
    ev = engine.named_evaluator
    records = []
    for k, text in enumerate(GROUP_I, 1):
        lhs_text, rhs_text = (s.strip() for s in text.split("="))
        poly = parse_poly(lhs_text)
        for mono, c in parse_poly(rhs_text).items():
            poly[mono] = (poly.get(mono, 0) - c) % 3
        poly = {m: c for m, c in poly.items() if c}
        # the record's degree is that of the left product (always a single
        # homogeneous term), even when the printed right side disagrees
        records.append(RelationRecord(
            f"i.{k:02d}", "i", lhs_text, rhs_text, None,
            ev(lhs_text) - ev(rhs_text), None,
            _formal_degree(parse_poly(lhs_text)), poly))
    for group, table in (("ii", GROUP_II), ("iii", GROUP_III)):
        for k, (lhs_text, wit_text) in enumerate(table, 1):
            poly = parse_poly(lhs_text)
            records.append(RelationRecord(
                f"{group}.{k:02d}", group, lhs_text, "0", wit_text,
                ev(poly), ev(wit_text), _formal_degree(poly), poly))
    k = len(GROUP_III)
    for q_text, _, _ in DERIVATIVE_CATALOG:
        q = ev(q_text)
        if partial2(q).is_zero():
            continue
        for name, lhs, witness in family_identities(q, engine.named):
            k += 1
            records.append(RelationRecord(
                f"iii.{k:02d}", "iii", f"{name}*partial2({q_text})", "0",
                f"[{name}-witness of {q_text}]", lhs, witness,
                lhs.degree(), {}))
    return records


@dataclass
class RelationVerdict:
    record: RelationRecord
    verdict: str                 # EXACT | SIGNED | IN-IMAGE | CORRECTED | FAIL
    witness_sign: int | None = None
    sign_flips: tuple = ()
    engine_coeffs: str | None = None   # canonical machine relation (errata)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != "FAIL"

    def as_json(self) -> dict:
        return {
            "id": self.record.rid,
            "group": self.record.group,
            "degree": self.record.degree,
            "verdict": self.verdict,
            "paper_coeffs": poly_text(self.record.paper_poly)
            if self.record.paper_poly else self.record.lhs_text,
            "engine_coeffs": self.engine_coeffs,
            "sign_flips": list(self.sign_flips)
            + ([f"witness:{self.witness_sign}"]
               if self.witness_sign == -1 else []),
            "witness": self.record.witness_text,
        }


def verify_witness(record: RelationRecord, engine) -> RelationVerdict:
    """LHS = d(witness), exactly, up to a recorded witness sign.

    Every pass is re-verified through the blocks of d's matrix when the
    degree is inside the cap: d_{n-1} at the witness's Z^4 degrees alone
    (``Engine.apply_d``), built on demand from lower blocks of d by the
    matrix construction (an independent code path from the direct
    Leibniz evaluation used here).
    """
    if record.witness is None:
        raise ValueError(f"record {record.rid} has no witness")
    dw = engine.d(record.witness)
    if (record.lhs - dw).is_zero():
        sign = 1
    elif (record.lhs + dw).is_zero():
        sign = -1
    else:
        return RelationVerdict(record, "FAIL", note=(record.lhs - dw).text())
    n = record.degree
    if 0 < n <= engine.max_degree:
        img = engine.apply_d(engine.blocks_of(record.witness, n - 1), n - 1)
        if sign == -1:
            img = {g: (q, p) for g, (p, q) in img.items()}
        if engine.blocks_of(record.lhs, n) != img:
            return RelationVerdict(record, "FAIL",
                                   note="matrix route disagrees")
    verdict = "EXACT" if sign == 1 else "SIGNED"
    return RelationVerdict(record, verdict, witness_sign=sign)


@dataclass
class DiscoveryResult:
    support: tuple
    degree: int
    solutions: tuple             # canonical basis of coefficient vectors
    paper_vector: tuple | None = None
    verdict: str | None = None   # exact | sign_flips | absent
    sign_flips: tuple = ()


def _canonical_rows(vectors):
    """The nonzero rows of the RREF of the matrix with the given rows: the
    reduced basis of the span of the vectors, taken as columns."""
    if not vectors:
        return ()
    return tuple(Echelon(Planes.from_columns(
        len(vectors[0]), map(to_planes, vectors))).reduced_basis())


def _linear_relations(elements) -> tuple:
    """Canonical basis of the vectors c with sum_j c_j * elements[j] = 0,
    solved in the coordinates of the monomials the elements use."""
    monos = sorted({k for el in elements for k in el.by_key})
    idx = {m: i for i, m in enumerate(monos)}
    return _canonical_rows(Echelon(Planes.from_columns(
        len(monos), (element_planes(el, idx) for el in elements))).kernel())


def discover_relation(support, degree, engine, paper_vector=None):
    """Solve for all linear combinations of the support inside im(d).

    Support monomials are formal products of named generators.  When every
    expansion is word-free the solve happens in S-coordinates (exactness
    there needs no differential); otherwise the coefficient matrix is
    augmented with the im(d) columns of the Z^4 blocks the support touches.
    """
    ev = engine.named_evaluator
    elements = [ev(s) if isinstance(s, str) else s for s in support]
    for el in elements:
        if el.degree() not in (None, degree):
            raise ValueError("support monomial of wrong degree")
    if all(el.in_commutative_subalgebra() for el in elements):
        solutions = _linear_relations(elements)
    else:
        if degree > engine.max_degree:
            raise ValueError("degree beyond cap for word-type discovery")
        # d keeps the Z^4 degree, so the system is the blocks the support
        # touches, stacked at row offsets ``at``; im(d) columns first: only
        # kernel vectors with a free support column can have a nonzero
        # support part, and those span it
        blocks, parts = engine.basis(degree).blocks, [
            engine.blocks_of(el, degree) for el in elements]
        at, n_rows = {}, 0
        for g in {g: None for part in parts for g in part}:
            at[g], n_rows = n_rows, n_rows + len(blocks[g])
        cols = [(p << at[g], q << at[g])
                for g, block in engine.d_blocks(degree - 1, at).items()
                if block is not None for p, q in zip(*block[2:])]
        start = len(cols)
        cols += [(sum(p << at[g] for g, (p, _) in part.items()),
                  sum(q << at[g] for g, (_, q) in part.items()))
                 for part in parts]
        solutions = _canonical_rows([v[start:] for v in Echelon(
            Planes.from_columns(n_rows, cols)).kernel(start=start)])
    return _matched(DiscoveryResult(tuple(str(s) for s in support), degree,
                                    solutions), paper_vector)


def _matched(result: DiscoveryResult, paper_vector) -> DiscoveryResult:
    """The discovery with its verdict against a printed vector (if any)."""
    if paper_vector is None:
        return result
    monos = [next(iter(parse_poly(s))) for s in result.support]
    verdict, flips = _match_vector(
        monos, paper_vector, result.solutions, NAMED_GENERATOR_NAMES)
    return replace(result, paper_vector=paper_vector, verdict=verdict,
                   sign_flips=flips)


def _discover(support, degree, engine, solved: dict, paper_vector=None):
    """`discover_relation`, solved once per (support, degree) among the
    calls sharing ``solved``; the printed vector is matched on each call."""
    key = tuple(support), degree
    if key not in solved:
        solved[key] = discover_relation(support, degree, engine)
    return _matched(solved[key], paper_vector)


def _match_vector(monos, paper_vector, solutions, flippable):
    """Is the printed vector v in the span S of the solution rows, up to
    sign flips of the names in ``flippable``?

    ``monos`` are the formal monomials under the vector's entries; a flip
    of a name negates the entries whose monomial has it to an odd power.
    A flip keeps v's support, so v flipped on a pattern P lies in S exactly
    when some u in S has v's support and the sign opposite to v's exactly
    on P.  The 3^s vectors of S (s rows) are formed once, as bit planes,
    with the patterns they realize; each flip subset is then one set
    lookup, so the cost is 3^s span vectors plus the lookups (none when no
    pattern is realized).  Subsets go by size, then in lexicographic order
    of the sorted names, so the first match flips the fewest names.  A
    match is confirmed by one solve of the flipped vector (``RuntimeError``
    if the routes disagree, also under ``python -O``).
    """
    rows = Planes.from_columns(len(paper_vector), map(to_planes, solutions))
    vp, vq = to_planes(paper_vector)
    support = vp | vq
    realized = set()    # where u = -v, for each u in S with support v's
    for x in product((0, 1, 2), repeat=rows.n_cols):
        up, uq = combination(*to_planes(x), rows.pos, rows.neg)
        if up | uq == support:
            realized.add(up & vq | uq & vp)

    def confirmed(verdict, flips, flip):
        x, _ = Echelon(rows).solve_planes(vp & ~flip | vq & flip,
                                          vq & ~flip | vp & flip)
        if x is None:
            raise RuntimeError(f"_match_vector: the span realizes {verdict} "
                               f"{flips}, but the flipped vector has no solve")
        return verdict, flips

    if 0 in realized:
        return confirmed("exact", (), 0)
    if not realized:
        return "absent", ()
    # bit j of odd[n]: name n has an odd exponent in monomial j
    odd = {}
    for j, mono in enumerate(monos):
        for n, e in mono:
            if n in flippable and e % 2:
                odd[n] = odd.get(n, 0) | 1 << j
    for r in range(1, len(odd) + 1):
        for subset in combinations(sorted(odd), r):
            pattern = 0
            for n in subset:
                pattern ^= odd[n]
            if pattern & support in realized:
                return confirmed("sign_flips", subset, pattern)
    return "absent", ()


# -- the derivative-image catalog ----------------------------------------------

# generators whose sign may be flipped when classifying displayed forms
_FLIPPABLE = ("y20", "y22", "y26", "y58", "y60", "y64", "y76")


@dataclass(frozen=True)
class DisplayVerdict:
    text: str
    verdict: str            # "exact" | "sign_flip" | "mismatch"
    flips: tuple = ()       # generator names flipped (possibly with "row")


@dataclass(frozen=True)
class CatalogRow:
    q: str
    partial: str            # the machine values, as text
    partial2: str
    partial_display: DisplayVerdict
    partial2_displays: tuple
    expanded_ok: bool       # last display matches machine up to one row sign


def _display_verdict(text: str, machine: Element, ev) -> DisplayVerdict:
    """Does the display sum_j c_j t_j equal the machine value M, up to
    flips of ``_FLIPPABLE`` names and of the whole row's sign?

    With flips f and row sign r it does exactly when (f*c, -r) is a linear
    relation among t_1, ..., t_k, M, so the display is matched against
    those relations, the row sign being one more flippable name on the
    last entry.  "row" sorts before the y-names, so it wins a tie with
    one of them.
    """
    poly = parse_poly(text)
    solutions = _linear_relations([ev.monomial(m) for m in poly] + [machine])
    verdict, flips = _match_vector(
        [*poly, (("row", 1),)], [*poly.values(), -1], solutions,
        _FLIPPABLE + ("row",))
    if verdict == "absent":
        return DisplayVerdict(text, "mismatch")
    if verdict == "exact":
        return DisplayVerdict(text, "exact")
    # reported with the row sign last
    return DisplayVerdict(text, "sign_flip",
                          tuple(sorted(flips, key="row".__eq__)))


def derivative_catalog_report(engine) -> list:
    """Machine verification of every catalog row against its displays."""
    ev = engine.named_evaluator
    rows = []
    for q_text, dq_text, d2q_texts in DERIVATIVE_CATALOG:
        p = partial(ev(q_text))
        p2 = partial(p)
        d2q_verdicts = tuple(_display_verdict(t, p2, ev) for t in d2q_texts)
        expanded = d2q_verdicts[-1]
        rows.append(CatalogRow(
            q_text, p.text(), p2.text(), _display_verdict(dq_text, p, ev),
            d2q_verdicts, expanded.verdict != "mismatch"
            and expanded.flips in ((), ("row",))))
    return rows


def verify_relation(record: RelationRecord, engine,
                    solved: dict | None = None) -> RelationVerdict:
    """EXACT / IN-IMAGE / CORRECTED / FAIL for one record; ``solved`` holds
    the discoveries already made on a support (see `_discover`)."""
    z = record.lhs
    if z.is_zero():
        return RelationVerdict(record, "EXACT")
    if z.in_commutative_subalgebra():
        # nonzero in S: not a coboundary (image purity), so the printed
        # coefficients are off; discover the machine relation on the support
        if _is_homogeneous(record.paper_poly):
            disc = _discover(
                [mono_text(m) for m in record.paper_poly], record.degree,
                engine, {} if solved is None else solved,
                tuple(record.paper_poly.values()))
            # each machine solution as a signed sum of the support
            rows = [" ".join(f"{'+' if c == 1 else '-'}{s}"
                             for c, s in zip(sol, disc.support) if c) or "0"
                    for sol in disc.solutions]
            if disc.verdict == "sign_flips":
                return RelationVerdict(record, "SIGNED",
                                       sign_flips=disc.sign_flips,
                                       engine_coeffs=" ; ".join(rows))
            if rows and all(engine.named_evaluator(row).is_zero()
                            for row in rows):
                return RelationVerdict(record, "CORRECTED",
                                       engine_coeffs=" ; ".join(rows))
        # last resort (also the inhomogeneous-print case): express the left
        # product exactly in word-free basis-class coordinates at its degree
        corrected = express_in_c_classes(
            engine.named_evaluator(record.lhs_text), record.degree, engine)
        if corrected is not None:
            return RelationVerdict(
                record, "CORRECTED",
                engine_coeffs=f"{record.lhs_text} = {corrected}",
                note="printed relation replaced by class-coordinate expansion")
        return RelationVerdict(record, "FAIL", note="no relation on support")
    if record.witness is not None:
        wv = verify_witness(record, engine)
        if wv.ok:
            return RelationVerdict(record, "IN-IMAGE",
                                   witness_sign=wv.witness_sign)
    if record.degree > engine.max_degree:
        return RelationVerdict(record, "FAIL", note="degree beyond cap")
    # a cocycle is in im(d) exactly when it decomposes with no class part;
    # the engine checks z - 0 = d(witness) before it answers
    if not engine.d(z).is_zero():
        return RelationVerdict(record, "FAIL", note="not a cocycle")
    if engine.decompose(z, record.degree).coefficients:
        return RelationVerdict(record, "FAIL", note="not in image")
    return RelationVerdict(record, "IN-IMAGE")


def c_class_coordinates(element: Element, degree: int, engine):
    """Word-free basis classes and the bit planes of a cocycle's exact
    coordinates in them, or None if it is not an S-combination of them."""
    if not element.in_commutative_subalgebra():
        return None
    solver, idx, classes = engine.split_solver(degree)
    try:
        vp, vq = element_planes(element, idx)
    except KeyError:            # a monomial no class representative has
        return None
    x, _ = solver.solve_planes(vp, vq)
    if x is None:
        return None
    return classes, x


def express_in_c_classes(element: Element, degree: int, engine) -> str | None:
    """Exact expansion of a word-free cocycle in basis-class coordinates."""
    coords = c_class_coordinates(element, degree, engine)
    if coords is None:
        return None
    classes, (xp, xq) = coords
    terms = " ".join(f"{'+' if xp >> j & 1 else '-'}{cls.label}"
                     for j, cls in enumerate(classes) if (xp | xq) >> j & 1)
    return terms or "0"


# -- global sign reconciliation ----------------------------------------------


@dataclass
class SignSystem:
    """GF(2) system: one flip bit per named generator, free sign per identity.

    A row is an int: bit j is the coefficient of generator ``names[j]``, and
    the bit above them is the right-hand side."""

    names: tuple = NAMED_GENERATOR_NAMES
    rows: list = field(default_factory=list)

    def add_pair_constraint(self, mono_a, mono_b, bit):
        row = (bit & 1) << len(self.names)
        for mono in (mono_a, mono_b):
            for name, e in mono:
                if name in self.names and e % 2:
                    row ^= 1 << self.names.index(name)
        self.rows.append(row)

    def solve(self):
        """Particular solution (prefers all-plus), or None if inconsistent."""
        rhs = 1 << len(self.names)
        aug = list(self.rows)
        m = len(aug)
        row = 0
        pivots = []
        for col in range(len(self.names)):
            bit = 1 << col
            nz = [i for i in range(row, m) if aug[i] & bit]
            if not nz:
                continue
            aug[row], aug[nz[0]] = aug[nz[0]], aug[row]
            for i in range(m):
                if i != row and aug[i] & bit:
                    aug[i] ^= aug[row]
            pivots.append(col)
            row += 1
        if any(aug[i] & rhs for i in range(row, m)):
            return None
        flipped = {p for i, p in enumerate(pivots) if aug[i] & rhs}
        return {name: (-1 if j in flipped else 1)
                for j, name in enumerate(self.names)}


def build_sign_system(verdicts, engine, solved: dict) -> SignSystem:
    """Pairwise flip constraints from every magnitude-consistent record
    (``solved`` as for `verify_relation`)."""
    system = SignSystem()
    for v in verdicts:
        rec = v.record
        if not rec.paper_poly or v.verdict in ("CORRECTED", "FAIL"):
            continue
        if not _is_homogeneous(rec.paper_poly):
            continue
        monos = list(rec.paper_poly)
        if rec.group == "i":
            paper_vec = list(rec.paper_poly.values())
            solutions = _discover([mono_text(m) for m in monos], rec.degree,
                                  engine, solved).solutions
            if len(solutions) != 1:
                continue
            machine = solutions[0]
            if any(bool(p) != bool(mv)
                   for p, mv in zip(paper_vec, machine)):
                continue
            ratios = [1 if (p - mv) % 3 == 0 else -1
                      for p, mv in zip(paper_vec, machine)]
        else:
            # machine truth = printed coefficients (witness verified):
            # all ratios +1, constraints are pairwise-equal flip sums
            ratios = [1] * len(monos)
        for t in range(1, len(monos)):
            bit = 0 if ratios[t] == ratios[0] else 1
            system.add_pair_constraint(monos[0], monos[t], bit)
    return system


# -- full verification report -------------------------------------------------


@dataclass
class VerificationReport:
    verdicts: list
    assignment: dict | None
    errata: list
    group_i_reconcilable: bool = False

    @property
    def all_ok(self) -> bool:
        return all(v.ok for v in self.verdicts) and self.assignment is not None

    def records_json(self):
        return [v.as_json() for v in self.verdicts]


def verify_all(engine, groups=("i", "ii", "iii")) -> VerificationReport:
    """Verify every record; solve for the global sign assignment.

    The full GF(2) system (witness identities plus the sign-slipped
    group-i prints) is attempted first; it is provably inconsistent for
    the printed catalogs, in which case the assignment is all +1 and the
    group-i slips stay in the errata as per-record findings.  The system
    is always solved over the whole catalog; ``groups`` only selects the
    records reported, so a group's verdicts do not depend on which other
    groups are asked for.
    """
    verdicts, solved = [], {}       # a support printed twice is solved once
    for rec in relation_catalog(engine):
        if rec.group == "i":
            verdicts.append(verify_relation(rec, engine, solved))
        else:
            verdicts.append(verify_witness(rec, engine))
    assignment = build_sign_system(verdicts, engine, solved).solve()
    reconcilable = assignment is not None
    if assignment is None:
        # the witness rows alone all have ratio +1, so they solve to all-plus
        assignment = dict.fromkeys(NAMED_GENERATOR_NAMES, 1)
    verdicts = [v for v in verdicts if v.record.group in groups]
    errata = [v.as_json() for v in verdicts
              if v.verdict in ("SIGNED", "CORRECTED")
              or v.witness_sign == -1]
    return VerificationReport(verdicts, assignment, errata, reconcilable)


# -- ideal and splitting checks ------------------------------------------------


@dataclass
class IdealSplitReport:
    degree_bound: int
    ideal_products: int = 0
    ideal_violations: list = field(default_factory=list)
    split_products: int = 0
    split_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.ideal_violations and not self.split_violations


def _packed_powers(powers) -> int:
    """A formal monomial over the named generators as one int, an 8-bit
    exponent field per name, so that multiplying monomials adds their
    packed forms (an exponent of degree <= ``dga.MAX_KEY_DEGREE`` is at
    most 255)."""
    return sum(e << 8 * NAMED_GENERATOR_NAMES.index(name)
               for name, e in powers)


def ideal_and_split_check(engine, degree_bound: int | None = None,
                          decompose_samples: int = 25) -> IdealSplitReport:
    """The two structural facts behind the split extension.

    Ideal: a word-positive basis class times any named generator never
    picks up word-free class coefficients.  Splitting: a product of two
    word-free classes is an exact S-combination of word-free classes (zero
    ideal-side coefficients, zero coboundary correction).

    Word-free representatives multiply by adding exponents (S is
    commutative), so a split product depends only on its pair's summed
    powers: it is multiplied and solved once per distinct sum, and every
    pair is counted and reported with its sum's verdict.  The first
    ``decompose_samples`` nonzero products, in pair order, also go through
    ``Engine.decompose``, each multiplied from its own pair.
    """
    n_max = degree_bound or engine.max_degree
    report = IdealSplitReport(n_max)
    named = engine.named
    d_classes, c_classes, side = [], [], {}
    for n in range(n_max + 1):
        for cls in engine.additive_basis(n).classes:
            (d_classes if cls.side == "D" else c_classes).append((n, cls))
            side[cls.label] = cls.side      # a label fixes its degree

    for n, cls in d_classes:
        rep = engine.representative(cls)
        for gname in NAMED_GENERATOR_NAMES:
            m = n + NAMED_DEGREES[gname]
            if m > n_max:
                continue
            product = rep * named[gname].element
            if product.is_zero():
                continue
            dec = engine.decompose(product, m)
            bad = {lbl: c for lbl, c in dec.coefficients.items()
                   if side[lbl] == "C"}
            report.ideal_products += 1
            if bad:
                report.ideal_violations.append(
                    (cls.label, gname, sorted(bad)))

    # splitting: solve products of word-free classes in S-coordinates, once
    # per summed powers; c_classes ascend by degree
    reps = [engine.representative(c) for _, c in c_classes]
    for (_, cls), rep in zip(c_classes, reps):
        if not rep.in_commutative_subalgebra():
            raise RuntimeError(f"word-free class {cls.label} has a "
                               "representative with a word")
    keys = [_packed_powers(c.powers) for _, c in c_classes]
    verdicts = {}       # summed powers -> (in the S-span, product is zero)
    sample_countdown = decompose_samples
    for i, (n1, c1) in enumerate(c_classes):
        if 2 * n1 > n_max:
            break
        for j in range(i, len(c_classes)):
            n2, c2 = c_classes[j]
            m = n1 + n2
            if m > n_max:
                break
            report.split_products += 1
            key = keys[i] + keys[j]
            verdict = verdicts.get(key)
            if verdict is None:
                product = reps[i] * reps[j]
                verdict = verdicts[key] = (
                    c_class_coordinates(product, m, engine) is not None,
                    product.is_zero())
            spanned, zero = verdict
            if not spanned:
                report.split_violations.append((c1.label, c2.label))
                continue
            if sample_countdown > 0 and not zero:
                sample_countdown -= 1
                dec = engine.decompose(reps[i] * reps[j], m)
                d_side = [lbl for lbl in dec.coefficients if side[lbl] == "D"]
                if d_side or not dec.witness.is_zero():
                    report.split_violations.append(
                        (c1.label, c2.label, "decompose route"))
    return report
