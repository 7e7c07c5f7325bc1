"""The auxiliary derivation on the commutative subalgebra, and the named
cocycles built from it.

S = GF(3)[a4, a8, a10, b12, b16, b18] sits inside the algebra as the
word-free monomials.  The derivation sends b_j to -a_{j-8} and kills the
a-generators; it is unsigned (everything in S is even) and satisfies
``partial^3 = 0`` in characteristic 3.  It is not coded separately: the
algebra's rewrite reads E * a9 = a9 * E - c17 * partial(E) for E in S, so
``partial`` takes it from ``dga.times_a9``.  It feeds the differential
through the bridge identity

    x26 * partial2(-Q) = d(a9*Q + c17*partial(Q)),

which is what makes the relation catalog mechanically checkable, and it
defines the high-degree cocycles y58, y60, y64, y76 as second derivatives
of cube-free b-monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dga import (
    COMM_NAMES, ONE_KEY, WORD_SHIFT, Element, decode, encode, gen, times_a9,
)
from .differential import Differential, select_x26
from .formal import Evaluator, parse_poly


def partial(q: Element) -> Element:
    """The derivation on S; rejects input with a nonempty word part.

    It is read off the algebra's rewrite, E * a9 = a9 * E - c17 * partial(E):
    partial(E) is minus the c17 part of ``times_a9``, with that letter
    dropped.
    """
    out = {}
    for m, c in q.terms.items():
        if m.word:
            raise ValueError(
                f"input is not in the commutative subalgebra: {m.text()}")
        for k, e in times_a9(encode(m)):
            if k >> WORD_SHIFT == 0b11:         # the word is c17 alone:
                t = decode(k - 2 * ONE_KEY)     # drop it
                out[t] = out.get(t, 0) - e * c
    return Element(out)


def partial2(q: Element) -> Element:
    return partial(partial(q))


# -- named cocycle generators ----------------------------------------------

# formulas in raw generators; the four high-degree ones are second
# derivatives, x26 comes from the audit kernel
_NAMED_FORMULAS = {
    "a4": "a4", "a8": "a8", "a9": "a9", "a10": "a10",
    "y20": "a8*b12 - a4*b16",
    "y22": "a4*b18 - a10*b12",
    "y26": "a8*b18 - a10*b16",
    "y21": "a9*b12 - c17*a4",
    "y25": "a9*b16 - c17*a8",
    "y27": "a9*b18 - c17*a10",
    "x36": "b12^3", "x48": "b16^3", "x54": "b18^3",
}
_PARTIAL2_NAMED = {
    "y58": "b12^2*b16^2*b18",
    "y60": "b12^2*b16*b18^2",
    "y64": "b12*b16^2*b18^2",
    "y76": "b12^2*b16^2*b18^2",
}

NAMED_GENERATOR_NAMES = (
    "a4", "a8", "a9", "a10", "x26", "x36", "x48", "x54",
    "y20", "y21", "y22", "y25", "y26", "y27", "y58", "y60", "y64", "y76",
)

NAMED_DEGREES = {name: int(name[1:]) for name in NAMED_GENERATOR_NAMES}


@dataclass(frozen=True)
class NamedGenerator:
    name: str
    element: Element
    degree: int


def raw_evaluator() -> Evaluator:
    """Evaluator over the eight algebra generators only."""
    return Evaluator({n: gen(n) for n in
                      COMM_NAMES + ("a9", "c17")})


def build_named_generators(d: Differential) -> dict:
    """All 18 named cocycle generators, verified to be killed by d."""
    ev = raw_evaluator()
    table = {}
    for name, formula in _NAMED_FORMULAS.items():
        table[name] = NamedGenerator(name, ev(formula), NAMED_DEGREES[name])
    for name, q in _PARTIAL2_NAMED.items():
        table[name] = NamedGenerator(name, partial2(ev(q)), NAMED_DEGREES[name])
    _, x26 = select_x26(d)
    table["x26"] = NamedGenerator("x26", x26, 26)
    for g in table.values():
        if g.element.degree() != g.degree:
            raise RuntimeError(f"{g.name}: representative has wrong degree")
        if not d(g.element).is_zero():
            raise RuntimeError(f"{g.name}: representative is not a cocycle")
    return table


def named_evaluator(named: dict) -> Evaluator:
    """Evaluator over raw generators plus the named cocycles of ``named``
    (a table from ``build_named_generators``)."""
    table = dict(raw_evaluator().table)
    table.update((name, g.element) for name, g in named.items())
    return Evaluator(table)


# multipliers of the second-derivative families, with witness builders:
# w * partial2(Q) = d(witness(Q, partial(Q))) for every Q in S
FAMILY_WITNESS = {
    "a9": lambda q, p: p,
    "y21": lambda q, p: gen("a4") * q + gen("b12") * p,
    "y25": lambda q, p: gen("a8") * q + gen("b16") * p,
    "y27": lambda q, p: gen("a10") * q + gen("b18") * p,
    "x26": lambda q, p: -(gen("a9") * q + gen("c17") * p),
}


# -- structural identities --------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    label: str
    ok: bool
    residual: Element


def check_bridge_identity(q: Element, d: Differential) -> IdentityCheck:
    """x26 * partial2(-Q) = d(a9*Q + c17*partial(Q)), Q in S."""
    _, x26 = select_x26(d)
    lhs = x26 * partial2(-q)
    rhs = d(gen("a9") * q + gen("c17") * partial(q))
    res = lhs - rhs
    return IdentityCheck("bridge", res.is_zero(), res)


def check_coboundary_factorizations(q: Element, d: Differential) -> list:
    """The five ways a second derivative becomes a coboundary.

    Each returns an IdentityCheck for  w * partial2(Q) = d(witness).
    """
    named = build_named_generators(d)
    p, p2 = partial(q), partial2(q)
    out = []
    for label, witness in FAMILY_WITNESS.items():
        res = named[label].element * p2 - d(witness(q, p))
        out.append(IdentityCheck(label, res.is_zero(), res))
    return out


# -- the catalog of first and second derivative images ----------------------

# One row per cube-free b-monomial: (Q, displayed dQ, displayed d2Q forms).
# The last d2Q form of each multi-form row is the fully expanded polynomial;
# y-symbols refer to the named cocycles above.
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
    partial_machine: str
    partial2_machine: str
    partial_display: DisplayVerdict
    partial2_displays: tuple
    expanded_ok: bool       # last display matches machine up to one row sign


def _classify(display: str, machine: Element, ev: Evaluator) -> DisplayVerdict:
    poly = parse_poly(display)
    names = sorted({n for mono in poly for n, _ in mono if n in _FLIPPABLE})
    best = None
    for flips in product((1, -1), repeat=len(names)):
        fl = dict(zip(names, flips))
        val = Element.zero()
        for mono, c in poly.items():
            s = c
            for n, e in mono:
                if n in fl and e % 2:
                    s *= fl[n]
            val = val + ev.monomial(mono).scaled(s)
        for row_sign in (1, -1):
            if val.scaled(row_sign) == machine:
                used = tuple(n for n in names if fl[n] < 0)
                if row_sign < 0:
                    used = used + ("row",)
                if best is None or len(used) < len(best):
                    best = used
    if best is None:
        return DisplayVerdict(display, "mismatch")
    if not best:
        return DisplayVerdict(display, "exact")
    return DisplayVerdict(display, "sign_flip", best)


def derivative_catalog_report(d: Differential) -> list:
    """Machine verification of every catalog row against its displays."""
    ev = named_evaluator(build_named_generators(d))
    rows = []
    for q_text, dq_text, d2q_texts in DERIVATIVE_CATALOG:
        q = ev(q_text)
        p, p2 = partial(q), partial2(q)
        dq_verdict = _classify(dq_text, p, ev)
        d2q_verdicts = tuple(_classify(t, p2, ev) for t in d2q_texts)
        expanded = d2q_verdicts[-1]
        rows.append(CatalogRow(
            q_text, p.text(), p2.text(), dq_verdict, d2q_verdicts,
            expanded.verdict == "exact"
            or expanded.flips in ((), ("row",))))
    return rows
