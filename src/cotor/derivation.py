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
of cube-free b-monomials.  The bridge identity is the x26 member of the
five family identities w * partial2(Q) = d(witness) built below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import (
    A9_KEY, COMM_NAMES, WORD_SHIFT, Element, decode, gen, times_a9,
)
from .differential import Differential, select_x26
from .formal import Evaluator


def partial(q: Element) -> Element:
    """The derivation on S; rejects input with a nonempty word part.

    It is read off the algebra's rewrite, E * a9 = a9 * E - c17 * partial(E):
    partial(E) is minus the c17 part of ``times_a9``, with that letter
    dropped.
    """
    out = {}
    for m, c in q.by_key.items():
        if m >= A9_KEY:
            raise ValueError("input is not in the commutative subalgebra: "
                             f"{decode(m).text()}")
        for k, e in times_a9(m):
            if k >> WORD_SHIFT == 0b11:     # the word is c17 alone: drop it
                out[k - A9_KEY] = out.get(k - A9_KEY, 0) - e * c
    return Element.from_keys(out)


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


def family_identities(q: Element, named: dict) -> list:
    """``(w, w * partial2(Q), witness)`` for the five multipliers w of
    ``FAMILY_WITNESS``, so that w * partial2(Q) = d(witness).  The x26
    entry is the bridge identity with Q -> -Q."""
    p = partial(q)
    p2 = partial(p)
    return [(w, named[w].element * p2, witness(q, p))
            for w, witness in FAMILY_WITNESS.items()]
