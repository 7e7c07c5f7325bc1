"""The benchmark's own model of the algebra, written apart from ``cotor``.

Everything the checks compare the program against is computed here from
the defining data alone: the normal form, the rewrite, the differential
under the total-degree parity rule, the named cocycles, and the two
series (basis counts and the closed-form Poincare series).  Nothing here
imports ``cotor``.

An element is a dict ``{(word, exps): coeff}`` with coefficients in
{1, 2}.  ``word`` is a tuple over {0: a9, 1: c17}; ``exps`` gives the
exponents of (a4, a8, a10, b12, b16, b18).  This is the same normal form
the program prints, so terms can be passed across unchanged.
"""

from __future__ import annotations

import itertools
import re

A9, C17 = 0, 1
LETTERS = {"a9": A9, "c17": C17}
EVEN = ("a4", "a8", "a10", "b12", "b16", "b18")
EVEN_DEGREES = (4, 8, 10, 12, 16, 18)
ZERO = (0, 0, 0, 0, 0, 0)
# the rewrite b_j * a9 = a9 * b_j + c17 * a_{j-8}, by exponent index
REWRITE = {3: 0, 4: 1, 5: 2}


def _unit(i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(6))


def _add_exps(e, f) -> tuple:
    return tuple(x + y for x, y in zip(e, f))


def _acc(out: dict, key, c: int):
    c = (out.get(key, 0) + c) % 3
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def add(x: dict, y: dict, scale: int = 1) -> dict:
    """x + scale * y."""
    out = dict(x)
    for k, c in y.items():
        _acc(out, k, scale * c)
    return out


def _even_through_word(exps: tuple, word: tuple) -> dict:
    """exps * word, rewritten to {(word', exps'): c}.

    An a-generator commutes with every letter.  b_j passes c17 freely and
    meets each a9 as  b_j a9 = a9 b_j + c17 a_{j-8};  the a_{j-8} of the
    second branch then commutes past everything, so
    b_j * w = w * b_j + sum over the a9 positions i of w[i -> c17] * a_{j-8}.
    """
    terms = {(word, tuple(exps[:3]) + (0, 0, 0)): 1}
    for b in (3, 4, 5):
        for _ in range(exps[b]):
            nxt = {}
            for (w, e), c in terms.items():
                _acc(nxt, (w, _add_exps(e, _unit(b))), c)
                for i, letter in enumerate(w):
                    if letter == A9:
                        w2 = w[:i] + (C17,) + w[i + 1:]
                        _acc(nxt, (w2, _add_exps(e, _unit(REWRITE[b]))), c)
            terms = nxt
    return terms


def mono_times(m1, m2) -> dict:
    (w1, e1), (w2, e2) = m1, m2
    out = {}
    for (w, e), c in _even_through_word(e1, w2).items():
        _acc(out, (w1 + w, _add_exps(e, e2)), c)
    return out


def mul(x: dict, y: dict) -> dict:
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            for m, c in mono_times(m1, m2).items():
                _acc(out, m, c1 * c2 * c)
    return out


def power(x: dict, k: int) -> dict:
    out = {((), ZERO): 1}
    for _ in range(k):
        out = mul(out, x)
    return out


def degree_of(m) -> int:
    w, e = m
    return (sum(9 if x == A9 else 17 for x in w)
            + sum(k * d for k, d in zip(e, EVEN_DEGREES)))


def basis(n: int) -> list:
    """All normal-form monomials of degree n, sorted."""
    out = []
    for k in range(n + 1):
        words = [w for length in range(k // 9 + 1)
                 for w in itertools.product((A9, C17), repeat=length)
                 if sum(9 if x == A9 else 17 for x in w) == k]
        for e in itertools.product(*(range((n - k) // g + 1) for g in EVEN_DEGREES)):
            if sum(x * g for x, g in zip(e, EVEN_DEGREES)) == n - k:
                out.extend((w, e) for w in words)
    return sorted(out)


# -- the differential ---------------------------------------------------------

def d_mono(m) -> dict:
    """d on one normal-form monomial, parity rule:
    d(xy) = d(x) y + (-1)^|x| x d(y) along the factor sequence
    (letters of the word, then even generators in index order)."""
    w, e = m
    out = {}
    # d(c17) = a9^2; the letters before position i have odd degrees
    for i, letter in enumerate(w):
        if letter == C17:
            _acc(out, (w[:i] + (A9, A9) + w[i + 1:], e), -1 if i % 2 else 1)
    # d(b_j) = -a9 a_{j-8}; every even prefix keeps the sign (-1)^|w|
    sign = -1 if len(w) % 2 else 1
    before = list(ZERO)
    for g in range(6):
        for k in range(e[g]):
            if g in REWRITE:
                after = list(e)
                for h in range(g):
                    after[h] = 0
                after[g] = e[g] - k - 1
                tail = _add_exps(tuple(after), _unit(REWRITE[g]))
                for (w2, e2), c in _even_through_word(tuple(before), (A9,)).items():
                    _acc(out, (w + w2, _add_exps(e2, tail)), -sign * c)
            before[g] += 1
    return out


def d(x: dict) -> dict:
    out = {}
    for m, c in x.items():
        for t, ct in d_mono(m).items():
            _acc(out, t, c * ct)
    return out


def partial(x: dict) -> dict:
    """The derivation on the word-free part: b_j -> -a_{j-8}."""
    out = {}
    for (w, e), c in x.items():
        if w:
            raise ValueError("partial: element has a word part")
        for b, a in REWRITE.items():
            if e[b]:
                e2 = list(e)
                e2[b] -= 1
                e2[a] += 1
                _acc(out, ((), tuple(e2)), -e[b] * c)
    return out


# -- generators and the named cocycles ---------------------------------------

def generator(name: str) -> dict:
    if name in LETTERS:
        return {((LETTERS[name],), ZERO): 1}
    return {((), _unit(EVEN.index(name))): 1}


def _poly(*terms) -> dict:
    """Sum of signed products of generator names, e.g. (1, "a8", "b12")."""
    out = {}
    for c, *names in terms:
        x = {((), ZERO): c % 3}
        for n in names:
            x = mul(x, generator(n))
        out = add(out, x)
    return out


def _named() -> dict:
    table = {n: generator(n) for n in EVEN + tuple(LETTERS)}
    table["y20"] = _poly((1, "a8", "b12"), (-1, "a4", "b16"))
    table["y22"] = _poly((1, "a4", "b18"), (-1, "a10", "b12"))
    table["y26"] = _poly((1, "a8", "b18"), (-1, "a10", "b16"))
    table["y21"] = _poly((1, "a9", "b12"), (-1, "c17", "a4"))
    table["y25"] = _poly((1, "a9", "b16"), (-1, "c17", "a8"))
    table["y27"] = _poly((1, "a9", "b18"), (-1, "c17", "a10"))
    table["x36"] = _poly((1, "b12", "b12", "b12"))
    table["x48"] = _poly((1, "b16", "b16", "b16"))
    table["x54"] = _poly((1, "b18", "b18", "b18"))
    for name, q in (("y58", ("b12", "b12", "b16", "b16", "b18")),
                    ("y60", ("b12", "b12", "b16", "b18", "b18")),
                    ("y64", ("b12", "b16", "b16", "b18", "b18")),
                    ("y76", ("b12", "b12", "b16", "b16", "b18", "b18"))):
        table[name] = partial(partial(_poly((1,) + q)))
    # a9 c17 + s c17 a9 is a cocycle for exactly one sign s
    cands = [_poly((1, "a9", "c17"), (s, "c17", "a9")) for s in (1, -1)]
    (table["x26"],) = [x for x in cands if not d(x)]
    return table


NAMED = _named()

_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def product_text(text: str) -> dict:
    """Evaluate one unsigned product such as ``a4^2*x36*y20``, in order."""
    out = {((), ZERO): 1}
    for tok in text.split("*"):
        tok = tok.strip()
        if tok.isdigit():
            out = add({}, out, int(tok))
            continue
        f = _FACTOR.match(tok)
        if not f or f.group(1) not in NAMED:
            raise ValueError(f"unknown factor {tok!r}")
        out = mul(out, power(NAMED[f.group(1)], int(f.group(2) or 1)))
    return out


def poly_text(text: str) -> dict:
    """Evaluate a signed sum of products, e.g. ``+a4*y26 -a8*y22``."""
    text = text.strip()
    if text in ("", "0"):
        return {}
    out = {}
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text):
        out = add(out, product_text(body), -1 if sign == "-" else 1)
    return out


# -- series ---------------------------------------------------------------------

def _divide_by(coeffs: list, k: int) -> list:
    """coeffs / (1 - t^k), truncated."""
    out = list(coeffs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return out


def basis_counts(n_max: int) -> list:
    """Coefficients of 1 / ((1 - t^9 - t^17) * prod (1 - t^d))."""
    words = [0] * (n_max + 1)
    words[0] = 1
    for n in range(1, n_max + 1):
        words[n] = (words[n - 9] if n >= 9 else 0) + (words[n - 17] if n >= 17 else 0)
    for k in EVEN_DEGREES:
        words = _divide_by(words, k)
    return words


# the closed form  P(t) = G(t) / prod_{4,8,10,36,48,54} (1 - t^k)
#                       + H(t) / prod_{26,36,48,54} (1 - t^k)
G_TERMS = (0, 20, 22, 26, -30, 40, 42, 44, 46, 48, -50, -56, 58, 60, 64, -68, 76)
H_TERMS = (9, 21, 25, 26, 27, 29, 30, 31, 34, 35, 36, 46, 47, 48, 52, 56)


def poincare(n_max: int) -> list:
    """dim H^n for n <= n_max from the closed-form series (a term -k is -t^k)."""
    total = [0] * (n_max + 1)
    for terms, dens in ((G_TERMS, (4, 8, 10, 36, 48, 54)),
                        (H_TERMS, (26, 36, 48, 54))):
        num = [0] * (n_max + 1)
        for t in terms:
            if abs(t) <= n_max:
                num[abs(t)] += -1 if t < 0 else 1
        for k in dens:
            num = _divide_by(num, k)
        total = [a + b for a, b in zip(total, num)]
    return total
