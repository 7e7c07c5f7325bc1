import os
import subprocess
import sys

import pytest

import cotor
from conftest import class_element, ring_monomials
from cotor.cohomology import (
    FAMILIES, _ring_monomials, additive_basis_classes, expand_rational,
    poincare_coeffs,
)
from cotor.derivation import NAMED_DEGREES, NAMED_GENERATOR_NAMES
from cotor.dga import Element, Monomial, decode, element_planes, gen
from cotor.engine import Engine
from cotor.gf3 import Echelon, Planes, bits, hstack


def test_series_first_coefficients():
    coeffs = poincare_coeffs(12)
    assert coeffs == [1, 0, 0, 0, 1, 0, 0, 0, 2, 1, 1, 0, 2]


def test_series_named_terms():
    coeffs = poincare_coeffs(30)
    assert coeffs[0] == 1
    assert coeffs[4] == 1
    assert coeffs[9] == 1          # the odd class
    assert coeffs[20] == 5


def test_series_coefficients_nonnegative():
    assert all(c >= 0 for c in poincare_coeffs(200))


def test_expand_rational_geometric():
    # 1/(1-t^4) alone
    coeffs = expand_rational({0: 1}, (4,), 12)
    assert coeffs == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_ring_monomials_from_tables_match_the_recursion():
    # the per-degree tables give the recursion's tuples in its order, for
    # every family's ring through degree 160, degrees asked out of order
    # too (a table is extended to the highest degree asked)
    for fam in FAMILIES:
        for degree in [*range(161), 7, 0, 150]:
            assert _ring_monomials(fam.ring, fam.min_exps(), degree) == \
                ring_monomials(fam.ring, fam.min_exps(), degree), (
                    fam.ring, degree)
    assert _ring_monomials(FAMILIES[0].ring, (0,) * 6, -4) == ()


def test_enumeration_count_matches_series():
    coeffs = poincare_coeffs(90)
    for n in range(91):
        assert len(additive_basis_classes(n)) == coeffs[n], n


def test_basis_degree_zero_and_nine():
    assert [c.label for c in additive_basis_classes(0).classes] == ["1"]
    assert [c.label for c in additive_basis_classes(9).classes] == ["a9"]


def test_basis_degree_twenty():
    labels = {c.label for c in additive_basis_classes(20).classes}
    assert labels == {"y20", "a4^5", "a4^3*a8", "a4*a8^2", "a10^2"}


def test_class_sides():
    by_label = {c.label: c for c in additive_basis_classes(46).classes}
    assert by_label["y20*y26"].side == "C"
    assert by_label["x26*y20"].side == "D"


def test_homology_dims_match_series_to_forty(engine):
    n_max = 40
    dims = [engine.dim_h(n) for n in range(n_max + 1)]
    assert dims == engine.series_coeffs(n_max)


def test_low_degrees_are_empty(engine):
    assert engine.dim_h(0) == 1
    for n in (1, 2, 3):
        assert len(engine.basis(n)) == 0
        assert engine.dim_h(n) == 0


def test_additive_basis_checks(engine):
    for n in (0, 9, 20, 26, 30, 42):
        assert engine.check_additive_basis(n)


def test_decompose_basis_class(engine):
    y20 = engine.named["y20"].element
    dec = engine.decompose(y20, 20)
    assert dec.coefficients == {"y20": 1}
    assert dec.witness.is_zero()


def test_decompose_coboundary(engine):
    z = engine.d(gen("b12") * gen("b16") ** 2)
    dec = engine.decompose(z, 45)
    assert dec.coefficients == {}
    assert not dec.witness.is_zero()
    assert engine.d(dec.witness) == z


def test_decompose_rejects_non_cocycle(engine):
    with pytest.raises(ValueError):
        engine.decompose(gen("b12"), 12)


def test_decompose_reconstruction(engine):
    # a class plus an honest coboundary of the same degree
    z = (engine.named["a4"].element * engine.named["y26"].element
         + engine.d(gen("c17") * gen("b12")))
    dec = engine.decompose(z, 30)
    total = engine.d(dec.witness)
    for label, c in dec.coefficients.items():
        cls = next(cl for cl in engine.additive_basis(30).classes
                   if cl.label == label)
        total = total + class_element(cls, engine.named).scaled(c)
    assert total == z
    assert dec.coefficients            # the class part is nonzero


# (degree, terms of a9*y21 and a4*y25 as [word, exps, coeff], coefficients,
# witness terms): pinned from the Monomial-keyed engine
WORKER_SAMPLES = (
    (30, [[[0, 0], [0, 0, 0, 1, 0, 0], 1], [[0, 1], [1, 0, 0, 0, 0, 0], 2]],
     {"a4*x26": 2}, [[[1], [0, 0, 0, 1, 0, 0], 1]]),
    (29, [[[0], [1, 0, 0, 0, 1, 0], 1], [[1], [1, 1, 0, 0, 0, 0], 2]],
     {"a8*y21": 2}, [[[], [0, 0, 0, 1, 1, 0], 2]]),
)


@pytest.mark.parametrize("degree,terms,coefficients,witness", WORKER_SAMPLES,
                         ids=("a9*y21", "a4*y25"))
def test_decompose_at_the_monomial_boundary(degree, terms, coefficients,
                                            witness):
    # what the benchmark's decompose worker does: an Element from Monomial
    # keys in, the witness read back as Monomials (word and exponents)
    z = Element({Monomial(tuple(w), tuple(e)): c for w, e, c in terms})
    dec = Engine(max_degree=40).decompose(z, degree)
    assert dec.coefficients == coefficients
    out = sorted(dec.witness.terms.items())
    assert all(isinstance(m, Monomial) for m, _ in out)
    assert [[list(m.word), list(m.exps), c] for m, c in out] == witness


def test_decompose_rejects_a_wrong_reconstruction(engine, monkeypatch):
    # plant a wrong class coefficient behind the solver: the explicit
    # reconstruction check must catch it (it is not an assert, so it also
    # runs under python -O)
    solve_planes = Echelon.solve_planes

    def planted(self, vp, vq):
        (xp, xq), residual = solve_planes(self, vp, vq)
        # entry 0 plus one: 0 -> 1, 1 -> 2, 2 -> 0
        if xp & 1:
            xp, xq = xp ^ 1, xq | 1
        elif xq & 1:
            xq ^= 1
        else:
            xp |= 1
        return (xp, xq), residual

    y20 = engine.named["y20"].element
    monkeypatch.setattr(Echelon, "solve_planes", planted)
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        engine.decompose(y20, 20)


def test_rank_nullity_bookkeeping(engine):
    for n in range(30):
        dim_v = len(engine.basis(n))
        kernel = dim_v - engine.rank(n)
        assert engine.dim_h(n) == kernel - engine.rank(n - 1)


# -- the blocked routes against one global solve --------------------------


def _global_columns(engine, n):
    """[every degree-n class representative | d_{n-1}] over the whole
    degree-n basis: the one matrix the engine now cuts into Z^4 blocks."""
    basis = engine.basis(n)
    cols = Planes.from_columns(len(basis), (
        element_planes(engine.representative(c), basis.index)
        for c in engine.additive_basis(n).classes))
    return hstack(cols, engine.d_matrix(n - 1)) if n >= 1 else cols


def _global_decompose(engine, z, n, solvers):
    """(coefficients, witness) of z from one solve against
    `_global_columns` (the solver is kept in ``solvers`` by degree)."""
    if n not in solvers:
        solvers[n] = Echelon(_global_columns(engine, n))
    (xp, xq), _ = solvers[n].solve_planes(
        *element_planes(z, engine.basis(n).index))
    classes = engine.additive_basis(n).classes
    prev = engine.basis(n - 1).keys
    coeffs, witness = {}, {}
    for j in bits(xp | xq):
        c = 1 if xp >> j & 1 else 2
        if j < len(classes):
            coeffs[classes[j].label] = c
        else:
            witness[decode(prev[j - len(classes)])] = c
    return coeffs, Element(witness)


def _global_basis_check(engine, n):
    """`Engine.check_additive_basis` from the rank of `_global_columns`."""
    k = len(engine.additive_basis(n))
    return k == engine.dim_h(n) and Echelon(
        _global_columns(engine, n), transform=False).rank == (
            k + engine.rank(n - 1))


def test_blocked_decompose_matches_the_global_solve(full_engine):
    # every ideal product ideal-check decomposes through degree 80, and per
    # degree their sum (several Z^4 blocks at once): the same coefficients
    # and the same witness as the global solve, and the witness is valid
    engine, solvers, count = full_engine, {}, 0
    products = {}
    for n in range(81):
        for cls in engine.additive_basis(n).classes:
            if cls.side != "D":
                continue
            for name in NAMED_GENERATOR_NAMES:
                m = n + NAMED_DEGREES[name]
                z = engine.representative(cls) * engine.named[name].element
                if m <= 80 and not z.is_zero():
                    products.setdefault(m, []).append(z)
    for m, zs in sorted(products.items()):
        by_label = {c.label: c for c in engine.additive_basis(m).classes}
        total = sum(zs, Element.zero())
        for z in zs + [total]:
            dec = engine.decompose(z, m)
            assert (dec.coefficients, dec.witness) == _global_decompose(
                engine, z, m, solvers)
            recon = sum((engine.representative(by_label[lbl]).scaled(c)
                         for lbl, c in dec.coefficients.items()),
                        Element.zero())
            assert engine.d(dec.witness) == z - recon
        count += len(zs)
    assert count == 372


def test_blocked_basis_check_matches_the_global_rank(engine):
    for n in range(101):
        assert engine.check_additive_basis(n) is _global_basis_check(
            engine, n) is True, n
    # a repeated and a zero representative make the classes dependent:
    # both routes see it
    for plant in ("a4^5", None):
        fresh = Engine(convention="parity")
        by_label = {c.label: c for c in fresh.additive_basis(20).classes}
        fresh._representatives[by_label["a10^2"]] = (
            fresh.representative(by_label[plant]) if plant
            else Element.zero())
        assert fresh.check_additive_basis(20) is False
        assert _global_basis_check(fresh, 20) is False


def test_non_homogeneous_representative_is_refused():
    # a representative spread over two Z^4 blocks cannot be solved one
    # block at a time: the basis check and decompose refuse it (not an
    # assert, so also under python -O)
    fresh = Engine(convention="parity")
    by_label = {c.label: c for c in fresh.additive_basis(20).classes}
    spread = by_label["a10^2"]
    fresh._representatives[spread] = (
        fresh.representative(spread)
        + fresh.representative(by_label["a4^5"]))
    with pytest.raises(RuntimeError, match="not Z\\^4-homogeneous"):
        fresh.check_additive_basis(20)
    with pytest.raises(RuntimeError, match="not Z\\^4-homogeneous"):
        fresh.decompose(fresh.named["y20"].element, 20)


def test_non_homogeneous_refusal_survives_python_O():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    code = ("import test_cohomology as t; "
            "t.test_non_homogeneous_representative_is_refused(); "
            "print('refused')")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr
