import pytest

from conftest import class_element
from cotor.cohomology import (
    additive_basis_classes, expand_rational, poincare_coeffs,
)
from cotor.dga import gen
from cotor.gf3 import Echelon


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
    assert engine.homology_dims(n_max) == engine.series_coeffs(n_max)


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
