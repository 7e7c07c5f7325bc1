import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

import cotor
from conftest import monomial_weight, monomials, of_mono, parse_monomial
from cotor.dga import (
    A9, C17, COMM_DEGREES, COMM_NAMES, EXPS_MASK, ONE_KEY, UNIT,
    WORD_DEGREES, Element, Monomial, encode, enumerate_basis, gen, grading,
)
from cotor import differential
from cotor.differential import (
    PREFIX_DEPTH, Differential, audit_conventions, select_x26,
)
from cotor.engine import Engine
from cotor.spectral import SpectralSequence

# -- reference: d by the factor-by-factor Leibniz loop ---------------------
#
# d(x_1 ... x_k) = sum_i eps(x_1 ... x_{i-1}) x_1 ... x_{i-1} d(x_i) x_{i+1} ... x_k
# over the canonical factor sequence (word letters, then commutative
# generators), each term re-multiplied as Elements.  `Differential`
# regroups the same sum by peeling off the last factor; this loop is kept
# here as an independent route to the same matrices.

_REF_EPS = {"parity": lambda deg: -1 if deg % 2 else 1,
            "plus": lambda deg: 1,
            "minus": lambda deg: -1}


def _ref_d_factor(kind, g):
    """d on one generator: c17 -> a9^2, b_j -> -a9*a_{j-8}, others 0."""
    if kind == "w":
        return gen("a9") * gen("a9") if g == C17 else None
    if g < 3:
        return None
    return -(gen("a9") * gen(COMM_NAMES[g - 3]))


def _exps_of(factors) -> tuple:
    exps = [0] * 6
    for kind, g, _ in factors:
        if kind == "c":
            exps[g] += 1
    return tuple(exps)


def d_mono(m: Monomial, convention: str = "parity") -> Element:
    factors = ([("w", x, WORD_DEGREES[x]) for x in m.word]
               + [("c", g, COMM_DEGREES[g])
                  for g, e in enumerate(m.exps) for _ in range(e)])
    out = Element.zero()
    sign = 1
    for i, (kind, g, deg) in enumerate(factors):
        dg = _ref_d_factor(kind, g)
        if dg is not None:
            # prefix and suffix are themselves normal-form monomials
            wsplit = i if kind == "w" else len(m.word)
            prefix = Monomial(m.word[:wsplit], _exps_of(factors[len(m.word):i]))
            suffix = Monomial(m.word[wsplit + 1:] if kind == "w" else (),
                              _exps_of(factors[i + 1:]))
            out = out + (Element({prefix: 1}) * dg
                         * Element({suffix: 1})).scaled(sign)
        sign *= _REF_EPS[convention](deg)
    return out


@pytest.fixture(scope="module")
def d():
    return Differential("parity")


def test_values_on_generators(d):
    assert d(gen("c17")) == gen("a9") * gen("a9")
    for name in ("a4", "a8", "a10", "a9"):
        assert d(gen(name)).is_zero()
    assert d(gen("b16")) == -(gen("a9") * gen("a8"))
    assert d(gen("b12")) == -(gen("a9") * gen("a4"))
    assert d(gen("b18")) == -(gen("a9") * gen("a10"))


def test_product_rule_on_a_mixed_product(d):
    a9, a4, a8, c17 = gen("a9"), gen("a4"), gen("a8"), gen("c17")
    expected = (-(a9 * a4 * gen("b16")) - a9 * a8 * gen("b12")
                - c17 * a4 * a8)
    assert d(gen("b12") * gen("b16")) == expected


def test_degree_raised_by_one(d):
    rng = random.Random(5)
    for n in (12, 17, 29, 36):
        basis = enumerate_basis(n)
        for m in rng.sample(list(monomials(basis)), min(6, len(basis))):
            img = of_mono(d, m)
            if not img.is_zero():
                assert img.degree() == n + 1


def test_square_zero_small_degrees(d):
    for n in range(41):
        for m in monomials(enumerate_basis(n)):
            assert d(of_mono(d, m)).is_zero()


def test_derivation_property_random_pairs(d):
    rng = random.Random(23)

    def rand_homog():
        while True:
            n = rng.randint(1, 22)
            basis = enumerate_basis(n)
            if len(basis):
                break
        return Element({m: rng.randint(1, 2) for m in
                        rng.sample(list(monomials(basis)),
                                   rng.randint(1, min(3, len(basis))))})

    for _ in range(300):
        x, y = rand_homog(), rand_homog()
        assert d.leibniz(x, y) == d(x * y)


def test_image_purity(d):
    # no term of any differential lies in the commutative subalgebra
    for n in range(35):
        for m in monomials(enumerate_basis(n)):
            for t in of_mono(d, m).terms:
                assert len(t.word) >= 1


def test_matrix_degree_zero():
    m = Engine(convention="parity").d_matrix(0)
    assert (m.n_rows, m.n_cols) == (0, 1)
    assert m.nnz == 0


def test_matrix_degree_17():
    # three monomials upstairs; only the word letter of degree 17 maps,
    # hitting the squared odd letter with coefficient 1
    b17, b18 = enumerate_basis(17), enumerate_basis(18)
    m = Engine(convention="parity").d_matrix(17)
    assert (m.n_rows, m.n_cols) == (4, 3)
    col = b17.keys.index(encode(parse_monomial("c17")))
    row = b18.keys.index(encode(parse_monomial("a9 a9")))
    assert m.entries == {(row, col): 1}


def test_matrix_degree_12_column():
    b12, b13 = enumerate_basis(12), enumerate_basis(13)
    m = Engine(convention="parity").d_matrix(12)
    col = b12.keys.index(encode(parse_monomial("b12")))
    entries = {r: v for (r, c), v in m.entries.items() if c == col}
    assert entries == {b13.keys.index(encode(parse_monomial("a9 | a4"))): 2}


def test_unsigned_rule_is_inconsistent():
    d_plus = Differential("plus")
    b12, a9 = gen("b12"), gen("a9")
    lhs = d_plus.leibniz(b12, a9)
    rhs = d_plus(b12 * a9)
    diff = lhs - rhs
    # the two factorizations disagree by a nonzero word-square term
    assert not diff.is_zero()
    assert diff == (a9 * a9 * gen("a4")).scaled(2)


def test_audit_selects_parity():
    report = audit_conventions(degree_bound=15, pair_samples=80, seed=2)
    assert report.admissible == ["parity"]
    assert report.selected == "parity"


def test_audit_fails_loudly_without_candidates():
    with pytest.raises(RuntimeError):
        audit_conventions(degree_bound=8, pair_samples=10,
                          candidates=("plus", "minus"))


def _audit_every_pair(degree_bound, pair_samples, seed, pair_max_degree=20):
    """Reference audit: every pair checked against every candidate, also
    after the candidate's third counterexample."""
    rng = random.Random(seed)
    bases = [enumerate_basis(n)
             for n in range(max(degree_bound, pair_max_degree) + 1)]
    gens = [gen(n) for n in COMM_NAMES] + [gen("a9"), gen("c17")]
    pairs = [(x, y) for x in gens for y in gens]
    pairs += [(differential._random_homogeneous(rng, bases, pair_max_degree),
               differential._random_homogeneous(rng, bases, pair_max_degree))
              for _ in range(pair_samples)]
    verdicts = []
    for name in differential.CONVENTIONS:
        d = Differential(name)
        v = differential.ConventionVerdict(name, True)
        for x, y in pairs:
            try:
                lhs = d.leibniz(x, y)
            except ValueError:
                v.admissible = False
                break
            rhs = d(x * y)
            if lhs != rhs:
                v.admissible = False
                if len(v.factorization_failures) < 3:
                    v.factorization_failures.append(
                        (x.text(), y.text(), (lhs - rhs).text()))
        if v.admissible:
            for n in range(degree_bound + 1):
                for m in monomials(bases[n]):
                    ddm = d(of_mono(d, m))
                    if not ddm.is_zero():
                        v.admissible = False
                        if len(v.dd_failures) < 3:
                            v.dd_failures.append((m.text(), ddm.text()))
                if not v.admissible:
                    break
        verdicts.append(v)
    return verdicts


@pytest.mark.parametrize("degree_bound,pair_samples,seed",
                         [(12, 60, 0), (15, 80, 2), (40, 1000, 0)])
def test_audit_stops_a_rejected_rule_with_the_same_verdicts(
        monkeypatch, degree_bound, pair_samples, seed):
    calls = {}
    leibniz = Differential.leibniz

    def counted(self, x, y):
        calls[self.convention] = calls.get(self.convention, 0) + 1
        return leibniz(self, x, y)

    monkeypatch.setattr(Differential, "leibniz", counted)
    report = audit_conventions(degree_bound=degree_bound,
                               pair_samples=pair_samples, seed=seed)
    monkeypatch.setattr(Differential, "leibniz", leibniz)
    assert report.verdicts == _audit_every_pair(degree_bound, pair_samples,
                                                seed)
    # parity checks every pair; plus stops at its third counterexample
    assert calls["parity"] == 64 + pair_samples
    assert calls["plus"] < 64
    assert [len(v.factorization_failures) for v in report.verdicts] == [
        0, 3, 3]


def test_audit_works_each_image_once(monkeypatch):
    # the square-zero pass drops the images of a degree only once no later
    # image reads them as a prefix: none is worked twice, and every basis
    # monomial through the bound is worked
    worked = []
    leibniz = Differential._leibniz

    def recording(self, shifted, n, m):
        worked.append(m)
        return leibniz(self, shifted, n, m)

    monkeypatch.setattr(Differential, "_leibniz", recording)
    assert differential._square_zero_failures(
        Differential("parity"), [enumerate_basis(n) for n in range(61)],
        60) == []
    assert len(worked) == len(set(worked))
    assert set(worked) >= {k for n in range(61)
                           for k in enumerate_basis(n).keys}


def test_audit_reports_a_planted_square_zero_fault():
    # a parity rule that negates the sign of degree-30 monomials still
    # passes the factorization samples (Differential.eps reads the degree,
    # not _EPS), and square-zero first fails at degree 41, on 6 monomials.
    # The pass reports the same three as the per-monomial Element route,
    # in basis order.  Patched by hand, not through a fixture, so that the
    # python -O test below can call this directly.
    real = differential._EPS["parity"]
    differential._EPS["parity"] = (
        lambda k, n: -real(k, n) if n == 30 else real(k, n))
    try:
        verdicts = _audit_every_pair(45, 60, 0)
        message = "no candidate sign convention is admissible: " + "; ".join(
            f"{v.convention}: {v.factorization_failures or v.dd_failures}"
            for v in verdicts)
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            audit_conventions(degree_bound=45, pair_samples=60)
    finally:
        differential._EPS["parity"] = real
    assert [m for m, _ in verdicts[0].dd_failures] == [
        "a9 | a8 b12^2", "a9 | a4 b12 b16", "a9 | a4^2 b12^2"]
    assert verdicts[0].factorization_failures == []


def test_planted_square_zero_fault_survives_python_O():
    # the audit's refusal is not an assert: the test above passes under -O
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    code = ("import test_differential as t; "
            "t.test_audit_reports_a_planted_square_zero_fault(); "
            "print('refused')")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr


def _sampler_before(rng, max_degree):
    """The audit's pair sampler as it was, enumerating the basis of every
    degree up to ``max_degree`` on every draw."""
    n = rng.choice([d for d in range(1, max_degree + 1)
                    if len(enumerate_basis(d)) > 0])
    basis = enumerate_basis(n)
    k = rng.randint(1, min(3, len(basis)))
    return Element({m: rng.randint(1, 2)
                    for m in rng.sample(list(monomials(basis)), k)})


def test_audit_enumerates_each_basis_once(monkeypatch):
    calls = []
    enumerate_once = differential.enumerate_basis
    monkeypatch.setattr(differential, "enumerate_basis",
                        lambda n: calls.append(n) or enumerate_once(n))
    report = audit_conventions(degree_bound=12, pair_samples=60,
                               pair_max_degree=20)
    assert len(calls) <= 20 + 12 + 1
    # the report of the sampler as it was
    assert report.selected == "parity" and report.admissible == ["parity"]
    assert {v.convention: v.factorization_failures
            for v in report.verdicts} == {
        "parity": [],
        "plus": [("+1*b12", "+1*a9", "+2*a9 a9 | a4"),
                 ("+1*b12", "+1*c17", "+2*c17 a9 | a4"),
                 ("+1*b16", "+1*a9", "+2*a9 a9 | a8")],
        "minus": [("+1*a4", "+1*c17", "+1*a9 a9 | a4"),
                  ("+1*a8", "+1*c17", "+1*a9 a9 | a8"),
                  ("+1*a10", "+1*c17", "+1*a9 a9 | a10")]}
    # the generator pairs come first, so also pin the random draws
    bases = [enumerate_once(n) for n in range(21)]
    before, now = random.Random(0), random.Random(0)
    for _ in range(120):
        assert differential._random_homogeneous(now, bases, 20) \
            == _sampler_before(before, 20)


def test_word_cocycle_selection(d):
    coeffs, x26 = select_x26(d)
    assert coeffs == (1, 1)
    assert x26.degree() == 26
    assert d(x26).is_zero()
    # the opposite relative sign is not a cocycle
    m1 = Monomial((0, 1), (0,) * 6)
    m2 = Monomial((1, 0), (0,) * 6)
    assert not d(Element({m1: 1, m2: 2})).is_zero()


@pytest.mark.parametrize("scheme", ["weight_s3", "may_s5"])
def test_filtration_compatibility(d, scheme):
    for n in range(30):
        for m in monomials(enumerate_basis(n)):
            w = monomial_weight(m, scheme)
            for t in of_mono(d, m).terms:
                assert monomial_weight(t, scheme) >= w


def test_mono_rule_matches_per_convention():
    m = parse_monomial("c17 | b12")
    for conv in ("parity", "plus", "minus"):
        img = d_mono(m, conv)
        assert img.degree() == 30


@pytest.mark.parametrize("convention", ["parity", "plus", "minus"])
def test_of_mono_matches_the_factor_loop(convention):
    d = Differential(convention)
    for n in range(46):
        for m in monomials(enumerate_basis(n)):
            assert of_mono(d, m) == d_mono(m, convention), (n, m.text())


def test_construction_refuses_a_term_outside_its_block():
    # d(b16) = -a9*a8 is built as -(1*a9)*a8 from times_a9 of the empty
    # prefix; a times_a9 that gives one more term, which times a8 is c17,
    # plants a term of degree 17 in another Z^4 block (c17 carries the
    # a9-degree twice).  b16 is the one column of degree 16 whose step
    # calls times_a9 on the empty prefix.  Patched by hand, not through a
    # fixture, so that the python -O test below can call this directly.
    engine = Engine(convention="parity")
    b16, b17 = engine.basis(16), engine.basis(17)
    col, row, outside = (encode(parse_monomial(t))
                         for t in ("b16", "a9 | a8", "c17"))
    m = engine.d_matrix(16)
    assert m.entries[b17.keys.index(row), b16.keys.index(col)] == 2
    engine = Engine(convention="parity")
    engine.build_range(15)
    real = differential.times_a9

    def planted(k):
        out = real(k)
        if k == ONE_KEY:
            out.append((outside - UNIT[COMM_NAMES.index("a8")], 1))
        return out

    differential.times_a9 = planted
    try:
        with pytest.raises(RuntimeError, match=(
                f"d of degree 16 leaves a Z.4 block: column "
                f"{b16.keys.index(col)} has an entry in row {outside} ")):
            engine.d_matrix(16)
    finally:
        differential.times_a9 = real
    # the copy route refuses the same way.  The a4-divisible column a4*b16
    # of degree 20 is a copy of b16's column in d_16, whose one row is
    # a9 | a8; given the position of c17 (another block of degree 17) as
    # that row, the copy lands on c17 | a4, outside a4*b16's block
    engine = Engine(convention="parity")
    engine.build_range(19)
    b17, b20 = engine.basis(17), engine.basis(20)
    col, source, other = (encode(parse_monomial(t))
                          for t in ("a4 b16", "b16", "c17"))
    d16 = engine._d[16]
    rows, *rest = d16[grading(source)]
    assert rows == (b17.keys.index(encode(parse_monomial("a9 | a8"))),)
    d16[grading(source)] = ((b17.keys.index(other),), *rest)
    with pytest.raises(RuntimeError, match=(
            f"d of degree 20 leaves a Z.4 block: column "
            f"{b20.keys.index(col)} has an entry in row "
            f"{other + UNIT[COMM_NAMES.index('a4')]} ")):
        engine.d_matrix(20)


def test_construction_refusal_survives_python_O():
    # the refusals are not asserts: the test above, on both the Leibniz
    # route and the a4 copy route, passes under python -O
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    code = ("import test_differential as t; "
            "t.test_construction_refuses_a_term_outside_its_block(); "
            "print('refused')")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "refused\n"), proc.stderr


@pytest.mark.parametrize("text", ["a9 c17 | a8 b12 b16 b18",
                                  "a9 a9 | a4 b12^2 b16 b18",
                                  "a9 a9 | a10 b12^3 b16"])
def test_of_mono_cold_in_degree_80(text):
    # a fresh Differential has no lower degree memoized: the recursion
    # builds the whole chain of prefixes itself
    m = parse_monomial(text)
    assert m.degree() == 80
    d = Differential("parity")
    assert of_mono(d, m) == d_mono(m, "parity")


def test_matrices_bit_identical_through_degree_60():
    # sha256 of the concatenated GF3MAT texts, as built by the factor loop
    engine = Engine(convention="parity")
    text = "".join(engine.d_matrix(n).serialize() for n in range(61))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c5afe3c9096821cd593555d5ef434225bace15635d8e93931520e8988fecf9da")


# sha256 of the GF3MAT texts of d_0..d_95, concatenated, per convention;
# pinned from the matrices of the Monomial-keyed recursion, before the
# recursion moved to integer keys
D95_SHA256 = {
    "parity": "6bec6e323ad4c4601911b54dafebcfb6"
              "a8120ad2de82194ac16aa0f3606c58c7",
    "plus": "e469ca451cb615f1cadd992db2bc6500"
            "1ac0eadeefc42125834a65afccd5c34b",
    "minus": "c5125b9254845a9d5f7e054df9ff2207"
             "0b7cd027a6d56837b79bebbb38264844",
}


@pytest.mark.parametrize("convention", ["parity", "plus", "minus"])
def test_matrices_bit_identical_through_degree_95(convention):
    engine = Engine(convention=convention)
    text = "".join(engine.d_matrix(n).serialize() for n in range(96))
    assert hashlib.sha256(text.encode()).hexdigest() == D95_SHA256[convention]


# sha256 of the GF3MAT texts of d_0..d_120 (parity), concatenated; pinned
# from the matrices of the Leibniz route, before the a4-divisible columns
# became copies of d_{n-4}'s columns
D120_SHA256 = ("a2c03f8a9e209ef3d4aa23237499f458"
               "42d57ea4c83d89cafb6d1c1e3855c7e7")


def test_matrices_bit_identical_through_degree_120():
    engine = Engine(convention="parity")
    digest = hashlib.sha256()
    for n in range(121):
        digest.update(engine.d_matrix(n).serialize().encode())
    assert digest.hexdigest() == D120_SHA256


@pytest.mark.parametrize("convention", ["parity", "plus", "minus"])
def test_every_column_through_degree_70_is_d_of_its_monomial(convention):
    # Differential.__call__ recurses on prefixes by key and never copies a
    # column by a4, so it is the reference for the columns matrix copies
    engine = Engine(convention=convention)
    for n in range(71):
        cols, rows = engine.basis(n), engine.basis(n + 1)
        images = {}
        for r, c, v in engine.d_matrix(n).triples():
            images.setdefault(c, {})[monomials(rows)[r]] = v
        for c, m in enumerate(monomials(cols)):
            column = Element(images.get(c, {}))
            assert column == of_mono(engine.d, m), (
                f"d_{n} column {c} ({m.text()}) is {column.text()}")


@pytest.mark.parametrize("convention,copies", [
    ("parity", True), ("plus", True), ("minus", False)])
def test_a4_divisible_columns_are_copies_where_eps_of_a4_is_one(
        monkeypatch, convention, copies):
    # eps(a4) is +1 under parity and plus, -1 under minus; there d(a4*m)
    # is not a4*d(m), and every column takes the Leibniz route
    built = []
    leibniz = Differential._leibniz

    def recording(self, shifted, n, m):
        built.append(m)
        return leibniz(self, shifted, n, m)

    monkeypatch.setattr(Differential, "_leibniz", recording)
    engine = Engine(convention=convention)
    for n in range(61):
        engine.d_matrix(n)
    # a4 has the highest exponent field, so its multiples are the keys
    # whose exponents are at least its unit
    a4 = UNIT[COMM_NAMES.index("a4")]
    divisible = {k for n in range(61) for k in engine.basis(n).keys
                 if (k & EXPS_MASK) >= a4}
    assert len(divisible) > 1000
    assert bool(divisible & set(built)) is not copies
    assert set(built) >= {k for n in range(61)
                          for k in engine.basis(n).keys} - divisible
    # the columns kept for the Leibniz route hold no a4-divisible prefix
    # when none is read
    kept = {k for window in engine._columns.values()
            for columns in window.values() for k in columns}
    assert kept and bool(kept & divisible) is not copies


def _grading(m: Monomial) -> tuple:
    """g(a4), g(a8), g(a10), g(a9) are the unit vectors, g(c17) = 2 g(a9)
    and g(b_j) = g(a_{j-8}) + g(a9)."""
    e, b = m.exps, sum(m.exps[3:])
    return (e[0] + e[3], e[1] + e[4], e[2] + e[5],
            m.word.count(A9) + 2 * m.word.count(C17) + b)


def test_d_preserves_the_internal_grading(engine):
    for n in range(91):
        cols, rows = engine.basis(n), engine.basis(n + 1)
        for (r, c) in engine.d_matrix(n).entries:
            assert _grading(monomials(rows)[r]) == _grading(monomials(cols)[c])
        # the packed labels the blocks are keyed by name the same blocks,
        # and the blocks' ascending positions cover the basis once
        assert sorted(i for at in cols.blocks.values() for i in at) == list(
            range(len(cols)))
        assert all(list(at) == sorted(at) for at in cols.blocks.values())
        label = {i: g for g, at in cols.blocks.items() for i in at}
        pairs = set(zip(map(label.get, range(len(cols))),
                        map(_grading, monomials(cols))))
        assert len(pairs) == len(cols.blocks) == len({g for _, g in pairs})


def test_differential_holds_no_images_between_calls():
    engine = Engine(convention="parity")
    for n in range(101):
        engine.d_matrix(n)
    assert PREFIX_DEPTH == 18
    # while degrees are built in turn, the engine keeps d's columns by key
    # only for the degrees a build of degree 101 reads; a finished
    # build_range keeps none
    assert min(engine._columns) > 100 - PREFIX_DEPTH
    engine.build_range(100)
    assert engine._columns == {}
    # d keeps its sign rule and nothing else: neither the build nor a call
    # leaves an image of a monomial behind
    assert set(vars(engine.d)) == {"convention", "_eps"}
    x = parse_monomial("a9 c17 | a8 b12 b16 b18")
    assert of_mono(engine.d, x) == d_mono(x, "parity")
    assert set(vars(engine.d)) == {"convention", "_eps"}
    # the filtration check reads the matrices, not the recursion
    assert SpectralSequence(engine, "may_s5") \
        .check_filtration_compatibility(100)
    assert engine._columns == {}
    # low degrees are rebuilt on demand, and still right
    for text in ("c17 | b12", "a9 c17 a9 | b16 b18", "c17 c17 | a4 b12^2"):
        m = parse_monomial(text)
        assert of_mono(engine.d, m) == d_mono(m, "parity"), text
    assert set(vars(engine.d)) == {"convention", "_eps"}


def _built_degrees(engine) -> list:
    """The degrees whose d the engine builds (rather than loads) from now
    on, whole or in part, in the order the builds end."""
    built, matrix = [], engine.d.matrix

    def recording(n, *args):
        m = matrix(n, *args)
        built.append(n)
        return m

    engine.d.matrix = recording
    return built


def test_builds_on_prefixes_loaded_from_the_cache(tmp_path):
    Engine(convention="parity", cache_dir=tmp_path).build_range(60)
    engine = Engine(convention="parity", cache_dir=tmp_path)
    built = _built_degrees(engine)
    text = "".join(engine.d_matrix(n).serialize() for n in range(96))
    assert built == list(range(61, 96))
    assert hashlib.sha256(text.encode()).hexdigest() == D95_SHA256["parity"]


def test_a_degree_asked_first_equals_the_ascending_build():
    ascending = Engine(convention="parity")
    ascending.build_range(80)
    engine = Engine(convention="parity")
    built = _built_degrees(engine)
    assert engine.d_matrix(80).serialize() == \
        ascending.d_matrix(80).serialize()
    # d_80 read its prefixes from lower d_k the engine built for it
    assert built[-1] == 80 and 76 in built and 62 in built


@pytest.mark.parametrize("convention", ["parity", "plus", "minus"])
def test_blocks_asked_in_any_order_equal_the_whole_matrices(convention):
    # each block is built on demand after the lower blocks it reads, so the
    # order blocks are asked in changes nothing: every (degree, grading)
    # through 70, in a seeded shuffle, against whole matrices of another
    # engine, and d_n assembled from the blocks in basis order after that.
    # Blocks asked early build most lower ones, so each block of degrees
    # 60 to 70 is also asked alone on an engine that holds no block: a
    # lower block its build reads and its plan missed is a KeyError
    engine, whole = Engine(convention=convention), Engine(convention=convention)
    for n in range(60, 71):
        for g in whole.basis(n).blocks:
            alone = Engine(convention=convention)
            alone._bases = whole._bases         # enumerated once
            assert alone.d_blocks(n, [g]) == {
                g: whole.d_matrix(n).blocks.get(g)}, (n, g)
    asked = [(n, g) for n in range(71) for g in engine.basis(n).blocks]
    random.Random(7).shuffle(asked)
    for n, g in asked:
        assert engine.d_blocks(n, [g]) == {
            g: whole.d_matrix(n).blocks.get(g)}, (n, g)
    for n in range(71):
        assert list(engine.d_matrix(n).blocks.items()) == list(
            whole.d_matrix(n).blocks.items()), n
        assert engine.d_matrix(n).serialize() == \
            whole.d_matrix(n).serialize(), n


def test_a_copy_source_the_plan_missed_is_a_key_error(monkeypatch):
    # the a4 copies of a block read their source in d_{n-4} from the blocks
    # held, as the Leibniz route reads its prefixes: with a4 dropped from
    # the build plan's stencil, the widest block of d_40 finds its source
    # unbuilt and refuses, where it would copy zeros
    blocks = Engine(convention="parity").basis(40).blocks
    g = max(blocks, key=lambda h: len(blocks[h]))
    monkeypatch.setattr(cotor.engine, "STENCIL", differential.STENCIL[1:])
    with pytest.raises(KeyError):
        Engine(convention="parity").d_blocks(40, [g])


def test_on_demand_blocks_keep_d_through_degree_120():
    # blocks first asked one at a time, high degrees first, and then the
    # whole matrices in turn: still the pinned bytes
    engine = Engine(convention="parity")
    rng = random.Random(11)
    for n in range(120, 40, -7):
        gradings = list(engine.basis(n).blocks)
        engine.d_blocks(n, rng.sample(gradings, min(5, len(gradings))))
    # held in part (degree 43 is filled by the blocks higher ones read)
    assert all(len(engine._d[n]) < len(engine.basis(n).blocks)
               for n in range(120, 49, -7))
    digest = hashlib.sha256()
    for n in range(121):
        digest.update(engine.d_matrix(n).serialize().encode())
    assert digest.hexdigest() == D120_SHA256


def test_a_block_asked_where_the_cache_holds_d_is_loaded(tmp_path):
    # a block of a degree the cache holds reads the file whole and builds
    # nothing; a degree built in part is never stored
    Engine(convention="parity", cache_dir=tmp_path).d_matrix(40)
    engine = Engine(convention="parity", cache_dir=tmp_path)
    built = _built_degrees(engine)
    g = next(iter(engine.basis(40).blocks))
    assert engine.d_blocks(40, [g]) == {g: engine.d_matrix(40).blocks.get(g)}
    assert built == []
    engine.d_blocks(44, list(engine.basis(44).blocks)[:3])
    assert 44 in built and len(engine._d[44]) == 3
    assert sorted(os.listdir(engine.cache.dir)) == ["d_40.gf3mat"]
