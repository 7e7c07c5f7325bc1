import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

import cotor
from conftest import (
    SparseMatrixF3, class_element, solve_in_image, whole_degree_relations,
)
from cotor import derivation, engine as engine_module, relations
from cotor.dga import Element, encode, gen
from cotor.differential import Differential
from cotor.engine import Engine
from cotor.formal import mono_text, monomial_degree, parse_poly, poly_text
from cotor.derivation import (
    NAMED_DEGREES, NAMED_GENERATOR_NAMES, partial, partial2,
)
from cotor.gf3 import Echelon
from cotor.relations import (
    DERIVATIVE_CATALOG, GROUP_I, GROUP_II, GROUP_III, DisplayVerdict,
    RelationRecord, _display_verdict, _match_vector, c_class_coordinates,
    derivative_catalog_report, discover_relation, express_in_c_classes,
    ideal_and_split_check, relation_catalog, verify_all, verify_relation,
    verify_witness,
)


@pytest.fixture(scope="module")
def catalog(engine):
    return {r.rid: r for r in relation_catalog(engine)}


def test_counts():
    assert len(GROUP_I) == 35
    assert len(GROUP_II) == 10
    assert len(GROUP_III) == 21


def test_group_i_transcription_degrees():
    # every printed term must match its left product's degree, except the
    # one known inhomogeneous print (left degree 124, right terms 128)
    bad = []
    for k, text in enumerate(GROUP_I, 1):
        lhs, rhs = text.split("=")
        degs = {monomial_degree(m, NAMED_DEGREES)
                for side in (lhs, rhs) for m in parse_poly(side)}
        if len(degs) != 1:
            bad.append((k, sorted(degs)))
    assert bad == [(29, [124, 128])]


def test_catalog_record_shapes(engine, catalog):
    groups = {}
    for r in catalog.values():
        groups[r.group] = groups.get(r.group, 0) + 1
    assert groups["i"] == 35
    assert groups["ii"] == 10
    # 21 listed + 5 family records per catalog row with nonzero second
    # derivative (the three single-b rows drop out)
    assert groups["iii"] == 21 + 5 * 23


def test_specific_records(engine, catalog):
    rec = next(r for r in catalog.values()
               if r.lhs_text == "y20*y22*y26")
    assert rec.degree == 68 and rec.rhs_text == "a8*y60 - a10*y58"
    rec27 = next(r for r in catalog.values()
                 if r.lhs_text == "y27*y26")
    assert rec27.witness_text == "-b16*b18^2"


def test_printed_order_equals_sorted_order_evaluation(engine):
    # the formal layer evaluates factors in sorted order; check against a
    # strict left-to-right evaluation of every printed monomial
    ev = engine.named_evaluator

    def eval_printed(text):
        total = Element.zero()
        for chunk in text.replace("- ", "+-").replace("+ ", "+").split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            acc = Element.one()
            for factor in chunk.split("*"):
                name, _, e = factor.partition("^")
                acc = acc * (ev.table[name] ** int(e or 1))
            total = total + acc.scaled(sign)
        return total

    texts = [t for rel in GROUP_I for t in rel.split("=")]
    texts += [lhs for lhs, _ in GROUP_II] + [w for _, w in GROUP_II]
    texts += [lhs for lhs, _ in GROUP_III] + [w for _, w in GROUP_III]
    for text in texts:
        assert eval_printed(text) == ev(text), text


def test_witness_examples(engine, catalog):
    # squared odd letter
    v = verify_witness(catalog["ii.01"], engine)
    assert v.verdict == "EXACT" and v.witness_sign == 1
    # mixed word-type product
    rec = next(r for r in catalog.values()
               if r.lhs_text == "y21*y25 + x26*y20")
    assert verify_witness(rec, engine).verdict == "EXACT"
    # product against a word-free class, negative witness as printed
    rec = next(r for r in catalog.values() if r.lhs_text == "y21*y20")
    assert verify_witness(rec, engine).verdict == "EXACT"


def test_witness_matrix_route_sees_one_flipped_entry(engine, catalog,
                                                    monkeypatch):
    # d with one entry v -> 3 - v in a column the witness uses: the Leibniz
    # route still agrees, so only the matrix route can catch it; an exact
    # and a signed witness.  The flip is planted in the blocks of d_{n-1}
    # that the matrix route reads (``Engine.d_blocks``)
    signed = next(r for r in catalog.values() if r.lhs_text == "a9*a4")
    for rec in (catalog["ii.01"], signed):
        n = rec.degree
        assert 0 < n <= engine.max_degree
        assert verify_witness(rec, engine).ok
        used = {engine.basis(n - 1).index[encode(m)]
                for m in rec.witness.terms}
        blocks = engine.d_blocks(n - 1, engine.blocks_of(rec.witness, n - 1))
        g, j = next((g, j) for g, block in blocks.items() if block
                    for j, (c, p, q) in enumerate(zip(*block[1:]))
                    if c in used and p | q)
        rows, cols, pos, neg = blocks[g]
        low = (pos[j] | neg[j]) & -(pos[j] | neg[j])
        pos, neg = list(pos), list(neg)
        pos[j] ^= low
        neg[j] ^= low
        flipped, real = (rows, cols, tuple(pos), tuple(neg)), engine.d_blocks

        def planted(k, gradings):
            out = real(k, gradings)
            if k == n - 1 and g in out:
                out[g] = flipped
            return out

        with monkeypatch.context() as mp:
            mp.setattr(engine, "d_blocks", planted)
            v = verify_witness(rec, engine)
        assert (v.verdict, v.note) == ("FAIL", "matrix route disagrees")


def test_verify_all_builds_a_few_columns_of_d(monkeypatch):
    # the matrix route reads d_{n-1} at the witness's Z^4 degrees alone, so
    # a whole verify_all builds those blocks and the lower blocks they are
    # built from: a few hundred of d's columns, not all of d_0..d_78
    columns, matrix = [], Differential.matrix

    def counting(self, n, bn, bn1, window, gradings=None):
        columns.extend(len(bn.blocks[g]) for g in (
            bn.blocks if gradings is None else gradings))
        return matrix(self, n, bn, bn1, window, gradings)

    monkeypatch.setattr(Differential, "matrix", counting)
    assert verify_all(Engine(convention="parity")).all_ok
    assert 0 < sum(columns) <= 300


def test_witness_matrix_route_survives_python_O():
    # neither the matrix route's refusal nor the sign search's cross-check
    # is an assert: the test above and
    # test_match_cross_check_refuses_a_wrong_span pass under -O
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         __file__, "-k", "test_witness_matrix_route_sees_one_flipped_entry"
         " or test_match_cross_check_refuses_a_wrong_span"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "2 passed" in proc.stdout


def test_all_group_ii_witnesses_exact(engine, catalog):
    for k in range(1, 11):
        v = verify_witness(catalog[f"ii.{k:02d}"], engine)
        assert v.verdict == "EXACT", v.record.lhs_text


def test_known_witness_sign_slips(engine, catalog):
    # the single-letter products are printed with the witness sign flipped
    flipped = set()
    for rid, rec in catalog.items():
        if rec.group == "iii" and rec.paper_poly:
            v = verify_witness(rec, engine)
            assert v.ok
            if v.witness_sign == -1:
                flipped.add(rec.lhs_text)
    assert flipped == {"a9*a4", "a9*a8", "a9*a10",
                       "y25*y20", "y21*y22", "y25*y26"}


def test_verify_relation_examples(engine, catalog):
    rec = next(r for r in catalog.values() if r.lhs_text == "y21*a4")
    assert verify_relation(rec, engine).verdict == "IN-IMAGE"
    # the engine-signed variant of the first identity is literally zero
    ev = engine.named_evaluator
    assert ev("a4*y26 - a8*y22 - a10*y20").is_zero()
    # a tautology
    zero = RelationRecord("z", "i", "0", "0", None, Element.zero(), None,
                          0, {})
    assert verify_relation(zero, engine).verdict == "EXACT"


def _word_record(lhs: Element, witness=None) -> RelationRecord:
    return RelationRecord("w", "iii", lhs.text(), "0", None, lhs, witness,
                          lhs.degree(), {})


def test_verify_relation_image_test_goes_through_decompose(
        engine, monkeypatch):
    # with no working witness, a word-type record is tested for im(d) by
    # Engine.decompose alone: relations builds no elimination of its own
    def no_echelon(*args, **kwargs):
        raise AssertionError("verify_relation built an Echelon")

    monkeypatch.setattr(relations, "Echelon", no_echelon)
    named = engine.named
    a9a4 = named["a9"].element * named["a4"].element
    assert verify_relation(_word_record(a9a4), engine).verdict == "IN-IMAGE"
    # a wrong witness falls back to the same test
    wrong = _word_record(a9a4, witness=gen("b16"))
    assert verify_relation(wrong, engine).verdict == "IN-IMAGE"
    # a nonzero class is not in the image
    x26y20 = named["x26"].element * named["y20"].element
    v = verify_relation(_word_record(x26y20), engine)
    assert (v.verdict, v.note) == ("FAIL", "not in image")
    # a non-cocycle is a FAIL verdict, not an exception
    chain = gen("a9") * gen("b12")
    assert not engine.d(chain).is_zero()
    v = verify_relation(_word_record(chain), engine)
    assert (v.verdict, v.note) == ("FAIL", "not a cocycle")


def test_exact_group_i_relation(engine, catalog):
    # the triple-product identity holds exactly as printed
    rec = next(r for r in catalog.values() if r.lhs_text == "y20*y22*y26")
    assert verify_relation(rec, engine).verdict == "EXACT"


def test_cube_relations_are_corrected(engine, catalog):
    # characteristic-3 cubes: the machine identities are two-term
    rec = next(r for r in catalog.values() if r.lhs_text == "y20^3")
    v = verify_relation(rec, engine)
    assert v.verdict == "CORRECTED"
    assert "y20^3" in v.engine_coeffs
    assert engine.named_evaluator("y20^3 + a4^3*x48 - a8^3*x36").is_zero()
    assert engine.named_evaluator("y22^3 - a4^3*x54 + a10^3*x36").is_zero()
    assert engine.named_evaluator("y26^3 - a8^3*x54 + a10^3*x48").is_zero()


def test_inhomogeneous_print_gets_class_expansion(engine, catalog):
    rec = catalog["i.29"]
    v = verify_relation(rec, engine)
    assert v.verdict == "CORRECTED"
    assert v.engine_coeffs.startswith("y60*y64 =")
    # the produced identity is exact
    lhs_text, rhs_text = v.engine_coeffs.split("=")
    diff = engine.named_evaluator(lhs_text) - engine.named_evaluator(rhs_text)
    assert diff.is_zero()


def test_discover_three_term_identity(engine):
    disc = discover_relation(["a4*y26", "a8*y22", "a10*y20"], 30, engine,
                             (1, -1, -1))
    assert disc.solutions == ((1, 2, 2),)
    assert disc.verdict == "exact"


def test_discover_nonzero_class_has_no_relation(engine):
    disc = discover_relation(["y20"], 20, engine)
    assert disc.solutions == ()


def test_discover_in_image_support(engine):
    # word-type support routed through the differential columns
    disc = discover_relation(["a9*a4"], 13, engine)
    assert disc.solutions == ((1,),)


@pytest.mark.parametrize("degree", [13, 26, 35, 44, 61])
def test_word_type_discovery_matches_the_whole_degree_solve(engine, degree):
    # the word-type route solves over the Z^4 blocks its support touches:
    # d preserves the grading, so these are the solutions over the whole
    # degree.  The supports mix boundaries spread over several blocks,
    # word-type monomials, a sum of the two, and the golden support
    rng = random.Random(degree)
    keys, lower = engine.basis(degree).keys, engine.basis(degree - 1).keys
    words = [Element.from_keys({k: 1}) for k in keys
             if not Element.from_keys({k: 1}).in_commutative_subalgebra()]
    bounds = [engine.d(Element.from_keys(
        {k: rng.randint(1, 2) for k in rng.sample(lower, min(3, len(lower)))}))
        for _ in range(2)]
    monos = rng.sample(words, min(3, len(words)))
    support = [bounds[0], *monos, bounds[0] + monos[0], bounds[1]]
    disc = discover_relation(support, degree, engine)
    assert disc.solutions == whole_degree_relations(support, degree, engine)
    assert len(disc.solutions) >= 2
    if degree == 13:
        elements = [engine.named_evaluator("a9*a4")]
        assert discover_relation(["a9*a4"], 13, engine).solutions == \
            whole_degree_relations(elements, 13, engine) == ((1,),)


def test_discover_printed_vector_in_span(engine):
    disc = discover_relation(["y20*y22*y26", "a8*y60", "a10*y58"], 68,
                             engine, (1, -1, 1))
    assert disc.verdict == "exact"


def test_verify_all_summary(engine):
    report = verify_all(engine)
    assert report.all_ok
    assert report.assignment is not None
    # the witness identities pin no generator flips
    assert all(s == 1 for s in report.assignment.values())
    # the full printed system (witnesses plus group-i prints) is
    # irreconcilable by any single assignment: a machine finding
    assert not report.group_i_reconcilable
    verdicts = {v.record.rid: v.verdict for v in report.verdicts}
    assert verdicts["ii.01"] == "EXACT"
    assert all(v != "FAIL" for v in verdicts.values())
    # errata carry machine vectors for every corrected record
    for entry in report.errata:
        if entry["verdict"] == "CORRECTED":
            assert entry["engine_coeffs"]
    # the group-i outcome, down to the reported flip subsets
    group_i = {v.record.rid: (v.verdict, list(v.sign_flips))
               for v in report.verdicts if v.record.group == "i"}
    pinned = {"i.01": ("SIGNED", ["a8"]), "i.04": ("SIGNED", ["a10"]),
              "i.05": ("SIGNED", ["a4"]), "i.14": ("SIGNED", ["a10"]),
              "i.10": ("EXACT", [])}
    for rid, outcome in group_i.items():
        assert outcome == pinned.get(rid, ("CORRECTED", [])), rid
    assert len(group_i) == 35
    assert len(report.errata) == 40


def test_verify_all_discovers_once_per_record(engine, catalog,
                                                monkeypatch):
    # verify_all solves each (support, degree) once, whichever records
    # print it and whether the record or the sign system asks: 33 calls
    # (38 before SIGNED verdicts reused their discovery, then 34 while
    # i.04 and i.14, the same printed relation, each solved it)
    supports = []
    discover = relations.discover_relation

    def counted(support, *args, **kwargs):
        supports.append((tuple(support), args[0]))
        return discover(support, *args, **kwargs)

    monkeypatch.setattr(relations, "discover_relation", counted)
    report = verify_all(engine)
    assert len(supports) == 33 and len(set(supports)) == 33
    printed = Counter((tuple(map(mono_text, r.paper_poly)), r.degree)
                      for r in catalog.values() if r.group == "i")
    assert printed.most_common(1)[0][1] == 2    # the repeated print
    signed = [v for v in report.verdicts if v.verdict == "SIGNED"
              and v.record.group == "i"]
    assert len(signed) == 4


@pytest.mark.parametrize("group", ["i", "ii", "iii"])
def test_verify_group_verdicts_do_not_depend_on_the_filter(engine, group):
    # the sign system is solved over the whole catalog whatever is asked
    # for, so one group's report is a slice of the full one
    full = verify_all(engine)
    part = verify_all(engine, (group,))
    records = [r for r in full.records_json() if r["group"] == group]
    assert records and part.records_json() == records
    assert part.errata == [e for e in full.errata if e["group"] == group]
    assert part.assignment == full.assignment
    assert part.group_i_reconcilable == full.group_i_reconcilable


def test_express_in_c_classes(engine):
    y20 = engine.named["y20"].element
    assert express_in_c_classes(y20, 20, engine) == "+y20"
    assert express_in_c_classes(gen("a9"), 9, engine) is None


def test_ideal_and_split_small_bound(engine):
    report = ideal_and_split_check(engine, degree_bound=46,
                                   decompose_samples=10)
    assert report.ok
    assert report.ideal_products > 0 and report.split_products > 0


def _word_free_pairs(engine, bound):
    """The pairs of word-free classes with degree sum <= bound, in the
    order ideal-check walks them."""
    c_classes = [(n, c) for n in range(bound + 1)
                 for c in engine.additive_basis(n).classes if c.side == "C"]
    return [(c1, c2, n1 + n2) for i, (n1, c1) in enumerate(c_classes)
            for n2, c2 in c_classes[i:] if n1 + n2 <= bound]


def _summed_powers(c1, c2):
    return tuple(sorted((Counter(dict(c1.powers))
                         + Counter(dict(c2.powers))).items()))


def test_split_products_depend_only_on_summed_powers(engine):
    # the premise of ideal-check's split memo, through degree 60: a pair's
    # product is the product of the first pair with the same summed
    # powers, and the packed keys of two sums agree exactly when they do
    first, packed = {}, {}
    pairs = _word_free_pairs(engine, 60)
    for c1, c2, _ in pairs:
        key = _summed_powers(c1, c2)
        product = engine.representative(c1) * engine.representative(c2)
        assert first.setdefault(key, product) == product, (c1.label, c2.label)
        at = (relations._packed_powers(c1.powers)
              + relations._packed_powers(c2.powers))
        assert packed.setdefault(at, key) == key
    assert len(packed) == len(first) < len(pairs)


def test_split_memo_reports_every_pair_of_a_refused_product(engine,
                                                           monkeypatch):
    # refuse the product of the most shared summed powers: every pair with
    # those powers is a violation, in the order an unmemoized walk finds
    # them, and each distinct product is solved once
    bound = 48
    pairs = _word_free_pairs(engine, bound)
    sums = Counter(_summed_powers(c1, c2) for c1, c2, _ in pairs)
    key, shared = sums.most_common(1)[0]
    c1, c2, _ = next(p for p in pairs if _summed_powers(p[0], p[1]) == key)
    refused = engine.representative(c1) * engine.representative(c2)
    coordinates = relations.c_class_coordinates
    solved = []

    def planted(element, degree, eng):
        solved.append(degree)
        return (None if element == refused
                else coordinates(element, degree, eng))

    decompose, decomposed = engine.decompose, []

    def recorded(z, n=None):
        decomposed.append(z)
        return decompose(z, n)

    monkeypatch.setattr(relations, "c_class_coordinates", planted)
    monkeypatch.setattr(engine, "decompose", recorded)
    report = ideal_and_split_check(engine, degree_bound=bound)
    expected, samples = [], []
    for c1, c2, m in pairs:
        product = engine.representative(c1) * engine.representative(c2)
        if product == refused or coordinates(product, m, engine) is None:
            expected.append((c1.label, c2.label))
        elif product and len(samples) < 25:
            samples.append(product)
    assert shared > 2 and len(expected) == shared
    assert report.split_violations == expected
    assert report.split_products == len(pairs)
    assert len(solved) == len(sums)
    # the decompose route: the first 25 nonzero products, in pair order
    assert decomposed[report.ideal_products:] == samples


def test_ideal_spot_products(engine):
    named = engine.named
    dec = engine.decompose(named["a9"].element * named["a4"].element, 13)
    assert dec.coefficients == {}          # coboundary class
    assert engine.d(dec.witness) == named["a9"].element * named["a4"].element
    dec = engine.decompose(named["x26"].element * named["y20"].element, 46)
    assert set(dec.coefficients) == {"x26*y20"}
    dec = engine.decompose(named["y20"].element * named["y22"].element, 42)
    assert set(dec.coefficients) == {"y20*y22"}


# -- the sign-flip search ------------------------------------------------------


def match(support, paper_vector, solutions):
    """The matcher as relation discovery calls it, on support texts."""
    monos = [next(iter(parse_poly(s))) for s in support]
    return _match_vector(monos, paper_vector, solutions,
                         NAMED_GENERATOR_NAMES)


def _brute_force_match(support, paper_vector, solutions):
    """Reference search: every flip subset, by size, each tested by a solve."""

    def in_span(vec):
        vec = np.array([int(v) % 3 for v in vec], dtype=np.uint8)
        if not solutions:
            return not vec.any()
        a = np.array(solutions, dtype=np.uint8).T
        return solve_in_image(SparseMatrixF3.from_dense(a), vec).in_image

    def flip_sign(text, subset):
        ((mono, _),) = parse_poly(text).items()
        return (-1) ** sum(e for n, e in mono if n in subset)

    if in_span(paper_vector):
        return "exact", ()
    names = sorted({n for s in support for mono in parse_poly(s)
                    for n, _ in mono if n in NAMED_GENERATOR_NAMES})
    for r in range(1, len(names) + 1):
        for subset in combinations(names, r):
            flipped = [c * flip_sign(s, subset)
                       for c, s in zip(paper_vector, support)]
            if in_span(flipped):
                return "sign_flips", subset
    return "absent", ()


MATCH_CASES = {
    "exact": (["a4*y26", "a8*y22", "a10*y20"], (1, -1, -1),
              ((1, 2, 2),), ("exact", ())),
    # a4 and y20 put the same sign pattern on the support as a10, which
    # fails; they are skipped and a8 is the first subset that matches
    "repeated_pattern": (["a10*a4*y20", "a8", "y22"], (1, -1, 1),
                         ((1, 1, 1),), ("sign_flips", ("a8",))),
    "two_generators": (["a4", "a8", "a10", "a4^2"], (1, -1, -1, 1),
                       ((1, 1, 1, 1),), ("sign_flips", ("a10", "a8"))),
    "absent": (["a4*y20", "a8*y22", "a10*y26"], (1, 1, 0),
               ((1, 1, 1),), ("absent", ())),
    "no_solutions": (["y20*a4", "y22*a8"], (1, -1), (), ("absent", ())),
    "no_solutions_zero": (["y20*a4", "y22*a8"], (0, 0), (), ("exact", ())),
    "two_solutions": (["a4*y20", "a8*y22", "a10*y26", "y20*y22"],
                      (1, 1, 2, 1), ((1, 0, 1, 0), (0, 1, 0, 1)),
                      ("sign_flips", ("a10",))),
}


@pytest.mark.parametrize("case", sorted(MATCH_CASES))
def test_match_vector_against_brute_force(case):
    support, paper_vector, solutions, expected = MATCH_CASES[case]
    assert _brute_force_match(support, paper_vector, solutions) == expected
    assert match(support, paper_vector, solutions) == expected


def test_match_vector_random_cases_against_brute_force():
    rng = np.random.default_rng(7)
    names = ["a4", "a8", "a10", "y20", "y22"]
    outcomes = set()
    for trial in range(80):
        k = int(rng.integers(2, 6))
        support = sorted({"*".join(f"{n}^{e}" for n, e in
                                   zip(names, rng.integers(1, 4, 5)))
                          for _ in range(k)})
        rows = rng.integers(0, 3, (int(rng.integers(0, 3)), len(support)))
        solutions = tuple(tuple(int(x) for x in r) for r in rows if r.any())
        if trial % 2 and solutions:
            # a span vector with random signs: often a sign_flips hit
            vec = rng.integers(0, 3, len(solutions)) @ np.array(solutions)
            vec = vec * rng.choice([-1, 1], len(support))
        else:
            vec = rng.integers(-1, 2, len(support))
        paper_vector = tuple(int(x) for x in vec)
        expected = _brute_force_match(support, paper_vector, solutions)
        assert match(support, paper_vector, solutions) == expected
        outcomes.add(expected[0])
    assert outcomes == {"exact", "sign_flips", "absent"}


def test_match_vector_three_dependent_rows_against_brute_force():
    # the span is enumerated from the rows as given: up to three rows over
    # seven names, the third often a combination of the first two
    rng = np.random.default_rng(27)
    names = ["a4", "a8", "a10", "y20", "y22", "y26", "y58"]
    outcomes = Counter()
    for trial in range(120):
        k = int(rng.integers(2, 7))
        support = sorted({"*".join(f"{n}^{e}" for n, e in
                                   zip(names, rng.integers(0, 3, 7)) if e)
                          or "a4" for _ in range(k)})
        rows = rng.integers(0, 3, (int(rng.integers(0, 3)), len(support)))
        if trial % 3 == 0 and len(rows):
            rows = np.vstack([rows, rng.integers(0, 3, len(rows)) @ rows % 3])
        solutions = tuple(tuple(int(x) for x in r) for r in rows)
        if trial % 2 and solutions:
            vec = rng.integers(0, 3, len(solutions)) @ np.array(solutions)
            vec = vec * rng.choice([-1, 1], len(support))
        else:
            vec = rng.integers(-1, 2, len(support))
        paper_vector = tuple(int(x) for x in vec)
        expected = _brute_force_match(support, paper_vector, solutions)
        assert match(support, paper_vector, solutions) == expected
        outcomes[expected[0]] += 1
    assert set(outcomes) == {"exact", "sign_flips", "absent"}


def test_absent_search_makes_at_most_one_solve(monkeypatch):
    # thirteen flippable names, one per entry: 8,191 distinct flip
    # patterns, none of which the span realizes
    support = ["a4", "a8", "a10", "x26", "x36", "x48", "x54",
               "y20", "y22", "y26", "y58", "y60", "y64"]
    solutions = ((1,) * 12 + (0,),)
    solves = []
    solve_planes = Echelon.solve_planes

    def counted(self, vp, vq):
        solves.append((vp, vq))
        return solve_planes(self, vp, vq)

    monkeypatch.setattr(Echelon, "solve_planes", counted)
    assert match(support, (1,) * 13, solutions) == ("absent", ())
    assert len(solves) <= 1
    # a hit is confirmed by exactly one solve
    solves.clear()
    assert match(support, (1,) * 12 + (0,), solutions) == ("exact", ())
    assert match(support, (-1,) + (1,) * 11 + (0,), solutions) == (
        "sign_flips", ("a4",))
    assert len(solves) == 2


def test_match_cross_check_refuses_a_wrong_span(monkeypatch):
    # the span's vectors planted as the printed vector itself: the span
    # says "exact", the solve says no, and that is a fault, not a verdict
    support, paper_vector = ["a4*y20", "a8*y22"], (1, -1)
    assert match(support, paper_vector, ((1, 1),)) == ("sign_flips", ("a4",))
    monkeypatch.setattr(relations, "combination",
                        lambda *args: relations.to_planes(paper_vector))
    with pytest.raises(RuntimeError, match="_match_vector"):
        match(support, paper_vector, ((1, 1),))


def _classify(display: str, machine: Element, ev) -> DisplayVerdict:
    """Reference display matcher: every sign tuple of the flippable names
    in the display and both row signs, each display re-evaluated; the
    fewest flips win ("row" counts as one), ties going to the first tuple
    in ``product`` order."""
    poly = parse_poly(display)
    names = sorted({n for mono in poly for n, _ in mono
                    if n in relations._FLIPPABLE})
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


def catalog_displays(engine) -> list:
    """(display, machine value) for every display of the catalog."""
    ev = engine.named_evaluator
    out = []
    for q_text, dq_text, d2q_texts in DERIVATIVE_CATALOG:
        q = ev(q_text)
        out.append((dq_text, partial(q)))
        out += [(t, partial2(q)) for t in d2q_texts]
    return out


def test_display_matcher_against_reference_on_the_catalog(engine):
    ev = engine.named_evaluator
    displays = catalog_displays(engine)
    assert len(displays) == 71
    verdicts = Counter()
    for text, machine in displays:
        got = _display_verdict(text, machine, ev)
        assert got == _classify(text, machine, ev), text
        verdicts[got.verdict] += 1
    assert verdicts == {"exact": 65, "sign_flip": 6}


def test_display_matcher_against_reference_on_planted_slips(engine):
    # each display with a random subset of its terms negated, against the
    # machine value or its negative: sign flips, row flips, both, and
    # mismatches where no flippable name covers a slipped term
    ev = engine.named_evaluator
    rng = random.Random(11)
    outcomes = Counter()
    for text, machine in catalog_displays(engine):
        poly = parse_poly(text)
        for _ in range(5):
            planted = {m: c * rng.choice((1, -1)) for m, c in poly.items()}
            target = machine.scaled(rng.choice((1, -1)))
            display = poly_text(planted)
            got = _display_verdict(display, target, ev)
            assert got == _classify(display, target, ev), (text, display)
            outcomes[got.verdict, got.flips] += 1
    # single-term displays tie a row flip with a name flip: the row wins
    assert set(outcomes) >= {("exact", ()), ("mismatch", ()),
                             ("sign_flip", ("row",)),
                             ("sign_flip", ("y20",))}


def test_expanded_ok_needs_a_match(engine, monkeypatch):
    # the expanded form must match up to the row sign; a mismatch is not ok
    monkeypatch.setattr(relations, "DERIVATIVE_CATALOG", (
        ("b12^2", "a4*b12", ("a4^2",)),
        ("b16^2", "a8*b16", ("-a8^2 + a4^2",)),
    ))
    rows = derivative_catalog_report(engine)
    assert [r.partial2_displays[-1].verdict for r in rows] == [
        "sign_flip", "mismatch"]
    assert [r.expanded_ok for r in rows] == [True, False]


def test_class_solver_is_engine_owned(engine):
    y20 = engine.named["y20"].element
    solver = engine.split_solver(20)
    assert engine.split_solver(20) is solver
    twin = Engine(convention="parity")
    assert express_in_c_classes(y20, 20, twin) == "+y20"
    assert twin.split_solver(20) is not solver
    # the plus rule has no cocycle representatives, so it cannot build a
    # class solver of its own; it must fail rather than borrow one
    plus = Engine(convention="plus")
    with pytest.raises(RuntimeError, match="not a cocycle"):
        express_in_c_classes(y20, 20, plus)
    assert 20 not in plus._split_solvers
    # nothing in the relations module holds solvers across engines
    held = [name for name, value in vars(relations).items()
            if isinstance(value, (dict, list, set))
            and any(isinstance(x, (Echelon, tuple))
                    for x in (value.values() if isinstance(value, dict)
                              else value))]
    assert held == []


def test_representative_memo_matches_class_element(engine):
    for n in range(0, 47):
        for cls in engine.additive_basis(n).classes:
            rep = engine.representative(cls)
            assert rep == class_element(cls, engine.named), cls.label
            assert engine.representative(cls) is rep


def test_ideal_and_split_check_builds_each_representative_once(monkeypatch):
    fresh = Engine(convention="parity")
    ev = fresh.named_evaluator
    monomial = ev.monomial
    builds = Counter()

    def counted(mono):
        builds[mono] += 1
        return monomial(mono)

    monkeypatch.setattr(ev, "monomial", counted)
    report = ideal_and_split_check(fresh, degree_bound=40)
    assert report.ok and report.split_products > 0
    assert builds and max(builds.values()) == 1
    assert set(builds) == {cls.powers for cls in fresh._representatives}


def test_one_engine_builds_the_named_generators_once(monkeypatch):
    # the named table, the evaluator, the class representatives and the
    # relation catalog all read the one table the engine built
    builds = []
    original = derivation.build_named_generators

    def counted(d):
        builds.append(d)
        return original(d)

    monkeypatch.setattr(derivation, "build_named_generators", counted)
    monkeypatch.setattr(engine_module, "build_named_generators", counted)
    fresh = Engine(convention="parity")
    named = fresh.named
    ev = fresh.named_evaluator
    cls = fresh.additive_basis(46).classes[0]
    assert fresh.representative(cls) == class_element(cls, named)
    relation_catalog(fresh)
    assert fresh.named is named and fresh.named_evaluator is ev
    assert builds == [fresh.d]


def test_split_coordinates_are_the_plane_solve(engine):
    # the word-free class coordinates of a split product, read off the
    # bit planes, reconstruct the product exactly
    named = engine.named
    product = named["y20"].element * named["y22"].element * named["a4"].element
    classes, (xp, xq) = c_class_coordinates(product, 46, engine)
    total = Element.zero()
    for j, cls in enumerate(classes):
        c = 1 if xp >> j & 1 else 2 if xq >> j & 1 else 0
        total = total + engine.representative(cls).scaled(c)
    assert total == product and (xp | xq)
    assert c_class_coordinates(gen("a9"), 9, engine) is None
