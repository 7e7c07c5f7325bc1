"""Shows that every output check catches a planted wrong value.

Usage: python3 perfbench/selftest.py

Each check in ``checks.py`` is given a right value, which must pass, and
then one or more planted wrong values, each of which must be caught.  The
inputs are built here from ``algebra`` and from records of the program's
real output; nothing here imports or runs ``cotor``.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import algebra as A  # noqa: E402
import checks  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(label: str, problems, caught: bool):
    if bool(problems) != caught:
        raise AssertionError(f"{label}: expected {'a problem' if caught else 'none'}, "
                             f"got {problems!r}")
    print(f"ok  {label}{': ' + str(problems[0])[:70] if problems else ''}")


# -- homology ---------------------------------------------------------------------

@case
def homology_rows():
    series = A.poincare(40)
    rows = [{"degree": n, "dim": d, "expected": d, "match": True}
            for n, d in enumerate(series)]
    expect("homology rows as computed", checks.homology_rows(rows, 40), False)
    bad = copy.deepcopy(rows)
    bad[26]["dim"] += 1
    expect("homology: planted dim + 1 at degree 26", checks.homology_rows(bad, 40), True)
    bad = copy.deepcopy(rows)
    bad[30]["expected"] += 1
    expect("homology: planted series value", checks.homology_rows(bad, 40), True)
    expect("homology: a degree missing", checks.homology_rows(rows[:-1], 40), True)


def _write_cache(root: str, n_max: int) -> str:
    fp = os.path.join(root, "fingerprint")
    os.makedirs(fp)
    bases = [A.basis(n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        index = {m: i for i, m in enumerate(bases[n + 1])}
        entries = sorted((j, index[t], c) for j, m in enumerate(bases[n])
                         for t, c in A.d_mono(m).items())
        lines = [f"GF3MAT v1 {len(bases[n + 1])} {len(bases[n])} {len(entries)}"]
        lines += [f"{r} {c} {v}" for c, r, v in entries]
        with open(os.path.join(fp, f"d_{n}.gf3mat"), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    return fp


def _edit(path: str, fn):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(fn(lines)))


@case
def cache_files():
    n_max = 30

    def run():
        return checks.cache_files(tmp, n_max, seed=1, samples=n_max)

    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        fp = _write_cache(tmp, n_max)
        expect("cache files as written", run(), False)

        def load(n):
            with open(os.path.join(fp, f"d_{n}.gf3mat"), encoding="ascii") as fh:
                return fh.read()

        # an entry of d_n in a column that d_{n-1} reaches, so that
        # flipping it makes d_n d_{n-1} != 0
        n, k = next((n, k) for n in range(1, n_max + 1)
                    for image in [{r for col in checks.parse_gf3mat(load(n - 1))[2].values()
                                   for r in col}]
                    for k, line in enumerate(load(n).split("\n")[1:-1], 1)
                    if int(line.split()[1]) in image)
        path = os.path.join(fp, f"d_{n}.gf3mat")
        original = load(n)

        def flip(lines):
            r, c, v = lines[k].split()
            return lines[:k] + [f"{r} {c} {3 - int(v)}"] + lines[k + 1:]
        _edit(path, flip)
        expect(f"cache: planted flipped entry in d_{n} (d^2 != 0)", run(), True)

        def widen(lines):
            head = lines[0].split()
            head[3] = str(int(head[3]) + 1)
            return [" ".join(head)] + lines[1:]
        open(path, "w", encoding="ascii").write(original)
        _edit(path, widen)
        expect(f"cache: planted wrong shape of d_{n}", run(), True)

        open(path, "w", encoding="ascii").write(original)
        _edit(path, lambda lines: lines[:1] + lines[2:])
        expect("cache: planted missing entry (count != header)", run(), True)

        os.remove(path)
        expect(f"cache: d_{n} missing", run(), True)


# -- verify ---------------------------------------------------------------------------

# records as ``cotor verify --format json`` reports them
RECORDS = [
    {"id": "i.01", "group": "i", "verdict": "SIGNED", "witness": None,
     "paper_coeffs": "-a10*y20 +a4*y26 +a8*y22", "sign_flips": ["a8"],
     "engine_coeffs": "+a4*y26 -a8*y22 -a10*y20"},
    {"id": "i.10", "group": "i", "verdict": "EXACT", "witness": None,
     "paper_coeffs": "+a10*y58 -a8*y60 +y20*y22*y26", "sign_flips": [],
     "engine_coeffs": None},
    {"id": "i.29", "group": "i", "verdict": "CORRECTED", "witness": None,
     "paper_coeffs": "+y60*y64", "sign_flips": [],
     "engine_coeffs": "y60*y64 = -a10*a4^3*x48*x54 -a10*a8^3*x36*x54"
                      " +a10^4*x36*x48 +a4*a8*x54*y58"},
    {"id": "ii.05", "group": "ii", "verdict": "EXACT", "witness": "c17*b12",
     "paper_coeffs": "+a4*x26 +a9*y21", "sign_flips": [], "engine_coeffs": None},
    {"id": "iii.01", "group": "iii", "verdict": "SIGNED", "witness": "b12",
     "paper_coeffs": "+a4*a9", "sign_flips": ["witness:-1"], "engine_coeffs": None},
    {"id": "iii.40", "group": "iii", "verdict": "EXACT",
     "witness": "[x26-witness of b12^2*b16]",
     "paper_coeffs": "x26*partial2(b12^2*b16)", "sign_flips": [],
     "engine_coeffs": None},
]


@case
def verify_records():
    payload = {"records": RECORDS}
    expect("verify records as reported", checks.verify_payload(payload)[2], False)
    plants = [
        ("i.01", "engine_coeffs", "+a4*y26 +a8*y22 -a10*y20"),
        ("i.10", "paper_coeffs", "+a10*y58 +a8*y60 +y20*y22*y26"),
        ("i.29", "engine_coeffs", "y60*y64 = -a10*a4^3*x48*x54 +a10*a8^3*x36*x54"
                                  " +a10^4*x36*x48 +a4*a8*x54*y58"),
        ("ii.05", "witness", "c17*b16"),
        ("iii.01", "sign_flips", []),
        ("iii.40", "sign_flips", ["witness:-1"]),
        ("iii.40", "witness", "[y21-witness of b12^2*b16]"),
    ]
    for rid, key, value in plants:
        bad = copy.deepcopy(RECORDS)
        rec = next(r for r in bad if r["id"] == rid)
        rec[key] = value
        attempted, failed, problems = checks.verify_payload({"records": bad})
        expect(f"verify: planted {key} of {rid}", problems, True)
    bad = copy.deepcopy(RECORDS)
    bad[0]["verdict"] = "FAIL"
    if checks.verify_payload({"records": bad})[1] != 1:
        raise AssertionError("a FAIL verdict is not counted as failed")
    print("ok  verify: a FAIL verdict counts as a failed operation")


# -- structure -----------------------------------------------------------------------------

@case
def structure_reports():
    spectral = {"scheme": "may_s5", "filtration_compatible": True,
                "mismatches": {"page_1_free_algebra": [], "collapse_at_3": [],
                               "convergence": []}}
    attempted, failed, problems = checks.spectral_payload(spectral, "may_s5")
    expect("spectral report as computed", problems + ["failed"] * failed, False)
    bad = copy.deepcopy(spectral)
    bad["mismatches"]["collapse_at_3"] = [[[3, 40], 1, 0]]
    attempted, failed, problems = checks.spectral_payload(bad, "may_s5")
    expect("spectral: planted mismatch counts as failed", ["failed"] * failed, True)
    bad = copy.deepcopy(spectral)
    del bad["mismatches"]["convergence"]
    expect("spectral: a check missing", checks.spectral_payload(bad, "may_s5")[2], True)

    ideal = {"degree_bound": 80, "ideal_products": 372, "split_products": 22703,
             "ideal_violations": [], "split_violations": []}
    expect("ideal-check report as computed",
           ["failed"] * checks.ideal_payload(ideal, 80)[1], False)
    bad = dict(ideal, split_violations=[["y20", "y22"]])
    expect("ideal-check: planted violation counts as failed",
           ["failed"] * checks.ideal_payload(bad, 80)[1], True)


def _terms(x: dict) -> list:
    return [[list(w), list(e), c] for (w, e), c in sorted(x.items())]


@case
def decompositions():
    z = A.product_text("y20*y22")
    sample = {"label": "y20*y22", "degree": 42, "terms": _terms(z)}
    good = {"coefficients": {"y20*y22": 1}, "witness": []}
    expect("decomposition as computed", checks.decomposition(sample, good), False)
    expect("decomposition: planted coefficient 2",
           checks.decomposition(sample, {"coefficients": {"y20*y22": 2},
                                         "witness": []}), True)
    # a9*a4 = -d(b12): no classes, witness -b12
    z = A.product_text("a9*a4")
    sample = {"label": "a9*a4", "degree": 13, "terms": _terms(z)}
    witness = _terms({((), (0, 0, 0, 1, 0, 0)): 2})
    expect("decomposition with a witness",
           checks.decomposition(sample, {"coefficients": {}, "witness": witness}),
           False)
    expect("decomposition: planted witness sign",
           checks.decomposition(sample, {"coefficients": {}, "witness":
                                         _terms({((), (0, 0, 0, 1, 0, 0)): 1})}), True)


@case
def warm_trace():
    layers = {"differential.matrix_calls": 0, "cache.load_hits": 91}
    expect("warm trace as measured", checks.warm_trace(layers, 91), False)
    expect("warm: planted matrix build",
           checks.warm_trace(dict(layers, **{"differential.matrix_calls": 1}), 91), True)
    expect("warm: planted cache miss",
           checks.warm_trace(dict(layers, **{"cache.load_hits": 90}), 91), True)


def main() -> int:
    for fn in CASES:
        fn()
    print(f"{len(CASES)} groups of checks, every planted error caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
