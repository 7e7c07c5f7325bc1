"""Correctness checks on the program's outputs, against ``algebra``.

Each check returns a list of problems (empty when the outputs are right)
and runs outside the timed part of a run.  ``selftest.py`` feeds every
check a planted wrong value and requires it to be caught.
"""

from __future__ import annotations

import os
import random
import re

import algebra as A

SPECTRAL_CHECKS = {
    "weight_s3": {"pages_1_to_3_equal", "pages_4_to_6_equal",
                  "page_7_is_limit", "page_4_series_oracle", "convergence"},
    "may_s5": {"page_1_free_algebra", "collapse_at_3", "convergence"},
}


# -- homology ------------------------------------------------------------------

def homology_rows(rows, n_max: int) -> list:
    """Every degree 0..n_max is reported and its dimension is the series'."""
    series = A.poincare(n_max)
    if [r.get("degree") for r in rows] != list(range(n_max + 1)):
        return [f"degrees reported: {[r.get('degree') for r in rows][:5]}..."]
    return [f"degree {r['degree']}: dim {r['dim']} expected {series[r['degree']]}"
            f" (program's series {r['expected']})"
            for r in rows
            if r["dim"] != series[r["degree"]] or r["expected"] != series[r["degree"]]]


def parse_gf3mat(text: str):
    """GF3MAT v1 -> (rows, cols, {col: {row: value}}); raises ValueError."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[:2] != ["GF3MAT", "v1"]:
        raise ValueError("bad header")
    n_rows, n_cols, nnz = map(int, head[2:])
    if len(lines) - 1 != nnz:
        raise ValueError(f"{len(lines) - 1} entries, header says {nnz}")
    cols: dict = {}
    for line in lines[1:]:
        r, c, v = map(int, line.split())
        if not (0 <= r < n_rows and 0 <= c < n_cols and v in (1, 2)):
            raise ValueError(f"entry out of range: {line!r}")
        col = cols.setdefault(c, {})
        if r in col:
            raise ValueError(f"duplicate entry ({r}, {c})")
        col[r] = v
    return n_rows, n_cols, cols


def _compose_is_zero(outer, inner) -> bool:
    """outer . inner == 0 (mod 3), both as {col: {row: value}}."""
    for col in inner.values():
        acc: dict = {}
        for mid, v in col.items():
            for r, w in outer.get(mid, {}).items():
                acc[r] = (acc.get(r, 0) + v * w) % 3
        if any(acc.values()):
            return False
    return True


def cache_files(cache_dir: str, n_max: int, seed: int, samples: int = 6) -> list:
    """Every d_n file parses and has the series' shape; on a seeded sample
    of degrees d_{n+1} d_n = 0 (mod 3)."""
    subdirs = sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []
    if len(subdirs) != 1:
        return [f"expected one fingerprint directory, found {subdirs}"]
    root = os.path.join(cache_dir, subdirs[0])
    counts = A.basis_counts(n_max + 2)
    problems, mats = [], {}
    for n in range(n_max + 1):
        path = os.path.join(root, f"d_{n}.gf3mat")
        try:
            with open(path, encoding="ascii") as fh:
                n_rows, n_cols, cols = parse_gf3mat(fh.read())
        except (OSError, ValueError) as exc:
            problems.append(f"d_{n}: {exc}")
            continue
        if (n_rows, n_cols) != (counts[n + 1], counts[n]):
            problems.append(f"d_{n}: shape {n_rows}x{n_cols}, "
                            f"expected {counts[n + 1]}x{counts[n]}")
        mats[n] = cols
    extra = set(os.listdir(root)) - {f"d_{n}.gf3mat" for n in range(n_max + 1)}
    if extra:
        problems.append(f"unexpected cache files {sorted(extra)[:3]}")
    for n in random.Random(seed).sample(range(n_max), min(samples, n_max)):
        if n in mats and n + 1 in mats and not _compose_is_zero(mats[n + 1], mats[n]):
            problems.append(f"d_{n + 1} d_{n} != 0")
    return problems


# -- verify ----------------------------------------------------------------------

_FAMILY = re.compile(r"^(\w+)\*partial2\((.+)\)$")
_FAMILY_WITNESS = re.compile(r"^\[(\w+)-witness of (.+)\]$")


def _family_witness(name: str, q: dict) -> dict:
    """The bridge-identity witness of name * partial2(q), from the paper."""
    p, g = A.partial(q), A.generator
    if name == "a9":
        return p
    if name == "x26":
        return A.add({}, A.add(A.mul(g("a9"), q), A.mul(g("c17"), p)), -1)
    a, b = {"y21": ("a4", "b12"), "y25": ("a8", "b16"), "y27": ("a10", "b18")}[name]
    return A.add(A.mul(g(a), q), A.mul(g(b), p))


def verify_record(rec: dict) -> list:
    """Re-expand one non-failed relation record and require it to vanish."""
    rid, flips = rec["id"], rec.get("sign_flips") or []
    if rec["witness"] is not None:
        fam = _FAMILY.match(rec["paper_coeffs"])
        if fam:
            name, q = fam.group(1), A.product_text(fam.group(2))
            wit = _FAMILY_WITNESS.match(rec["witness"])
            if not wit or wit.groups() != fam.groups():
                return [f"{rid}: witness {rec['witness']!r} does not match"]
            lhs = A.mul(A.NAMED[name], A.partial(A.partial(q)))
            witness = _family_witness(name, q)
        else:
            lhs = A.poly_text(rec["paper_coeffs"])
            witness = A.poly_text(rec["witness"])
        sign = -1 if "witness:-1" in flips else 1
        if not lhs or A.add(lhs, A.d(witness), -sign):
            return [f"{rid}: lhs != {sign:+d} d(witness)"]
        return []
    coeffs = rec["engine_coeffs"]
    if rec["verdict"] == "EXACT":
        values = {rec["paper_coeffs"]: A.poly_text(rec["paper_coeffs"])}
    elif coeffs and " = " in coeffs:
        lhs, rhs = coeffs.split(" = ")
        values = {coeffs: A.add(A.poly_text(lhs), A.poly_text(rhs), -1)}
    elif coeffs:
        values = {row: A.poly_text(row) for row in coeffs.split(" ; ")}
    else:
        return [f"{rid}: {rec['verdict']} without engine coefficients"]
    return [f"{rid}: {text[:60]!r} does not vanish"
            for text, value in values.items() if value]


def verify_payload(payload: dict):
    """(attempted, failed, problems) for one ``cotor verify`` report."""
    records = payload["records"]
    failed = [r for r in records if r["verdict"] == "FAIL"]
    problems = []
    for rec in records:
        if rec["verdict"] != "FAIL":
            problems += verify_record(rec)
    return len(records), len(failed), problems


# -- structure -------------------------------------------------------------------

def spectral_payload(payload: dict, scheme: str):
    """(attempted, failed, problems): one operation per scheme check plus the
    filtration check; a non-empty mismatch list is a failed operation."""
    problems = []
    names = set(payload["mismatches"])
    if payload["scheme"] != scheme or names != SPECTRAL_CHECKS[scheme]:
        problems.append(f"{scheme}: checks reported {sorted(names)}")
    failed = sum(1 for v in payload["mismatches"].values() if v)
    failed += not payload["filtration_compatible"]
    return len(names) + 1, failed, problems


def ideal_payload(payload: dict, n_max: int):
    """(attempted, failed, problems): one operation per product."""
    problems = []
    if payload["degree_bound"] != n_max:
        problems.append(f"ideal-check ran to {payload['degree_bound']}")
    attempted = payload["ideal_products"] + payload["split_products"]
    failed = len(payload["ideal_violations"]) + len(payload["split_violations"])
    return attempted, failed, problems


def warm_trace(layers: dict, cache_files_present: int) -> list:
    """A warm run builds no matrix and reads every cache file."""
    built, hits = layers["differential.matrix_calls"], layers["cache.load_hits"]
    if built or hits != cache_files_present:
        return [f"not warm: {built} matrices built, "
                f"{hits} of {cache_files_present} cache files read"]
    return []


def decomposition_samples(seed: int, n_max: int, count: int = 4) -> list:
    """Seeded products of two or three named cocycles, of degree <= n_max."""
    rng = random.Random(seed)
    names = sorted(n for n in A.NAMED if n[0] in "axy" and not A.d(A.NAMED[n]))
    degree = {n: A.degree_of(next(iter(A.NAMED[n]))) for n in names}
    out = []
    while len(out) < count:
        k = rng.choice((2, 3))
        factors = [rng.choice(names) for _ in range(k)]
        if not 20 <= sum(degree[f] for f in factors) <= n_max:
            continue
        z = A.product_text("*".join(factors))
        if z:
            out.append({"label": "*".join(factors),
                        "degree": sum(degree[f] for f in factors),
                        "terms": [[list(w), list(e), c] for (w, e), c in sorted(z.items())]})
    return out


def decomposition(sample: dict, result: dict) -> list:
    """z - sum c_i rep_i - d(w) = 0 for one decomposition from the program."""
    z = {(tuple(w), tuple(e)): c for w, e, c in sample["terms"]}
    rest = dict(z)
    for label, c in result["coefficients"].items():
        rest = A.add(rest, A.product_text(label), -c)
    witness = {(tuple(w), tuple(e)): c for w, e, c in result["witness"]}
    rest = A.add(rest, A.d(witness), -1)
    if rest:
        return [f"decomposition of {sample['label']} leaves {len(rest)} terms"]
    return []
