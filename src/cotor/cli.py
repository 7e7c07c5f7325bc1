"""Batch verification front-end.

Subcommands cover every verification surface; reports are deterministic
(stdout carries only the payload, byte-identical across runs for a fixed
configuration, while the config header with its timestamp goes to
stderr).  Exit codes: 0 all checks pass (sign-reconciled records count as
passes and appear in the errata section), 1 any FAIL verdict, 2 config
error, I/O error (such as an unreadable cache file) or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict

from .cache import ENGINE_VERSION, fingerprint
from .differential import DEFAULT_CONVENTION
from .engine import DEFAULT_MAX_DEGREE, Engine

# Largest --max-degree any command accepts.  Cold runs (no cache) within
# RLIMIT_AS = 6,000,000 KB, set in the child only, on 2 vCPUs / 8 GB,
# Python 3.11, one run each unless stated; wall time, peak RSS:
#   homology              N = 120: 1.0-1.2 s, 50 MB  N = 140: 4.1-6.6 s, 125 MB
#                         N = 130: 1.5 s, 77 MB      N = 150: 6.7 s, 218 MB
#   ideal-check (two runs) N = 100: 0.5 s, 37 MB   N = 140: 3.2-3.3 s, 172 MB
#                         N = 120: 1.2 s, 71 MB   N = 150: 5.5-6.2 s, 281 MB
# The homology rows were measured after d's a4-divisible columns became
# copies of d_{n-4}'s; the ideal-check and verify rows after d was built
# one Z^4 block at a time, on demand, so that they build only the blocks
# their decompositions and witnesses read; the rest before both, when
# homology took 25.0 s and 473 MB at 160, and the other commands that
# build d were not measured again.  Every subcommand at 160:
#   homology (four runs) 18.4-19.2 s, 400 MB diff       25.7 s, 473 MB
#   homology --check-basis 33.1 s, 579 MB   ideal-check (four runs)
#   spectral (weight_s3)   29.1 s, 477 MB                8.7-9.1 s, 473 MB
#   spectral (may_s5)      28.9 s, 474 MB   verify (four) 0.2-0.3 s, 32 MB
#   basis                   0.7 s, 125 MB
#   table40                 0.2 s, 22 MB    poincare       0.1 s, 21 MB
#   discover --support a9*y21,a4*y26 --degree 30            0.2 s, 22 MB
#   audit (square-zero to 160; three runs)           29.4-44.5 s, 847 MB
# The largest peak is 847 MB, audit's, about a seventh of the limit.
MAX_SUPPORTED_DEGREE = 160

# the commands with a CSV form; ``spectral`` has one only with --page
CSV_COMMANDS = ("basis", "diff", "homology", "poincare")


def _add_common(p, suppress: bool):
    """Shared flags; accepted both before and after the subcommand."""
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--max-degree", type=int, default=d(None))
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default=d("text"))
    p.add_argument("--cache-dir",
                   default=d(os.environ.get("COTOR_CACHE_DIR")))
    p.add_argument("--scheme", choices=("weight_s3", "may_s5", "trivial"),
                   default=d(None))
    p.add_argument("--page", type=int, default=d(None))
    p.add_argument("--group", choices=("i", "ii", "iii", "all"),
                   default=d(None))


# flags that one subcommand reads: flag -> (that subcommand, default)
_OWN_FLAGS = {"scheme": ("spectral", "weight_s3"), "page": ("spectral", None),
              "group": ("verify", "all")}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cotor",
        description="exact verification of the resolution's cohomology")
    _add_common(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("audit", parents=[common])
    sub.add_parser("basis", parents=[common])
    sub.add_parser("diff", parents=[common])
    sub.add_parser("homology", parents=[common]).add_argument(
        "--check-basis", action="store_true",
        help="also verify the enumerated class representatives per degree")
    sub.add_parser("poincare", parents=[common])
    sub.add_parser("verify", parents=[common])
    disc = sub.add_parser("discover", parents=[common])
    disc.add_argument("--support", required=True,
                      help="comma-separated formal monomials")
    disc.add_argument("--degree", type=int, required=True)
    sub.add_parser("table40", parents=[common])
    sub.add_parser("spectral", parents=[common])
    sub.add_parser("ideal-check", parents=[common])
    return p


class ConfigError(Exception):
    pass


def _engine(args) -> Engine:
    """An engine under the sign rule its selection audit picks."""
    return Engine(max_degree=_default_degree(args, DEFAULT_MAX_DEGREE),
                  cache_dir=args.cache_dir)


def _default_degree(args, fallback: int) -> int:
    """--max-degree (range-checked in ``main``), else the fallback."""
    return args.max_degree if args.max_degree is not None else fallback


def _emit(args, payload, text_fn, csv_rows=None):
    """Print the report in the requested format (``main`` has refused CSV
    for a command without ``csv_rows``)."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        print(text_fn())


def _header(args):
    header = {
        "schema": "cotor-report/1",
        "engine_version": ENGINE_VERSION,
        # the cache's key under the rule the selection audit picks, without
        # running the audit; hashing the code is paid only with a cache
        "fingerprint": (fingerprint(DEFAULT_CONVENTION)
                        if args.cache_dir else None),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "command": args.command,
            "max_degree": args.max_degree,
            "format": args.format,
            "scheme": args.scheme,
            "page": args.page,
            "group": args.group,
        },
    }
    print(json.dumps(header, sort_keys=True), file=sys.stderr)


def cmd_audit(args) -> int:
    from .differential import audit_conventions

    report = audit_conventions(degree_bound=_default_degree(args, 40))
    payload = {
        "admissible": report.admissible,
        "selected": report.selected,
        "x26_coefficients": list(report.x26_coefficients),
        "x26": report.x26.text(),
        "verdicts": [
            {"convention": v.convention, "admissible": v.admissible,
             "factorization_failures": v.factorization_failures,
             "dd_failures": v.dd_failures}
            for v in report.verdicts],
    }
    _emit(args, payload, lambda: "\n".join(
        [f"admissible conventions: {', '.join(report.admissible)}",
         f"selected: {report.selected}",
         f"degree-26 word cocycle: {report.x26.text()}"]))
    return 0 if report.admissible else 1


def cmd_basis(args) -> int:
    engine = _engine(args)
    n_max = _default_degree(args, 40)
    rows = [{"degree": n, "dim": len(engine.basis(n))}
            for n in range(n_max + 1)]
    _emit(args, rows,
          lambda: "\n".join(f"{r['degree']:4d} {r['dim']:8d}" for r in rows),
          csv_rows=[("degree", "dim")] + [(r["degree"], r["dim"])
                                          for r in rows])
    return 0


def cmd_diff(args) -> int:
    engine = _engine(args)
    n_max = _default_degree(args, 40)
    engine.build_range(n_max)
    rows = [{"degree": n,
             "shape": [engine.d_matrix(n).n_rows, engine.d_matrix(n).n_cols],
             "nnz": engine.d_matrix(n).nnz,
             "rank": engine.rank(n)} for n in range(n_max + 1)]
    _emit(args, rows, lambda: "\n".join(
        f"{r['degree']:4d} {r['shape'][0]:6d}x{r['shape'][1]:<6d}"
        f" nnz={r['nnz']:<8d} rank={r['rank']}" for r in rows),
          csv_rows=[("degree", "rows", "cols", "nnz", "rank")]
          + [(r["degree"], r["shape"][0], r["shape"][1], r["nnz"], r["rank"])
             for r in rows])
    return 0


def cmd_homology(args) -> int:
    engine = _engine(args)
    n_max = _default_degree(args, 80)
    engine.build_range(n_max)
    expected = engine.series_coeffs(n_max)
    rows = []
    failed = False
    for n in range(n_max + 1):
        row = {"degree": n, "dim": engine.dim_h(n), "expected": expected[n],
               "match": engine.dim_h(n) == expected[n]}
        if args.check_basis:
            row["basis_ok"] = engine.check_additive_basis(n)
            failed |= not row["basis_ok"]
        failed |= not row["match"]
        rows.append(row)
    _emit(args, rows, lambda: "\n".join(
        f"{r['degree']:4d} dim={r['dim']:4d} expected={r['expected']:4d} "
        f"{'ok' if r['match'] else 'MISMATCH'}" for r in rows),
          csv_rows=[("degree", "dim_v", "rank_d", "dim_h", "expected",
                     "match")]
          + [(n, len(engine.basis(n)), engine.rank(n), engine.dim_h(n),
              expected[n], engine.dim_h(n) == expected[n])
             for n in range(n_max + 1)])
    return 1 if failed else 0


def cmd_poincare(args) -> int:
    engine = _engine(args)
    n_max = _default_degree(args, 80)
    coeffs = engine.series_coeffs(n_max)
    _emit(args, coeffs, lambda: " ".join(map(str, coeffs)),
          csv_rows=[("degree", "coefficient")] + list(enumerate(coeffs)))
    return 0


def cmd_verify(args) -> int:
    from .relations import verify_all

    engine = _engine(args)
    groups = ("i", "ii", "iii") if args.group == "all" else (args.group,)
    report = verify_all(engine, groups)
    payload = {
        "records": report.records_json(),
        "sign_assignment": report.assignment,
        "group_i_reconcilable": report.group_i_reconcilable,
        "errata": report.errata,
        "ok": report.all_ok,
    }

    def text():
        lines = [f"{v.record.rid:8s} {v.verdict:10s} {v.record.lhs_text}"
                 for v in report.verdicts]
        lines.append(f"errata entries: {len(report.errata)}")
        lines.append(f"ok: {report.all_ok}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0 if report.all_ok else 1


def cmd_discover(args) -> int:
    from .relations import discover_relation

    engine = _engine(args)
    support = [s.strip() for s in args.support.split(",") if s.strip()]
    _check_support(support, args.degree, engine)
    result = discover_relation(support, args.degree, engine)
    payload = asdict(result)
    _emit(args, payload, lambda: json.dumps(payload))
    return 0


def _check_support(support, degree: int, engine):
    """ConfigError unless the support names a monomial, each entry is one
    monomial in known names of formal degree ``degree``, ``degree`` is
    within the key range, and within the cap when a factor is word-type;
    checked before anything is evaluated."""
    from .derivation import NAMED_DEGREES
    from .dga import GEN_DEGREES, MAX_KEY_DEGREE
    from .formal import monomial_degree, parse_poly

    if not support:
        raise ConfigError("--support names no monomial")
    if degree > MAX_KEY_DEGREE:
        raise ConfigError(f"--degree {degree} is beyond the key range "
                          f"(at most {MAX_KEY_DEGREE})")
    degrees = GEN_DEGREES | NAMED_DEGREES
    table = engine.named_evaluator.table
    for text in support:
        try:
            ((mono, _),) = parse_poly(text).items()
            formal_degree = monomial_degree(mono, degrees)
        except (ValueError, KeyError):
            raise ConfigError(f"support entry {text!r} is not one monomial "
                              "in known generators") from None
        if formal_degree != degree:
            raise ConfigError(f"support entry {text!r} is not of degree "
                              f"{degree}")
        if degree > engine.max_degree and not all(
                table[n].in_commutative_subalgebra() for n, _ in mono):
            raise ConfigError(
                f"word-type support entry {text!r} at degree {degree} is "
                f"beyond --max-degree {engine.max_degree}")


def cmd_table40(args) -> int:
    from .relations import derivative_catalog_report

    rows = derivative_catalog_report(_engine(args))
    payload = [asdict(r) for r in rows]

    def text():
        lines = []
        for r in rows:
            lines.append(f"{r.q:24s} expanded_ok={r.expanded_ok}")
            for v in (r.partial_display, *r.partial2_displays):
                flips = f" flips={','.join(v.flips)}" if v.flips else ""
                lines.append(f"    {v.verdict:10s} {v.text}{flips}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0 if all(r.expanded_ok for r in rows) else 1


def cmd_spectral(args) -> int:
    from .spectral import SpectralSequence, run_scheme_checks

    engine = _engine(args)
    n_max = _default_degree(args, 60)
    engine.build_range(n_max)
    if args.page is not None:
        ss = SpectralSequence(engine, args.scheme)
        table = ss.page_table(args.page, n_max)
        rows = [{"p": p, "n": n, "dim": d}
                for (p, n), d in sorted(table.items())]
        _emit(args, rows, lambda: "\n".join(
            f"p={r['p']:3d} n={r['n']:3d} dim={r['dim']}" for r in rows),
              csv_rows=[("p", "n", "dim")]
              + [(r["p"], r["n"], r["dim"]) for r in rows])
        return 0
    report = run_scheme_checks(engine, args.scheme, n_max)
    payload = {
        "scheme": report.scheme,
        "page": args.page,
        "max_degree": report.n_max,
        "filtration_compatible": report.filtration_compatible,
        "active_pages": report.active_pages,
        "collapsed_at": report.collapsed_at,
        "mismatches": {k: [list(map(str, x)) for x in v]
                       for k, v in report.checks.items()},
        "ok": report.ok,
    }
    _emit(args, payload, lambda: "\n".join(
        [f"scheme {report.scheme}: ok={report.ok}",
         f"active pages: {report.active_pages}",
         f"collapsed at: {payload['collapsed_at']}"]
        + [f"  {k}: {'pass' if not v else v[:5]}"
           for k, v in report.checks.items()]))
    return 0 if report.ok else 1


def cmd_ideal_check(args) -> int:
    from .relations import ideal_and_split_check

    engine = _engine(args)
    n_max = _default_degree(args, 80)
    report = ideal_and_split_check(engine, n_max)
    payload = {
        "degree_bound": report.degree_bound,
        "ideal_products": report.ideal_products,
        "ideal_violations": report.ideal_violations,
        "split_products": report.split_products,
        "split_violations": report.split_violations,
        "ok": report.ok,
    }
    _emit(args, payload, lambda: json.dumps(payload, indent=2))
    return 0 if report.ok else 1


_COMMANDS = {
    "audit": cmd_audit,
    "basis": cmd_basis,
    "diff": cmd_diff,
    "homology": cmd_homology,
    "poincare": cmd_poincare,
    "verify": cmd_verify,
    "discover": cmd_discover,
    "table40": cmd_table40,
    "spectral": cmd_spectral,
    "ideal-check": cmd_ideal_check,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.max_degree is not None and not (
                0 <= args.max_degree <= MAX_SUPPORTED_DEGREE):
            raise ConfigError("--max-degree out of range")
        for flag, (command, default) in _OWN_FLAGS.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif args.command != command:
                raise ConfigError(f"--{flag} is read only by {command}")
        if args.page is not None and args.page < 0:
            raise ConfigError("--page must be >= 0")
        if args.format == "csv" and args.command not in CSV_COMMANDS and not (
                args.command == "spectral" and args.page is not None):
            raise ConfigError(
                f"--format csv is not available for {args.command}")
        if args.cache_dir:      # a file, or a path that cannot be made
            try:
                os.makedirs(args.cache_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--cache-dir {args.cache_dir} is not a "
                                  f"usable directory ({exc.strerror})")
        _header(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:   # OSError: say, an unreadable cache
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
