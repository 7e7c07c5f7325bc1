"""One fresh process of a benchmark round; started by ``run.py``.

Usage: python3 perfbench/worker.py < spec.json

Modes:
  cli        import cotor, then time one ``cotor.cli.main(argv)`` call with
             stdout captured (optionally under the tracer);
  probe      import cotor and stop (a set-up sample only);
  decompose  write given cocycles as classes plus a coboundary with
             ``Engine.decompose`` (untimed, for the structure checks).

Prints one JSON line: the monotonic time at which set-up (interpreter
start and ``import cotor.cli``) ended, the call's wall and CPU seconds,
peak RSS, the exit code and the captured stdout.  ``time.monotonic`` is
system-wide, so the parent subtracts the instant it started this process
to get the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decompose(spec) -> dict:
    from cotor.dga import Element, Monomial
    from cotor.engine import Engine

    engine = Engine(max_degree=spec["n_max"])
    out = []
    for sample in spec["samples"]:
        z = Element({Monomial(tuple(w), tuple(e)): c for w, e, c in sample["terms"]})
        dec = engine.decompose(z, sample["degree"])
        out.append({"coefficients": dec.coefficients,
                    "witness": [[list(m.word), list(m.exps), c]
                                for m, c in sorted(dec.witness.terms.items())]})
    return {"decompositions": out}


def main() -> int:
    spec = json.load(sys.stdin)
    import cotor.cli

    result = {"setup_end": time.monotonic()}
    if spec["mode"] == "decompose":
        result.update(_decompose(spec))
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["mode"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        t0, cpu0 = time.monotonic(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cotor.cli.main(spec["argv"])
        except Exception:                       # reported, counted as failed
            rc = "exception: " + traceback.format_exc(limit=3)
        result["wall_s"] = time.monotonic() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["rc"] = rc
        result["stdout"] = out.getvalue()
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["trace_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
