"""Per-layer spans and counters, installed on ``cotor`` from outside.

Each traced function is replaced by a wrapper in every ``cotor`` module
whose namespace holds it (so ``cotor.differential.mono_mul`` and
``cotor.dga.mono_mul`` are both wrapped), and methods on their class.
A wrapper records a span (id, parent id, name, start, end) and adds its
self time -- duration minus the time its child spans cover -- to its
metric.  Spans stay in memory and are written when the process ends;
past ``SPAN_CAP`` spans only the totals are kept.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000


def _nbytes(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _shape_cells(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 0
    cells = 1
    for s in shape:
        cells *= s
    return cells


def _targets():
    """(module, function or Class.method, time metric, calls metric,
    counters(args, result, before) -> {metric: increment}, before(args))."""
    from cotor import cache, cohomology, derivation, dga, differential, engine
    from cotor import formal, gf3, relations, spectral

    def load_hit(a, r, before):
        return {"cache.load_hits": r is not None, "cache.load_misses": r is None,
                "cache.bytes_read": _nbytes(a[0].path(a[1])) if r is not None else 0}

    return [
        (dga, "enumerate_basis", "dga.basis_s", None,
         lambda a, r, b: {"dga.basis_monomials": len(r)}, None),
        (dga, "mono_mul", "dga.mono_mul_s", "dga.mono_mul_calls", None, None),
        (dga, "Element.__mul__", "dga.element_mul_s", None, None, None),
        (differential, "Differential.matrix", "differential.matrix_s",
         "differential.matrix_calls", lambda a, r, b: {"differential.nnz": r.nnz}, None),
        (differential, "d_mono", "differential.d_mono_s", "differential.d_mono_calls",
         None, None),
        (cache, "MatrixCache.store", "cache.store_s", None,
         lambda a, r, b: {"cache.bytes_written": _nbytes(r)}, None),
        (cache, "MatrixCache.load", "cache.load_s", None, load_hit, None),
        (gf3, "SparseMatrixF3.to_dense", "gf3.to_dense_s", None,
         lambda a, r, b: {"gf3.dense_bytes": r.nbytes}, None),
        (gf3, "PrefixRankTable.of", "gf3.col_profile_s", "gf3.col_profile_calls",
         lambda a, r, b: {"gf3.col_profile_cells": r.n_rows * r.n_cols}, None),
        (gf3, "PrefixRankTable.rank", "gf3.prefix_rank_query_s",
         "gf3.prefix_rank_queries", None, None),
        (gf3, "GF3Solver.__init__", "gf3.solver_build_s", "gf3.solver_builds",
         lambda a, r, b: {"gf3.solver_build_cells": _shape_cells(a[0].a)}, None),
        (gf3, "GF3Solver.solve", "gf3.solve_s", "gf3.solves", None, None),
        (gf3, "solve_in_image", "gf3.solve_s", "gf3.solves", None, None),
        (engine, "Engine.rank", "engine.rank_s", None, None, None),
        (engine, "Engine.decompose", "engine.decompose_s", "engine.decompose_calls",
         None, None),
        (cohomology, "class_element", "cohomology.class_element_s",
         "cohomology.class_element_calls", None, None),
        (formal, "parse_poly", "formal.parse_poly_s", "formal.parse_poly_calls",
         None, None),
        (formal, "Evaluator.__call__", "formal.evaluate_s", None, None, None),
        (formal, "Evaluator.monomial", "formal.evaluate_s", None, None, None),
        (relations, "verify_relation", "relations.verify_relation_s", None, None, None),
        (relations, "verify_witness", "relations.verify_witness_s", None, None, None),
        (relations, "discover_relation", "relations.discover_s",
         "relations.discover_calls", None, None),
        (relations, "express_in_c_classes", "relations.express_s",
         "relations.express_calls", None, None),
        (relations, "ideal_and_split_check", "relations.ideal_split_s", None,
         None, None),
        (spectral, "SpectralSequence.profile", "spectral.profile_s", None,
         lambda a, r, built: {"spectral.profile_builds": built},
         lambda a: a[1] not in getattr(a[0], "_profiles", ())),
        (spectral, "SpectralSequence.page_table", "spectral.page_table_s",
         "spectral.page_table_calls", None, None),
        (spectral, "SpectralSequence.check_filtration_compatibility",
         "spectral.filtration_check_s", None, None, None),
        (derivation, "build_named_generators", "derivation.named_s", None, None, None),
    ]


# every per-layer metric the traced run reports, besides cpu_s and the overhead
METRICS = (
    "dga.basis_s", "dga.basis_monomials", "dga.mono_mul_s", "dga.mono_mul_calls",
    "dga.element_mul_s", "differential.matrix_s", "differential.matrix_calls",
    "differential.nnz", "differential.d_mono_s", "differential.d_mono_calls",
    "cache.store_s", "cache.bytes_written", "cache.load_s", "cache.load_hits",
    "cache.load_misses", "cache.bytes_read", "gf3.to_dense_s", "gf3.dense_bytes",
    "gf3.col_profile_s", "gf3.col_profile_calls", "gf3.col_profile_cells",
    "gf3.prefix_rank_query_s", "gf3.prefix_rank_queries", "gf3.solver_build_s",
    "gf3.solver_builds", "gf3.solver_build_cells", "gf3.solve_s", "gf3.solves",
    "engine.rank_s", "engine.decompose_s", "engine.decompose_calls",
    "cohomology.class_element_s", "cohomology.class_element_calls",
    "formal.parse_poly_s", "formal.parse_poly_calls", "formal.evaluate_s",
    "relations.verify_relation_s", "relations.verify_witness_s",
    "relations.discover_s", "relations.discover_calls", "relations.express_s",
    "relations.express_calls", "relations.ideal_split_s", "spectral.profile_s",
    "spectral.profile_builds", "spectral.page_table_s", "spectral.page_table_calls",
    "spectral.filtration_check_s", "derivation.named_s")


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.stack = []           # [span id, child seconds]
        self.spans = []
        self.dropped = 0
        self._next = 0

    def wrap(self, fn, name, calls, counters, before):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before else None
            stack = self.stack
            parent = stack[-1][0] if stack else -1
            sid = self._next = self._next + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.totals[name] += t1 - t0 - frame[1]
                if calls:
                    self.totals[calls] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if counters:
                for k, v in counters(args, result, pre).items():
                    self.totals[k] += v
            return result

        return wrapper

    def install(self):
        targets = _targets()        # imports every traced module first
        modules = [m for n, m in sys.modules.items()
                   if n == "cotor" or n.startswith("cotor.")]
        for mod, path, name, calls, counters, before in targets:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:         # gone from the program: reads 0
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(
                        self.wrap(raw.__func__, name, calls, counters, before)))
                else:
                    setattr(cls, attr, self.wrap(raw, name, calls, counters, before))
                continue
            original = getattr(mod, path, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name, calls, counters, before)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def metrics(self) -> dict:
        return {m: self.totals[m] if m.endswith("_s") else int(self.totals[m])
                for m in METRICS}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "metrics": self.metrics()}) + "\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, round(t0, 9), round(t1, 9)])
                         + "\n")
