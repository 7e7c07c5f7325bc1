"""The benchmark's warm check reads two counters of ``perfbench/tracer.py``:
``differential.matrix_calls`` (calls of ``Differential.matrix``) and
``cache.load_hits`` (``MatrixCache.load``).  The tracer skips a target that
no longer exists, so a renamed method would let the check pass with
nothing to count.  The tracer is read as text and run here, so that
nothing is written under ``perfbench/``."""

import json
import os
import subprocess
import sys
import types

import cotor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _tracer():
    module = types.ModuleType("tracer")
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), vars(module))
    return module


def test_the_warm_check_targets_exist():
    paths = {}
    for mod, path, name, calls, _, _ in _tracer()._targets():
        paths[calls or name] = mod, path
    for metric, want in (("differential.matrix_calls", "Differential.matrix"),
                         ("cache.load_s", "MatrixCache.load")):
        mod, path = paths[metric]
        assert path == want, metric
        cls, attr = path.split(".")
        assert callable(vars(getattr(mod, cls)).get(attr)), path


def test_the_warm_check_counts_builds_and_hits(tmp_path):
    # a cold d_0..d_9 builds and misses; a second engine on the same cache
    # builds nothing and reads the ten files
    code = f"""
import json, types
module = types.ModuleType("tracer")
exec(compile(open({TRACER!r}).read(), {TRACER!r}, "exec"), vars(module))
tracer = module.Tracer()
tracer.install()
from cotor.engine import Engine
seen = []
for _ in range(2):
    Engine(convention="parity", cache_dir={str(tmp_path)!r}).build_range(9)
    m = tracer.metrics()
    seen.append([m["differential.matrix_calls"], m["cache.load_hits"]])
print(json.dumps(seen))
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cotor.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    (cold_calls, cold_hits), (calls, hits) = json.loads(proc.stdout)
    assert cold_calls > 0 and cold_hits == 0
    assert (calls, hits) == (cold_calls, 10)
