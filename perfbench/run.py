"""Benchmark of the ``cotor`` CLI paths, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    homology-cold  cotor homology to degree 90 with an empty --cache-dir
    homology-warm  the same command, reading a cache written just before
    verify         cotor verify, all groups
    structure      cotor spectral (weight_s3, may_s5) and cotor ideal-check,
                   all at degree 80

A round runs the workload's commands once, each in a fresh single-threaded
process; a run repeats whole rounds until ``--seconds`` have passed (at
least one).  With ``--trace 0`` it reports the end-to-end metrics as the
median over its rounds; with ``--trace 1`` it runs one untraced and one
traced round and reports the per-layer metrics.  The outputs of every
round are checked (``checks.py``) outside the timed part.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracer import METRICS  # noqa: E402

HOMOLOGY_DEGREE = 90
STRUCTURE_DEGREE = 80
DECOMPOSE_SAMPLES = 4
SETUP_SAMPLES = 5          # set-up is sampled at least this often per run
DEADLINE_S = 170           # a run ends within 180 s

WORKLOADS = ("homology-cold", "homology-warm", "verify", "structure")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def commands(workload: str, cache_dir) -> list:
    """The CLI argument lists of one round."""
    if workload.startswith("homology"):
        return [["homology", "--max-degree", str(HOMOLOGY_DEGREE), "--format", "json",
                 "--cache-dir", str(cache_dir)]]
    if workload == "verify":
        return [["verify", "--format", "json"]]
    n = str(STRUCTURE_DEGREE)
    return [["spectral", "--scheme", "weight_s3", "--max-degree", n, "--format", "json"],
            ["spectral", "--scheme", "may_s5", "--max-degree", n, "--format", "json"],
            ["ideal-check", "--max-degree", n, "--format", "json"]]


def _env() -> dict:
    env = dict(os.environ)
    env.pop("COTOR_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.start = time.monotonic()
        self.env = _env()
        self.setups = []
        self.attempted = self.failed = 0
        self.problems = []
        self.notes = []
        self.info = ""

    def spawn(self, spec: dict) -> dict:
        """Run one worker process; returns its result with setup_s added."""
        timeout = DEADLINE_S - (time.monotonic() - self.start)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            return {"rc": "timeout"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"rc": f"worker exit {proc.returncode}: {proc.stderr[-800:]}"}
        res = json.loads(lines[-1])
        res["setup_s"] = res["setup_end"] - t0
        self.setups.append(res["setup_s"])
        return res

    # -- one round ------------------------------------------------------------

    def round(self, cache_dir, trace=False) -> dict:
        walls, cpus, peaks, layers = [], [], [], {}
        for i, argv in enumerate(commands(self.workload, cache_dir)):
            spec = {"mode": "cli", "argv": argv, "trace": trace,
                    "trace_out": str(BENCH / "_out" / f"trace-{self.workload}-{i}.jsonl")}
            res = self.spawn(spec)
            self.tally(argv, res)
            walls.append(res.get("wall_s", 0.0))
            cpus.append(res.get("cpu_s", 0.0))
            peaks.append(res.get("peak_rss_mb", 0.0))
            for k, v in res.get("layers", {}).items():
                layers[k] = layers.get(k, 0) + v
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(peaks),
                "layers": layers}

    def tally(self, argv, res):
        """Count the operations of one command and check its outputs."""
        if res.get("rc") not in (0, 1):
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{argv[0]} did not report: {str(res.get('rc'))[:300]}")
            return
        payload = json.loads(res["stdout"])
        if argv[0] == "homology":
            attempted = len(payload)
            failed = sum(1 for r in payload if not r["match"])
            problems = checks.homology_rows(payload, HOMOLOGY_DEGREE)
        elif argv[0] == "verify":
            attempted, failed, problems = checks.verify_payload(payload)
            self.info = f"verify: {attempted} records, {len(payload['errata'])} errata"
        elif argv[0] == "spectral":
            attempted, failed, problems = checks.spectral_payload(payload, argv[2])
        else:
            attempted, failed, problems = checks.ideal_payload(payload, STRUCTURE_DEGREE)
            self.info = (f"ideal-check: {payload['ideal_products']} ideal and "
                         f"{payload['split_products']} split products")
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    # -- whole runs -------------------------------------------------------------

    def cache_dir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True)
        return path

    def prepare(self):
        """The warm cache: one cold run of the same command, untimed."""
        if self.workload != "homology-warm":
            return None
        path = self.cache_dir("warm")
        res = self.spawn({"mode": "cli", "argv": commands(self.workload, path)[0]})
        if res.get("rc") != 0:
            self.problems.append(f"warm cache not written: {str(res.get('rc'))[:300]}")
        return path

    def measure(self, seconds: float) -> list:
        warm = self.prepare()
        rounds, checked = [], None
        t_start = time.monotonic()
        while not rounds or time.monotonic() - t_start < seconds:
            est = rounds[-1]["elapsed"] if rounds else 0.0
            if rounds and time.monotonic() - self.start + 2 * est > DEADLINE_S - 20:
                break
            t0 = time.monotonic()
            cache = warm or (self.cache_dir(f"cold-{len(rounds)}")
                             if self.workload == "homology-cold" else None)
            r = self.round(cache)
            r["elapsed"] = time.monotonic() - t0
            rounds.append(r)
            if self.workload == "homology-cold":
                if checked is None:
                    checked = cache
                else:
                    shutil.rmtree(cache)
        self.check_cache(warm or checked)
        return rounds

    def check_cache(self, path):
        if path is not None:
            self.problems += checks.cache_files(str(path), HOMOLOGY_DEGREE, self.seed)

    def check_decompositions(self):
        if self.workload != "structure":
            return
        samples = checks.decomposition_samples(self.seed, STRUCTURE_DEGREE,
                                               DECOMPOSE_SAMPLES)
        res = self.spawn({"mode": "decompose", "n_max": STRUCTURE_DEGREE,
                          "samples": samples})
        if "decompositions" not in res:
            self.problems.append(f"decompose: {str(res.get('rc'))[:300]}")
            return
        for sample, dec in zip(samples, res["decompositions"]):
            self.problems += checks.decomposition(sample, dec)

    def probe_setup(self):
        for _ in range(SETUP_SAMPLES - len(self.setups)):
            self.spawn({"mode": "probe"})


def end_to_end(runner: Runner, seconds: float) -> dict:
    rounds = runner.measure(seconds)
    runner.check_decompositions()
    runner.probe_setup()
    runner.notes.append(f"{len(rounds)} rounds, wall_s "
                        + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    return {"wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(runner.setups or [0.0]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds)}


def per_layer(runner: Runner) -> dict:
    warm = runner.prepare()
    cold = runner.cache_dir("cold") if runner.workload == "homology-cold" else None
    plain = runner.round(warm or cold)
    if cold is not None:
        shutil.rmtree(cold)
        cold = runner.cache_dir("cold-traced")
    traced = runner.round(warm or cold, trace=True)
    runner.check_cache(warm or cold)
    runner.check_decompositions()
    layers = traced["layers"]
    if runner.workload == "homology-warm":
        files = len(list(next(warm.iterdir()).iterdir()))
        runner.problems += checks.warm_trace(layers, files)
    out = {m: layers.get(m, 0) for m in METRICS}
    out["cpu_s"] = plain["cpu_s"]
    out["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return out


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def main(argv=None) -> int:
    # one core for the run and its workers, so every round is timed on the
    # same core (on a shared machine the cores' speeds vary independently)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cotor" / "cli.py").is_file():
        print(f"error: no cotor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (BENCH / "_out").mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, work)
    try:
        values = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in runner.notes + [runner.info] + runner.problems[:20]:
        if line:
            print(line)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()}}
    out = BENCH / "_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
