"""The repository benchmark: end-to-end and per-layer numbers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rmat --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``rmat``, ``road``, ``serve``, ``serve-sharded``
(see ``perfbench/README.md`` for why each exists).  ``--seed`` (default
1) generates every input.  ``--trace 0`` measures the end-to-end metrics
with nothing instrumented; ``--trace 1`` makes the separate traced run
that splits the time across layers.  ``--size small`` shrinks every input
for the benchmark's own tests.

Every run checks the program's outputs outside the timed region and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

#: set-up time is measured from here, before the program is imported
_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("rmat", "road", "serve", "serve-sharded")
DEFAULT_SEED = 1
#: never used while the benchmark was tuned; see README.md
HELD_OUT_SEED = 9001
#: set-ups per run (this process plus fresh child processes)
SETUP_SAMPLES = 3
#: requests in the short replay that warms up a serving process
SERVE_WARMUP_REQUESTS = 30

END_TO_END = {
    "setup_s": "s", "suite_ms": "ms", "wall_rps": "1/s", "sim_ms": "ms",
    "sim_p50_ms": "ms", "sim_p99_ms": "ms", "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "graph.build_ms": "ms", "graph.csc_ms": "ms", "graph.self_ms": "ms",
    **{f"primitives.{p}_ms": "ms"
       for p in ("bfs", "sssp", "pagerank", "ppr", "cc", "bc")},
    "primitives.self_ms": "ms",
    "core.supersteps": "count", "core.advance.calls": "count",
    "core.advance.ms": "ms", "core.filter.calls": "count",
    "core.filter.ms": "ms", "core.filter.keep_ratio": "ratio",
    "core.neighbor_reduce.ms": "ms", "core.compute.ms": "ms",
    "core.direction.pull_frac": "ratio", "core.self_ms": "ms",
    "simt.charge_ms": "ms", "simt.launches": "count",
    "simt.atomics": "count", "simt.atomic_conflicts": "count",
    "simt.edges": "count", "simt.self_ms": "ms",
    "serve.execute_batch.calls": "count", "serve.execute_batch.ms": "ms",
    "serve.lanes_per_batch": "count", "serve.cache.hit_rate": "ratio",
    "serve.scheduler_self_ms": "ms", "serve.workload_ms": "ms",
    "serve.self_ms": "ms",
    "dynamic.apply.ms": "ms", "dynamic.repair.calls": "count",
    "dynamic.repair.ms": "ms", "dynamic.compact.ms": "ms",
    "dynamic.repair_fallback_ratio": "ratio", "dynamic.self_ms": "ms",
    "shard.failovers": "count", "shard.hedges": "count",
    "shard.repairs": "count",
    "obs.overhead_ratio": "ratio", "obs.attributed_frac": "ratio",
}

#: the traced run's root spans must cover at least this share of its wall
MIN_ATTRIBUTED = 0.9


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# -- set-up -----------------------------------------------------------------

def setup(workload: str, seed: int, size: str):
    """Generate the inputs and run one warm-up pass (artifact caches,
    lazy imports, allocator state).  Returns the inputs."""
    import suite

    inp = suite.make_inputs(workload, seed, size)
    if workload in suite.ANALYTICS:
        suite.suite_pass(inp)
    else:
        warm = dataclasses.replace(
            inp, spec=dataclasses.replace(
                inp.spec, requests=SERVE_WARMUP_REQUESTS, updates=1))
        suite.serve_pass(warm)
    return inp


def scaled_setup_seconds() -> float:
    """Seconds since process start, scaled to the reference machine
    speed measured right after."""
    import calib

    wall = time.perf_counter() - _T0
    return calib.scale(wall, calib.calibrate())


def child_setup_seconds(args) -> List[float]:
    """Set up again in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- one pass and its simulated signature ------------------------------------

def time_weighted_median(durations: List[float]) -> float:
    """The duration of the kernel in which the median simulated
    microsecond is spent.  (The plain median kernel of a suite is a bare
    launch, the same on every graph.)"""
    import numpy as np

    ordered = np.sort(durations)
    cum = np.cumsum(ordered)
    return float(ordered[np.searchsorted(cum, 0.5 * cum[-1])])


class Runner:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, workload: str, inp):
        import suite

        self.suite = suite
        self.workload = workload
        self.inp = inp
        self.analytics = workload in suite.ANALYTICS
        self.reference_sig = None
        self.failures: List[str] = []
        self.last = None

    def ops_per_pass(self) -> int:
        return len(self.suite.SUITE) if self.analytics \
            else self.inp.spec.requests

    def run(self, with_machine: bool = True) -> float:
        """One pass; returns its wall seconds and checks its signature."""
        t0 = time.perf_counter()
        if self.analytics:
            out = self.suite.suite_pass(self.inp, with_machine)
        else:
            out = self.suite.serve_pass(self.inp)
        wall = time.perf_counter() - t0
        if with_machine:
            self.last = out
            self.note_signature(out)
        return wall

    def note_signature(self, out) -> None:
        sig = out.signature() if self.analytics \
            else self.suite.serve_signature(out)
        if self.reference_sig is None:
            self.reference_sig = sig
        elif sig != self.reference_sig:
            self.failures.append(
                "determinism: simulated results of a pass differ from "
                "the first pass with the same seed")

    # -- checks outside the timed region --------------------------------

    def check(self) -> Dict[str, float]:
        """Output checks; returns the simulated metrics of the checked
        pass."""
        import numpy as np

        import checks
        import layers

        if self.analytics:
            self.failures += checks.check_suite(self.inp, self.last.results)
            kernels = self.last.kernel_ms()
            return {"sim_ms": sum(self.last.sim_ms.values()),
                    "sim_p50_ms": time_weighted_median(kernels),
                    "sim_p99_ms": float(np.percentile(kernels, 99))}
        # one more replay, sampled at its boundaries: its report must
        # equal the timed replays', and its sampled bfs replies and
        # repairs must equal direct runs
        with layers.captured() as cap:
            report = self.suite.serve_pass(self.inp)
        self.note_signature(report)
        self.failures += checks.check_report(report)
        if not cap.lanes_checked:
            self.failures.append("serve: no bfs reply was sampled")
        for what, arrays, graph, src in cap.bfs_samples:
            self.failures += checks.compare_bfs(what, arrays, graph, src)
        if not cap.repairs_checked:
            self.failures.append("serve: no bfs repair was sampled")
        self.last = report
        from repro.simt.machine import GPUSpec

        return {"sim_ms": GPUSpec().cycles_to_ms(cap.cycles),
                "sim_p50_ms": report.p50_ms, "sim_p99_ms": report.p99_ms}

    def ok_frac(self) -> float:
        if self.analytics:
            bad = {f.split(":", 1)[0] for f in self.failures}
            return 1.0 - len(bad & set(self.suite.SUITE)) / len(
                self.suite.SUITE)
        return self.last.served / self.last.requests


# -- the two kinds of run ------------------------------------------------------

def end_to_end(args, inp, setup_main: float) -> dict:
    import calib

    setups = [setup_main] + child_setup_seconds(args)
    runner = Runner(args.workload, inp)
    if runner.analytics:
        # the warm-up pass of set-up is the determinism reference
        runner.run()
    # each pass is scaled by the mean of the calibrations around it
    walls: List[float] = []
    scaled: List[float] = []
    cal = calib.calibrate()
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.run())
        after = calib.calibrate()
        scaled.append(calib.scale(walls[-1], (cal + after) / 2))
        cal = after
    ops = runner.ops_per_pass() * len(walls)
    sim = runner.check()
    print(f"# {args.workload} seed={args.seed}: {len(walls)} timed passes, "
          f"raw median {statistics.median(walls) * 1e3:.1f} ms, scaled "
          f"set-ups {[round(s, 3) for s in setups]} s", flush=True)
    metrics = {
        "setup_s": statistics.median(setups),
        "suite_ms": statistics.median(scaled) * 1e3,
        "wall_rps": runner.ops_per_pass() / statistics.median(scaled),
        **sim,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": runner.ok_frac(),
    }
    return _result(runner, ops, metrics, END_TO_END)


def per_layer(args, tracer, inp) -> dict:
    import layers

    setup_stats, setup_sites = tracer.stats, tracer.site_calls
    tracer = layers.Tracer()
    runner = Runner(args.workload, inp)
    walls_u: List[float] = []   # untraced, with the cost model
    walls_n: List[float] = []   # untraced, machine=None
    walls_t: List[float] = []   # traced
    deadline = time.perf_counter() + args.seconds
    while not walls_t or time.perf_counter() < deadline:
        walls_u.append(runner.run())
        if runner.analytics:
            walls_n.append(runner.run(with_machine=False))
        with layers.traced(tracer):
            walls_t.append(runner.run())
    passes = len(walls_t)
    ops = runner.ops_per_pass() * (len(walls_u) + len(walls_n) + passes)
    runner.failures += layers.coverage_failures(
        args.workload, Counter(setup_sites) + Counter(tracer.site_calls))
    attributed = tracer.root_ns() / 1e9 / sum(walls_t)
    if not MIN_ATTRIBUTED <= attributed <= 1.0 + 1e-9:
        runner.failures.append(
            f"reconcile: layer self times cover {attributed:.3f} of the "
            f"traced wall, outside [{MIN_ATTRIBUTED}, 1]")
    traced_report = runner.last
    runner.check()
    print(f"# {args.workload} seed={args.seed}: {passes} traced passes",
          flush=True)

    st = tracer.stats
    cnt = tracer.counts

    def ms(name: str) -> float:
        return st[name].total_ns / 1e6 / passes if name in st else 0.0

    def calls(name: str) -> float:
        return st[name].calls / passes if name in st else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "graph.build_ms": setup_stats["graph.build"].total_ns / 1e6
        if "graph.build" in setup_stats else 0.0,
        "graph.csc_ms": (setup_stats["graph.csc"].total_ns / 1e6
                         if "graph.csc" in setup_stats else 0.0)
        + ms("graph.csc"),
    }
    for p in ("bfs", "sssp", "pagerank", "ppr", "cc", "bc"):
        m[f"primitives.{p}_ms"] = ms(f"primitives.{p}")
    m.update({
        "core.supersteps": cnt["supersteps"] / passes,
        "core.advance.calls": calls("core.advance"),
        "core.advance.ms": ms("core.advance"),
        "core.filter.calls": calls("core.filter"),
        "core.filter.ms": ms("core.filter"),
        "core.filter.keep_ratio": ratio(cnt["filter_out"],
                                        cnt["filter_in"]),
        "core.neighbor_reduce.ms": ms("core.neighbor_reduce"),
        "core.compute.ms": ms("core.compute"),
        "core.direction.pull_frac": ratio(cnt["bfs_pull_advances"],
                                          cnt["bfs_advances"]),
        "simt.charge_ms": (statistics.median(walls_u)
                           - statistics.median(walls_n)) * 1e3
        if walls_n else 0.0,
    })
    counters = traced_report.counters if runner.analytics else {}
    for key in ("launches", "atomics", "atomic_conflicts", "edges"):
        m[f"simt.{key}"] = float(counters.get(key, 0))
    m.update({
        "serve.execute_batch.calls": calls("serve.execute_batch"),
        "serve.execute_batch.ms": ms("serve.execute_batch"),
        "serve.lanes_per_batch": ratio(cnt["lanes"] / passes,
                                       calls("serve.execute_batch")),
        "serve.cache.hit_rate": 0.0 if runner.analytics
        else traced_report.hit_rate,
        "serve.scheduler_self_ms": st["serve.replay"].self_ns / 1e6 / passes
        if "serve.replay" in st else 0.0,
        "serve.workload_ms": ms("serve.workload"),
        "dynamic.apply.ms": ms("dynamic.apply"),
        "dynamic.repair.calls": calls("dynamic.repair"),
        "dynamic.repair.ms": ms("dynamic.repair"),
        "dynamic.compact.ms": ms("dynamic.compact"),
        "dynamic.repair_fallback_ratio": ratio(
            cnt["repair_fallbacks"] / passes, calls("dynamic.repair")),
    })
    shard = {} if runner.analytics else traced_report.shard
    m["shard.failovers"] = float(shard.get("failovers", 0))
    m["shard.hedges"] = float(shard.get("hedges_launched", 0))
    m["shard.repairs"] = float(shard.get("repairs", 0))
    for layer, ns in tracer.layer_self_ns().items():
        m[f"{layer}.self_ms"] = ns / 1e6 / passes
    m["obs.overhead_ratio"] = statistics.median(walls_t) \
        / statistics.median(walls_u)
    m["obs.attributed_frac"] = attributed
    return _result(runner, ops, m, PER_LAYER)


def _result(runner: Runner, attempted: int, values: Dict[str, float],
            units: Dict[str, str]) -> dict:
    for failure in runner.failures:
        print(f"FAIL {failure}", flush=True)
    return {
        "correct": not runner.failures,
        "attempted": int(attempted),
        "failed": len(runner.failures),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    if args.setup_child:
        setup(args.workload, args.seed, args.size)
        print(scaled_setup_seconds())
        return 0
    try:
        if args.trace:
            import layers

            tracer = layers.Tracer()
            with layers.traced(tracer):
                inp = setup(args.workload, args.seed, args.size)
            result = per_layer(args, tracer, inp)
        else:
            inp = setup(args.workload, args.seed, args.size)
            result = end_to_end(args, inp, scaled_setup_seconds())
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
