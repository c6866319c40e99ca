"""Wall-clock engine benchmark: unpooled, pooled, fused and la on one protocol.

Measures real elapsed time (``machine=None`` — no simulated-cost
accounting) for BFS / SSSP / PageRank on an RMAT graph and a road grid
under every execution engine, and writes ``benchmarks/BENCH_engines.json``.

Measurement protocol
--------------------
Wall-clock on a shared box is noisy in two distinct ways, and the
protocol answers both:

* **Allocator/heap state contamination.**  Timings measured inside one
  process depend on what ran before them (glibc's heap grows, its mmap
  threshold adapts, fragmentation accumulates).  So *every cell × engine
  measurement runs in its own fresh subprocess*; engines never share a
  heap.
* **Machine-level drift.**  Background load moves all timings over a
  scale of minutes.  So the engines' subprocesses are *interleaved*:
  even rounds run them in one order, odd rounds in the reverse order,
  and each engine takes the **minimum** across rounds of each
  subprocess's own min — the least-noise estimator of a deterministic
  workload's true cost.

Each subprocess warms up once (plan compilation, artifact caches,
allocator state), asserts that a fused/la run did not fall back to the
library loop, times ``reps`` runs, and records tracemalloc peak memory
and live allocation blocks over one extra traced run.

Every engine shares one pooled measurement per cell, so the three ratios
are read against the same baseline: ``pooled_speedup`` =
unpooled_ms / pooled_ms, ``fused_speedup`` = pooled_ms / fused_ms and
``la_ratio`` = pooled_ms / la_ms (>1 means la is faster; the la backend
is a GraphBLAS-style cross-check and makes no speedup promise).  la is
timed only on the primitives it lowers (``repro.la.backend.RUNNERS``);
on the other cells an la run is the pooled loop after a fallback, so
``la_ms``, ``la_ratio`` and ``la_alloc`` are ``null`` there and the la
geomean covers the lowered cells only.

Each cell's ``contract`` bit is the verdict of the tier-1 differential
harness, ``tests/engines.py::run_all_engines``, run once per cell with a
simulated machine attached: unpooled and fused bitwise-equal to pooled
in outputs, kernel-counter signatures and counters; la per its DESIGN
§16 contract.  A failed assertion records ``contract: false`` and the
message in ``contract_error``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py           # full
    PYTHONPATH=src python benchmarks/bench_engines.py --quick   # CI
    ... --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TESTS = HERE.parent / "tests"
OUT_PATH = HERE / "BENCH_engines.json"

WEIGHT_SEED = 7
PR_ITERATIONS = 50

GRAPHS = {
    False: {  # full
        "rmat14": {"kind": "rmat", "scale": 14, "edge_factor": 16, "seed": 1},
        "road300": {"kind": "road", "width": 300, "height": 300, "seed": 1},
    },
    True: {  # --quick
        "rmat11": {"kind": "rmat", "scale": 11, "edge_factor": 16, "seed": 1},
        "road80": {"kind": "road", "width": 80, "height": 80, "seed": 1},
    },
}
PRIMITIVES = ("bfs", "sssp", "pagerank")
ENGINES = ("unpooled", "pooled", "fused", "la")
#: ratio key -> (numerator engine, denominator engine)
RATIOS = {
    "pooled_speedup": ("unpooled", "pooled"),
    "fused_speedup": ("pooled", "fused"),
    "la_ratio": ("pooled", "la"),
}


def build_graph(spec: dict):
    from repro.graph import generators

    if spec["kind"] == "rmat":
        return generators.rmat(spec["scale"], edge_factor=spec["edge_factor"],
                               seed=spec["seed"])
    return generators.road_grid(spec["width"], spec["height"],
                                seed=spec["seed"])


def cell_inputs(primitive: str, graph):
    """The graph and keyword arguments of one cell's primitive call."""
    from repro.graph.build import with_random_weights

    if primitive == "bfs":
        return graph, {"src": 0, "direction": "auto"}
    if primitive == "sssp":
        return with_random_weights(graph, seed=WEIGHT_SEED), {"src": 0}
    if primitive == "pagerank":
        return graph, {"max_iterations": PR_ITERATIONS}
    raise ValueError(f"unknown primitive {primitive!r}")


# --------------------------------------------------------------------------
# child mode: one (graph, primitive, engine) measurement per process
# --------------------------------------------------------------------------

def run_cell_child(spec: dict) -> None:
    from repro import primitives
    from repro.core.engine import fallback_log, set_engine

    set_engine(spec["engine"])
    graph, kw = cell_inputs(spec["primitive"], build_graph(spec["graph"]))
    fn = getattr(primitives, spec["primitive"])
    run = lambda: fn(graph, machine=None, **kw)
    run()  # warmup: plan compilation, artifact caches, allocator state
    if spec["engine"] in ("fused", "la") and fallback_log():
        raise SystemExit(f"{spec['engine']} run fell back: {fallback_log()}")
    times = []
    for _ in range(spec["reps"]):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    blocks = sum(s.count for s in tracemalloc.take_snapshot().statistics("filename"))
    tracemalloc.stop()
    json.dump({"min_ms": min(times) * 1e3,
               "all_ms": [t * 1e3 for t in times],
               "alloc_peak_kb": peak / 1024.0,
               "alloc_blocks": blocks}, sys.stdout)


def spawn_cell(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--cell",
         json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# parent mode: contract check, interleaved rounds, report
# --------------------------------------------------------------------------

def check_contract(primitive: str, graph) -> dict:
    """One ``run_all_engines`` sweep; its assertions are the contract."""
    from engines import run_all_engines  # tests/engines.py

    g, kw = cell_inputs(primitive, graph)
    try:
        run_all_engines(primitive, g, **kw)
    except AssertionError as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return {"contract": False,
                "contract_error": f"{Path(where.filename).name}:"
                                  f"{where.lineno}: {where.line} {exc}"}
    return {"contract": True, "contract_error": None}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_engines(primitive: str) -> tuple:
    """The engines a cell times: la only where it has a lowering."""
    from repro.la.backend import RUNNERS

    return tuple(e for e in ENGINES if e != "la" or primitive in RUNNERS)


def run_benchmark(quick: bool, out_path: Path, pairs: int, reps: int) -> dict:
    cells = []
    for gname, gspec in GRAPHS[quick].items():
        graph = build_graph(gspec)
        for primitive in PRIMITIVES:
            print(f"[cell] {primitive}/{gname} ...", flush=True)
            contract = check_contract(primitive, graph)
            engines = timed_engines(primitive)
            mins = {eng: [] for eng in engines}
            allocs = {}
            for rnd in range(pairs):
                # alternate the engine order so slow drift cancels
                order = engines if rnd % 2 == 0 else engines[::-1]
                for eng in order:
                    child = spawn_cell({"primitive": primitive,
                                        "graph": gspec, "engine": eng,
                                        "reps": reps})
                    mins[eng].append(child["min_ms"])
                    allocs[eng] = {
                        "peak_kb": round(child["alloc_peak_kb"], 1),
                        "blocks": child["alloc_blocks"]}
            ms = {eng: min(mins[eng]) for eng in engines}
            cell = {"primitive": primitive, "graph": gname,
                    "n": int(graph.n), "m": int(graph.m), **contract}
            for eng in ENGINES:
                cell[f"{eng}_ms"] = round(ms[eng], 3) if eng in ms else None
                cell[f"{eng}_alloc"] = allocs.get(eng)
            for key, (num, den) in RATIOS.items():
                cell[key] = round(ms[num] / ms[den], 4) \
                    if den in ms else None
            print("       " + "   ".join(f"{eng} {ms[eng]:8.1f} ms"
                                         for eng in engines), flush=True)
            print("       " + "   ".join(f"{key} {cell[key]:.2f}x"
                                         for key in RATIOS
                                         if cell[key] is not None)
                  + f"   contract={cell['contract']}", flush=True)
            if not cell["contract"]:
                print(f"       {cell['contract_error']}", flush=True)
            cells.append(cell)
    report = {
        "schema_version": 1,
        "config": {
            "quick": quick, "pairs": pairs, "reps": reps,
            "engines": list(ENGINES),
            "pr_iterations": PR_ITERATIONS, "weight_seed": WEIGHT_SEED,
            "python": platform.python_version(),
            "protocol": "fresh subprocess per cell*engine, interleaved "
                        "rounds (order reversed on odd rounds), min across "
                        "rounds of per-process min",
        },
        "cells": cells,
    }
    for key in RATIOS:
        report[f"geomean_{key}"] = round(
            geomean(c[key] for c in cells if c[key] is not None), 4)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print()
    for key in RATIOS:
        print(f"geomean {key}: {report[f'geomean_{key}']:.3f}x")
    print(f"wrote {out_path}")
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="small graphs / fewer rounds (CI perf-smoke)")
    ap.add_argument("--out", type=Path, default=OUT_PATH)
    ap.add_argument("--pairs", type=int, default=None,
                    help="interleaved subprocess rounds per cell")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed runs inside each subprocess")
    ap.add_argument("--cell", help="(internal) run one measurement cell")
    args = ap.parse_args()
    if args.cell:
        run_cell_child(json.loads(args.cell))
        return 0
    pairs = args.pairs if args.pairs is not None else (2 if args.quick else 4)
    reps = args.reps if args.reps is not None else (3 if args.quick else 5)
    run_benchmark(args.quick, args.out, pairs, reps)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(TESTS)]
    raise SystemExit(main())
