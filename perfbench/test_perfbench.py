"""The benchmark's own tests, at reduced size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402


def _run(workload: str, trace: int, seed: int = run.HELD_OUT_SEED,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "small"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) and np.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_simulated_metrics_repeat_for_a_seed():
    sims = []
    for _ in range(2):
        proc = _run("serve", 0, seed=3)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        sims.append({k: metrics[k]["value"]
                     for k in ("sim_ms", "sim_p50_ms", "sim_p99_ms")})
    assert sims[0] == sims[1]


@pytest.fixture(scope="module")
def rmat_pass():
    inp = suite.make_inputs("rmat", 5, "small")
    return inp, suite.suite_pass(inp)


def test_correct_suite_passes_the_oracles(rmat_pass):
    inp, sp = rmat_pass
    assert checks.check_suite(inp, sp.results) == []


@pytest.mark.parametrize("primitive,array,corrupt", [
    ("bfs", "labels", lambda a: a.__setitem__(np.argmax(a), a.max() + 1)),
    ("sssp", "labels", lambda a: a.__setitem__(np.argmax(a > 0), 0.5)),
    ("pagerank", "rank", lambda a: a.__imul__(0.5)),
    ("ppr", "rank", lambda a: a.__setitem__(slice(None), a[::-1].copy())),
    ("cc", "component_ids", lambda a: a.__setitem__(0, a.max() + 1)),
    ("bc", "bc_values", lambda a: a.__iadd__(1.0)),
])
def test_a_corrupted_result_is_caught(rmat_pass, primitive, array, corrupt):
    inp, sp = rmat_pass
    arr = sp.results[primitive].arrays[array]
    saved = arr.copy()
    try:
        corrupt(arr)
        fails = checks.check_suite(inp, sp.results)
    finally:
        arr[...] = saved
    assert [f for f in fails if f.startswith(primitive + ":")], fails


def test_a_corrupted_reply_is_caught():
    inp = suite.make_inputs("serve", 5, "small")
    with layers.captured() as cap:
        suite.serve_pass(inp)
    what, arrays, graph, src = next(s for s in cap.bfs_samples
                                    if s[0] == "reply")
    assert checks.compare_bfs(what, arrays, graph, src) == []
    bad = dict(arrays, labels=arrays["labels"].copy())
    bad["labels"][bad["labels"] > 0] += 1
    assert checks.compare_bfs(what, bad, graph, src)


def test_a_changed_simulation_is_a_determinism_failure(rmat_pass):
    inp, sp = rmat_pass
    runner = run.Runner("rmat", inp)
    runner.note_signature(sp)
    changed = suite.SuitePass(sp.results, dict(sp.sim_ms, bfs=0.0),
                              sp.kernels, sp.counters)
    runner.note_signature(changed)
    assert runner.failures and "determinism" in runner.failures[0]


def test_an_unexercised_site_fails_coverage():
    fails = layers.coverage_failures("serve", {})
    assert len(fails) == len(layers.REQUIRED_SITES["serve"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("rmat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
