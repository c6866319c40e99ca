"""Differential engine-identity harness (shared, not collected).

Every engine-identity test drives primitives through
:func:`run_all_engines` instead of hand-rolling comparison loops.  The
contract it asserts:

* **pooled** is the reference (itself pinned to checked-in goldens by
  ``tests/test_golden_counters.py``).
* **fused** is a *bitwise* engine: every output array (values and
  dtype), the kernel-counter signature, total simulated cycles and every
  aggregate counter must match pooled exactly (the DESIGN §15 pin).
* **la** follows the per-primitive contract of DESIGN §16
  (:data:`LA_CONTRACTS`): bfs labels bitwise and preds validated as
  correct BFS parents rather than compared bitwise, rank arrays within
  tolerance.  Kernel counters are
  *comparable, not identical* — the LA backend launches semiring
  products, not operator kernels — so they are never compared.
  Primitives without an LA lowering must fall back to pooled (reason
  recorded), after which their outputs and counters are pooled's.
"""

import numpy as np

from repro import primitives
from repro.core.engine import clear_fallbacks, engine, last_fallback
from repro.simt import Machine

ALL_ENGINES = ("pooled", "fused", "la")

#: documented tolerance for the la engine's rank arrays (in practice the
#: LA loop replays the pooled residual schedule and matches bitwise)
RANK_RTOL = 1e-9
RANK_ATOL = 1e-12

#: per-primitive la-engine equivalence contract (DESIGN §16); primitives
#: absent here have no LA lowering and are expected to fall back
LA_CONTRACTS = {
    "bfs": {"bitwise": ("labels",), "validated": ("preds",)},
    "pagerank": {"tolerance": ("rank",)},
    "ppr": {"tolerance": ("rank",)},
}

_CALLERS = {
    "bfs": lambda g, m, kw: primitives.bfs(g, kw.pop("src"), machine=m, **kw),
    "sssp": lambda g, m, kw: primitives.sssp(g, kw.pop("src"), machine=m,
                                             **kw),
    "pagerank": lambda g, m, kw: primitives.pagerank(g, machine=m, **kw),
    "pagerank_gather": lambda g, m, kw: primitives.pagerank_gather(
        g, machine=m, **kw),
    "ppr": lambda g, m, kw: primitives.ppr(g, kw.pop("seeds"), machine=m,
                                           **kw),
    "cc": lambda g, m, kw: primitives.cc(g, machine=m, **kw),
    "bc": lambda g, m, kw: primitives.bc(g, kw.pop("src"), machine=m, **kw),
}


def counter_signature(machine):
    return [(k.name, k.cycles, k.items, k.iteration)
            for k in machine.counters.kernels]


def run_engines(run, engines=("pooled", "fused"), expect_fallback=()):
    """Run ``run(machine)`` under each engine in ``engines``.

    Specialized engines (fused, la) must dispatch — any fallback fails
    the test — unless named in ``expect_fallback``, in which case a
    fallback must have been recorded.  Returns
    ``{engine: (result, machine)}``.
    """
    out = {}
    for mode in engines:
        clear_fallbacks()
        with engine(mode):
            machine = Machine()
            out[mode] = (run(machine), machine)
        if mode in ("fused", "la"):
            if mode in expect_fallback:
                assert last_fallback() is not None, \
                    f"{mode} run expected to fall back but dispatched"
            else:
                assert last_fallback() is None, \
                    f"{mode} run unexpectedly fell back: {last_fallback()}"
    return out


def _assert_bitwise(reference, other, context):
    for key in reference.arrays:
        a, b = reference.arrays[key], other.arrays[key]
        assert a.dtype == b.dtype, (context, key, a.dtype, b.dtype)
        assert np.array_equal(a, b), (context, key)


def _validate_bfs_preds(graph, src, labels, preds):
    assert preds.dtype == np.int64
    for v in np.flatnonzero(labels > 0):
        p = int(preds[v])
        assert p >= 0, f"reached vertex {v} has no parent"
        assert labels[p] == labels[v] - 1, (v, p)
        assert v in graph.neighbors(p), (p, v)
    if graph.n:
        assert preds[src] == src
    assert np.all(preds[labels < 0] == -1)


def assert_la_contract(primitive, pooled_result, la_result, *,
                       graph=None, params=None):
    """Assert the la result against pooled per :data:`LA_CONTRACTS`."""
    contract = LA_CONTRACTS[primitive]
    for key in contract.get("bitwise", ()):
        a, b = pooled_result.arrays[key], la_result.arrays[key]
        assert a.dtype == b.dtype, (primitive, key)
        assert np.array_equal(a, b), (primitive, key)
    for key in contract.get("tolerance", ()):
        a, b = pooled_result.arrays[key], la_result.arrays[key]
        assert a.dtype == b.dtype, (primitive, key)
        assert np.allclose(a, b, rtol=RANK_RTOL, atol=RANK_ATOL), \
            (primitive, key)
    for key in contract.get("validated", ()):
        if key in la_result.arrays:
            _validate_bfs_preds(graph, int(params["src"]),
                                la_result.arrays["labels"],
                                la_result.arrays[key])


def assert_engine_identity(out, primitive, *, graph=None, params=None,
                           la_fell_back=False):
    """Cross-engine identity over a :func:`run_engines` result dict."""
    rp, mp = out["pooled"]
    if "fused" in out:
        rf, mf = out["fused"]
        _assert_bitwise(rp, rf, "fused")
        assert counter_signature(mf) == counter_signature(mp)
        assert mf.counters.cycles == mp.counters.cycles
        pooled, fused = mp.counters.as_dict(), mf.counters.as_dict()
        pooled.pop("kernels", None), fused.pop("kernels", None)
        assert pooled == fused
    if "la" in out:
        rl, ml = out["la"]
        if la_fell_back:
            # the fallback ran the pooled library loop: full identity
            _assert_bitwise(rp, rl, "la(fallback)")
            assert counter_signature(ml) == counter_signature(mp)
        else:
            assert_la_contract(primitive, rp, rl, graph=graph,
                               params=params)


def run_all_engines(primitive, graph, engines=ALL_ENGINES,
                    expect_fused_fallback=False, **kw):
    """Run ``primitive`` on ``graph`` under every engine and assert the
    cross-engine identity contract.  Returns ``{engine: (result,
    machine)}`` for tests that want to pin more.

    Primitive-specific inputs ride in ``**kw`` (``src=`` for bfs/sssp/bc,
    ``seeds=`` for ppr, plus any keyword the primitive accepts).
    """
    caller = _CALLERS[primitive]
    la_falls_back = primitive not in LA_CONTRACTS
    expect = set()
    if la_falls_back:
        expect.add("la")
    if expect_fused_fallback:
        expect.add("fused")
    out = run_engines(lambda m: caller(graph, m, dict(kw)),
                      engines=engines, expect_fallback=expect)
    assert_engine_identity(out, primitive, graph=graph, params=kw,
                           la_fell_back=la_falls_back)
    return out
