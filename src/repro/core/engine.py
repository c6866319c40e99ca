"""Execution-engine selection: unpooled / pooled / fused / la.

The repo grew four ways to run a primitive:

* **unpooled** — the oracle path: library operators, fresh allocations,
  no artifact reuse.  Slow, obviously correct, the reference the other
  two are pinned against.
* **pooled** — library operators over the pooled workspace + graph
  artifact cache (the default).
* **fused** — trace-guided specialization (:mod:`repro.core.fused`):
  the verified operator DAG of a primitive is compiled into a single
  super-step loop with no intermediate frontier materialization.  Only
  primitives whose :mod:`repro.analysis.fusion` verdict is *fusable*
  take this path; everything else silently falls back to pooled with a
  logged reason.
* **la** — the GraphBLAS-style linear-algebra backend
  (:mod:`repro.la`): frontier operations become masked SpMSpV (push)
  or SpMV (pull) over the frozen CSR/CSC artifacts, with a semiring
  per primitive.  Primitives without a linear-algebra lowering fall
  back to pooled with a logged reason (DESIGN §16).

The engine is the one execution-mode knob: ``unpooled`` is the only
engine that builds unpooled workspaces, every other engine pools (the
fused specializer and the linear-algebra backend run on pooled
artifacts).  Select it with the ``REPRO_ENGINE`` env var (read once at
import; default ``pooled``), the process-wide :func:`set_engine`, or the
scoped :func:`engine` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

ENGINES = ("unpooled", "pooled", "fused", "la")


def _env_engine() -> str:
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return raw if raw in ENGINES else "pooled"


_ENGINE: str = _env_engine()
#: whether new problems build pooled workspaces; derived from the engine
#: and kept as a plain global so hot-path readers pay one lookup
POOLED: bool = _ENGINE != "unpooled"


def engine_mode() -> str:
    """The engine new enactor runs will use."""
    return _ENGINE


def set_engine(mode: str) -> str:
    """Select the engine process-wide; returns the previous mode."""
    global _ENGINE, POOLED
    if mode not in ENGINES:
        raise ValueError(f"unknown engine {mode!r}; expected one of {ENGINES}")
    previous = _ENGINE
    _ENGINE = mode
    POOLED = mode != "unpooled"
    return previous


@contextmanager
def engine(mode: str) -> Iterator[None]:
    """Scoped engine selection: ``with engine("fused"): ...``."""
    previous = set_engine(mode)
    try:
        yield
    finally:
        set_engine(previous)


# -- fallback bookkeeping ----------------------------------------------------
#
# When the engine is ``fused`` or ``la`` but a run cannot take the
# specialized path, the dispatcher records (primitive, reason) here so the
# CLI / tests / serving tier can surface *why* — the fallback contract in
# DESIGN §15/§16 requires the reason to be observable, not just logged.

_FALLBACKS: List[Tuple[str, str]] = []
_FALLBACK_LIMIT = 256


def record_fallback(primitive: str, reason: str) -> None:
    if len(_FALLBACKS) >= _FALLBACK_LIMIT:
        del _FALLBACKS[: _FALLBACK_LIMIT // 2]
    _FALLBACKS.append((primitive, reason))


def fallback_log() -> List[Tuple[str, str]]:
    """Recent (primitive, reason) engine-dispatch fallbacks, oldest first."""
    return list(_FALLBACKS)


def last_fallback() -> Optional[Tuple[str, str]]:
    return _FALLBACKS[-1] if _FALLBACKS else None


def clear_fallbacks() -> None:
    del _FALLBACKS[:]
