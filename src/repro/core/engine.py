"""Execution-engine selection: pooled / fused / la.

There are three ways to run a primitive:

* **pooled** — the library path: operators over the pooled workspace +
  graph artifact cache (the default).  It is held to checked-in output
  and kernel-signature goldens (``tests/golden_outputs.json``), to the
  serial oracles in :mod:`repro.reference`, and bitwise to the fused
  runners.
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

The engine is the one execution-mode knob.  Select it with the
``REPRO_ENGINE`` env var (read once at import; default ``pooled``; an
unknown name raises), the process-wide :func:`set_engine`, or the scoped
:func:`engine` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

ENGINES = ("pooled", "fused", "la")


def _check_engine(mode: str) -> str:
    if mode not in ENGINES:
        raise ValueError(f"unknown engine {mode!r}; expected one of {ENGINES}")
    return mode


def _env_engine() -> str:
    raw = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return _check_engine(raw) if raw else "pooled"


_ENGINE: str = _env_engine()


def engine_mode() -> str:
    """The engine new enactor runs will use."""
    return _ENGINE


def set_engine(mode: str) -> str:
    """Select the engine process-wide; returns the previous mode."""
    global _ENGINE
    previous = _ENGINE
    _ENGINE = _check_engine(mode)
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

_fallback_log: List[Tuple[str, str]] = []
_LOG_LIMIT = 256


def record_fallback(primitive: str, reason: str) -> None:
    if len(_fallback_log) >= _LOG_LIMIT:
        del _fallback_log[: _LOG_LIMIT // 2]
    _fallback_log.append((primitive, reason))


def fallback_log() -> List[Tuple[str, str]]:
    """Recent (primitive, reason) engine-dispatch fallbacks, oldest first."""
    return list(_fallback_log)


def last_fallback() -> Optional[Tuple[str, str]]:
    return _fallback_log[-1] if _fallback_log else None


def clear_fallbacks() -> None:
    del _fallback_log[:]
