"""Lint-rule registry for the BSP functor contract.

Gunrock's correctness rests on a contract the compiler never sees: user
``cond``/``apply`` functors fused into advance/filter kernels must read
only *pre-kernel* state, route every concurrent write through
:mod:`repro.core.atomics`, declare ``idempotent = True`` only when
duplicate applies are harmless, and keep per-run state on the problem
(Sections 4.1.1 and 4.3 of the paper).  Each rule below names one way a
functor can silently break that contract.

Suppression: append ``# lint: allow(<rule-name>): justification`` to the
violating line (or the line directly above it).  Suppressions without a
matching violation are harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Rule:
    """One checkable clause of the BSP functor contract."""

    id: str
    name: str
    summary: str


RULES: Dict[str, Rule] = {
    rule.name: rule for rule in [
        Rule("GR000", "parse-error",
             "file could not be parsed as Python; nothing in it was "
             "checked (not suppressible)"),
        Rule("GR001", "raw-write",
             "raw fancy-index write to a problem array inside a functor "
             "method bypasses repro.core.atomics; concurrent lanes would "
             "race on a real GPU"),
        Rule("GR002", "idempotent-accumulate",
             "functor declares idempotent = True but its apply accumulates "
             "(+= / atomic_add / np.add.at); duplicate applies would "
             "double-count, so the declaration is unsound"),
        Rule("GR003", "functor-state",
             "functor method mutates state on the functor instance; per-run "
             "state belongs on the problem (Problem/Functor split, "
             "Section 4.3)"),
        Rule("GR004", "scalar-loop",
             "Python-level loop over lanes inside a functor method; every "
             "operator body is expected to be vectorized (one numpy call "
             "per CUDA kernel statement)"),
        Rule("GR005", "unregistered-array",
             "problem class allocates a per-element numpy array directly on "
             "self instead of through add_vertex_array/add_edge_array, "
             "hiding it from the memory-footprint audit and the sanitizer"),
        # -- effect-analysis rules (repro analyze, DESIGN §12) -------------
        Rule("GR006", "cond-impure",
             "a cond_* method writes problem state or calls outside the "
             "deterministic allowlist; fused kernels evaluate cond masks "
             "speculatively, so cond must be a pure predicate over "
             "pre-kernel state"),
        Rule("GR007", "nondeterministic-call",
             "functor method calls a known source of nondeterminism "
             "(np.random, random, time, uuid, ...); replay, checkpointing "
             "and bitwise pooled/fused equivalence all assume functor "
             "bodies are deterministic functions of pre-kernel state"),
        Rule("GR008", "narrowing-store",
             "value stored into a registered problem array sits higher on "
             "the dtype lattice than the array's registered dtype; the "
             "implicit cast truncates and breaks bitwise equivalence under "
             "a fused kernel"),
        Rule("GR009", "unrouted-store",
             "problem-array mutation invisible to the GR001 syntactic "
             "check: an in-place ufunc (out=), np.copyto, .fill(), or a "
             "store through an alias shape the legacy dataflow misses; "
             "route it through repro.core.atomics or suppress with a "
             "uniqueness justification"),
        Rule("GR010", "fused-write-hazard",
             "one functor writes the same problem array both through "
             "atomics and through plain stores; inside a single fused "
             "kernel the plain store races with the atomic's read-modify-"
             "write window"),
        Rule("GR011", "atomic-mix",
             "one functor method reduces the same array with conflicting "
             "atomic ops (e.g. atomic_min and atomic_max), or uses the "
             "order-dependent atomic_exch on a non-relaxed array; a fused "
             "reduction needs a single commutative+associative operator "
             "per array"),
        Rule("GR012", "unknown-effect",
             "the analysis cannot bound the method's effects: the problem "
             "object escapes into a non-allowlisted call, an attribute is "
             "rebound on the problem, or dynamic attribute machinery is "
             "used; unbounded effects veto fusion"),
    ]
}

RULES_BY_ID: Dict[str, Rule] = {r.id: r for r in RULES.values()}


@dataclass(frozen=True)
class Violation:
    """One lint finding, formatted as ``file:line: GRnnn[name] message``."""

    file: str
    line: int
    rule: Rule
    message: str

    def format(self) -> str:
        return (f"{self.file}:{self.line}: {self.rule.id}"
                f"[{self.rule.name}] {self.message}")
