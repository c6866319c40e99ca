"""Graph file I/O: edge lists, MatrixMarket, and DIMACS shortest-path format.

These are the formats the original Gunrock distribution reads (its
``market`` loader) plus the two most common interchange formats for the
paper's datasets (SNAP edge lists, DIMACS ``.gr``).

Every reader raises :class:`GraphIOError` on malformed input, naming the
file and (for text formats) the 1-based line where parsing failed, so a
bad dataset is diagnosable without a stack trace.  It subclasses
``ValueError`` for backward compatibility; the CLI maps it to exit
status 2.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .coo import Coo
from .csr import Csr

PathLike = Union[str, Path]


class GraphIOError(ValueError):
    """A graph file could not be read; carries file and line context."""

    def __init__(self, message: str, *, path: Optional[PathLike] = None,
                 line: Optional[int] = None):
        self.path = None if path is None else str(path)
        self.line = line
        where = ""
        if self.path is not None:
            where = self.path if line is None else f"{self.path}:{line}"
            where += ": "
        super().__init__(f"{where}{message}")


def _open_text(path: PathLike, mode: str):
    if "r" in mode:
        p = Path(path)
        try:
            return open(p, mode, encoding="utf-8")
        except OSError as exc:
            raise GraphIOError(exc.strerror or str(exc), path=path) from exc
    return open(Path(path), mode, encoding="utf-8")


def _check_weight(w: float, line: str, path: PathLike, lineno: int) -> None:
    """Reject NaN/inf weights where they are read: downstream relaxations
    (SSSP's near/far pile) never settle on a non-finite priority."""
    if not math.isfinite(w):
        raise GraphIOError(f"non-finite edge weight: {line.strip()!r}",
                           path=path, line=lineno)


# -- SNAP-style edge lists ----------------------------------------------------

def write_edgelist(g: Csr, path: PathLike, *, header: bool = True) -> None:
    """Write ``src dst [weight]`` lines (SNAP style, '#' comments)."""
    src = g.edge_sources
    with _open_text(path, "w") as fh:
        if header:
            fh.write(f"# repro graph: {g.n} vertices, {g.m} edges\n")
        if g.edge_values is not None:
            for s, d, w in zip(src.tolist(), g.indices.tolist(),
                               g.edge_values.tolist()):
                fh.write(f"{s}\t{d}\t{w:g}\n")
        else:
            for s, d in zip(src.tolist(), g.indices.tolist()):
                fh.write(f"{s}\t{d}\n")


def read_edgelist(path: PathLike, n: Optional[int] = None,
                  undirected: bool = False) -> Csr:
    """Read a SNAP-style edge list; a third column becomes edge weights."""
    srcs, dsts, vals = [], [], []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphIOError(f"malformed edge line: {line!r}",
                                   path=path, line=lineno)
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
                if len(parts) >= 3:
                    vals.append(float(parts[2]))
            except ValueError:
                raise GraphIOError(f"non-numeric edge entry: {line!r}",
                                   path=path, line=lineno) from None
            if len(parts) >= 3:
                _check_weight(vals[-1], line, path, lineno)
            if vals and len(vals) != len(srcs):
                raise GraphIOError(
                    "some edges have weights and some do not",
                    path=path, line=lineno)
    src = np.asarray(srcs, dtype=np.int64) if srcs else np.zeros(0, np.int64)
    dst = np.asarray(dsts, dtype=np.int64) if dsts else np.zeros(0, np.int64)
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if len(src) else 0
    coo = Coo(src, dst, n, np.asarray(vals) if vals else None)
    if undirected:
        coo = coo.symmetrized()
    return coo.to_csr()


# -- MatrixMarket -------------------------------------------------------------

def write_matrix_market(g: Csr, path: PathLike) -> None:
    """Write MatrixMarket coordinate format (1-based, 'general')."""
    src = g.edge_sources
    field = "real" if g.edge_values is not None else "pattern"
    with _open_text(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        fh.write(f"{g.n} {g.n} {g.m}\n")
        if g.edge_values is not None:
            for s, d, w in zip(src.tolist(), g.indices.tolist(),
                               g.edge_values.tolist()):
                fh.write(f"{s + 1} {d + 1} {w:g}\n")
        else:
            for s, d in zip(src.tolist(), g.indices.tolist()):
                fh.write(f"{s + 1} {d + 1}\n")


def read_matrix_market(path: PathLike, undirected: Optional[bool] = None) -> Csr:
    """Read MatrixMarket coordinate files ('general' or 'symmetric').

    ``undirected=None`` symmetrizes exactly when the header says
    ``symmetric`` — the behaviour of Gunrock's market loader.
    """
    with _open_text(path, "r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphIOError("not a MatrixMarket file", path=path, line=1)
        tokens = header.lower().split()
        if "coordinate" not in tokens:
            raise GraphIOError(
                "only coordinate MatrixMarket files are supported",
                path=path, line=1)
        pattern = "pattern" in tokens
        symmetric = "symmetric" in tokens
        lineno = 1
        line = fh.readline()
        lineno += 1
        while line.startswith("%"):
            line = fh.readline()
            lineno += 1
        try:
            rows, cols, nnz = (int(x) for x in line.split())
        except ValueError:
            raise GraphIOError(f"malformed size line: {line.strip()!r}",
                               path=path, line=lineno) from None
        if rows != cols:
            raise GraphIOError("adjacency matrix must be square",
                               path=path, line=lineno)
        src = np.empty(nnz, dtype=np.int64)
        dst = np.empty(nnz, dtype=np.int64)
        vals = None if pattern else np.empty(nnz, dtype=np.float64)
        for i in range(nnz):
            line = fh.readline()
            lineno += 1
            if not line:
                raise GraphIOError(
                    f"unexpected end of file: expected {nnz} entries, "
                    f"got {i}", path=path, line=lineno)
            parts = line.split()
            try:
                src[i] = int(parts[0]) - 1
                dst[i] = int(parts[1]) - 1
                if vals is not None:
                    vals[i] = float(parts[2])
            except (ValueError, IndexError):
                raise GraphIOError(f"malformed entry: {line.strip()!r}",
                                   path=path, line=lineno) from None
            if vals is not None:
                _check_weight(vals[i], line, path, lineno)
    coo = Coo(src, dst, rows, vals)
    if undirected is None:
        undirected = symmetric
    if undirected:
        coo = coo.symmetrized()
    return coo.to_csr()


# -- binary (.npz) -------------------------------------------------------------

def write_npz(g: Csr, path: PathLike) -> None:
    """Binary CSR snapshot (NumPy ``.npz``): the fast path for repeated
    experiments on generated graphs — loads in milliseconds where text
    formats take seconds."""
    import numpy as _np

    arrays = {"indptr": g.indptr, "indices": g.indices,
              "n": _np.int64(g.n)}
    if g.edge_values is not None:
        arrays["edge_values"] = g.edge_values
    _np.savez_compressed(str(path), **arrays)


def read_npz(path: PathLike) -> Csr:
    """Load a binary CSR snapshot written by :func:`write_npz`."""
    import numpy as _np

    try:
        data = _np.load(str(path))
    except OSError as exc:
        raise GraphIOError(str(exc), path=path) from exc
    with data:
        if "indptr" not in data or "indices" not in data:
            raise GraphIOError("not a repro CSR snapshot "
                               "(missing 'indptr'/'indices')", path=path)
        values = data["edge_values"] if "edge_values" in data else None
        try:
            return Csr(data["indptr"], data["indices"], values,
                       n=int(data["n"]))
        except ValueError as exc:
            raise GraphIOError(str(exc), path=path) from None


# -- DIMACS ssp (.gr) ----------------------------------------------------------

def write_dimacs(g: Csr, path: PathLike) -> None:
    """Write 9th-DIMACS-challenge shortest path format (weights required)."""
    w = g.weight_or_ones()
    src = g.edge_sources
    with _open_text(path, "w") as fh:
        fh.write(f"p sp {g.n} {g.m}\n")
        for s, d, wt in zip(src.tolist(), g.indices.tolist(), w.tolist()):
            fh.write(f"a {s + 1} {d + 1} {wt:g}\n")


def read_dimacs(path: PathLike) -> Csr:
    """Read DIMACS ``.gr`` shortest-path files."""
    srcs, dsts, vals = [], [], []
    n = 0
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.startswith("c") or not line.strip():
                continue
            try:
                if line.startswith("p"):
                    parts = line.split()
                    n = int(parts[2])
                elif line.startswith("a"):
                    _, s, d, w = line.split()
                    srcs.append(int(s) - 1)
                    dsts.append(int(d) - 1)
                    vals.append(float(w))
                    _check_weight(vals[-1], line, path, lineno)
                else:
                    raise GraphIOError(
                        f"unexpected DIMACS line: {line.strip()!r}",
                        path=path, line=lineno)
            except GraphIOError:
                raise
            except (ValueError, IndexError):
                raise GraphIOError(
                    f"malformed DIMACS line: {line.strip()!r}",
                    path=path, line=lineno) from None
    coo = Coo(np.asarray(srcs, np.int64) if srcs else np.zeros(0, np.int64),
              np.asarray(dsts, np.int64) if dsts else np.zeros(0, np.int64),
              n, np.asarray(vals) if vals else None)
    return coo.to_csr()
