"""GraphBLAS-style linear-algebra executor backend (``--engine la``).

Frontier operations become masked semiring products over the frozen
CSR/CSC artifacts: SpMSpV for push (sparse frontier), SpMV for pull
(dense frontier), SpGEMM for the triangle-counting workload.  See
DESIGN §16 for the semiring table and the per-primitive equivalence
contract against the operator engines.
"""

from .backend import RUNNERS, SEMIRING_OF, try_la
from .semiring import (BOOL_OR_AND, PLUS_TIMES, SEMIRINGS, Semiring, spmspv,
                       spmv)
from .spgemm import try_triangles_la

__all__ = [
    "BOOL_OR_AND", "PLUS_TIMES", "RUNNERS",
    "SEMIRINGS", "SEMIRING_OF", "Semiring", "spmspv", "spmv", "try_la",
    "try_triangles_la",
]
