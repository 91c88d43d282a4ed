"""Kernel backend selection.

Imports the compiled extension when it is built, the pure-Python
implementations otherwise. Set LOCDIM_NO_SPEEDUPS=1 to force the pure
backend (useful for benchmarking and for debugging kernel disagreements).
Five kernels: max_clique, min_hitting_set, canonical_bits, is_canonical and
induced_embedding. The compiled extension has no is_canonical; on that
backend it is canonical_bits(n, adj) == own, the full search without the
early exit.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

if os.environ.get("LOCDIM_NO_SPEEDUPS"):
    from . import _pure as _impl

    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        from . import _pure as _impl  # type: ignore[no-redef]

        BACKEND = "pure"

max_clique = _impl.max_clique
min_hitting_set = _impl.min_hitting_set
canonical_bits = _impl.canonical_bits
induced_embedding = _impl.induced_embedding

if BACKEND == "pure":
    is_canonical = _impl.is_canonical
else:

    def is_canonical(n: int, adj: Sequence[int], own: int) -> bool:
        return _impl.canonical_bits(n, adj) == own


__all__ = [
    "BACKEND",
    "max_clique",
    "min_hitting_set",
    "canonical_bits",
    "is_canonical",
    "induced_embedding",
]
