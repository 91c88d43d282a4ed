"""Kernel backend selection.

Imports the compiled extension when it is built, the pure-Python
implementations otherwise; a checkout or install without the build runs
the pure kernels. Both backends export the same six kernels with
identical outputs: max_clique -> clique number, min_hitting_set -> a
minimum hitting set as a mask (its popcount is the size),
lex_min_hitting_set -> the lexicographically smallest one, given any,
canonical_bits -> canonical triangle bits, is_canonical -> bool, and
induced_embedding -> mapping tuple or None.
"""

from __future__ import annotations

try:
    from . import _speedups as _impl

    BACKEND = "compiled"
except ImportError:
    from . import _pure as _impl  # type: ignore[no-redef]

    BACKEND = "pure"

max_clique = _impl.max_clique
min_hitting_set = _impl.min_hitting_set
lex_min_hitting_set = _impl.lex_min_hitting_set
canonical_bits = _impl.canonical_bits
is_canonical = _impl.is_canonical
induced_embedding = _impl.induced_embedding

__all__ = [
    "BACKEND",
    "max_clique",
    "min_hitting_set",
    "lex_min_hitting_set",
    "canonical_bits",
    "is_canonical",
    "induced_embedding",
]
