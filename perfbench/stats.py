"""Timing summaries: the median, and the highest percentile that still has
at least ten samples beyond it, with the sample count stated."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile q whose nearest-rank sample has at least
    MIN_BEYOND samples above it; None when there are too few samples."""
    best = None
    for q in range(1, 100):
        if count - math.ceil(q * count / 100) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: list[float]) -> dict:
    """{"samples", "p50", and "p<q>" for the tail percentile when it lies
    above the median}."""
    ordered = sorted(values)
    out: dict = {"samples": len(ordered), "p50": statistics.median(ordered)}
    q = tail_percentile(len(ordered))
    if q is not None and q > 50:
        out[f"p{q}"] = ordered[math.ceil(q * len(ordered) / 100) - 1]
    return out
