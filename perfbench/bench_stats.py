"""The benchmark's own arithmetic: medians, percentiles, spreads, check tallies.

Kept free of ``numpy`` and of the ``repro`` package so it can be tested
on its own and imported before the run settings are applied.
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence

__all__ = [
    "Checks",
    "failed_share",
    "median",
    "percentile",
    "quartile_spread",
    "samples_beyond",
]


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence.

    Raises:
        ValueError: if ``values`` is empty.
    """
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile by linear interpolation, with its sample count.

    The count travels with the value because a tail percentile of a few
    samples is not a measurement of the tail.

    Args:
        values: the samples, in any order.
        q: percentile in ``[0, 100]``.

    Returns:
        ``(value, n)`` where ``n = len(values)``.

    Raises:
        ValueError: if ``values`` is empty or ``q`` is out of range.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, len(ordered)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile.

    A percentile is worth reporting once at least ten samples lie
    beyond it.
    """
    return n * (1.0 - q / 100.0)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)``'s (the
    exclusive method), the definition the acceptance check uses.

    Raises:
        ValueError: if fewer than two values are given or the median
            is zero.
    """
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread of values whose median is zero")
    return (q3 - q1) / abs(mid)


def failed_share(failed: int, attempted: int) -> float:
    """Failed correctness checks over checks attempted.

    Raises:
        ValueError: if nothing was attempted, or the counts are
            inconsistent.
    """
    if attempted <= 0:
        raise ValueError("no checks were attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(
            f"failed checks ({failed}) must lie in [0, attempted={attempted}]"
        )
    return failed / attempted


class Checks:
    """Correctness checks attempted and failed, with the failures' names."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        """Count one check; remember ``what`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)
