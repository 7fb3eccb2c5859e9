"""Order statistics shared by the run and the steadiness command."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def _rank(percentile: int, count: int) -> int:
    return -(-percentile * count // 100)   # nearest rank, 1-based


def min_samples(percentile: int) -> int:
    """The fewest samples whose nearest-rank ``percentile`` still has ten
    samples ranked after it."""
    count = 1
    while count - _rank(percentile, count) < TAIL_BEYOND:
        count += 1
    return count


def tail_value(samples: list[float], percentile: int) -> float:
    """The nearest-rank ``percentile`` of ``samples``; at least ten
    samples must rank after it."""
    if len(samples) < min_samples(percentile):
        raise ValueError(f"{len(samples)} samples leave fewer than "
                         f"{TAIL_BEYOND} beyond the {percentile}th percentile")
    return sorted(samples)[_rank(percentile, len(samples)) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")
