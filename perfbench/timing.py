"""Summaries of per-operation wall times."""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for the tail figure, highest last.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def nearest_rank(samples, pct):
    """The nearest-rank percentile: the smallest sample with at least pct% at or below it."""
    ordered = sorted(samples)
    # round first so that 99.9% of 10000 is rank 9990, not 9991
    rank = max(1, math.ceil(round(pct * len(ordered) / 100.0, 9)))
    return ordered[rank - 1]


def tail_percentile(samples, beyond=10):
    """Highest percentile with at least ``beyond`` samples strictly above it.

    Returns ``(pct, value)``, or ``None`` when even the median has fewer
    than ``beyond`` samples above it.
    """
    best = None
    for pct in PERCENTILES:
        value = nearest_rank(samples, pct)
        if sum(1 for s in samples if s > value) >= beyond:
            best = (pct, value)
    return best


def op_seconds(times, cycle):
    """Mean over the input cycle of each input's median operation time.

    ``times[k]`` belongs to input ``k % cycle``.  Inputs differ in cost (the
    pair workloads cycle through five true families), so a plain median
    would jump with the number of slow inputs a run happens to reach; this
    weights every input once.  With one input it is the plain median.
    """
    if len(times) < cycle:
        raise ValueError(f"{len(times)} operations do not cover the {cycle} inputs")
    return statistics.fmean(statistics.median(times[i::cycle]) for i in range(cycle))


def summarize(samples):
    """Median, sample count and tail percentile of operation times."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "count": len(samples),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
    }
