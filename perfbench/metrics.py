"""The benchmark's own arithmetic: percentiles, self time, open-loop latency.

Kept free of any dependency on the library under test so that
``test_metrics.py`` can pin every rule down on hand-made numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer would make the tail one or two unlucky requests.
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: str) -> int:
    """Nearest-rank index (1-based) of percentile ``p`` among ``n`` samples.

    Exact rational arithmetic, so ``p90`` of 100 samples is rank 90 and
    not 91 through a float rounding of ``0.9 * 100``.
    """
    return max(1, math.ceil(Fraction(p) / 100 * n))


def samples_beyond(n: int, p: str) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``."""
    return n - _rank(n, p)


def supported_percentile(n: int, ceiling: str = PERCENTILE_LADDER[-1]) -> Optional[str]:
    """The highest ladder percentile, at most ``ceiling``, that ``n``
    samples support (>= :data:`MIN_SAMPLES_BEYOND` beyond it); ``None``
    when not even the median is supported."""
    best = None
    for p in PERCENTILE_LADDER:
        if Fraction(p) > Fraction(ceiling):
            break
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: str) -> float:
    """Nearest-rank percentile ``p`` (a decimal string such as ``"99"``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), p) - 1])


def tail(values: Sequence[float], ceiling: str) -> dict:
    """``{"p", "value", "n"}`` at the highest supported percentile up to
    ``ceiling``.  ``p`` is ``None`` (and ``value`` the maximum) when the
    sample is too small to support even the median."""
    n = len(values)
    p = supported_percentile(n, ceiling)
    if p is None:
        return {"p": None, "value": float(max(values)) if values else float("nan"), "n": n}
    return {"p": p, "value": percentile(values, p), "n": n}


def window_percentiles(values: Sequence[float], window: int, p: str) -> list[float]:
    """Percentile ``p`` of each run of ``window`` consecutive samples.

    Each window must support ``p`` by itself; a trailing partial window
    is dropped.
    """
    if supported_percentile(window, p) != p:
        raise ValueError(f"a window of {window} samples does not support p{p}")
    if len(values) < window:
        raise ValueError(f"fewer than {window} samples")
    return [
        percentile(values[start : start + window], p)
        for start in range(0, len(values) - window + 1, window)
    ]


def good_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the good side: p25 when lower is better, p75 when
    higher is.

    Applied across windows or repeats of one run.  On a host whose speed
    swings for seconds at a time, this tracks the program as long as a
    quarter of the run ran undisturbed, where a median needs half.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return percentile(values, "25" if better == "lower" else "75")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals are counted once, and parts outside
    ``[lo, hi]`` are clipped away.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = lo
    for start, end in clipped:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def due_time_latency_ms(due: float, submitted_at: float, latency_ms: float) -> float:
    """Open-loop latency of one request: settle time minus *due* time.

    ``submitted_at + latency_ms`` is when the request settled; timing from
    the due time (not the send time) charges a late generator's stall to
    the requests it delayed.
    """
    return (submitted_at - due) * 1e3 + latency_ms
