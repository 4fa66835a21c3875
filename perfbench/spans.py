"""Arithmetic of the benchmark: span self time, percentiles, error rate.

Kept free of any ``repro`` import so the benchmark's own tests
(``test_perfbench.py``) exercise it without the program.
"""

import math
import statistics

#: Percentiles a timing may be reported at, besides the median.
PERCENTILE_LADDER = (90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def union_length(intervals):
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """``{span_id: self seconds}``: each span's duration minus the part
    of its interval that its direct children cover.

    ``spans`` are ``[name, start, end, span_id, parent_id, ...]`` lists
    (the tracer's record layout).  Children are clipped to the parent's
    interval, and overlapping children count once.
    """
    by_id = {span[3]: span for span in spans}
    children = {}
    for span in spans:
        parent = span[4]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
    result = {}
    for span in spans:
        start, end = span[1], span[2]
        covered = union_length(
            (max(start, child[1]), min(end, child[2]))
            for child in children.get(span[3], ())
            if min(end, child[2]) > max(start, child[1])
        )
        result[span[3]] = (end - start) - covered
    return result


def aggregate(spans):
    """``{name: {"calls", "total_s", "self_s", "durations"}}`` over spans."""
    selfs = self_times(spans)
    out = {}
    for span in spans:
        entry = out.setdefault(
            span[0],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []},
        )
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += selfs[span[3]]
        entry["durations"].append(span[2] - span[1])
    return out


def percentile(values, p):
    """Linear-interpolation percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n):
    """The highest ladder percentile with at least
    :data:`MIN_TAIL_SAMPLES` of ``n`` samples beyond it, or ``None``."""
    best = None
    for p in PERCENTILE_LADDER:
        # Rounded: 100 - 99.9 is a hair under 0.1 in binary.
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def summarize(values):
    """Median, the tail percentile the sample count supports, and ``n``."""
    n = len(values)
    summary = {"n": n, "median": statistics.median(values)}
    p = tail_percentile(n)
    if p is not None:
        summary[f"p{p:g}"] = percentile(values, p)
    return summary


def error_rate(failed, attempted):
    """Failed operations over attempted ones (one operation is one CLI
    command plus its output check)."""
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def relative_spread(values):
    """Inter-quartile distance over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
