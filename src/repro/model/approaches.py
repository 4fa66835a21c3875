"""The two-rank benchmark model: per-point entry point and shared helpers.

Extends the pipeline equations of :mod:`repro.model.pipeline` to the
full two-rank benchmark template of :mod:`repro.bench.harness`: for each
of the eight registered approaches the model predicts the *measured
communication time* — time-to-solution minus compute removal, exactly
the §2.1 metric the simulator reports.  The formulas live in one place,
the numpy kernel :mod:`repro.model.vector` (its docstring describes the
stage-by-stage composition); :func:`predict_bench_time` is a one-row
call into it.  This module keeps the parameter-only helpers the kernel
shares, each a scalar of the :class:`~repro.net.params.SystemParams`
alone.

The per-approach agreement with the simulator is measured — not
assumed — by ``python -m repro figures --backend both`` (the
cross-validation report); the enforced tolerances live in
:data:`repro.backends.crossval.TOLERANCES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..net import SystemParams

__all__ = [
    "BenchPrediction",
    "predict_bench_time",
    "predict_bench_times",
]


@dataclass(frozen=True)
class BenchPrediction:
    """Predicted measured communication time for one benchmark point."""

    approach: str
    time: float


def _token_path(p: SystemParams, send_overhead: float) -> float:
    """One 0-byte notification message end to end."""
    return send_overhead + p.wire_time(0) + p.latency + p.recv_overhead


def _ctrl_path(p: SystemParams) -> float:
    """One 0-byte control packet end to end (posted at ctrl cost)."""
    return p.ctrl_overhead + p.wire_time(0) + p.latency + p.ctrl_overhead


def _rendezvous_rtt(p: SystemParams) -> float:
    """The RTS→CTS handshake round trip that paces rendezvous data
    injections (RTS wire + handling, CTS answer + wire + handling)."""
    return 2.0 * (p.wire_time(0) + p.latency) + 3.0 * p.ctrl_overhead


def _zcopy_queue_contenders(p: SystemParams) -> float:
    """Steady-state VCI-lock contender count of a saturated rendezvous
    pipeline on a single VCI.

    Each in-flight message spawns a progress-engine data injection that
    queues on the same lock as the threads' RTS posts; the queue (and
    with it the episode-peak contender count) grows until the two posts
    per message cost as much as the RTS/CTS round trip that feeds them.
    Solving ``2·post·M(c) = 0.8·rtt`` for the quadratic multiplier
    ``M(c) = 1 + a·c + b·c²`` gives the saturation point (the 0.8
    calibrates the partially-overlapped ramp-up)."""
    if p.post_overhead <= 0:
        return 0.0  # free posts never saturate the lock
    target = 0.8 * _rendezvous_rtt(p) / (2.0 * p.post_overhead)
    if target <= 1.0:
        return 0.0
    a, b = p.vci_contention_coeff, p.vci_contention_quad
    if b <= 0:
        return (target - 1.0) / a if a > 0 else 0.0
    return (-a + math.sqrt(a * a + 4.0 * b * (target - 1.0))) / (2.0 * b)


def predict_bench_time(spec) -> BenchPrediction:
    """Predict the measured communication time of one ``BenchSpec``.

    Accepts any object with the ``BenchSpec`` fields (the model layer
    stays import-independent of the bench layer); raises ``KeyError``
    for an approach the model does not cover.
    """
    from .vector import bench_batch_times

    return BenchPrediction(spec.approach, float(bench_batch_times([spec])[0]))


def predict_bench_times(specs):
    """:func:`predict_bench_time` over a whole batch, as a float64
    numpy array (one kernel pass per machine model and VCI method)."""
    from .vector import bench_batch_times

    return bench_batch_times(specs)
