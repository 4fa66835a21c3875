"""Pipelining-gain predictions for benchmark configurations.

Wraps the paper's pipeline equations (:mod:`repro.model.pipeline`,
Eqs. 2–4) with the machine bandwidth of a
:class:`~repro.net.params.SystemParams`.  Per-approach time predictions
live in :mod:`repro.model.approaches` and :mod:`repro.model.vector`.
"""

from __future__ import annotations

from typing import Optional

from ..net import SystemParams
from .pipeline import eta_large, t_bulk, t_pipelined

__all__ = ["predict_eta"]


def predict_eta(
    n_threads: int,
    theta: int,
    gamma: float,
    params: SystemParams,
    part_bytes: Optional[float] = None,
) -> float:
    """Predicted pipelining gain for a benchmark configuration.

    With ``part_bytes`` given, uses the full Eqs. (2)/(3) ratio;
    otherwise the asymptotic Eq. (4).
    """
    if part_bytes is None:
        return eta_large(n_threads, theta, params.bandwidth, gamma)
    tb = t_bulk(n_threads, theta, part_bytes, params.bandwidth)
    tp = t_pipelined(n_threads, theta, part_bytes, params.bandwidth, gamma)
    return tb / tp if tp > 0 else float("inf")
