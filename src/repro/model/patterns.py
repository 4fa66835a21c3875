"""The N-rank application-pattern model: per-point entry point and the
injected-noise helpers.

Extends the two-rank model of :mod:`repro.model.approaches` to the
:mod:`repro.apps` pattern harness: a pattern is a directed link graph,
and the predicted iteration time composes per-link message costs with
the pattern's topology (per-rank injection, per-pair wires, per-rank
receive processing, compute overlap and wavefront depth).  The formulas
live in the numpy kernel (:func:`repro.model.vector.pattern_batch`,
whose module docstring describes the composition);
:func:`predict_pattern_time` is a one-row call into it.

This is deliberately coarser than the two-rank model (the simulator
resolves per-link transients the closed form cannot), which is why the
pattern tolerance in :data:`repro.backends.crossval.TOLERANCES` is wider
than any bench tolerance.

**Injected noise** (``noise != "none"``) enters as a first-order mean
shift calibrated against the simulator:

* the expected slowest-thread delay per compute quantum
  (:func:`noise_mean_quantum`: the Single victim's amplitude, the
  Uniform mean, the truncated-Gaussian mean) accumulates to
  ``max_out`` quanta per rank per iteration;
* **streaming approaches** (:data:`STREAMING_APPROACHES`: partitioned,
  per-partition sends, the AM fallback) absorb that budget like extra
  overlappable compute — the staggered ready calls de-contend
  injection, down to a per-message drain floor — and wavefront hops are
  gated per *link* (one quantum);
* **bulk-gated approaches** (``pt2pt_single``, RMA epochs: nothing
  completes before the noisy compute phase ends) see the §2.1 metric
  remove the whole shift at depth 1, while every extra wavefront hop
  accumulates one full un-removed rank budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "PatternPrediction",
    "STREAMING_APPROACHES",
    "noise_mean_quantum",
    "predict_pattern_time",
    "predict_pattern_times",
]

#: Approaches whose partitions leave as each ``ready`` lands, so
#: injected noise staggers (and thereby overlaps) the injection instead
#: of gating it: partitioned sends, one-send-per-thread, and the AM
#: single-active-message fallback.  Everything else — the bulk-
#: synchronous baseline and the RMA epochs, whose completion waits for
#: the noisy compute phase end — is bulk-gated.
STREAMING_APPROACHES = ("pt2pt_part", "pt2pt_many", "pt2pt_part_old")


def noise_mean_quantum(
    noise: str, noise_us: float, noise_sigma_us: float
) -> float:
    """Expected slowest-thread injected delay (seconds) per compute
    quantum, per noise shape (:mod:`repro.apps.noise`).

    Single puts its whole amplitude on one victim thread — which is
    then the slowest — so the quantum is the amplitude itself; Uniform
    draws from ``U(0, 2a)`` with mean ``a``; Gaussian draws from
    ``N(a, σ)`` truncated at zero, whose mean is
    ``a·Φ(a/σ) + σ·φ(a/σ)``.
    """
    amplitude = noise_us * 1e-6
    sigma = noise_sigma_us * 1e-6
    if noise == "none" or (amplitude <= 0 and sigma <= 0):
        return 0.0
    if noise in ("single", "uniform"):
        return amplitude
    if noise == "gaussian":
        if sigma == 0:
            return amplitude
        z = amplitude / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return amplitude * cdf + sigma * phi
    raise KeyError(f"unknown noise model {noise!r}")


@dataclass(frozen=True)
class PatternPrediction:
    """Predicted per-iteration communication time for one pattern."""

    pattern: str
    approach: str
    time: float


def _dependency_depth(pattern, n_ranks: int) -> int:
    """Longest chain (in hops) of the pattern's blocking-receive DAG."""
    if not pattern.has_dependencies:
        return 0
    upstream: Dict[int, List[int]] = {}
    link_src = {link.key: link.src for link in pattern.links()}
    for rank in range(n_ranks):
        upstream[rank] = [
            link_src[key]
            for key in pattern.blocking_recvs(rank)
            if key in link_src
        ]
    depth: Dict[int, int] = {}

    def visit(rank: int) -> int:
        if rank in depth:
            return depth[rank]
        depth[rank] = 0  # cycle guard; the DAGs here are acyclic
        ups = upstream.get(rank, [])
        depth[rank] = 1 + max((visit(u) for u in ups), default=-1)
        return depth[rank]

    return max((visit(r) for r in range(n_ranks)), default=0)


def predict_pattern_time(config) -> PatternPrediction:
    """Predict the measured per-iteration time of one ``PatternConfig``.

    Accepts any object with the ``PatternConfig`` fields; the pattern
    topology is built through the apps registry (imported lazily — the
    model layer has no import-time dependency on it) and cached per
    unique geometry.
    """
    from .vector import pattern_batch

    time = float(pattern_batch([config]).times[0])
    return PatternPrediction(config.pattern, config.approach, time)


def predict_pattern_times(configs):
    """:func:`predict_pattern_time` over a whole batch.

    Returns a :class:`repro.model.vector.PatternBatch`: the ``times``
    plus the per-point ``bytes_per_iteration``/``n_links`` topology
    facts.  Link graphs are summarized once per unique topology instead
    of rebuilt per point.
    """
    from .vector import pattern_batch

    return pattern_batch(configs)
