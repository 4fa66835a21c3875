"""The closed-form cost model of every approach and pattern — the kernel.

This module is the analytic model.  Every formula of the analytic
backend lives here, evaluated over numpy columns, so a whole parameter
grid costs a handful of array operations instead of one Python call per
point.  The per-point entry points
(:func:`repro.model.approaches.predict_bench_time`,
:func:`repro.model.patterns.predict_pattern_time`) are one-row calls
into it.  Golden digests taken from the earlier scalar implementation
(``tests/model/golden_model.json``) pin its output bit for bit; the
simulator cross-validation (:data:`repro.backends.crossval.TOLERANCES`)
is the independent check of the model itself.

Two-rank benchmark model
------------------------
For each of the eight registered approaches the kernel composes the
simulator's calibrated costs (:class:`~repro.net.params.SystemParams`,
honoring the :class:`~repro.mpi.cvars.Cvars` runtime knobs) into a
first-order prediction of the *measured communication time* —
time-to-solution minus compute removal, exactly the §2.1 metric the
simulator reports.  The composition mirrors the simulated pipeline stage
by stage:

* **sender injection** — per-message critical-section time under the VCI
  lock, inflated by :meth:`SystemParams.contention_multiplier` for the
  threads sharing each VCI (Fig. 5's congestion), over ``min(threads,
  vcis)`` parallel lanes;
* **wire serialization** — every forward packet (handshakes included)
  occupies the single directional wire for
  :meth:`SystemParams.wire_time` (Fig. 6's residual bound);
* **receiver processing** — per-message RX work serialized per VCI,
  plus the partitioned path's shared completion-counter atomics
  (Fig. 6's ≈×4 residual);
* **pipelining** — with ``n`` messages and a compute delay ``D`` on the
  last partition, the measured time is ``max((n-1)·bottleneck - D, 0)``
  plus one full message path (Eq. 3 generalized to per-stage
  bottlenecks).

Application-pattern model
-------------------------
A pattern (:mod:`repro.apps`) is a directed link graph; the predicted
iteration time composes per-link message costs with the graph's
topology, summarized once per unique geometry:

* **per-rank injection** — every rank posts one message per thread per
  outgoing link, serialized over its VCIs with the same contention
  multiplier as the two-rank model;
* **per-pair wire serialization** — each ordered rank pair owns one
  directional wire; all messages between the pair share it;
* **per-rank receive processing** — incoming messages serialize on the
  destination's VCIs;
* **compute overlap** — the per-partition useful work
  (``compute_us_per_mb``) is interleaved with the ready calls in the
  apps harness, so it overlaps the injection bottleneck before being
  removed by the §2.1 metric;
* **wavefront depth** — patterns with blocking receives (Sweep3D)
  serialize along the dependency DAG's longest chain: one hop's
  receive must complete before the next rank's compute phase starts;
* **injected noise** — a first-order mean shift (see
  :mod:`repro.model.patterns`).

Accuracy is first-order by design: the discrete-event simulator resolves
transient queueing, lock-handoff interleavings, and barrier skew that a
closed form cannot.  The pattern model is coarser still, which is why
its tolerance is wider than any bench tolerance.

Batching
--------
Points are grouped by the parameters that select *code paths* rather
than *values* — the approach (each has its own predictor), the frozen
:class:`~repro.net.params.SystemParams` (so every ``p.*`` cost is a
scalar inside a group), and the ``vci_method`` string.  Everything else
(sizes, thread counts, partition counts, VCI counts, compute rates)
varies per point as an int64/float64 column.  Data-dependent branches
(protocol ladder, zcopy queue-feedback regimes, pipeline bounds) are
boolean masks combined with ``np.where``.

Two entry points per family:

* :func:`bench_batch_times` / :func:`pattern_batch` — take spec
  dataclasses (the :meth:`~repro.backends.base.Backend.run_batch` path);
* :func:`bench_times_from_columns` / :func:`pattern_times_from_columns`
  — take bare column arrays, so the campaign fast path can decode a
  million grid indices straight into parameter columns without ever
  constructing a spec object.

Sizes are assumed to stay below 2**53 bytes (exact int64→float64
conversion); every grid in the repo is far below that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..net import SystemParams
from ..telemetry import span
from .approaches import (
    _ctrl_path,
    _rendezvous_rtt,
    _token_path,
    _zcopy_queue_contenders,
)

__all__ = [
    "APPROACH_PREDICTORS",
    "bench_batch_times",
    "bench_times_from_columns",
    "pattern_batch",
    "pattern_times_from_columns",
    "PatternBatch",
    "BENCH_COLUMN_FIELDS",
    "PATTERN_COLUMN_FIELDS",
]

#: BenchSpec fields the column-based bench kernel consumes (everything
#: else — iterations, warmup, seed, verify … — does not enter the model).
BENCH_COLUMN_FIELDS = (
    "approach",
    "total_bytes",
    "n_threads",
    "theta",
    "gamma_us_per_mb",
    "gaussian_mu_us_per_mb",
)

#: PatternConfig fields the column-based pattern kernel consumes.  The
#: first four shape the link topology (summarized once per unique
#: geometry); the rest enter the per-point arithmetic directly.
PATTERN_COLUMN_FIELDS = (
    "pattern",
    "n_ranks",
    "n_threads",
    "msg_bytes",
    "approach",
    "compute_us_per_mb",
    "noise",
    "noise_us",
    "noise_sigma_us",
)


# ---------------------------------------------------------------------------
# elementwise counterparts of the SystemParams helpers
# ---------------------------------------------------------------------------

def _mult_vec(p: SystemParams, contenders):
    """``SystemParams.contention_multiplier`` over an array."""
    n = np.maximum(0, contenders)
    return 1.0 + p.vci_contention_coeff * n + p.vci_contention_quad * n * n


def _wire_vec(p: SystemParams, nbytes):
    """``SystemParams.wire_time`` over an array."""
    return p.wire_gap + (nbytes + p.header_bytes) / p.bandwidth


def _copy_vec(p: SystemParams, nbytes):
    """``SystemParams.copy_time`` over an array."""
    return nbytes / p.copy_bandwidth


def _bit_length_vec(x: np.ndarray) -> np.ndarray:
    """``int.bit_length()`` elementwise for non-negative ints below
    2**53: ``frexp`` returns the binary exponent of the exact float."""
    return np.frexp(np.asarray(x, dtype=np.float64))[1].astype(np.int64)


def _barrier_vec(p: SystemParams, parties) -> np.ndarray:
    """``SystemParams.barrier_time`` over an array.

    ``rounds = (parties - 1).bit_length()`` is 0 for ``parties <= 1``,
    so ``barrier_time``'s early-return-0 branch folds into the product.
    """
    return p.thread_barrier_base * _bit_length_vec(
        np.maximum(np.asarray(parties, dtype=np.int64) - 1, 0)
    )


def _ceil_div(a, b):
    """Exact integer ``ceil(a / b)`` (matches ``math.ceil`` of the float
    quotient for every magnitude used by the models)."""
    return -(-np.asarray(a, dtype=np.int64) // np.asarray(b, dtype=np.int64))


def _chain_max(*terms):
    """Elementwise ``max(...)`` over mixed scalar/array terms."""
    out = terms[0]
    for term in terms[1:]:
        out = np.maximum(out, term)
    return out


# ---------------------------------------------------------------------------
# per-message stage costs
# ---------------------------------------------------------------------------

@dataclass
class _MsgCostV:
    """Per-message stage costs of one transfer protocol (array-valued)."""

    #: Sender critical-section time (VCI lock held), incl. eager pack.
    post: Any
    #: Forward-wire occupancy (data + any forward handshake packets).
    wire: Any
    #: Receiver-side processing (RX loop), incl. eager unpack.
    rx: Any
    #: One-message end-to-end path, posting to receive completion.
    path: Any


def _tag_msg_cost_vec(p: SystemParams, nbytes, mult) -> _MsgCostV:
    """Stage costs of one tag-matched message (short/bcopy/zcopy)."""
    nbytes = np.asarray(nbytes, dtype=np.int64)
    zc = nbytes > p.eager_max
    bc = (nbytes > p.short_max) & ~zc
    wire0 = p.wire_time(0)
    wire_nb = _wire_vec(p, nbytes)
    # zcopy: RTS -> (match) -> CTS -> data; the CTS crosses the reverse
    # wire, so only RTS + data load the forward direction.  The
    # progress engine's data injection contends on the same VCI lock as
    # the threads' RTS posts.
    z_post = p.post_overhead * mult * 2.0
    z_wire = wire0 + wire_nb
    z_rx = p.ctrl_overhead + p.put_handler_overhead
    z_path = (
        p.post_overhead * mult + wire0 + p.latency
        + p.ctrl_overhead                      # RTS handled
        + p.ctrl_overhead + wire0 + p.latency
        + p.ctrl_overhead                      # CTS answered + handled
        + p.post_overhead                      # data injected
        + wire_nb + p.latency + p.put_handler_overhead
    )
    # short/bcopy (eager): bcopy packs and unpacks through bounce buffers
    pack = np.where(bc, _copy_vec(p, nbytes), 0.0)
    e_post = p.post_overhead * mult + pack
    e_rx = p.recv_overhead + pack  # unpack == pack for bcopy, 0 for short
    e_path = e_post + wire_nb + p.latency + e_rx
    return _MsgCostV(
        post=np.where(zc, z_post, e_post),
        wire=np.where(zc, z_wire, wire_nb),
        rx=np.where(zc, z_rx, e_rx),
        path=np.where(zc, z_path, e_path),
    )


def _put_msg_cost_vec(p: SystemParams, nbytes, mult) -> _MsgCostV:
    """Stage costs of one RMA put (no matching at the target)."""
    post = p.put_overhead * mult
    wire = _wire_vec(p, nbytes)
    rx = p.put_handler_overhead
    return _MsgCostV(
        post=post, wire=wire, rx=rx, path=post + wire + p.latency + rx
    )


# ---------------------------------------------------------------------------
# bench geometry columns
# ---------------------------------------------------------------------------

@dataclass
class _BenchCols:
    """Bench spec fields the model consumes, for one (params,
    vci_method) group — every field a column over the group's points."""

    params: SystemParams
    vci_method: str
    n_threads: np.ndarray
    theta: np.ndarray
    total_bytes: np.ndarray
    num_vcis: np.ndarray
    part_aggr_size: np.ndarray
    #: Compute delay of the last partition (s); overlappable by pipelining.
    delay: np.ndarray
    #: True when any compute model staggers the threads' posts (even a
    #: delay-free one): a busy producer never saturates the VCI lock.
    compute_active: np.ndarray

    @property
    def n_parts(self) -> np.ndarray:
        return self.n_threads * self.theta

    @property
    def part_bytes(self) -> np.ndarray:
        return self.total_bytes // self.n_parts


def _negotiated_vec(n_parts, total_bytes, aggr) -> np.ndarray:
    """Internal message count of a partitioned transfer of ``n_parts``
    partitions on both sides (``negotiate_message_count`` over columns).

    Aggregation can only merge messages when it is enabled and one
    message of ``total_bytes // n_parts`` bytes is non-empty and fits
    in ``aggr``; every other row keeps one message per partition.  A
    mergeable row's count depends only on ``n_parts`` and the merge
    limit ``k_max = min(n_parts, aggr // msg_bytes)``, so the
    pure-Python negotiation runs once per unique pair of those.
    """
    n_parts = np.asarray(n_parts, dtype=np.int64)
    total_bytes = np.asarray(total_bytes, dtype=np.int64)
    aggr = np.asarray(aggr, dtype=np.int64)
    msg_bytes = total_bytes // n_parts
    rows = np.nonzero((aggr > 0) & (msg_bytes > 0) & (msg_bytes <= aggr))[0]
    counts = n_parts.copy()
    if rows.size:
        from ..mpi.partitioned import negotiate_message_count

        n = n_parts[rows]
        k_max = np.minimum(n, aggr[rows] // msg_bytes[rows])
        _, first, inverse = np.unique(
            n * (n.max() + 1) + k_max, return_index=True, return_inverse=True
        )
        rep = rows[first]
        values = np.array(
            [
                negotiate_message_count(int(k), int(k), int(tb), int(a))
                for k, tb, a in zip(n_parts[rep], total_bytes[rep], aggr[rep])
            ],
            dtype=np.int64,
        )
        counts[rows] = values[np.asarray(inverse).reshape(-1)]
    return counts


def _tag_transfer_vec(
    cols: _BenchCols,
    n_msgs,
    nbytes,
    contenders,
    lanes,
    rx_lanes,
    rx_extra=0.0,
    path_extra=0.0,
    extra_serial=0.0,
) -> Tuple[np.ndarray, _MsgCostV]:
    """Last-message completion time of a tag-matched message pipeline,
    net of the overlappable compute delay, plus the per-message cost.

    Returns ``(transfer, msg)``.  ``extra_serial`` is additional
    globally-serialized per-message work (e.g. the partitioned path's
    shared-counter atomics).  Beyond the generic stage-bottleneck
    pipeline this captures the single-VCI rendezvous regime: every
    progress-engine data injection queues on the VCI lock *behind* the
    threads' already-enqueued RTS posts (the lock grants FIFO), so the
    RTS prefix serializes in front of the data drain instead of
    overlapping it — and the queue feedback saturates the contender
    count (see :func:`~repro.model.approaches._zcopy_queue_contenders`).
    """
    p = cols.params
    nbytes = np.asarray(nbytes, dtype=np.int64)
    contenders = np.asarray(contenders, dtype=np.float64)
    zsv = (
        np.asarray(lanes == 1)
        & np.asarray(n_msgs > 1)
        & (nbytes > p.eager_max)
    )
    wire_nb = _wire_vec(p, nbytes)
    rtt = _rendezvous_rtt(p)
    # The queue can only build as far as the messages feeding it: short
    # pipelines never reach the steady-state contender count.
    c_sat = np.maximum(
        contenders,
        np.minimum(_zcopy_queue_contenders(p), contenders + n_msgs / 2.0),
    )
    pair = 2.0 * p.post_overhead * _mult_vec(p, c_sat)
    # The queue feedback only sustains itself while the saturated double
    # post still outpaces the wire and no compute delay staggers the
    # producers; otherwise the lock queue drains and only the initial
    # thread burst serializes ahead of the data.
    saturated = zsv & ~cols.compute_active & (pair >= wire_nb)
    contenders = np.where(saturated, c_sat, contenders)
    burst = zsv & ~saturated
    prefix_msgs = np.where(
        burst, np.minimum(n_msgs, cols.n_threads), n_msgs
    )
    # Escalated episode-peak regime: while one data packet crosses the
    # wire, ~wire/ctrl_overhead CTS-spawned injections pile onto the
    # never-idle lock, so its sticky peak climbs to that count and later
    # posts pay the inflated multiplier — the run splits between the
    # base and the escalated plateau.  The hump only ignites once a wire
    # slot clearly exceeds the handshake RTT (below that the base
    # feedback already keeps pace), and beyond ~2.5 RTT per slot the CTS
    # stream starves, the lock idles, and the peak resets (the plain
    # wire bound is then exact).
    hump_window = (
        burst
        & ~cols.compute_active
        & (n_msgs > 2 * cols.n_threads)
        & (1.15 * rtt < wire_nb)
        & (wire_nb < 2.5 * rtt)
    )
    c2 = wire_nb / p.ctrl_overhead
    pair2 = 2.0 * p.post_overhead * _mult_vec(p, c2)
    hump_bn = np.where(
        hump_window & (pair2 > wire_nb), (pair + pair2) / 2.0, 0.0
    )
    mult = _mult_vec(p, contenders)
    msg = _tag_msg_cost_vec(p, nbytes, mult)
    rx = msg.rx + rx_extra
    path = msg.path + path_extra
    # zcopy-single-VCI regime: RTS prefix serializes ahead of the drain.
    post_half = p.post_overhead * mult
    z_bn = _chain_max(
        post_half, msg.wire, rx / rx_lanes, extra_serial, hump_bn
    )
    z_transfer = (
        np.maximum(prefix_msgs * post_half + (n_msgs - 1) * z_bn
                   - cols.delay, 0.0)
        + path
    )
    # generic stage-bottleneck pipeline
    e_bn = _chain_max(msg.post / lanes, msg.wire, rx / rx_lanes, extra_serial)
    e_transfer = np.maximum((n_msgs - 1) * e_bn - cols.delay, 0.0) + path
    return np.where(zsv, z_transfer, e_transfer), msg


def _pipeline_vec(n_msgs, cost: _MsgCostV, post_lanes, rx_lanes, delay,
                  extra_serial=0.0):
    """Last-message completion time of an ``n_msgs`` pipeline.

    ``extra_serial`` is additional globally-serialized per-message work.
    The delayed last partition overlaps the ``n_msgs - 1`` earlier
    transfers (Eq. 3 generalized); one full message path closes the
    pipeline.
    """
    bottleneck = _chain_max(
        cost.post / post_lanes, cost.wire, cost.rx / rx_lanes, extra_serial
    )
    return np.maximum((n_msgs - 1) * bottleneck - delay, 0.0) + cost.path


# ---------------------------------------------------------------------------
# per-approach predictors
# ---------------------------------------------------------------------------

def _vec_pt2pt_single(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    barrier = _barrier_vec(p, cols.n_threads)
    msg = _tag_msg_cost_vec(p, cols.total_bytes, 1.0)
    # Bulk semantics: both team barriers precede the single send, and
    # the compute delay is fully removed by the metric.
    return 2.0 * barrier + msg.path


def _vec_pt2pt_many(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n, s = cols.n_parts, cols.part_bytes
    barrier = _barrier_vec(p, cols.n_threads)
    # Each thread duplicates the communicator: one VCI per thread when
    # available, otherwise threads share and pay the lock contention.
    lanes = np.maximum(1, np.minimum(cols.n_threads, cols.num_vcis))
    per_vci = _ceil_div(cols.n_threads, lanes)
    transfer, msg = _tag_transfer_vec(
        cols, n, s, per_vci - 1, lanes, lanes
    )
    # The receiver's master pre-posts all n receives before its team
    # barrier; a huge partition count can outlast the arrivals.
    prepost = n * p.recv_post_overhead + msg.rx
    return barrier + np.maximum(transfer, prepost)


def _part_post_geometry_vec(cols: _BenchCols, n_msgs, msg_bytes):
    """(lanes, base contenders, rx lanes) for partitioned messages."""
    p = cols.params
    if cols.vci_method == "comm":
        # Partitioned traffic follows its communicator's single VCI.
        # The serialized pready chain staggers the threads' arrivals at
        # the lock, so the episode peak ramps up instead of starting at
        # N - 1 (measured ≈ 0.8·(N-1) effective contenders) — except on
        # the rendezvous path, where the progress engine's data posts
        # keep the queue saturated at the full thread count.
        ones = np.ones_like(cols.n_threads)
        stagger = np.where(msg_bytes > p.eager_max, 1.0, 0.8)
        return ones, stagger * (cols.n_threads - 1), ones
    # tag_rr / thread: messages spread round-robin over the VCIs.
    lanes = np.maximum(
        1, np.minimum(np.minimum(cols.n_threads, cols.num_vcis), n_msgs)
    )
    per_vci = _ceil_div(
        cols.n_threads,
        np.maximum(1, np.minimum(cols.num_vcis, cols.n_threads)),
    )
    rx_lanes = np.maximum(1, np.minimum(n_msgs, cols.num_vcis))
    return lanes, per_vci - 1.0, rx_lanes


def _pready_vec(p: SystemParams, n_threads) -> np.ndarray:
    """``pready_atomic_time(n_threads) + pready_overhead`` columns."""
    extra = np.maximum(0, n_threads - 1)
    return (
        p.atomic_overhead + p.pready_atomic_bounce * extra
    ) + p.pready_overhead


def _vec_pt2pt_part(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n_msgs = _negotiated_vec(
        cols.n_parts, cols.total_bytes, cols.part_aggr_size
    )
    msg_bytes = cols.total_bytes // n_msgs
    barrier = _barrier_vec(p, cols.n_threads)
    lanes, contenders, rx_lanes = _part_post_geometry_vec(
        cols, n_msgs, msg_bytes
    )
    # Every Pready serializes on the request's shared counters; every
    # internal-message completion serializes on the receiver's shared
    # counter, whose episode peak ramps with the delivering contexts
    # (average ≈ half the lane count over a figure-sized burst).
    pready = _pready_vec(p, cols.n_threads)
    preadys_per_msg = cols.n_parts / n_msgs
    completion_atomic = (
        p.atomic_overhead + p.atomic_bounce_coeff * (rx_lanes - 1) / 2.0
    )
    # A message leaves only after *all* its partitions' Pready calls
    # cleared the globally-serialized shared counter, so the closing
    # path carries its whole pready share.
    transfer, msg = _tag_transfer_vec(
        cols, n_msgs, msg_bytes, contenders, lanes, rx_lanes,
        rx_extra=completion_atomic,
        path_extra=pready * preadys_per_msg + completion_atomic,
        extra_serial=np.maximum(pready * preadys_per_msg, completion_atomic),
    )
    prepost = n_msgs * p.recv_post_overhead + msg.rx + completion_atomic
    return (
        barrier + np.maximum(transfer, prepost) + p.part_completion_overhead
    )


def _vec_pt2pt_part_old(cols: _BenchCols) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    # Every partition of every thread hammers one shared counter; the
    # final decrement injects the whole buffer as a single active
    # message (bounce copies on both sides, no early-bird overlap).
    pready = _pready_vec(p, cols.n_threads)
    pready_chain = (
        np.maximum((n - 1) * pready - cols.delay, 0.0) + pready
    )
    # The single AM injection is the iteration's only VCI post — the
    # threads contend on the shared Pready counter, not the lock.
    am_path = (
        p.post_overhead
        + _copy_vec(p, cols.total_bytes)           # sender bounce copy
        + _wire_vec(p, cols.total_bytes)
        + p.latency
        + p.am_dispatch_overhead
        + _copy_vec(p, np.minimum(cols.total_bytes, p.am_chunk_bytes))
    )
    # The receiver exits the inter-rank barrier early (it was the
    # previous iteration's straggler), so its per-iteration CTS is
    # already in flight at t_start: only its RX handling is exposed.
    cts = p.ctrl_overhead
    return (
        barrier
        + np.maximum(pready_chain, cts)
        + am_path
        + p.part_completion_overhead
    )


def _rma_stages_vec(cols: _BenchCols, many: bool):
    """(put cost, lanes, windows, mult) of the RMA approaches' data
    phase: one window per thread for RMA many, one shared otherwise."""
    p = cols.params
    windows = cols.n_threads if many else np.ones_like(cols.n_threads)
    lanes = np.maximum(1, np.minimum(windows, cols.num_vcis))
    actors_per_lane = _ceil_div(cols.n_threads, lanes)
    mult = _mult_vec(p, actors_per_lane - 1)
    return _put_msg_cost_vec(p, cols.part_bytes, mult), lanes, windows, mult


def _rma_scan_vec(cols: _BenchCols, windows) -> np.ndarray:
    """Progress-engine scan paid per flush ack: every extra window
    sharing the acking VCI is scanned (Fig. 5's RMA-many shift)."""
    sharing = _ceil_div(windows, np.minimum(windows, cols.num_vcis))
    return cols.params.rma_progress_scan * (sharing - 1)


def _vec_rma_passive(cols: _BenchCols, many: bool) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    put, lanes, windows, mult = _rma_stages_vec(cols, many)
    # The receiver exits the inter-rank barrier early, so its exposure
    # token is in flight at t_start: only its RX handling is exposed.
    put_start = p.recv_overhead + barrier
    # Total per-stage work of the puts *and* the flush request(s): with
    # thread-local flushes (RMA many) every flush's control post pays
    # the same contended lock as the puts.
    flushes = windows if many else 1
    post_work = (n * put.post + flushes * p.ctrl_overhead * mult) / lanes
    wire_work = n * put.wire + flushes * p.wire_time(0)
    rx_work = (n * put.rx + flushes * p.ctrl_overhead) / lanes
    serial = _chain_max(post_work, wire_work, rx_work)
    flush_handled = (
        put_start
        + np.maximum(serial - cols.delay, 0.0)
        + p.rma_sync_overhead
        + p.wire_time(0)
        + p.latency
        + p.ctrl_overhead
        + _rma_scan_vec(cols, windows)
    )
    ack = _ctrl_path(p)
    done = _token_path(p, p.post_overhead)
    return flush_handled + ack + done


def _vec_rma_active(cols: _BenchCols, many: bool) -> np.ndarray:
    p = cols.params
    n = cols.n_parts
    barrier = _barrier_vec(p, cols.n_threads)
    put, lanes, windows, _ = _rma_stages_vec(cols, many)
    # PSCW: the receiver's exposure epochs (one per window, master
    # serial) start ahead of t_start thanks to the barrier skew; the
    # sender's own per-window Start sync runs concurrently.
    tokens_avail = (
        p.rma_sync_overhead
        + p.ctrl_overhead
        + (windows - 1) * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    open_epochs = windows * p.rma_sync_overhead
    put_start = np.maximum(tokens_avail, open_epochs) + barrier
    post_bn = put.post / lanes
    post_done = (
        put_start
        + np.maximum((n - 1) * post_bn - cols.delay, 0.0)
        + put.post
    )
    transfer_end = put_start + _pipeline_vec(n, put, lanes, lanes, cols.delay)
    # Completion tokens (one per window, each with its own epoch-close
    # sync) trail the puts; the last one's arrival ends the iteration.
    complete_issued = (
        post_done + windows * (p.rma_sync_overhead + p.ctrl_overhead)
    )
    return (
        np.maximum(complete_issued + p.wire_time(0) + p.latency, transfer_end)
        + p.ctrl_overhead
    )


#: Registry: approach name -> predictor over a ``_BenchCols`` group.
APPROACH_PREDICTORS = {
    "pt2pt_single": _vec_pt2pt_single,
    "pt2pt_many": _vec_pt2pt_many,
    "pt2pt_part": _vec_pt2pt_part,
    "pt2pt_part_old": _vec_pt2pt_part_old,
    "rma_single_passive": lambda c: _vec_rma_passive(c, many=False),
    "rma_many_passive": lambda c: _vec_rma_passive(c, many=True),
    "rma_single_active": lambda c: _vec_rma_active(c, many=False),
    "rma_many_active": lambda c: _vec_rma_active(c, many=True),
}


# ---------------------------------------------------------------------------
# bench entry points
# ---------------------------------------------------------------------------

def _delay_columns(total_bytes, n_threads, theta, gamma, gaussian_mu):
    """(delay, compute_active) columns of the compute models.

    The fixed-delay model delays the last partition by ``γ`` per byte
    of one partition.  The Gaussian model contributes no delay: the
    harness computes *all* of a thread's partitions before marking any
    ready, and the mean-rate Gaussian model keeps the threads in
    lockstep — every message becomes ready in one burst exactly when
    the compute removal ends, so the measured time matches the
    compute-free transfer.
    """
    g = gamma * 1e-6 / 1e6
    raw_delay = g * (total_bytes // (n_threads * theta))
    gaussian = gaussian_mu > 0
    delay = np.where(gaussian, 0.0, raw_delay)
    compute_active = ~gaussian & (gamma > 0)
    return delay, compute_active


def _approach_codes(approach) -> Tuple[List[str], np.ndarray]:
    """Normalize a categorical column to ``(names, codes)``.

    Accepts a ready-made ``(names, codes)`` pair (the campaign fast
    path derives codes straight from the grid's axis digits — no string
    hashing over the batch), or any sequence of names, factorized here
    in first-seen order by one dict lookup per name (no sort, so a
    one-row call stays cheap).  Shared by every categorical
    pattern/bench column (approach, pattern, noise).
    """
    if isinstance(approach, tuple):
        names, codes = approach
        return list(names), np.asarray(codes, dtype=np.int64)
    index: Dict[str, int] = {}
    codes = [index.setdefault(str(name), len(index)) for name in approach]
    return list(index), np.array(codes, dtype=np.int64)


def _dispatch_bench(
    params: SystemParams,
    vci_method: str,
    approach,
    n_threads: np.ndarray,
    theta: np.ndarray,
    total_bytes: np.ndarray,
    num_vcis: np.ndarray,
    part_aggr_size: np.ndarray,
    gamma: np.ndarray,
    gaussian_mu: np.ndarray,
) -> np.ndarray:
    """Route column arrays to the per-approach vector predictors."""
    delay, compute_active = _delay_columns(
        total_bytes, n_threads, theta, gamma, gaussian_mu
    )
    names, codes = _approach_codes(approach)
    times = np.empty(len(codes), dtype=np.float64)
    for code, name in enumerate(names):
        if name not in APPROACH_PREDICTORS:
            raise KeyError(f"no analytic predictor for approach {name!r}")
        idx = np.nonzero(codes == code)[0]
        if not idx.size:
            continue
        cols = _BenchCols(
            params=params,
            vci_method=vci_method,
            n_threads=n_threads[idx],
            theta=theta[idx],
            total_bytes=total_bytes[idx],
            num_vcis=num_vcis[idx],
            part_aggr_size=part_aggr_size[idx],
            delay=delay[idx],
            compute_active=compute_active[idx],
        )
        times[idx] = APPROACH_PREDICTORS[name](cols)
    return times


def bench_times_from_columns(
    params: SystemParams,
    num_vcis: int,
    vci_method: str,
    part_aggr_size: int,
    columns: Mapping[str, Any],
    n_points: int,
) -> np.ndarray:
    """Predicted times for ``n_points`` bench points given bare columns.

    ``columns`` maps :data:`BENCH_COLUMN_FIELDS` to per-point arrays (or
    scalars, broadcast to the batch); absent fields take the
    ``BenchSpec`` defaults.  The approach column may also be a
    ``(names, codes)`` pair (see :func:`_approach_codes`).  ``params``
    and the three cvar knobs are batch constants — callers with
    heterogeneous machine models group first (as
    :func:`bench_batch_times` does).  This is the campaign fast path:
    no spec objects are ever constructed.
    """
    def col(name, dtype, default):
        value = columns.get(name, default)
        if np.isscalar(value):
            return np.full(n_points, value, dtype=dtype)
        return np.asarray(value, dtype=dtype)

    approach = columns["approach"]
    if isinstance(approach, str):
        approach = ([approach], np.zeros(n_points, dtype=np.int64))
    with span("kernel.eval", kind="bench"):
        return _dispatch_bench(
            params,
            vci_method,
            approach,
            col("n_threads", np.int64, 1),
            col("theta", np.int64, 1),
            col("total_bytes", np.int64, 0),
            np.full(n_points, num_vcis, dtype=np.int64),
            np.full(n_points, part_aggr_size, dtype=np.int64),
            col("gamma_us_per_mb", np.float64, 0.0),
            col("gaussian_mu_us_per_mb", np.float64, 0.0),
        )


def bench_batch_times(specs: Sequence[Any]) -> np.ndarray:
    """Predicted times for a batch of ``BenchSpec``-shaped objects,
    grouped by machine model and VCI method."""
    times = np.empty(len(specs), dtype=np.float64)
    groups: Dict[Any, List[int]] = {}
    for i, spec in enumerate(specs):
        key = (spec.params, spec.cvars.vci_method)
        groups.setdefault(key, []).append(i)
    with span("kernel.eval", kind="bench"):
        return _bench_batch_grouped(specs, times, groups)


def _bench_batch_grouped(
    specs: Sequence[Any],
    times: np.ndarray,
    groups: Dict[Any, List[int]],
) -> np.ndarray:
    for (params, vci_method), indices in groups.items():
        sub = [specs[i] for i in indices]
        times[np.array(indices)] = _dispatch_bench(
            params,
            vci_method,
            [s.approach for s in sub],
            np.array([s.n_threads for s in sub], dtype=np.int64),
            np.array([s.theta for s in sub], dtype=np.int64),
            np.array([s.total_bytes for s in sub], dtype=np.int64),
            # cvar knobs can vary per point inside a (params, method)
            # group (cvar axes), so they are columns too.
            np.array([s.cvars.num_vcis for s in sub], dtype=np.int64),
            np.array(
                [s.cvars.part_aggr_size for s in sub], dtype=np.int64
            ),
            np.array([s.gamma_us_per_mb for s in sub], dtype=np.float64),
            np.array(
                [s.gaussian_mu_us_per_mb for s in sub], dtype=np.float64
            ),
        )
    return times


# ---------------------------------------------------------------------------
# pattern entry point
# ---------------------------------------------------------------------------

@dataclass
class PatternBatch:
    """Vectorized pattern predictions plus the per-point topology facts
    the native result object carries."""

    times: np.ndarray
    bytes_per_iteration: np.ndarray
    n_links: np.ndarray

    def store_columns(self) -> list:
        """The batch as campaign-store columns, store dtype order
        (``times`` float64, ``bytes_per_iteration``/``n_links`` int64)
        — contiguous arrays a binary segment can ``tobytes()`` without
        a copy and a JSONL segment can ``tolist()`` whole."""
        return [
            np.ascontiguousarray(self.times, dtype=np.float64),
            np.ascontiguousarray(self.bytes_per_iteration, dtype=np.int64),
            np.ascontiguousarray(self.n_links, dtype=np.int64),
        ]


#: Topology summaries keyed by the config fields that shape the link
#: graph: ``(pattern, n_ranks, n_threads, msg_bytes)``.  A summary is
#: everything the predictor needs from the graph:
#: (nbytes, max_out, max_in, max links per ordered pair, depth,
#: bytes_per_iteration, n_links).
_TOPOLOGY_CACHE: Dict[Tuple, Tuple] = {}


def _topology_summary_key(
    pattern_name: str, n_ranks: int, n_threads: int, msg_bytes: int
) -> Tuple:
    """The topology summary for one unique geometry key.

    Builds the link graph at most once per key (process-lifetime
    cache): the columns-first campaign path never constructs a config
    object, so the graph is reached through a throwaway
    ``PatternConfig`` carrying only the geometry fields.
    """
    key = (pattern_name, n_ranks, n_threads, msg_bytes)
    hit = _TOPOLOGY_CACHE.get(key)
    if hit is not None:
        return hit
    from ..apps.base import PatternConfig, build_pattern
    from .patterns import _dependency_depth

    pattern = build_pattern(
        PatternConfig(
            pattern=pattern_name,
            n_ranks=n_ranks,
            n_threads=n_threads,
            msg_bytes=msg_bytes,
        )
    )
    links = pattern.links()
    if not links:
        summary = (0, 0, 0, 0, 0, 0, 0)
    else:
        out_deg: Dict[int, int] = {}
        in_deg: Dict[int, int] = {}
        pair_links: Dict[Tuple[int, int], int] = {}
        for link in links:
            out_deg[link.src] = out_deg.get(link.src, 0) + 1
            in_deg[link.dst] = in_deg.get(link.dst, 0) + 1
            pair = (link.src, link.dst)
            pair_links[pair] = pair_links.get(pair, 0) + 1
        summary = (
            links[0].nbytes,
            max(out_deg.values()),
            max(in_deg.values()),
            max(pair_links.values()),
            _dependency_depth(pattern, n_ranks),
            # bytes_per_iteration, from the links already in hand (the
            # method would enumerate the O(ranks²) graph a second time).
            sum(link.nbytes for link in links),
            len(links),
        )
    _TOPOLOGY_CACHE[key] = summary
    return summary


def _topology_summary(config) -> Tuple:
    return _topology_summary_key(
        config.pattern, config.n_ranks, config.n_threads, config.msg_bytes
    )


def _pattern_link_messages(approach: str, nbytes, n_threads, aggr):
    """(messages, bytes per message) one link contributes per iteration
    (approach constant over the columns)."""
    if approach == "pt2pt_single" or approach == "pt2pt_part_old":
        # one bulk send, or the legacy path's single active message
        return np.ones_like(nbytes), nbytes
    if approach == "pt2pt_part":
        # one partition per thread, merged as the negotiation allows
        n = _negotiated_vec(n_threads, nbytes, aggr)
        return n, nbytes // n
    # pt2pt_many and every RMA approach: one message per thread.
    return n_threads, nbytes // n_threads


def _pattern_per_message_vec(p, approach: str, msg_bytes, mult):
    """(cost, per_link_sync) of one link message under the approach.

    ``per_link_sync`` is serialized master-thread work *per link* — the
    blocking synchronization round trips the apps harness issues
    link-by-link in its start/wait loops.
    """
    if approach.startswith("rma"):
        put = _put_msg_cost_vec(p, msg_bytes, mult)
        if "passive" in approach:
            # Per link: exposure-token wait, a blocking flush round
            # trip, and the completion token.
            per_link = (
                _token_path(p, p.post_overhead)
                + p.rma_sync_overhead
                + 2.0 * _ctrl_path(p)
            )
        else:
            # Per link: the PSCW epoch-open sync plus one token round;
            # the close-side tokens overlap the next link's epoch.
            per_link = p.rma_sync_overhead + _ctrl_path(p)
        return put, per_link
    if approach == "pt2pt_part_old":
        # One active message per link: bounce copies on both sides, AM
        # dispatch at the target, a per-iteration CTS.
        post = p.post_overhead * mult + _copy_vec(p, msg_bytes)
        wire = _wire_vec(p, msg_bytes)
        rx = p.am_dispatch_overhead + _copy_vec(
            p, np.minimum(msg_bytes, p.am_chunk_bytes)
        )
        msg = _MsgCostV(
            post=post, wire=wire, rx=rx,
            path=post + wire + p.latency + rx,
        )
        return msg, p.ctrl_overhead + 2.0 * p.part_completion_overhead
    msg = _tag_msg_cost_vec(p, msg_bytes, mult)
    per_link = 0.0
    if approach == "pt2pt_part":
        per_link = 2.0 * p.part_completion_overhead
    return msg, per_link


@dataclass
class _PatternCols:
    """Pattern model inputs for one (approach, params) group — topology
    summaries already gathered to per-point columns, plus the per-point
    spec columns."""

    nbytes: np.ndarray
    max_out: np.ndarray
    max_in: np.ndarray
    max_pair_links: np.ndarray
    depth: np.ndarray
    n_links: np.ndarray
    n_threads: np.ndarray
    num_vcis: np.ndarray
    aggr: np.ndarray
    compute_rate: np.ndarray
    #: Expected slowest-thread injected delay per quantum (seconds) —
    #: ``patterns.noise_mean_quantum`` over the noise columns.
    noise_q: np.ndarray


def _pattern_times_cols(p, approach: str, cols: _PatternCols) -> np.ndarray:
    """Predicted per-iteration times of one (approach, params) group."""
    n_threads = cols.n_threads
    nbytes = cols.nbytes
    max_out = cols.max_out
    max_in = cols.max_in

    n_msgs, msg_bytes = _pattern_link_messages(
        approach, nbytes, n_threads, cols.aggr
    )
    max_pair = cols.max_pair_links * n_msgs

    # Every link has its own context, so messages spread over the VCIs
    # context-wise; the threads contend per VCI exactly as in the
    # two-rank model, with the spawned progress agents (rendezvous data
    # injections, CTS answers for the incoming links) inflating the
    # episode peak toward the saturated queue count.
    lanes = np.maximum(1, np.minimum(n_threads, cols.num_vcis))
    per_vci = _ceil_div(n_threads, lanes)
    contenders = (per_vci - 1).astype(np.float64)
    rank_msgs = max_out * n_msgs
    zcopy_approach = (
        not approach.startswith("rma") and approach != "pt2pt_part_old"
    )
    zcopy = (
        (msg_bytes > p.eager_max)
        if zcopy_approach
        else np.zeros(len(nbytes), dtype=bool)
    )
    queue = zcopy & (lanes == 1) & (rank_msgs > 1)
    contenders = np.where(
        queue,
        np.maximum(
            contenders,
            np.minimum(
                _zcopy_queue_contenders(p), contenders + rank_msgs / 2.0
            ),
        ),
        contenders,
    )
    mult = _mult_vec(p, contenders)
    msg, per_link_sync = _pattern_per_message_vec(p, approach, msg_bytes, mult)
    sync_tail = max_out * per_link_sync

    # Per-iteration useful work of one thread (overlappable with the
    # transfers, and removed by the metric): one partition per outgoing
    # link, computed immediately before that link's ready call.
    mu = cols.compute_rate * 1e-6 / 1e6
    compute = max_out * mu * (nbytes / n_threads)
    # Injected-noise budget: the slowest thread's expected extra delay
    # over its max_out quanta (see repro.model.patterns).
    noise_rank = max_out * cols.noise_q

    post_work = max_out * n_msgs * msg.post / lanes
    # Incoming rendezvous traffic posts its CTS answers on the same
    # contended lock as the outgoing RTS/data injections.
    post_work = post_work + np.where(
        zcopy, max_in * n_msgs * p.ctrl_overhead * mult / lanes, 0.0
    )
    # The per-VCI TX loop blocks while each packet crosses its wire, so
    # a rank's whole outgoing traffic serializes over its lanes even
    # when it targets distinct pair wires.
    wire_work = np.maximum(
        max_pair * msg.wire, max_out * n_msgs * msg.wire / lanes
    )
    rx_work = max_in * n_msgs * msg.rx / lanes
    bottleneck = _chain_max(post_work, wire_work, rx_work)
    from .patterns import STREAMING_APPROACHES

    if approach == "pt2pt_single":
        # Bulk semantics: the master starts and *blocks on* each link's
        # send in turn after the compute phase — nothing overlaps, and
        # the metric's removal cancels the noisy phase at depth 1.  An
        # extra wavefront hop re-pays the full un-removed rank budget.
        hop = max_out * msg.path + sync_tail
        hop_noise = noise_rank
    elif approach in STREAMING_APPROACHES:
        # The compute phase *and the staggered noise* hide the
        # bottleneck work, down to the stagger-limited drain floor
        # (one message's share once the readies spread out, but never
        # more than the noise budget below the lockstep floor).
        # Downstream hops are gated per link: only the last quantum
        # before that link's ready survives the overlap.
        floor = np.maximum(
            bottleneck / rank_msgs, bottleneck / max_out - noise_rank
        )
        hop = (
            np.maximum(bottleneck - (compute + noise_rank), floor)
            + msg.path
            + sync_tail
        )
        hop_noise = cols.noise_q
    else:
        # RMA: the puts stream, but the epoch close (and thereby the
        # receiver's wait) is gated by the noisy phase end — absorbed
        # at depth 1 by the removal, re-paid per extra hop.
        hop = (
            np.maximum(bottleneck - compute, bottleneck / max_out)
            + msg.path
            + sync_tail
        )
        hop_noise = noise_rank
    hop = hop + _barrier_vec(p, n_threads)
    # Wavefront: each hop's blocking receive gates the next rank's
    # compute phase, whose useful work and injected noise are *not*
    # removed for the downstream ranks (only one thread's total is
    # subtracted by the metric).
    times = np.where(
        cols.depth > 1,
        hop + (cols.depth - 1) * (hop + compute + hop_noise),
        hop,
    )
    # A pattern without links communicates nothing.
    return np.where(cols.n_links == 0, 0.0, times)


def _noise_quantum_column(noise, noise_us, noise_sigma_us) -> np.ndarray:
    """``patterns.noise_mean_quantum`` over columns, evaluated once per
    unique (noise, amplitude, sigma) triple (it needs ``math.erf``).

    ``noise`` is either a ``(names, codes)`` pair (the campaign fast
    path) or an array of shape names.
    """
    from .patterns import noise_mean_quantum

    names, codes = _approach_codes(noise)
    noise_us = np.asarray(noise_us, dtype=np.float64)
    noise_sigma_us = np.asarray(noise_sigma_us, dtype=np.float64)
    stacked = np.stack(
        [codes.astype(np.float64), noise_us, noise_sigma_us]
    )
    uniq, inverse = np.unique(stacked, axis=1, return_inverse=True)
    values = np.array(
        [
            noise_mean_quantum(names[int(code)], float(us), float(sigma))
            for code, us, sigma in uniq.T
        ],
        dtype=np.float64,
    )
    return values[np.asarray(inverse).reshape(-1)]


def _pattern_group_times(p, approach: str, configs, topo) -> np.ndarray:
    """Predicted times of one (approach, params) group of configs;
    ``topo`` holds their ``_topology_summary`` tuples."""
    cols = _PatternCols(
        nbytes=np.array([t[0] for t in topo], dtype=np.int64),
        max_out=np.array([t[1] for t in topo], dtype=np.int64),
        max_in=np.array([t[2] for t in topo], dtype=np.int64),
        max_pair_links=np.array([t[3] for t in topo], dtype=np.int64),
        depth=np.array([t[4] for t in topo], dtype=np.int64),
        n_links=np.array([t[6] for t in topo], dtype=np.int64),
        n_threads=np.array([c.n_threads for c in configs], dtype=np.int64),
        num_vcis=np.array(
            [c.cvars.num_vcis for c in configs], dtype=np.int64
        ),
        aggr=np.array(
            [c.cvars.part_aggr_size for c in configs], dtype=np.int64
        ),
        compute_rate=np.array(
            [c.compute_us_per_mb for c in configs], dtype=np.float64
        ),
        noise_q=_noise_quantum_column(
            [c.noise for c in configs],
            [c.noise_us for c in configs],
            [c.noise_sigma_us for c in configs],
        ),
    )
    return _pattern_times_cols(p, approach, cols)


def pattern_batch(configs: Sequence[Any]) -> PatternBatch:
    """Predictions for a batch of ``PatternConfig`` objects, grouped by
    approach and machine model; ``bytes_per_iteration`` and ``n_links``
    are those of the pattern each config builds."""
    n = len(configs)
    times = np.empty(n, dtype=np.float64)
    groups: Dict[Any, List[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault((config.approach, config.params), []).append(i)
    with span("kernel.topology", kind="pattern"):
        topo = [_topology_summary(c) for c in configs]
    with span("kernel.eval", kind="pattern"):
        for (approach, params), indices in groups.items():
            times[np.array(indices)] = _pattern_group_times(
                params,
                approach,
                [configs[i] for i in indices],
                [topo[i] for i in indices],
            )
    return PatternBatch(
        times=times,
        bytes_per_iteration=np.array([t[5] for t in topo], dtype=np.int64),
        n_links=np.array([t[6] for t in topo], dtype=np.int64),
    )


def pattern_times_from_columns(
    params: SystemParams,
    num_vcis: int,
    part_aggr_size: int,
    columns: Mapping[str, Any],
    n_points: int,
) -> PatternBatch:
    """Vectorized pattern predictions for ``n_points`` given bare columns.

    The pattern counterpart of :func:`bench_times_from_columns` — the
    campaign fast path never constructs a ``PatternConfig``.  ``columns`` maps
    :data:`PATTERN_COLUMN_FIELDS` to per-point arrays (or scalars,
    broadcast); absent fields take the ``PatternConfig`` defaults.  The
    categorical columns (``pattern``, ``approach``, ``noise``) may be
    ``(names, codes)`` pairs factorized straight from the grid digits
    (see :meth:`~repro.runner.scenario.ScenarioGrid.kernel_columns`), a
    bare name, or arrays of names.  ``params`` and the cvar knobs are
    batch constants, as in the bench kernel.

    Topology link graphs are built once per unique
    ``(pattern, n_ranks, n_threads, msg_bytes)`` geometry
    (process-lifetime cache) and gathered to per-point columns.
    """
    def col(name, dtype, default):
        value = columns.get(name, default)
        if np.isscalar(value):
            return np.full(n_points, value, dtype=dtype)
        return np.asarray(value, dtype=dtype)

    def categorical(name, default):
        value = columns.get(name, default)
        if isinstance(value, str):
            return [value], np.zeros(n_points, dtype=np.int64)
        return _approach_codes(value)

    if "pattern" not in columns:
        raise KeyError("pattern column is required")
    pattern_names, pattern_codes = categorical("pattern", None)
    approach_names, approach_codes = categorical("approach", "pt2pt_part")
    n_ranks = col("n_ranks", np.int64, 8)
    n_threads = col("n_threads", np.int64, 4)
    msg_bytes = col("msg_bytes", np.int64, 256 << 10)

    # One link-graph build per unique geometry; gather to columns.
    with span("kernel.topology", kind="pattern"):
        geometry = np.stack(
            [pattern_codes, n_ranks, n_threads, msg_bytes]
        )
        uniq, inverse = np.unique(geometry, axis=1, return_inverse=True)
        summaries = [
            _topology_summary_key(
                pattern_names[int(code)], int(ranks), int(threads), int(size)
            )
            for code, ranks, threads, size in uniq.T
        ]
        gathered = np.asarray(summaries, dtype=np.int64)[
            np.asarray(inverse).reshape(-1)
        ]

    # Column prep is model work too (the noise-quantum column calls
    # noise_mean_quantum once per unique noise triple) — charged to the
    # kernel stage so the profile attribution covers it.
    with span("kernel.eval", kind="pattern"):
        cols = _PatternCols(
            nbytes=gathered[:, 0],
            max_out=gathered[:, 1],
            max_in=gathered[:, 2],
            max_pair_links=gathered[:, 3],
            depth=gathered[:, 4],
            n_links=gathered[:, 6],
            n_threads=n_threads,
            num_vcis=np.full(n_points, num_vcis, dtype=np.int64),
            aggr=np.full(n_points, part_aggr_size, dtype=np.int64),
            compute_rate=col("compute_us_per_mb", np.float64, 0.0),
            noise_q=_noise_quantum_column(
                categorical("noise", "none"),
                col("noise_us", np.float64, 0.0),
                col("noise_sigma_us", np.float64, 0.0),
            ),
        )
    times = np.empty(n_points, dtype=np.float64)
    with span("kernel.eval", kind="pattern"):
        for code, name in enumerate(approach_names):
            idx = np.nonzero(approach_codes == code)[0]
            if not idx.size:
                continue
            if name not in APPROACH_PREDICTORS:
                # Same contract as the bench kernel: an unknown name must
                # fail loudly, not fall into the bulk-gated default
                # branch with a plausible wrong number.
                raise KeyError(
                    f"no analytic predictor for approach {name!r}"
                )
            sub = _PatternCols(
                **{
                    field: getattr(cols, field)[idx]
                    for field in cols.__dataclass_fields__
                }
            )
            times[idx] = _pattern_times_cols(params, name, sub)
    return PatternBatch(
        times=times,
        bytes_per_iteration=gathered[:, 5],
        n_links=gathered[:, 6],
    )
