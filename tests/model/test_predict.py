"""Tests for the single-message time and pipelining-gain predictions."""

import pytest

from repro.bench import BenchSpec
from repro.model import predict_bench_time, predict_eta
from repro.model.pipeline import gamma_from_us_per_mb
from repro.net import MELUXINA


def message_time(nbytes):
    """The model's uncontended one-message time: ``pt2pt_single`` with
    one thread (no barrier, no lock contention)."""
    spec = BenchSpec(approach="pt2pt_single", total_bytes=nbytes, iterations=1)
    return predict_bench_time(spec).time


def eager_time(nbytes, rx):
    """post + wire + latency + receive, without copies or handshake."""
    p = MELUXINA
    return p.post_overhead + p.wire_time(nbytes) + p.latency + rx


class TestMessagePrediction:
    def test_short_has_no_copies_or_handshake(self):
        assert message_time(64) == pytest.approx(
            eager_time(64, MELUXINA.recv_overhead)
        )

    def test_bcopy_pays_two_copies(self):
        extra = message_time(4096) - eager_time(4096, MELUXINA.recv_overhead)
        assert extra == pytest.approx(2 * MELUXINA.copy_time(4096))

    def test_zcopy_pays_handshake_not_copies(self):
        p = MELUXINA
        nbytes = 1 << 20
        handshake = message_time(nbytes) - eager_time(
            nbytes, p.put_handler_overhead
        )
        # RTS out, CTS back (three control handlings), then the
        # progress engine injects the data: no bounce copies.
        assert handshake == pytest.approx(
            2 * (p.wire_time(0) + p.latency) + 3 * p.ctrl_overhead
            + p.post_overhead
        )
        assert handshake > 2 * p.latency

    def test_monotone_in_size_within_protocol(self):
        assert message_time(8192) > message_time(2048)

    def test_prediction_matches_simulator_for_small_message(self):
        """The Fig. 4 single-thread point: model vs simulation."""
        from repro.bench import run_benchmark

        pred = message_time(64)
        # The simulated metric adds the recv-post overhead.
        pred += MELUXINA.recv_post_overhead
        measured = run_benchmark(
            BenchSpec(approach="pt2pt_single", total_bytes=64, iterations=3)
        ).mean
        assert measured == pytest.approx(pred, rel=0.05)


class TestPredictEta:
    def test_asymptotic_matches_eq4(self):
        g = gamma_from_us_per_mb(100.0)
        assert predict_eta(4, 1, g, MELUXINA) == pytest.approx(8 / 3, rel=1e-6)

    def test_finite_size_below_asymptote(self):
        g = gamma_from_us_per_mb(100.0)
        finite = predict_eta(4, 1, g, MELUXINA, part_bytes=4 << 20)
        asymptote = predict_eta(4, 1, g, MELUXINA)
        assert finite == pytest.approx(asymptote, rel=1e-6)

    def test_zero_delay_parity(self):
        assert predict_eta(4, 1, 0.0, MELUXINA, part_bytes=1 << 20) == (
            pytest.approx(1.0)
        )
