"""Wire statistics, per-protocol timing predictions, and NIC counters."""

import pytest

from repro.bench import BenchSpec, run_benchmark
from repro.model import predict_bench_time
from repro.mpi import MPIWorld
from repro.net import MELUXINA


class TestWireStats:
    def test_wire_queueing_recorded_under_load(self):
        """Concurrent senders on distinct VCIs collide on the shared wire."""
        from repro.mpi import Cvars

        world = MPIWorld(n_ranks=2, cvars=Cvars(num_vcis=4))

        def sender(world, tid):
            comm = world.comm_world(0)
            mine = yield from comm.dup(key=tid)
            yield from mine.send(dest=1, tag=tid, nbytes=8192)

        def receiver(world, tid):
            comm = world.comm_world(1)
            mine = yield from comm.dup(key=tid)
            yield from mine.recv(source=0, tag=tid, nbytes=8192)

        for tid in range(4):
            world.launch(0, sender(world, tid))
            world.launch(1, receiver(world, tid))
        world.run()
        stats = world.fabric.wire_stats(0, 1)
        assert stats.acquisitions == 4
        # Simultaneous injections queue behind each other on the wire.
        assert stats.total_wait > 0

    def test_vci_counters(self):
        world = MPIWorld(n_ranks=2)

        def sender(world):
            comm = world.comm_world(0)
            yield from comm.send(dest=1, tag=0, nbytes=64)

        def receiver(world):
            yield from world.comm_world(1).recv(source=0, tag=0, nbytes=64)

        world.launch(0, sender(world))
        world.launch(1, receiver(world))
        world.run()
        assert world.rank(0).nic.vcis[0].tx_count == 1
        assert world.rank(1).nic.vcis[0].rx_count == 1


class TestPredictionAgainstSimulator:
    """The model's one-thread ``pt2pt_single`` time — one uncontended
    tag-matched message — must track the simulator per protocol."""

    @pytest.mark.parametrize("nbytes", [64, 512, 1024])
    def test_short_protocol(self, nbytes):
        self._check(nbytes)

    @pytest.mark.parametrize("nbytes", [2048, 4096, 8192])
    def test_bcopy_protocol(self, nbytes):
        self._check(nbytes)

    @pytest.mark.parametrize("nbytes", [16384, 1 << 17, 1 << 21])
    def test_zcopy_protocol(self, nbytes):
        self._check(nbytes, rel=0.10)

    @staticmethod
    def _check(nbytes, rel=0.05):
        spec = BenchSpec(approach="pt2pt_single", total_bytes=nbytes,
                         iterations=3)
        predicted = (
            predict_bench_time(spec).time + MELUXINA.recv_post_overhead
        )
        measured = run_benchmark(spec).mean
        assert measured == pytest.approx(predicted, rel=rel), (
            f"{nbytes} B: predicted {predicted * 1e6:.3f} us, "
            f"measured {measured * 1e6:.3f} us"
        )
