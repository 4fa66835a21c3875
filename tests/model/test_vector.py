"""The analytic model kernel, pinned by golden values.

``golden_model.json`` holds, per sweep, the point count, the SHA-256 of
the little-endian float64 times and up to 64 sampled
``(index, float.hex)`` values.  It was generated from the per-point
scalar predictors, one call per point, while they were still a separate
implementation of the model; the numpy kernel
(:mod:`repro.model.vector`) must reproduce every sweep **bit for bit**
(``==``, no tolerance) through each public entry point.  The sweeps
cross every approach and pattern with sizes spanning all three wire
protocols, thread/partition geometries, VCI configurations, compute
models and noise shapes, plus the two fixed ``campaign-bench`` grids.

Regenerate the file only when the model changes on purpose (and say
why in CHANGES.md)::

    PYTHONPATH=src python tests/model/test_vector.py
"""

import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from repro.apps.base import PatternConfig
from repro.bench import APPROACHES
from repro.bench.harness import BenchSpec
from repro.mpi import Cvars
from repro.model.approaches import predict_bench_time, predict_bench_times
from repro.model.patterns import predict_pattern_time, predict_pattern_times
from repro.model.vector import BENCH_COLUMN_FIELDS, bench_times_from_columns
from repro.net import MELUXINA

ALL_APPROACHES = sorted(APPROACHES)
PATTERN_NAMES = ["halo3d", "sweep3d", "fft"]

#: Sizes straddling the short/bcopy/zcopy protocol thresholds plus the
#: large-message regime where the zcopy queue-feedback branches fire.
SIZES = [64, 1024, 2048, 8192, 16384, 262144, 1 << 20, 1 << 24]

#: Aggregation limits: off, below and above most message sizes.
AGGR_SIZES = [0, 512, 65536]

GOLDEN_PATH = Path(__file__).with_name("golden_model.json")
GOLDEN_SCHEMA = "repro.model.golden/v1"
GOLDEN_SAMPLES = 64


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def bench_sweep_specs():
    """The full cross-product bench sweep (1,024 points)."""
    specs = []
    for approach, size, (nt, th), vcis, method in itertools.product(
        ALL_APPROACHES,
        SIZES,
        [(1, 1), (2, 4), (4, 1), (32, 1)],
        [1, 4],
        ["comm", "tag_rr"],
    ):
        specs.append(
            BenchSpec(
                approach=approach,
                total_bytes=size,
                n_threads=nt,
                theta=th,
                iterations=1,
                cvars=Cvars(num_vcis=vcis, vci_method=method),
            )
        )
    return specs


def compute_model_specs(approach):
    """Fixed-delay and Gaussian compute paths for one approach."""
    return [
        BenchSpec(
            approach=approach,
            total_bytes=size,
            n_threads=4,
            theta=2,
            iterations=1,
            gamma_us_per_mb=gamma,
            gaussian_mu_us_per_mb=mu,
        )
        for size in SIZES
        for gamma, mu in [(0.0, 0.0), (200.0, 0.0), (0.0, 150.0),
                          (400.0, 150.0)]
    ]


def mixed_params_specs():
    """Two machine models interleaved in one batch."""
    fast = MELUXINA.with_updates(bandwidth=100e9)
    return [
        BenchSpec(
            approach=approach,
            total_bytes=1 << 20,
            n_threads=8,
            iterations=1,
            params=params,
        )
        for params in (MELUXINA, fast)
        for approach in ("pt2pt_part", "rma_many_active")
    ]


def aggregation_specs(aggr):
    """``pt2pt_part`` under one ``MPIR_CVAR_PART_AGGR_SIZE`` setting:
    sizes and partition counts on both sides of the merge limit."""
    return [
        BenchSpec(
            approach="pt2pt_part",
            total_bytes=size,
            n_threads=nt,
            theta=th,
            iterations=1,
            cvars=Cvars(part_aggr_size=aggr),
        )
        for size in SIZES
        for nt, th in [(1, 1), (2, 4), (4, 1), (32, 2)]
    ]


def pattern_approach_configs(pattern):
    """Every approach x ranks x threads x size x VCIs x compute."""
    return [
        PatternConfig(
            pattern=pattern,
            approach=approach,
            n_ranks=ranks,
            n_threads=nt,
            msg_bytes=size,
            iterations=1,
            compute_us_per_mb=comp,
            cvars=Cvars(num_vcis=vcis),
        )
        for approach in ALL_APPROACHES
        for ranks in (4, 8)
        for nt in (1, 4)
        for size in (1024, 65536, 1 << 20)
        for vcis in (1, 4)
        for comp in (0.0, 200.0)
    ]


def pattern_noise_configs(pattern):
    """The injected-noise mean shift, all shapes x all approaches."""
    return [
        PatternConfig(
            pattern=pattern,
            approach=approach,
            n_ranks=8,
            n_threads=nt,
            msg_bytes=size,
            iterations=1,
            compute_us_per_mb=200.0,
            noise=noise,
            noise_us=noise_us,
            noise_sigma_us=sigma,
        )
        for approach in ALL_APPROACHES
        for nt in (2, 8)
        for size in (16384, 1 << 20)
        for noise, noise_us, sigma in [
            ("none", 0.0, 0.0),
            ("single", 25.0, 0.0),
            ("uniform", 80.0, 0.0),
            ("gaussian", 50.0, 15.0),
            ("gaussian", 50.0, 0.0),
        ]
    ]


def pattern_aggregation_configs():
    """Partitioned pattern links under message aggregation."""
    return [
        PatternConfig(
            pattern=pattern,
            approach="pt2pt_part",
            n_ranks=8,
            n_threads=nt,
            msg_bytes=size,
            iterations=1,
            cvars=Cvars(part_aggr_size=aggr),
        )
        for pattern in PATTERN_NAMES
        for nt in (2, 8)
        for size in (1024, 16384, 1 << 20)
        for aggr in AGGR_SIZES
    ]


def pattern_column_configs(pattern):
    """The configs the columns-API sweep feeds as bare columns."""
    return [
        PatternConfig(
            pattern=pattern,
            approach=approach,
            n_ranks=ranks,
            n_threads=nt,
            msg_bytes=size,
            iterations=1,
            compute_us_per_mb=comp,
            noise=noise,
            noise_us=noise_us,
        )
        for approach in ALL_APPROACHES
        for ranks in (4, 8)
        for nt in (2, 4)
        for size in (16384, 1 << 20)
        for comp in (0.0, 200.0)
        for noise, noise_us in [
            ("none", 0.0), ("single", 30.0),
            ("uniform", 30.0), ("gaussian", 30.0),
        ]
    ]


def campaign_grids():
    """The fixed ``campaign-bench`` grids: 102,400 bench points and
    115,200 pattern points."""
    from repro.runner.campaign import parse_grid_spec
    from repro.runner.campaign_bench import (
        campaign_grid_spec,
        pattern_campaign_grid_spec,
    )

    return {
        "campaign_bench_grid": parse_grid_spec(campaign_grid_spec()),
        "campaign_pattern_grid": parse_grid_spec(
            pattern_campaign_grid_spec()
        ),
    }


def spec_sweeps():
    """Every golden sweep given as spec objects: name -> specs."""
    sweeps = {
        "bench_sweep": bench_sweep_specs(),
        "bench_mixed_params": mixed_params_specs(),
        "pattern_aggregation": pattern_aggregation_configs(),
    }
    for approach in ALL_APPROACHES:
        sweeps[f"bench_compute/{approach}"] = compute_model_specs(approach)
    for aggr in AGGR_SIZES:
        sweeps[f"bench_aggregation/{aggr}"] = aggregation_specs(aggr)
    for pattern in PATTERN_NAMES:
        sweeps[f"pattern_approaches/{pattern}"] = (
            pattern_approach_configs(pattern)
        )
        sweeps[f"pattern_noise/{pattern}"] = pattern_noise_configs(pattern)
        sweeps[f"pattern_columns/{pattern}"] = (
            pattern_column_configs(pattern)
        )
    return sweeps


# ---------------------------------------------------------------------------
# golden file
# ---------------------------------------------------------------------------

def per_point_time(spec):
    """One point through its per-point entry point."""
    if isinstance(spec, PatternConfig):
        return predict_pattern_time(spec).time
    return predict_bench_time(spec).time


def golden_entry(name, times):
    """Point count, digest and sampled values of one sweep's times."""
    times = np.ascontiguousarray(times, dtype="<f8")
    n = len(times)
    rng = random.Random(name)
    picks = {0, n - 1, *rng.sample(range(n), min(n, GOLDEN_SAMPLES - 2))}
    samples = sorted(picks)
    return {
        "points": n,
        "sha256": hashlib.sha256(times.tobytes()).hexdigest(),
        "samples": [[i, float(times[i]).hex()] for i in samples],
    }


def write_golden(path=GOLDEN_PATH):
    """Evaluate every sweep one point at a time and write the file."""
    sweeps = {
        name: golden_entry(name, [per_point_time(s) for s in specs])
        for name, specs in spec_sweeps().items()
    }
    for name, grid in campaign_grids().items():
        sweeps[name] = golden_entry(
            name,
            [per_point_time(grid.scenario_at(i).spec)
             for i in range(len(grid))],
        )
    payload = {
        "schema": GOLDEN_SCHEMA,
        "generated_by": "per-point predict_bench_time / "
                        "predict_pattern_time, one call per point",
        "sweeps": sweeps,
    }
    text = json.dumps(payload, indent=1)
    # one ``[index, "hex"]`` sample per line
    text = re.sub(r'\[\s+(\d+),\s+("[^"]+")\s+\]', r"[\1, \2]", text)
    Path(path).write_text(text + "\n")


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


GOLDEN = load_golden() if GOLDEN_PATH.exists() else {"sweeps": {}}


def golden_samples(name):
    return GOLDEN["sweeps"][name]["samples"]


def assert_golden(name, times):
    """``times`` reproduces sweep ``name`` bit for bit.

    Sampled points are compared first, so a failure names the first
    bad point; the digest then covers every point.
    """
    entry = GOLDEN["sweeps"][name]
    times = np.ascontiguousarray(times, dtype="<f8")
    assert times.shape == (entry["points"],), (name, times.shape)
    for index, expected in entry["samples"]:
        got = float(times[index]).hex()
        assert got == expected, (
            f"{name}: point {index} is {got}, golden {expected}"
        )
    digest = hashlib.sha256(times.tobytes()).hexdigest()
    assert digest == entry["sha256"], (
        f"{name}: every sampled point matches but the digest differs "
        "(an unsampled point changed)"
    )


def test_golden_file_covers_every_sweep():
    names = set(spec_sweeps()) | {
        "campaign_bench_grid", "campaign_pattern_grid"
    }
    assert GOLDEN.get("schema") == GOLDEN_SCHEMA
    assert set(GOLDEN["sweeps"]) == names
    for name, entry in GOLDEN["sweeps"].items():
        indices = [i for i, _ in entry["samples"]]
        assert indices == sorted(set(indices)), name
        assert 0 < len(indices) <= GOLDEN_SAMPLES, name
        assert indices[-1] == entry["points"] - 1, name


# ---------------------------------------------------------------------------
# bench kernel
# ---------------------------------------------------------------------------

class TestBenchEquivalence:
    def test_full_sweep_bitwise_equal(self):
        assert_golden("bench_sweep", predict_bench_times(bench_sweep_specs()))

    @pytest.mark.parametrize("approach", ALL_APPROACHES)
    def test_compute_models_per_approach(self, approach):
        """Fixed-delay and Gaussian compute paths, per approach."""
        assert_golden(
            f"bench_compute/{approach}",
            predict_bench_times(compute_model_specs(approach)),
        )

    def test_mixed_params_grouping(self):
        """Batches mixing machine models group correctly."""
        assert_golden(
            "bench_mixed_params", predict_bench_times(mixed_params_specs())
        )

    def test_per_point_entry_matches_golden(self):
        specs = bench_sweep_specs()
        for index, expected in golden_samples("bench_sweep"):
            prediction = predict_bench_time(specs[index])
            assert prediction.approach == specs[index].approach
            assert prediction.time.hex() == expected, specs[index]

    def test_columns_api_matches_spec_api(self):
        """The campaign fast path (bare columns, no spec objects)."""
        specs = [
            BenchSpec(
                approach=approach,
                total_bytes=size,
                n_threads=nt,
                theta=2,
                iterations=1,
                gamma_us_per_mb=gamma,
            )
            for approach in ALL_APPROACHES
            for size in (2048, 1 << 20)
            for nt in (1, 16)
            for gamma in (0.0, 100.0)
        ]
        columns = {
            name: np.array([getattr(s, name) for s in specs])
            for name in BENCH_COLUMN_FIELDS
            if name != "approach"
        }
        columns["approach"] = np.array(
            [s.approach for s in specs], dtype=object
        )
        cvars = Cvars()
        from_columns = bench_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.vci_method,
            cvars.part_aggr_size, columns, len(specs),
        )
        assert list(predict_bench_times(specs)) == list(from_columns)

    @pytest.mark.parametrize("aggr", AGGR_SIZES)
    def test_aggregation_sizes_bitwise_equal(self, aggr):
        """Message aggregation through the spec path, the column path
        and the per-point entry point."""
        specs = aggregation_specs(aggr)
        name = f"bench_aggregation/{aggr}"
        assert_golden(name, predict_bench_times(specs))
        columns = {
            field: np.array([getattr(s, field) for s in specs])
            for field in ("total_bytes", "n_threads", "theta")
        }
        columns["approach"] = "pt2pt_part"
        cvars = specs[0].cvars
        assert_golden(name, bench_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.vci_method, aggr,
            columns, len(specs),
        ))
        assert_golden(name, [predict_bench_time(s).time for s in specs])

    def test_negotiated_counts_match_negotiation(self):
        """The kernel's message-count column, fast path and fallback
        rows alike, equals the simulator's negotiation per row."""
        from repro.model.vector import _negotiated_vec
        from repro.mpi.partitioned import negotiate_message_count

        rows = list(itertools.product(
            [1, 2, 3, 4, 6, 8, 12, 32, 64],
            [0, 7, 64, 1000, 4096, 1 << 16, 1 << 20],
            AGGR_SIZES + [1, 100, 3000],
        ))
        n, total, aggr = (np.array(col) for col in zip(*rows))
        expected = [negotiate_message_count(k, k, tb, a) for k, tb, a in rows]
        assert list(_negotiated_vec(n, total, aggr)) == expected

    def test_bit_length_matches_int(self):
        """The barrier's round count, at every power-of-two boundary."""
        from repro.model.vector import _bit_length_vec

        values = sorted({
            max(0, (1 << k) + d) for k in range(53) for d in (-1, 0, 1)
        })
        assert list(_bit_length_vec(np.array(values))) == [
            v.bit_length() for v in values
        ]

    def test_kernel_registry_matches_bench_approaches(self):
        from repro.model.vector import APPROACH_PREDICTORS

        assert set(APPROACH_PREDICTORS) == set(APPROACHES)

    def test_unknown_approach_rejected(self):
        spec = BenchSpec(
            approach="pt2pt_single", total_bytes=1024, iterations=1
        )
        with pytest.raises(KeyError):
            bench_times_from_columns(
                MELUXINA, 1, "comm", 0,
                {"approach": "no_such_approach", "total_bytes": 1024}, 1,
            )
        assert predict_bench_times([spec]).shape == (1,)


# ---------------------------------------------------------------------------
# pattern kernel
# ---------------------------------------------------------------------------

class TestPatternEquivalence:
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_all_approaches_bitwise_equal(self, pattern):
        batch = predict_pattern_times(pattern_approach_configs(pattern))
        assert_golden(f"pattern_approaches/{pattern}", batch.times)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_noise_modes_bitwise_equal(self, pattern):
        """The injected-noise mean shift, all shapes x all approaches."""
        batch = predict_pattern_times(pattern_noise_configs(pattern))
        assert_golden(f"pattern_noise/{pattern}", batch.times)

    def test_aggregation_bitwise_equal(self):
        batch = predict_pattern_times(pattern_aggregation_configs())
        assert_golden("pattern_aggregation", batch.times)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_columns_api_matches_scalar(self, pattern):
        """The campaign fast path (bare columns, no config objects)
        reproduces the golden values of the per-point predictor, and
        its topology facts match the config path's."""
        from repro.model.vector import pattern_times_from_columns

        configs = pattern_column_configs(pattern)
        columns = {
            name: np.array([getattr(c, name) for c in configs])
            for name in (
                "n_ranks", "n_threads", "msg_bytes",
                "compute_us_per_mb", "noise_us", "noise_sigma_us",
            )
        }
        for name in ("pattern", "approach", "noise"):
            columns[name] = np.array(
                [getattr(c, name) for c in configs], dtype=object
            )
        cvars = Cvars()
        batch = pattern_times_from_columns(
            MELUXINA, cvars.num_vcis, cvars.part_aggr_size,
            columns, len(configs),
        )
        assert_golden(f"pattern_columns/{pattern}", batch.times)
        native = predict_pattern_times(configs)
        assert list(batch.times) == list(native.times)
        assert list(batch.bytes_per_iteration) == list(
            native.bytes_per_iteration
        )
        assert list(batch.n_links) == list(native.n_links)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_per_point_entry_matches_golden(self, pattern):
        configs = pattern_noise_configs(pattern)
        for index, expected in golden_samples(f"pattern_noise/{pattern}"):
            prediction = predict_pattern_time(configs[index])
            assert prediction.pattern == pattern
            assert prediction.approach == configs[index].approach
            assert prediction.time.hex() == expected, configs[index]

    def test_columns_api_defaults_and_scalars(self):
        """Scalar/broadcast columns and spec-default fallbacks."""
        from repro.model.vector import pattern_times_from_columns

        config = PatternConfig(pattern="halo3d")  # all defaults
        batch = pattern_times_from_columns(
            MELUXINA, 1, Cvars().part_aggr_size,
            {"pattern": "halo3d"}, 3,
        )
        expected = predict_pattern_time(config).time
        assert list(batch.times) == [expected] * 3

    def test_columns_api_requires_pattern(self):
        from repro.model.vector import pattern_times_from_columns

        with pytest.raises(KeyError):
            pattern_times_from_columns(
                MELUXINA, 1, 512, {"msg_bytes": 1024}, 1
            )

    def test_columns_api_rejects_unknown_approach(self):
        from repro.model.vector import pattern_times_from_columns

        with pytest.raises(KeyError, match="no analytic predictor"):
            pattern_times_from_columns(
                MELUXINA, 1, 512,
                {"pattern": "halo3d", "approach": "pt2pt_partt"}, 1,
            )

    def test_noise_mean_quantum_shapes(self):
        from repro.model.patterns import noise_mean_quantum

        assert noise_mean_quantum("none", 100.0, 0.0) == 0.0
        assert noise_mean_quantum("single", 50.0, 0.0) == 50.0 * 1e-6
        assert noise_mean_quantum("uniform", 50.0, 0.0) == 50.0 * 1e-6
        # sigma=0 degenerates to the amplitude
        assert noise_mean_quantum("gaussian", 50.0, 0.0) == 50.0 * 1e-6
        # truncation at zero pulls the mean above the raw mean
        truncated = noise_mean_quantum("gaussian", 10.0, 30.0)
        assert truncated > 10.0e-6
        with pytest.raises(KeyError):
            noise_mean_quantum("no_such_noise", 1.0, 0.0)

    def test_noise_free_predictions_unchanged_by_correction(self):
        """A zero noise budget flows through the noise-free arithmetic:
        the shift terms all collapse to + 0.0, whatever the shape."""
        base = dict(
            pattern="halo3d", approach="pt2pt_part", n_ranks=8,
            n_threads=4, msg_bytes=1 << 16, compute_us_per_mb=200.0,
        )
        quiet = predict_pattern_time(PatternConfig(**base)).time
        for noise in ("single", "uniform", "gaussian"):
            silent = PatternConfig(**base, noise=noise, noise_us=0.0)
            assert predict_pattern_time(silent).time == quiet, noise
        ignored = PatternConfig(**base, noise="none", noise_us=50.0)
        assert predict_pattern_time(ignored).time == quiet
        noisy = PatternConfig(**base, noise="single", noise_us=50.0)
        assert predict_pattern_time(noisy).time != quiet

    def test_topology_metadata_matches_pattern(self):
        from repro.apps.base import build_pattern

        configs = [
            PatternConfig(
                pattern=pattern,
                approach="pt2pt_part",
                n_ranks=8,
                n_threads=2,
                msg_bytes=16384,
                iterations=1,
            )
            for pattern in PATTERN_NAMES
        ]
        batch = predict_pattern_times(configs)
        for j, config in enumerate(configs):
            built = build_pattern(config)
            assert batch.bytes_per_iteration[j] == built.bytes_per_iteration()
            assert batch.n_links[j] == len(built.links())


# ---------------------------------------------------------------------------
# the campaign-bench grids, through every entry point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grids():
    return campaign_grids()


@pytest.fixture(scope="module")
def grid_scenarios(grids):
    """Every point of both grids as an analytic scenario."""
    return {
        name: [grid.scenario_at(i) for i in range(len(grid))]
        for name, grid in grids.items()
    }


class TestCampaignGridGolden:
    def test_fast_path(self, grids):
        """Grid digits -> ``kernel_columns`` -> ``*_from_columns``, the
        path every analytic campaign chunk takes."""
        from repro.runner.campaign import (
            _bench_fast_columns,
            _pattern_fast_columns,
        )

        bench = grids["campaign_bench_grid"]
        assert_golden(
            "campaign_bench_grid", _bench_fast_columns(bench, 0, len(bench))[0]
        )
        pattern = grids["campaign_pattern_grid"]
        assert_golden(
            "campaign_pattern_grid",
            _pattern_fast_columns(pattern, 0, len(pattern))[0],
        )

    @pytest.mark.parametrize(
        "name", ["campaign_bench_grid", "campaign_pattern_grid"]
    )
    def test_batch_entry_points(self, grid_scenarios, name):
        """``predict_*_times`` and ``AnalyticBackend.run_batch``."""
        from repro.backends import get_backend

        scenarios = grid_scenarios[name]
        specs = [s.spec for s in scenarios]
        if name == "campaign_bench_grid":
            assert_golden(name, predict_bench_times(specs))
        else:
            assert_golden(name, predict_pattern_times(specs).times)
        results = get_backend("analytic").run_batch(scenarios)
        assert_golden(name, [r.times[0] for r in results])

    @pytest.mark.parametrize(
        "name", ["campaign_bench_grid", "campaign_pattern_grid"]
    )
    def test_per_point_entry_points(self, grids, name):
        """``predict_*_time`` and ``AnalyticBackend.run``, one call per
        sampled point."""
        from repro.backends import get_backend

        backend = get_backend("analytic")
        grid = grids[name]
        for index, expected in golden_samples(name):
            scenario = grid.scenario_at(index)
            assert per_point_time(scenario.spec).hex() == expected, index
            times = backend.run(scenario).times
            assert [t.hex() for t in times] == [expected] * len(times), index


# ---------------------------------------------------------------------------
# run vs run_batch
# ---------------------------------------------------------------------------

class TestRunBatchEquivalence:
    """`Backend.run_batch` must be indistinguishable from per-point
    `run` — asserted on the serialized result form, which is exactly
    what stores and reports consume."""

    def _assert_batch_equals_run(self, scenarios):
        from repro.backends import get_backend
        from repro.runner.scenario import result_to_dict

        backend = get_backend("analytic")
        batched = backend.run_batch(scenarios)
        for scenario, batch_result in zip(scenarios, batched):
            single = backend.run(scenario)
            assert result_to_dict(scenario, batch_result) == result_to_dict(
                scenario, single
            )

    def test_bench_all_approaches(self):
        from repro.runner.scenario import scenario_for

        self._assert_batch_equals_run([
            scenario_for(
                BenchSpec(
                    approach=approach,
                    total_bytes=size,
                    n_threads=4,
                    theta=2,
                    iterations=3,
                ),
                backend="analytic",
            )
            for approach in ALL_APPROACHES
            for size in (1024, 16384, 1 << 20)
        ])

    def test_patterns_all_three(self):
        from repro.runner.scenario import scenario_for

        self._assert_batch_equals_run([
            scenario_for(
                PatternConfig(
                    pattern=pattern,
                    approach=approach,
                    n_ranks=4,
                    n_threads=2,
                    msg_bytes=size,
                    iterations=2,
                ),
                backend="analytic",
            )
            for pattern in PATTERN_NAMES
            for approach in ("pt2pt_single", "pt2pt_part", "rma_many_active")
            for size in (4096, 1 << 20)
        ])

    def test_mixed_kind_batch_preserves_order(self):
        from repro.runner.scenario import scenario_for

        scenarios = [
            scenario_for(
                BenchSpec(
                    approach="pt2pt_part", total_bytes=65536, iterations=1
                ),
                backend="analytic",
            ),
            scenario_for(
                PatternConfig(
                    pattern="halo3d", n_ranks=4, n_threads=1,
                    msg_bytes=4096, iterations=1,
                ),
                backend="analytic",
            ),
            scenario_for(
                BenchSpec(
                    approach="pt2pt_single", total_bytes=1024, iterations=1
                ),
                backend="analytic",
            ),
        ]
        from repro.backends import get_backend

        results = get_backend("analytic").run_batch(scenarios)
        assert results[0].spec.approach == "pt2pt_part"
        assert results[1].config.pattern == "halo3d"
        assert results[2].spec.approach == "pt2pt_single"

    def test_default_run_batch_is_run_loop(self):
        """The base-class default (the simulator path) loops run()."""
        from repro.backends import get_backend
        from repro.runner.scenario import result_to_dict, scenario_for

        scenarios = [
            scenario_for(
                BenchSpec(
                    approach="pt2pt_single",
                    total_bytes=size,
                    iterations=1,
                    n_threads=2,
                ),
            )
            for size in (1024, 65536)
        ]
        backend = get_backend("sim")
        batched = backend.run_batch(scenarios)
        for scenario, result in zip(scenarios, batched):
            assert result_to_dict(scenario, result) == result_to_dict(
                scenario, backend.run(scenario)
            )


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN_PATH}")
