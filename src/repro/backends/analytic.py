"""The analytic execution backend: closed-form results in microseconds.

Maps scenarios through the analytic model — the numpy kernel of
:mod:`repro.model.vector`, including the injected-noise mean-shift
correction for patterns — and wraps each prediction in the same native
result object the simulator produces, so every consumer — sweeps,
figures, stores, reports — works unchanged.  There is one path:
:meth:`AnalyticBackend.run` is a one-scenario :meth:`~AnalyticBackend.run_batch`.

Campaign chunks bypass even :meth:`AnalyticBackend.run_batch`: the
columns-first entry points
(:func:`repro.model.vector.bench_times_from_columns` /
:func:`repro.model.vector.pattern_times_from_columns`) take decoded
grid-axis columns directly, so no scenario or spec object exists on
that path at all.

The model is deterministic, so a point's ``iterations`` samples are all
identical (zero variance, like a converged simulated run) and the whole
run never instantiates a simulation :class:`~repro.sim.core.Environment`
(asserted by the backend test suite via
``Environment.instances_created``).
"""

from __future__ import annotations

from typing import Any

from .base import BACKEND_ANALYTIC, Backend, register_backend

__all__ = ["AnalyticBackend"]


@register_backend
class AnalyticBackend(Backend):
    """Runs a scenario through the closed-form model."""

    name = BACKEND_ANALYTIC
    inline = True

    def supports(self, scenario: Any) -> bool:
        from ..runner.scenario import KIND_BENCH, KIND_PATTERN

        if scenario.kind == KIND_BENCH:
            from ..model.vector import APPROACH_PREDICTORS

            return scenario.spec.approach in APPROACH_PREDICTORS
        if scenario.kind == KIND_PATTERN:
            from ..apps.base import PATTERNS

            return scenario.spec.pattern in PATTERNS
        return False

    def run(self, scenario: Any) -> Any:
        return self.run_batch([scenario])[0]

    def run_batch(self, scenarios: Any) -> list:
        """Evaluate the whole batch through the model kernel: one
        :func:`~repro.model.vector.bench_batch_times` /
        :func:`~repro.model.vector.pattern_batch` call per kind, results
        in input order."""
        from ..bench.harness import BenchResult
        from ..apps.base import PatternResult
        from ..bench.stats import summarize
        from ..model.vector import bench_batch_times, pattern_batch
        from ..runner.scenario import KIND_BENCH, KIND_PATTERN

        results: list = [None] * len(scenarios)
        bench_idx = [
            i for i, s in enumerate(scenarios) if s.kind == KIND_BENCH
        ]
        pattern_idx = [
            i for i, s in enumerate(scenarios) if s.kind == KIND_PATTERN
        ]
        if len(bench_idx) + len(pattern_idx) != len(scenarios):
            unknown = next(
                s for s in scenarios
                if s.kind not in (KIND_BENCH, KIND_PATTERN)
            )
            raise ValueError(f"unknown scenario kind {unknown.kind!r}")
        if bench_idx:
            specs = [scenarios[i].spec for i in bench_idx]
            for i, spec, time in zip(
                bench_idx, specs, bench_batch_times(specs)
            ):
                times = [float(time)] * spec.iterations
                results[i] = BenchResult(
                    spec=spec,
                    times=times,
                    stats=summarize(times),
                    retries=0,
                    verified=True,
                )
        if pattern_idx:
            configs = [scenarios[i].spec for i in pattern_idx]
            batch = pattern_batch(configs)
            for j, i in enumerate(pattern_idx):
                config = configs[j]
                times = [float(batch.times[j])] * config.iterations
                results[i] = PatternResult(
                    config=config,
                    times=times,
                    stats=summarize(times),
                    bytes_per_iteration=int(batch.bytes_per_iteration[j]),
                    n_links=int(batch.n_links[j]),
                )
        return results
