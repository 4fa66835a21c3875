"""Backend self-benchmark: the ``BENCH_backends.json`` artifact.

Times identical scenario grids under the simulation and the analytic
backend at several grid sizes, so the analytic speedup — the whole
point of the multi-backend refactor — is a recorded, regenerable number
instead of a claim.

Run:  ``python -m repro backend-bench [--json PATH]``
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import List

from .base import BACKEND_ANALYTIC, BACKEND_SIM

__all__ = ["DEFAULT_JSON_PATH", "benchmark_backends", "scaling_grids"]

#: Default persistence target (picked up by the perf trajectory).
DEFAULT_JSON_PATH = "BENCH_backends.json"

_SCHEMA = "repro.backends.bench/v1"

#: Grid scales benchmarked: approaches × sizes per scale.
_SIZES_PER_SCALE = (2, 4, 8)


def scaling_grids() -> List[List]:
    """Fixed bench grids of increasing size (all 8 approaches, N=4)."""
    from ..runner.scenario import ScenarioGrid

    grids = []
    for n_sizes in _SIZES_PER_SCALE:
        sizes = [1 << (10 + 2 * i) for i in range(n_sizes)]
        grid = ScenarioGrid(
            "bench",
            base={"n_threads": 4, "theta": 1, "iterations": 10},
            axes={
                "approach": [
                    "pt2pt_single",
                    "pt2pt_many",
                    "pt2pt_part",
                    "pt2pt_part_old",
                    "rma_single_passive",
                    "rma_many_passive",
                    "rma_single_active",
                    "rma_many_active",
                ],
                "total_bytes": sizes,
            },
        )
        grids.append(grid.expand())
    return grids


def _time_backend(scenarios, backend: str) -> float:
    from ..runner.executor import run_scenarios
    from ..runner.scenario import Scenario

    batch = [
        Scenario(kind=s.kind, spec=s.spec, backend=backend)
        for s in scenarios
    ]
    t0 = time.perf_counter()
    run_scenarios(batch, jobs=1)
    return time.perf_counter() - t0


def benchmark_backends(path: str | Path = DEFAULT_JSON_PATH) -> dict:
    """Time sim vs analytic on each scaling grid and persist the result."""
    records = []
    grids = scaling_grids()
    # Warm both backends' lazy imports outside the timed regions: the
    # first grid would otherwise be charged one-time import cost.
    _time_backend(grids[0][:1], BACKEND_SIM)
    _time_backend(grids[-1], BACKEND_ANALYTIC)
    for scenarios in grids:
        sim_wall = _time_backend(scenarios, BACKEND_SIM)
        analytic_wall = _time_backend(scenarios, BACKEND_ANALYTIC)
        records.append(
            {
                "n_scenarios": len(scenarios),
                "sim_wall_s": round(sim_wall, 6),
                "analytic_wall_s": round(analytic_wall, 6),
                # Clamp the divisor so a sub-resolution analytic wall
                # still yields a number min() can take.
                "speedup": round(sim_wall / max(analytic_wall, 1e-9), 1),
            }
        )
    payload = {
        "schema": _SCHEMA,
        "grid": "8 approaches x {2,4,8} sizes (N=4, theta=1, iters=10)",
        "python": platform.python_version(),
        "grids": records,
        "min_speedup": min(r["speedup"] for r in records),
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
