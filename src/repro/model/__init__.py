"""Analytic performance models of the paper (§2.2 and Appendix A).

Beyond the paper's closed forms, the model covers the full benchmark —
every registered approach (:mod:`repro.model.approaches`) and
application pattern (:mod:`repro.model.patterns`) — and powers the
analytic execution backend (:class:`repro.backends.AnalyticBackend`).
Its formulas live in one numpy kernel, :mod:`repro.model.vector`; the
per-point ``predict_*_time`` functions are one-row calls into it.
"""

from .approaches import (
    BenchPrediction,
    predict_bench_time,
    predict_bench_times,
)
from .delay import delay_time, gamma_theta, mu_rate, sigma_noise
from .patterns import (
    PatternPrediction,
    predict_pattern_time,
    predict_pattern_times,
)
from .pipeline import (
    crossover_bytes,
    eta_large,
    eta_small,
    gamma_from_us_per_mb,
    gamma_to_us_per_mb,
    t_bulk,
    t_pipelined,
)
from .predict import predict_eta
from .workloads import (
    FFT,
    PAPER_FFT_TABLE,
    PAPER_STENCIL_GAMMAS,
    STENCIL,
    Workload,
)

__all__ = [
    "t_bulk",
    "t_pipelined",
    "eta_large",
    "eta_small",
    "crossover_bytes",
    "gamma_from_us_per_mb",
    "gamma_to_us_per_mb",
    "mu_rate",
    "sigma_noise",
    "gamma_theta",
    "delay_time",
    "Workload",
    "FFT",
    "STENCIL",
    "PAPER_FFT_TABLE",
    "PAPER_STENCIL_GAMMAS",
    "predict_eta",
    "BenchPrediction",
    "predict_bench_time",
    "predict_bench_times",
    "PatternPrediction",
    "predict_pattern_time",
    "predict_pattern_times",
]
