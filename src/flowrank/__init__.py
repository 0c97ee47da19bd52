"""Rank-based change-point detection for high-dimensional flow count series.

Two reduction pipelines feed the same nonparametric test: record
filtering keeps each bin's heaviest keys and censors the rest from
above, while sketch aggregation hashes all keys into a small table of
summed series and inverts the flagged cells. A synthetic-traffic
generator, a Monte Carlo ROC harness and a numerical information study
of the two reductions round out the package.
"""

from .model import (
    DetectionMethod,
    MetricKind,
    Protocol,
    WindowBatch,
    WindowConfig,
)
from .ranktest import (
    CensoredSeries,
    TestOutcome,
    pvalue,
    score_pair,
    statistic,
    statistic_batch,
)

__version__ = "0.1.0"

__all__ = [
    "CensoredSeries",
    "DetectionMethod",
    "MetricKind",
    "Protocol",
    "TestOutcome",
    "WindowBatch",
    "WindowConfig",
    "pvalue",
    "score_pair",
    "statistic",
    "statistic_batch",
    "__version__",
]
