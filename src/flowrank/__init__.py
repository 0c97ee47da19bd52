"""Rank-based change-point detection for high-dimensional flow count series.

Two reduction pipelines feed the same nonparametric test: record
filtering keeps each bin's heaviest keys and censors the rest from
above, while sketch aggregation hashes all keys into a small table of
summed series and inverts the flagged cells. A synthetic-traffic
generator, a Monte Carlo ROC harness and a numerical information study
of the two reductions round out the package.
"""

from .model import (
    Alarm,
    BinSeries,
    Contribution,
    DetectionMethod,
    FlowRecord,
    MetricKind,
    Protocol,
    WindowBatch,
    WindowConfig,
    metric_key_value,
)
from .ranktest import (
    CensoredSeries,
    TestOutcome,
    pvalue,
    score_pair,
    statistic,
    statistic_batch,
    statistic_uncensored,
)

__version__ = "0.1.0"

__all__ = [
    "Alarm",
    "BinSeries",
    "CensoredSeries",
    "Contribution",
    "DetectionMethod",
    "FlowRecord",
    "MetricKind",
    "Protocol",
    "TestOutcome",
    "WindowBatch",
    "WindowConfig",
    "metric_key_value",
    "pvalue",
    "score_pair",
    "statistic",
    "statistic_batch",
    "statistic_uncensored",
    "__version__",
]
