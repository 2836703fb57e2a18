"""Chaotic-iterations PRNG, statistical test battery, and LSB watermarking."""

from .generator import (
    CiGenerator,
    XorShift32,
    chaotic_iterate,
    kth_bit_oracle,
    seed_from_time,
    vector_negation,
)
from .battery import BatteryConfig, TestReport, TestResult, run_battery
from .source import BitStreamSource, InsufficientDataError
from .watermark import (
    EmbeddingKey,
    embed,
    extract,
    robustness_sweep,
    similarity,
)
from .kernels import NUMBA_ENABLED

__version__ = "0.1.0"

__all__ = [
    "BatteryConfig",
    "BitStreamSource",
    "CiGenerator",
    "EmbeddingKey",
    "InsufficientDataError",
    "NUMBA_ENABLED",
    "TestReport",
    "TestResult",
    "XorShift32",
    "chaotic_iterate",
    "embed",
    "extract",
    "kth_bit_oracle",
    "robustness_sweep",
    "run_battery",
    "seed_from_time",
    "similarity",
    "vector_negation",
]
