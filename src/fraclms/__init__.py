"""Fractional-order LMS adaptive filters with a robust variable step size,
plus a seeded Monte-Carlo system-identification benchmark harness."""

__version__ = "0.1.0"

from .filters import FilterConfig
from .simulate import AlgorithmSpec, PlantSpec, run_identification, stream

__all__ = ["__version__", "AlgorithmSpec", "FilterConfig", "PlantSpec", "run_identification", "stream"]
