"""Counting operators, progression partitions, uniformity norms, and the
popular-difference search on dense integer grids."""

from .core import (BoxSpec, ConfigSpec, GridFunction, Line, PhaseTable,
                   SetIndicator, TorusPhase)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec", "ConfigSpec", "GridFunction", "Line", "PhaseTable",
    "SetIndicator", "TorusPhase", "__version__",
]
