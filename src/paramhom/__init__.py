"""Parametrized homology of constructible R-spaces.

Computes levelset zigzag persistence, the four rectangle measures
(mu_oo, mu_co, mu_oc, mu_cc), decorated persistence diagrams, extended
persistence, cohomology cross-checks, and bottleneck stability, all with
exact arithmetic over a prime field.
"""

from .bottleneck import StabilityRecord, bottleneck_distance, stability_report
from .cohomology import DualityError, cohomology_diagrams
from .complexes import SimplicialComplex
from .diagrams import (BehaviorType, DecoratedDiagram, DecoratedPoint,
                       Decoration, Rectangle)
from .extended import ExtendedType, extended_diagrams, extended_from_parametrized
from .fieldlin import PrimeField
from .levelset import all_diagrams, levelset_zigzag, translate
from .measures import measure_profile
from .rspace import ConstructibleRSpace
from .zigzag import DecompositionError, ZigzagModule, decompose

__version__ = "0.1.0"

__all__ = [
    "BehaviorType",
    "ConstructibleRSpace",
    "DecompositionError",
    "DecoratedDiagram",
    "DecoratedPoint",
    "Decoration",
    "DualityError",
    "ExtendedType",
    "PrimeField",
    "Rectangle",
    "SimplicialComplex",
    "StabilityRecord",
    "ZigzagModule",
    "all_diagrams",
    "bottleneck_distance",
    "cohomology_diagrams",
    "decompose",
    "extended_diagrams",
    "extended_from_parametrized",
    "levelset_zigzag",
    "measure_profile",
    "stability_report",
    "translate",
    "__version__",
]
