"""Workbench for A-vertex-magic labelings of unicyclic and bicyclic graphs.

Cross-validates closed-form characterizations against a complete search
oracle over a catalog of finite abelian groups.
"""

from .abelian import (
    GroupElement,
    GroupSpec,
    enumerate_abelian_groups,
    parse_group,
)
from .graphs import Graph
from .labeling import Labeling, MagicCertificate, verify_magic
from .solver import SolveOutcome, count_magic, exists_magic, z2_magic

__version__ = "0.1.0"

__all__ = [
    "GroupElement",
    "GroupSpec",
    "Graph",
    "Labeling",
    "MagicCertificate",
    "SolveOutcome",
    "count_magic",
    "enumerate_abelian_groups",
    "exists_magic",
    "parse_group",
    "verify_magic",
    "z2_magic",
    "__version__",
]
