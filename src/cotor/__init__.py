"""Exact GF(3) verification engine for a differential graded algebra:
basis enumeration, differential matrices, cohomology dimensions, relation
catalogs with machine errata, and spectral-sequence page checks.
"""

from .cache import ENGINE_VERSION as __version__
from .dga import Element, Monomial, enumerate_basis, gen
from .differential import Differential, audit_conventions
from .engine import Engine

__all__ = [
    "Differential", "Element", "Engine", "Monomial", "audit_conventions",
    "enumerate_basis", "gen", "__version__",
]
