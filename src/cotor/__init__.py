"""Exact GF(3) verification engine for a differential graded algebra:
basis enumeration, differential matrices, cohomology dimensions, relation
catalogs with machine errata, and spectral-sequence page checks.
"""

from .cache import ENGINE_VERSION as __version__
from .dga import Element, Monomial, enumerate_basis, gen
from .differential import Differential, audit_conventions
from .engine import Engine
from .gf3 import SparseMatrixF3, kernel_basis, rref, solve_in_image

__all__ = [
    "Differential", "Element", "Engine", "Monomial", "SparseMatrixF3",
    "audit_conventions", "enumerate_basis", "gen", "kernel_basis",
    "rref", "solve_in_image", "__version__",
]
