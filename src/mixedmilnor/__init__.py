"""Exact analysis of mixed polynomials: Newton boundary combinatorics,
non-degeneracy and local tameness probes, limit tangents along arcs, and
Milnor-fibration zeta functions.

The float layers, `degeneracy` and `fibers`, load numpy and are loaded on
first use: importing the package loads neither."""

import importlib

from . import arcs, constructors, lattice, newton, zeta
from .arcs import Arc, af_test_arc, expand_arc, limit_tangent, parse_arc
from .constructors import PullbackSpec, corpus, join, pullback_cyclic
from .poly import GaussianRational, GradientPair, MixedMonomial, MixedPoly, parse_poly
from .zeta import chi_torus, expand_zeta, polar_reduction, zeta_function

__all__ = [
    "Arc",
    "GaussianRational",
    "GradientPair",
    "MixedMonomial",
    "MixedPoly",
    "PullbackSpec",
    "af_test_arc",
    "arcs",
    "chi_torus",
    "constructors",
    "corpus",
    "criticality_residual",
    "degeneracy",
    "expand_arc",
    "expand_zeta",
    "falsify_nondegeneracy",
    "fibers",
    "join",
    "lattice",
    "limit_tangent",
    "local_tameness_check",
    "newton",
    "parse_arc",
    "parse_poly",
    "polar_reduction",
    "pullback_cyclic",
    "tameness_witness_polys",
    "zeta",
    "zeta_function",
]

__version__ = "0.1.0"

_DEGENERACY = ("criticality_residual", "falsify_nondegeneracy", "local_tameness_check", "tameness_witness_polys")


def __getattr__(name):
    """The float layers and degeneracy's verdicts, imported on first access."""
    if name in ("degeneracy", "fibers"):
        return importlib.import_module(f".{name}", __name__)
    if name in _DEGENERACY:
        return getattr(importlib.import_module(".degeneracy", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
