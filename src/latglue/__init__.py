"""Finite-lattice toolkit for glued sums, connected sums, and skeleton
decomposition of modular lattices.

`connect`, `hom` and the names they define are imported on first use
(PEP 562), so that a program that needs neither, such as `latglue
skeleton`, does not load them."""

import importlib

from .core import (FiniteLattice, Interval, LatticeError, CycleDetected,
                   NotTransitiveReduction, NoUniqueJoin, NoUniqueMeet,
                   NotBounded, UnknownElement, NotComparable, product,
                   find_isomorphism)
from .glue import GluedSystem, GlueViolation, NotALattice
from .predicates import NotModular
from .skeleton import SkeletonDecomposition

__version__ = "0.1.0"

# {name: the submodule that defines it}, for the names loaded on first use
_DEFERRED = {"ConnectedSystem": "connect", "LocalConnectedSystem": "connect",
             "NotModularSkeleton": "connect", "LatticeHom": "hom"}
_SUBMODULES = {"cli", "connect", "constructions", "core", "glue", "hom", "io",
               "predicates", "skeleton", "suite"}

__all__ = ["FiniteLattice", "Interval", "LatticeError", "CycleDetected",
           "NotTransitiveReduction", "NoUniqueJoin", "NoUniqueMeet",
           "NotBounded", "UnknownElement", "NotComparable", "product",
           "find_isomorphism", "GluedSystem", "GlueViolation", "NotALattice",
           "ConnectedSystem", "LocalConnectedSystem", "NotModularSkeleton",
           "NotModular", "SkeletonDecomposition", "LatticeHom",
           "connect", "core", "glue", "hom", "predicates", "skeleton"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _DEFERRED:
        value = getattr(__getattr__(_DEFERRED[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
