"""Finite-lattice toolkit for glued sums, connected sums, and skeleton
decomposition of modular lattices."""

from .core import (FiniteLattice, Interval, LatticeError, CycleDetected,
                   NotTransitiveReduction, NoUniqueJoin, NoUniqueMeet,
                   NotBounded, UnknownElement, NotComparable, product,
                   find_isomorphism)
from .glue import GluedSystem, GlueViolation, NotALattice
from .connect import ConnectedSystem, LocalConnectedSystem, NotModularSkeleton
from .predicates import NotModular
from .skeleton import SkeletonDecomposition
from .hom import LatticeHom

__version__ = "0.1.0"
