"""Exact cohomology of finitely generated torsion-free class-2 nilpotent groups.

The package computes H^1 and H^2 with trivial coefficients Z^r from a
presentation in normal-form coordinates, produces explicit polynomial
2-cocycle representatives for every class it reports, builds the
corresponding central extensions, and searches for coboundary witnesses.
All arithmetic is exact over Z.

The top level re-exports the everyday names; every other public name
lives in its submodule (``nilcoh.exactlinalg``, ``nilcoh.grouplaw``, ...).
"""

from .grouplaw import (GroupElement, commutator, inverse, multiply,
                       random_element)
from .cohomology import h1, h2, h2_via_complex, second_homology_rank
from .cocycles import (build_extension, coboundary_witness, evaluate,
                       lemmax_generators, lemmay_basis, render,
                       verify_cocycle)
from . import families

__all__ = [
    "GroupElement", "commutator", "inverse", "multiply", "random_element",
    "h1", "h2", "h2_via_complex", "second_homology_rank",
    "build_extension", "coboundary_witness", "evaluate", "lemmax_generators",
    "lemmay_basis", "render", "verify_cocycle",
    "families",
]
