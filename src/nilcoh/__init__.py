"""Exact cohomology of finitely generated torsion-free class-2 nilpotent groups.

The package computes H^1 and H^2 with trivial coefficients Z^r from a
presentation in normal-form coordinates, produces explicit polynomial
2-cocycle representatives for every class it reports, builds the
corresponding central extensions, and solves for the polynomial whose
coboundary is a multiple of a torsion class. All arithmetic is exact over
Z.

The top level re-exports the everyday names; every other public name
lives in its submodule (``nilcoh.exactlinalg``, ``nilcoh.grouplaw``, ...).
The ``grouplaw`` and ``cohomology`` names are plain imports: every
command line process loads both. The ``cocycles`` names and ``families``
import their module on first access, which an ``h2`` process never makes.
"""

from importlib import import_module

from .cohomology import h1, h2, h2_via_complex, second_homology_rank
from .grouplaw import (GroupElement, commutator, inverse, multiply,
                       random_element)

__all__ = [
    "GroupElement", "commutator", "inverse", "multiply", "random_element",
    "h1", "h2", "h2_via_complex", "second_homology_rank",
    "all_cocycles", "build_extension", "coboundary_witness", "evaluate",
    "lemmax_generators", "lemmay_basis", "prove_cocycles", "render",
    "families",
]

# the names in __all__ that cocycles defines, imported on first access
_COCYCLES = ("all_cocycles", "build_extension", "coboundary_witness",
             "evaluate", "lemmax_generators", "lemmay_basis",
             "prove_cocycles", "render")


def __getattr__(name):
    if name == "families":
        value = import_module(".families", __name__)
    elif name in _COCYCLES:
        value = getattr(import_module(".cocycles", __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
