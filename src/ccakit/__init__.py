"""Edge-colored Cayley graphs and their color-preserving automorphisms.

The color group of a connected Cayley graph always contains the left
translations; the central question is when it contains nothing beyond the
affine maps built from translations and group automorphisms.  This package
builds the graphs, computes the color groups by canonical refinement search,
decides that question, and factors Cartesian products back out of the group
action alone.

Each module's ``__all__`` is its public interface, and the package
republishes every one of those names.
"""

from . import cartesian, cayley, cca, groups, harness, perms, search, suites
from .cartesian import *
from .cayley import *
from .cca import *
from .groups import *
from .harness import *
from .perms import *
from .search import *
from .suites import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (cartesian, cayley, cca, groups, harness, perms, search, suites)
    for name in module.__all__
]
