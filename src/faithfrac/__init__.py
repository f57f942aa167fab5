"""Exact arithmetic for faithful fraction decompositions.

A decomposition writes a positive rational m/n as a sum of fractions with
pairwise distinct denominators.  It is faithful when no partial selection of
the written numerators lands in the ideal (1/n)Z apart from 0 and m/n
itself.  This package builds such decompositions in closed form, verifies
arbitrary ones exactly, and searches bounded spaces exhaustively.
"""

from . import construct, model, numeric, partition, search, verifier
from .construct import *
from .model import *
from .numeric import *
from .partition import *
from .search import *
from .verifier import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (construct, model, numeric, partition, search, verifier)
    for name in module.__all__
)
