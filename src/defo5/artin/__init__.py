"""Finite Artinian local rings of residue characteristic 5: descriptors,
elements and their literals, and the index tables of the exhaustive scans."""

from .rings import (ENUMERATION_BOUND, DescriptorError, Element,
                    EnumerationBoundError, MismatchError, NoSquareRootError,
                    NotAUnitError, Ring, RingError, build_ring)
from .literals import LiteralError, format_element, parse_element
from .tables import TABLE_BOUND, RingTable

__all__ = [
    "ENUMERATION_BOUND", "TABLE_BOUND", "DescriptorError", "Element",
    "EnumerationBoundError", "LiteralError", "MismatchError",
    "NoSquareRootError", "NotAUnitError", "Ring", "RingError", "RingTable",
    "build_ring", "format_element", "parse_element",
]
