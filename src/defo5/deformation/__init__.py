"""The deformation functor of sigma: lifts, equivalence, versal points,
tangent space, obstruction, and the exhaustive proof-chain scans."""

from .equivalence import conjugator_search, universality_scan
from .obstruction import defect_vector, obstruction_check
from .proofchain import (CATALOG, catalog_rings, proof_chain_check,
                         proof_chain_scan)
from .tangent import cocycle_matrix, coboundary_matrix, tangent_report
from .versal import (VersalPoint, hom_points, iterate_closed_form,
                     lift_certificate, phi5, versal_family)

__all__ = [
    "CATALOG", "VersalPoint", "catalog_rings", "coboundary_matrix",
    "cocycle_matrix", "conjugator_search", "defect_vector",
    "hom_points", "iterate_closed_form", "lift_certificate",
    "obstruction_check", "phi5", "proof_chain_check", "proof_chain_scan",
    "tangent_report", "universality_scan", "versal_family",
]
