"""Polarization-manifold analysis of two-mode displaced-squeezed light.

Synthesizes displaced squeezed thermal states in truncated photon-number
bases, parses them into fixed-photon-number polarization manifolds, and
computes polarization squeezing, SU(2) Husimi Q functions, and multipole
spectra, with a CLI that emits figure-data tables and rasters.
"""

__version__ = "0.1.0"

from .fock import NoiseModel, synthesize_mode
from .polar import parse_manifolds
from .sphere import build_quadrature_grid, husimi_manifold, husimi_total
from .stokes import manifold_stokes_summary, total_stokes_summary

__all__ = [
    "NoiseModel",
    "synthesize_mode",
    "parse_manifolds",
    "build_quadrature_grid",
    "husimi_manifold",
    "husimi_total",
    "manifold_stokes_summary",
    "total_stokes_summary",
]
