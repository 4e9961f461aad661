"""gausstat: photon-statistics observables, classification, and reconstruction
of multimode Gaussian states, cross-verified against a truncated-Fock oracle."""

from .states import (
    GaussianParams,
    MomentSummary,
    derive_moments,
    g2_tensor,
    g3_tensor,
)

__all__ = [
    "GaussianParams",
    "MomentSummary",
    "derive_moments",
    "g2_tensor",
    "g3_tensor",
]

__version__ = "0.1.0"
