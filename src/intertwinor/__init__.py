"""Exact spectra of conformal intertwinors on form bundles over S^(p-1) x S^(q-1).

The package computes, in exact rational arithmetic wherever the inputs allow,
the eigenvalue data of the order-2r intertwinors on differential forms over a
product of round spheres with the split-signature product metric, including
the even-order conformally covariant differential operators, and provides
grid-based consistency suites plus an explicit truncated Fourier realization
on the two-torus.
"""

__version__ = "0.1.0"

from .arithmetic import (
    POLE,
    IndeterminateError,
    gamma_ratio,
    gamma_ratio_numeric,
    rising_factorial,
)
from .spectra import (
    DIRECTIONS,
    BundleParams,
    Direction,
    Family,
    KTypeLabel,
    NonexistentKTypeError,
    RadicalValue,
    SpectralPoint,
    ktype_exists,
    mult1_eigenvalue,
    mult1_transition,
    mult2_det,
    mult2_transition,
    normalized_eigenvalue,
    spectral_point,
)

__all__ = [
    "POLE",
    "IndeterminateError",
    "gamma_ratio",
    "gamma_ratio_numeric",
    "rising_factorial",
    "DIRECTIONS",
    "BundleParams",
    "Direction",
    "Family",
    "KTypeLabel",
    "NonexistentKTypeError",
    "RadicalValue",
    "SpectralPoint",
    "ktype_exists",
    "mult1_eigenvalue",
    "mult1_transition",
    "mult2_det",
    "mult2_transition",
    "normalized_eigenvalue",
    "spectral_point",
]
