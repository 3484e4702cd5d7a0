"""Entropic quantities, reported in bits.

Internally everything is accumulated in natural log; division by ln 2
happens once at the reporting boundary.  Infinite relative entropy is a
regular return value, not an error.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_FLOOR, SpectralPoint, hermitianize, require_hermitian
from .states import DensityMatrix

LN2 = math.log(2.0)


def _entropy_of(w: np.ndarray) -> float:
    """-sum w ln w over the weights above DEFAULT_FLOOR, in nats."""
    w = w[w > DEFAULT_FLOOR]
    return float(-(w @ np.log(w)))


def shannon_entropy(p: np.ndarray) -> float:
    """Entropy of a probability vector in bits; weights <= DEFAULT_FLOOR are
    skipped, and a non-finite weight raises ValueError."""
    w = np.asarray(p, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("probabilities must be finite")
    return max(0.0, _entropy_of(w) / LN2)


def entropy_nats(rho_mat: np.ndarray) -> float:
    """-Tr(rho ln rho) of a positive semidefinite matrix."""
    return _entropy_of(np.linalg.eigvalsh(hermitianize(require_hermitian(rho_mat, what="rho"))))


def relative_entropy_nats(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    """S(rho||sigma) in nats; +inf when rho leaves the support of sigma.

    The support test is on the eigenvectors of sigma: any direction with
    eigenvalue <= DEFAULT_FLOOR carrying rho-weight above
    DEFAULT_SUPPORT_TOL makes the divergence infinite.  Directions below
    both cutoffs are skipped.
    """
    if rho_mat.shape != sigma_mat.shape:
        raise ValueError(f"shape mismatch: rho {rho_mat.shape}, sigma {sigma_mat.shape}")
    point = SpectralPoint(rho_mat, require_hermitian(sigma_mat, what="sigma"))
    if point.leaks(DEFAULT_FLOOR) is not None:
        return math.inf
    return -entropy_nats(rho_mat) - point.cross()


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Relative entropy S(rho||sigma) = Tr rho (log2 rho - log2 sigma) in bits."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    value = relative_entropy_nats(rho.matrix, sigma.matrix)
    return value if math.isinf(value) else value / LN2
