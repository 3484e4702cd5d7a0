"""Entropic quantities, reported in bits.

Internally everything is accumulated in natural log; division by ln 2
happens once at the reporting boundary.  Infinite relative entropy is a
regular return value, not an error.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_FLOOR, EIG_TOL, SpectralPoint, psd_point
from .states import DensityMatrix, admit_matrix, check_probabilities

LN2 = math.log(2.0)


def _entropy_of(w: np.ndarray) -> float:
    """-sum w ln w over the weights above DEFAULT_FLOOR, in nats."""
    w = w[w > DEFAULT_FLOOR]
    return float(-(w @ np.log(w)))


def shannon_entropy(p: np.ndarray) -> float:
    """Entropy in bits of a probability vector of any length, admitted by
    :func:`~pptbound.states.check_probabilities`; weights <= DEFAULT_FLOOR
    are skipped."""
    w = check_probabilities(p, "probabilities", size=np.size(p))
    return max(0.0, _entropy_of(w) / LN2)


def psd_entropy(rho_mat: np.ndarray) -> float:
    """-Tr(rho ln rho) of a Hermitian matrix, PSD within EIG_TOL or ValueError."""
    w = np.linalg.eigvalsh(rho_mat)
    if w[0] < -EIG_TOL:
        raise ValueError(f"rho is not PSD: least eigenvalue {w[0]:.3e}")
    return _entropy_of(w)


def admit_pair(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[np.ndarray, np.ndarray, float, SpectralPoint]:
    """A (rho, sigma) pair of equal dims, each admitted by
    :func:`~pptbound.states.admit_matrix` in float64 when neither has a
    nonzero imaginary part, else in complex128; S(rho) in nats by
    :func:`psd_entropy`; and their :func:`~pptbound.linalg.psd_point`."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    real = not (np.imag(rho.matrix).any() or np.imag(sigma.matrix).any())
    rho_mat = admit_matrix(rho, "rho", real)
    s_rho = psd_entropy(rho_mat)
    sig_mat = admit_matrix(sigma, "sigma", real)
    return rho_mat, sig_mat, s_rho, psd_point(rho_mat, sig_mat)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = Tr rho (log2 rho - log2 sigma) in bits, read off
    the point of a pair admitted by :func:`admit_pair`; +inf when rho
    leaves the support of sigma (:meth:`~pptbound.linalg.SpectralPoint.divergence`)."""
    _, _, s_rho, point = admit_pair(rho, sigma)
    return point.divergence(-s_rho) / LN2
