"""Entropic quantities, reported in bits.

Internally everything is accumulated in natural log; division by ln 2
happens once at the reporting boundary.  Infinite relative entropy is a
regular return value, not an error.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_FLOOR, EIG_TOL, SpectralPoint, _in_arithmetic, require_hermitian
from .states import DensityMatrix, check_probabilities, check_unit_trace

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


def entropy_nats(rho_mat: np.ndarray) -> float:
    """-Tr(rho ln rho) of a matrix that is PSD within EIG_TOL, or ValueError."""
    w = np.linalg.eigvalsh(require_hermitian(rho_mat, what="rho"))
    if w[0] < -EIG_TOL:
        raise ValueError(f"rho is not PSD: least eigenvalue {w[0]:.3e}")
    return _entropy_of(w)


def admit_pair(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """The one admission rule of a (rho, sigma) pair, for
    :func:`relative_entropy` and :func:`~pptbound.pptopt.kkt_check`:
    ValueError unless the dims agree, both traces are 1 within INPUT_TOL,
    sigma is Hermitian and rho is PSD within EIG_TOL.  Returns rho, sigma
    (its Hermitian part) and S(rho) in nats, the matrices in float64 when
    neither has a nonzero imaginary part and in complex128 otherwise."""
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    check_unit_trace(rho, "rho")
    check_unit_trace(sigma, "sigma")
    real = not (np.imag(rho.matrix).any() or np.imag(sigma.matrix).any())
    rho_mat = _in_arithmetic(rho.matrix, real)
    sig_mat = require_hermitian(_in_arithmetic(sigma.matrix, real), what="sigma")
    return rho_mat, sig_mat, entropy_nats(rho_mat)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = Tr rho (log2 rho - log2 sigma) in bits, of a pair
    admitted by :func:`admit_pair` with sigma PSD within EIG_TOL, or
    ValueError; +inf when rho leaves the support of sigma, by the rule of
    :meth:`~pptbound.linalg.SpectralPoint.divergence` at DEFAULT_FLOOR.
    The arithmetic is that of :func:`admit_pair`."""
    rho_mat, sig_mat, s_rho = admit_pair(rho, sigma)
    point = SpectralPoint(rho_mat, sig_mat)
    if point.eigenvalues[0] < -EIG_TOL:
        raise ValueError(f"sigma is not PSD: least eigenvalue {point.eigenvalues[0]:.3e}")
    value = point.divergence(-s_rho)
    return value if math.isinf(value) else value / LN2
