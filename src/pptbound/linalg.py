"""Dense Hermitian linear algebra for bipartite operators.

All functions work on plain square ``numpy`` arrays in the computational
product basis ``|i>_A |j>_B`` at flat index ``i * d_b + j``.  Bipartite
structure enters only through :class:`BipartiteDims`.  A matrix is admitted
once, by :func:`require_hermitian`, which returns its Hermitian part; no later
step symmetrizes it again before ``eigh``, which reads one triangle.  sigma's
positivity is checked once, by :func:`psd_point`, and a SupportError for rho's
weight on sigma's kernel is raised once, by :func:`kernel_gradient`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12
DEFAULT_FLOOR = 1e-12
DEFAULT_SUPPORT_TOL = 1e-9
EIG_TOL = 1e-10


class HermiticityError(ValueError):
    """An input that must be Hermitian is not, beyond tolerance."""


class SupportError(ValueError):
    """The support of rho is not contained in the support of sigma."""


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (d_a, d_b) of a bipartite system."""

    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        if self.d_a < 1 or self.d_b < 1:
            raise ValueError(f"local dimensions must be positive, got ({self.d_a}, {self.d_b})")

    def __str__(self) -> str:
        return f"{self.d_a}x{self.d_b}"

    @property
    def total(self) -> int:
        return self.d_a * self.d_b


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian rounding residue of ``m``."""
    return (m + m.conj().T) / 2.0


def check_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    return a


def check_dims(m: np.ndarray, dims: BipartiteDims, what: str = "matrix") -> np.ndarray:
    a = check_square(m, what)
    if a.shape[0] != dims.total:
        raise ValueError(f"{what} of size {a.shape[0]} does not match dims {dims}")
    return a


def require_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL, what: str = "matrix") -> np.ndarray:
    """The Hermitian part of ``m``, or ValueError unless ``m`` is square with
    finite entries and Hermitian to within ``rtol`` * max(1, |m|)."""
    a = check_square(m, what)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    dev = float(np.linalg.norm(a - a.conj().T))
    scale = max(1.0, float(np.linalg.norm(a)))
    if dev > rtol * scale:
        raise HermiticityError(f"{what} is not Hermitian: deviation {dev:.3e} exceeds {rtol:.1e} * scale")
    return hermitianize(a)


def divided_difference_log(s: np.ndarray) -> np.ndarray:
    """Table of first divided differences of ln over the values ``s``,
    clamped below at DEFAULT_FLOOR.

    Entry (i, j) is (ln s_i - ln s_j) / (s_i - s_j), with the diagonal limit
    1 / s_i.  Evaluated through atanh of the relative gap, which is accurate
    for coincident and for widely separated values alike.
    """
    sc = np.maximum(np.asarray(s, dtype=float), DEFAULT_FLOOR)
    avg = (sc[:, None] + sc[None, :]) / 2.0
    r = (sc[:, None] - sc[None, :]) / (2.0 * avg)
    big = np.abs(r) > 1e-7
    ratio = np.arctanh(r, out=np.ones_like(r), where=big)
    np.divide(ratio, r, out=ratio, where=big)
    return ratio / avg


class SpectralPoint:
    """S(rho||sigma), its support test and its gradient from one ``eigh``
    of sigma, on one face.

    Holds the ascending eigenvalues and eigenvectors V of sigma, ``rho_t``
    = V^dag rho V and the rho-weights, the real diagonal of ``rho_t``.  The
    face, the eigenvalues at or under ``wall``, is fixed here: rho may not
    leak onto it, and the gradient freezes it.  By default the face is the
    kernel.  Since ``eigh`` returns the spectrum ascending, the face is the
    leading run of ``frozen`` eigenvalues, and the eigenvalues at or under
    DEFAULT_FLOOR are the leading run of ``dead`` ones.  Nothing is checked
    here: sigma goes to ``eigh`` as given.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray, wall: float = DEFAULT_FLOOR) -> None:
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(sigma)
        v = self.eigenvectors
        self.rho_t = v.conj().T @ rho @ v
        self.weights = self.rho_t.diagonal().real.copy()
        self.frozen, self.dead = self.eigenvalues.searchsorted((wall, DEFAULT_FLOOR), "right").tolist()

    def leaks(self) -> float | None:
        """Largest rho-weight above DEFAULT_SUPPORT_TOL on the face, or None
        when rho stays clear of it."""
        if not self.frozen:
            return None
        top = float(self.weights[: self.frozen].max())
        return top if top > DEFAULT_SUPPORT_TOL else None

    def divergence(self, c0: float) -> float:
        """c0 - Tr(rho ln sigma) in nats, +inf when rho leaks onto the face.

        With c0 = -S(rho) this is S(rho||sigma).  The trace runs over the
        eigenvalues above DEFAULT_FLOOR; directions under both cutoffs are
        skipped.
        """
        if self.leaks() is not None:
            return math.inf
        return c0 - float(self.weights[self.dead :] @ np.log(self.eigenvalues[self.dead :]))

    def gradient(self) -> np.ndarray:
        """Gradient of sigma -> Tr(rho ln sigma) as a Hermitian matrix, with
        the face frozen.

        In the eigenbasis of sigma it is ``rho_t`` entrywise-scaled by the
        divided differences of ln; it reduces to rho @ inv(sigma) whenever
        rho and sigma commute.  The rows and columns of the face are
        zeroed: at the default wall that is the kernel, where ln is only
        seen through the floor clamp.  When rho has no weight on the face,
        freezing it changes nothing.
        """
        v = self.eigenvectors
        f = divided_difference_log(self.eigenvalues)
        f[: self.frozen] = 0.0
        f[:, : self.frozen] = 0.0
        return hermitianize(v @ (self.rho_t * f) @ v.conj().T)


def psd_point(rho: np.ndarray, sigma: np.ndarray) -> SpectralPoint:
    """The :class:`SpectralPoint` of a Hermitian pair, or ValueError unless
    its ``eigh`` finds sigma PSD within EIG_TOL."""
    point = SpectralPoint(rho, sigma)
    if point.eigenvalues[0] < -EIG_TOL:
        raise ValueError(f"sigma is not PSD: least eigenvalue {point.eigenvalues[0]:.3e}")
    return point


def kernel_gradient(point: SpectralPoint) -> np.ndarray:
    """``point.gradient()``, or SupportError when rho leaks onto the face."""
    weight = point.leaks()
    if weight is not None:
        raise SupportError(
            f"rho has weight {weight:.3e} on the null space of sigma (tol {DEFAULT_SUPPORT_TOL:.1e})"
        )
    return point.gradient()


def dd_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gradient of sigma -> Tr(rho ln sigma) with sigma's kernel frozen,
    of two raw arrays that it admits by :func:`require_hermitian`: the
    :func:`kernel_gradient` of their :func:`psd_point`."""
    r = require_hermitian(rho, what="rho")
    s = require_hermitian(sigma, what="sigma")
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch: rho {r.shape}, sigma {s.shape}")
    return kernel_gradient(psd_point(r, s))


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex
    (Duchi et al., ICML 2008): one threshold found in one pass over the
    sorted values, in Python floats, which beat numpy calls at small n."""
    total = theta = 0.0
    for k, x in enumerate(np.sort(w)[::-1].tolist(), 1):
        total += x
        if x * k > total - 1.0:
            theta = (total - 1.0) / k
    return np.maximum(w - theta, 0.0)


def _spectraplex_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest unit-trace PSD matrix to the Hermitian ``m``."""
    w, v = np.linalg.eigh(m)
    return (v * _simplex(w)) @ v.conj().T


def partial_transpose(m: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Transpose the B factor: out[(i,l),(k,j)] = m[(i,j),(k,l)]."""
    da, db = dims.d_a, dims.d_b
    return check_dims(m, dims).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(dims.total, dims.total)


def partial_trace(m: np.ndarray, dims: BipartiteDims, side: str) -> np.ndarray:
    """Trace out one factor; ``side`` names the factor that is removed."""
    r = check_dims(m, dims).reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    if side == "A":
        return np.einsum("ijil->jl", r)
    if side == "B":
        return np.einsum("ijkj->ik", r)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")

