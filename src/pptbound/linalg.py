"""Dense Hermitian linear algebra for bipartite operators.

All functions work on plain square ``numpy`` arrays in the computational
product basis ``|i>_A |j>_B`` at flat index ``i * d_b + j``.  Bipartite
structure enters only through :class:`BipartiteDims`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-12
DEFAULT_FLOOR = 1e-12
DEFAULT_SUPPORT_TOL = 1e-9


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
        raise ValueError(f"{what} of size {a.shape[0]} does not match dims {dims.d_a}x{dims.d_b}")
    return a


def require_hermitian(m: np.ndarray, rtol: float = HERMITIAN_RTOL, what: str = "matrix") -> np.ndarray:
    """``m`` as an array, or ValueError unless it is square with finite
    entries and Hermitian to within ``rtol`` * max(1, |m|)."""
    a = check_square(m, what)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    dev = float(np.linalg.norm(a - a.conj().T))
    scale = max(1.0, float(np.linalg.norm(a)))
    if dev > rtol * scale:
        raise HermiticityError(f"{what} is not Hermitian: deviation {dev:.3e} exceeds {rtol:.1e} * scale")
    return a


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
    ratio = np.ones_like(r)
    big = np.abs(r) > 1e-7
    ratio[big] = np.arctanh(r[big]) / r[big]
    return ratio / avg


class SpectralPoint:
    """Tr(rho ln sigma), its support test and its gradient from one ``eigh``
    of sigma.

    Holds the ascending eigenvalues and eigenvectors V of sigma, ``rho_t``
    = V^dag rho V and the rho-weights, the real diagonal of ``rho_t``.
    Eigenvalues at or under DEFAULT_FLOOR form the kernel.  Nothing is
    validated here; callers that take outside input check it first.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray) -> None:
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(hermitianize(sigma))
        v = self.eigenvectors
        self.rho_t = v.conj().T @ rho @ v
        self.weights = np.real(np.diag(self.rho_t))

    def leaks(self, wall: float) -> float | None:
        """Largest rho-weight above DEFAULT_SUPPORT_TOL on an eigenvalue at
        or under ``wall``, or None when rho stays clear of those directions."""
        hit = (self.eigenvalues <= wall) & (self.weights > DEFAULT_SUPPORT_TOL)
        return float(self.weights[hit].max()) if hit.any() else None

    def cross(self) -> float:
        """Tr(rho ln sigma) over the eigenvalues above DEFAULT_FLOOR."""
        live = self.eigenvalues > DEFAULT_FLOOR
        return float(self.weights[live] @ np.log(self.eigenvalues[live])) if live.any() else 0.0

    def gradient(self, freeze: np.ndarray | None = None) -> np.ndarray:
        """Gradient of sigma -> Tr(rho ln sigma) as a Hermitian matrix.

        In the eigenbasis of sigma it is ``rho_t`` entrywise-scaled by the
        divided differences of ln; it reduces to rho @ inv(sigma) whenever
        rho and sigma commute.  The kernel x kernel block is zeroed, and so
        are the rows and columns of eigenvectors marked in ``freeze``.
        """
        s, v = self.eigenvalues, self.eigenvectors
        f = divided_difference_log(s)
        kernel = s <= DEFAULT_FLOOR
        if kernel.any():
            f[np.outer(kernel, kernel)] = 0.0
        if freeze is not None and freeze.any():
            f[freeze, :] = 0.0
            f[:, freeze] = 0.0
        return hermitianize(v @ (self.rho_t * f) @ v.conj().T)


def dd_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gradient of sigma -> Tr(rho ln sigma), see :meth:`SpectralPoint.gradient`.

    Requires supp(rho) inside supp(sigma): if any eigenvector of sigma with
    eigenvalue <= DEFAULT_FLOOR carries rho-weight above
    DEFAULT_SUPPORT_TOL, raises :class:`SupportError`.
    """
    r = require_hermitian(rho, what="rho")
    s = require_hermitian(sigma, what="sigma")
    if r.shape != s.shape:
        raise ValueError(f"shape mismatch: rho {r.shape}, sigma {s.shape}")
    point = SpectralPoint(r, s)
    weight = point.leaks(DEFAULT_FLOOR)
    if weight is not None:
        raise SupportError(
            f"rho has weight {weight:.3e} on the null space of sigma (tol {DEFAULT_SUPPORT_TOL:.1e})"
        )
    return point.gradient()


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex
    (Duchi et al., ICML 2008): one threshold found from the sorted values."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    r = np.nonzero(u * np.arange(1, u.size + 1) > css)[0][-1]
    return np.maximum(w - css[r] / (r + 1), 0.0)


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

