"""Bipartite state families, the Bell twirl, and the non-additivity pair.

Constructors return :class:`DensityMatrix` values that already satisfy the
trace, Hermiticity, and positivity invariants.  Outside input, a matrix or
a probability vector, is admitted by one rule: it must lie within
``INPUT_TOL`` of a state; if it already satisfies the invariants at working
precision it is returned untouched, otherwise it is replaced by its
nearest point on the state set.  The solver and the pair checks admit
each state they are handed once, by :func:`admit_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_RTOL,
    EIG_TOL,
    BipartiteDims,
    _simplex,
    _spectraplex_project,
    check_dims,
    check_square,
    hermitianize,
    require_hermitian,
)

TRACE_TOL = 1e-12
# How far outside input may sit from the state set and still be admitted.
INPUT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite density matrix together with its local dimensions."""

    matrix: np.ndarray
    dims: BipartiteDims

    def validate(self, tol: float | None = None) -> None:
        """Raise ValueError naming the first violated invariant, if any;
        ``tol`` replaces HERMITIAN_RTOL, TRACE_TOL and EIG_TOL when given."""
        herm_rtol, trace_tol, eig_tol = (HERMITIAN_RTOL, TRACE_TOL, EIG_TOL) if tol is None else (tol,) * 3
        m = check_dims(self.matrix, self.dims, "density matrix")
        m = require_hermitian(m, herm_rtol, "density matrix")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace invariant violated: trace = {tr:.15g}")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -eig_tol:
            raise ValueError(f"positivity invariant violated: min eigenvalue = {low:.3e}")


def admit_matrix(state: DensityMatrix, what: str, real: bool) -> np.ndarray:
    """The Hermitian part of an outside matrix, in float64 (its real part)
    when ``real``, else in complex128; ValueError unless it matches its
    dims, has trace 1 within INPUT_TOL and passes require_hermitian."""
    m = check_dims(state.matrix, state.dims, what)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > INPUT_TOL:
        raise ValueError(f"{what} trace = {tr:.15g} is not 1 within {INPUT_TOL:g}")
    h = require_hermitian(m, what=what)
    return np.real(h) if real else np.asarray(h, dtype=complex)


def density_matrix(matrix: np.ndarray, dims: BipartiteDims) -> DensityMatrix:
    """The admitting constructor: ValueError naming the violated invariant
    unless ``matrix`` is a state within INPUT_TOL.  A matrix valid at
    working precision comes back untouched, so a dump/load cycle is
    bit-exact; any other is replaced by the Frobenius-nearest state."""
    dm = DensityMatrix(matrix=np.asarray(matrix, dtype=complex), dims=dims)
    try:
        dm.validate()
    except ValueError:
        dm.validate(INPUT_TOL)
        dm = DensityMatrix(matrix=hermitianize(_spectraplex_project(hermitianize(dm.matrix))), dims=dims)
        dm.validate()
    return dm


def phi_plus(k: int) -> np.ndarray:
    """Maximally entangled vector (1/sqrt(k)) sum_i |ii> on a k x k system."""
    if k < 2:
        raise ValueError(f"need local dimension >= 2, got {k}")
    v = np.zeros(k * k, dtype=complex)
    v[:: k + 1] = 1.0 / math.sqrt(k)
    return v


def max_entangled_projector(k: int) -> np.ndarray:
    v = phi_plus(k)
    return np.outer(v, v.conj())


def entanglement_fidelity(matrix: np.ndarray, k: int) -> float:
    """Overlap <phi_plus| M |phi_plus> of a Hermitian matrix with the
    maximally entangled state."""
    v = phi_plus(k)
    return float(np.real(np.vdot(v, matrix @ v)))


def isotropic(k: int, f: float) -> DensityMatrix:
    """Isotropic state with entanglement fidelity ``f`` on a k x k system."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    p = max_entangled_projector(k)
    eye = np.eye(k * k, dtype=complex)
    m = f * p + (1.0 - f) * (eye - p) / (k * k - 1)
    return DensityMatrix(matrix=m, dims=BipartiteDims(k, k))


# Columns (|00> + |11>, |00> - |11>, |01> + |10>, |01> - |10>) / sqrt 2.
BELL_BASIS = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]],
    dtype=complex,
) / math.sqrt(2.0)


def check_probabilities(p: np.ndarray, what: str, size: int | None = None) -> np.ndarray:
    """``p`` admitted as a probability vector of ``size`` entries (at least
    two when ``size`` is None): ValueError unless the entries are finite,
    at least -INPUT_TOL and sum to 1 within INPUT_TOL.  A vector that is
    nonnegative and sums to 1 within TRACE_TOL comes back untouched; any
    other is replaced by the nearest point of the simplex."""
    w = np.asarray(p, dtype=float)
    if (w.shape != (size,)) if size else (w.ndim != 1 or w.size < 2):
        raise ValueError(f"need {size or 'at least two'} {what}, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"{what} must be finite, got {w}")
    low, gap = w.min(), abs(w.sum() - 1.0)
    if low < -INPUT_TOL or gap > INPUT_TOL:
        raise ValueError(f"{what} must form a probability vector within {INPUT_TOL:g}, got {w}")
    return w if low >= 0.0 and gap <= TRACE_TOL else _simplex(w)


def check_alpha(alpha: np.ndarray) -> np.ndarray:
    """The coefficient matrix of a maximally correlated state, admitted by
    :func:`density_matrix` on one party and Hermitian averaged."""
    a = check_square(np.asarray(alpha, dtype=complex), "alpha")
    try:
        return hermitianize(density_matrix(a, BipartiteDims(a.shape[0], 1)).matrix)
    except ValueError as exc:
        raise ValueError(f"alpha: {exc}") from None


def bell_diagonal(p: np.ndarray) -> DensityMatrix:
    """Mixture of the four two-qubit Bell projectors with weights ``p``, in
    the column order of BELL_BASIS."""
    w = check_probabilities(p, "weights", size=4)
    m = (BELL_BASIS * w) @ BELL_BASIS.conj().T
    return DensityMatrix(matrix=hermitianize(m), dims=BipartiteDims(2, 2))


def max_correlated(alpha: np.ndarray) -> DensityMatrix:
    """Maximally correlated state sum_ij alpha_ij |ii><jj| from a density
    matrix ``alpha`` on the single-party space."""
    a = check_alpha(alpha)
    k = a.shape[0]
    m = np.zeros((k * k, k * k), dtype=complex)
    diag_idx = np.arange(k) * (k + 1)
    m[np.ix_(diag_idx, diag_idx)] = a
    return DensityMatrix(matrix=m, dims=BipartiteDims(k, k))


def pure_state(schmidt: np.ndarray) -> DensityMatrix:
    """Projector onto sum_i sqrt(schmidt_i) |ii>: the maximally correlated
    state of the rank-one alpha = sqrt(schmidt) sqrt(schmidt)^T."""
    s = np.sqrt(check_probabilities(schmidt, "Schmidt coefficients"))
    return max_correlated(np.outer(s, s))


def counterexample_pair() -> tuple[DensityMatrix, DensityMatrix]:
    """The explicit 4x4 pair (rho, sigma) witnessing non-additivity.

    sigma certifiably minimizes the relative entropy to rho over the PPT
    set, yet sigma tensor sigma fails the same certificate for rho tensor
    rho, so the bound of the two-copy state drops below twice the one-copy
    bound.  The middle-block entries of rho depend on x = 1/ln(73/23);
    everything else is rational.
    """
    x = 1.0 / math.log(73.0 / 23.0)
    sigma = np.array(
        [
            [1.0 / 6.0, 0.0, 0.0, 0.0],
            [0.0, 55.0 / 144.0, -1.0 / 6.0, 0.0],
            [0.0, -1.0 / 6.0, 41.0 / 144.0, 0.0],
            [0.0, 0.0, 0.0, 1.0 / 6.0],
        ],
        dtype=complex,
    )
    r11 = 45907.0 / 90000.0 - (7.0 / 150.0) * x
    r22 = 29093.0 / 90000.0 + (7.0 / 150.0) * x
    r12 = -1201.0 / 3750.0 - (49.0 / 3600.0) * x
    rho = np.array(
        [
            [1.0 / 12.0, 0.0, 0.0, 0.0],
            [0.0, r11, r12, 0.0],
            [0.0, r12, r22, 0.0],
            [0.0, 0.0, 0.0, 1.0 / 12.0],
        ],
        dtype=complex,
    )
    dims = BipartiteDims(2, 2)
    return DensityMatrix(matrix=rho, dims=dims), DensityMatrix(matrix=sigma, dims=dims)


def bell_twirl(state: DensityMatrix) -> DensityMatrix:
    """Pinch a two-qubit state to the Bell-diagonal algebra: the average of
    U x conj(U) rho (U x conj(U))^dag over the Paulis U in {I, X, Z, XZ}."""
    if (state.dims.d_a, state.dims.d_b) != (2, 2):
        raise ValueError(f"bell twirl needs dims 2x2, got {state.dims}")
    weights = np.real(np.einsum("ik,ij,jk->k", BELL_BASIS.conj(), state.matrix, BELL_BASIS))
    m = (BELL_BASIS * weights) @ BELL_BASIS.conj().T
    return DensityMatrix(matrix=hermitianize(m), dims=state.dims)


def phase_mask(rho: DensityMatrix) -> np.ndarray:
    """Boolean mask of the entries kept by the diagonal-phase twirl of rho.

    Conjugating by U = diag(e^{i theta}) x diag(e^{i phi}) multiplies the
    entry at ((a, b), (a', b')) by the phase of its charge
    (e_a - e_a', e_b - e_b') against (theta, phi).  The phases that fix rho contain the
    torus orthogonal to the real span of the charges of rho's support
    (entries that are not exactly zero), and averaging over that torus
    keeps exactly the entries whose charge lies in the span.  The average
    is over local unitaries that fix rho, so it keeps every state PPT, of
    unit trace and no farther from rho in relative entropy
    (Vollbrecht & Werner, PRA 64, 062307, 2001).  Two indices share a
    charge class when their node vectors (e_a, e_b) agree off the span, so
    the mask is an equivalence relation: masking a matrix keeps the
    principal blocks of its classes, on either side of the partial
    transpose.
    """
    d_a, d_b = rho.dims.d_a, rho.dims.d_b
    # The charges are integers, but the products and the eigh run in the
    # dtype of rho.matrix, the arithmetic its solve runs in: the other kind
    # of eigh would page in about 0.5 MiB of library code that the solve
    # never runs.
    dtype = np.result_type(rho.matrix, float)
    nodes = np.hstack([np.repeat(np.eye(d_a), d_b, axis=0), np.tile(np.eye(d_b), (d_a, 1))]).astype(dtype)
    rows, cols = np.nonzero(rho.matrix)
    charges = nodes[rows] - nodes[cols]
    w, v = np.linalg.eigh(charges.T @ charges)
    free = nodes @ v[:, w <= 1e-9 * max(w[-1], 1.0)]
    gap = free[:, None, :] - free[None, :, :]
    return ((gap * gap.conj()).real <= 1e-18).all(axis=2)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product as a bipartite state over (A A') vs (B B'), in
    lexicographic product order on each side."""
    shape = (a.dims.d_a, a.dims.d_b, b.dims.d_a, b.dims.d_b)
    n = a.dims.total * b.dims.total
    big = np.kron(a.matrix, b.matrix).reshape(shape + shape)
    m = big.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(n, n)
    return DensityMatrix(matrix=m, dims=BipartiteDims(a.dims.d_a * b.dims.d_a, a.dims.d_b * b.dims.d_b))
