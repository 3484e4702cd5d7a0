"""PPT membership, Frobenius projection onto the PPT set, relative-entropy
minimization over that set, and optimality certificates.

The optimizer is projected gradient descent with an Armijo backtracking
line search.  Feasibility is kept by Dykstra's alternating projection over
two sets: the spectraplex of unit-trace PSD matrices and its image under
the partial transpose.  Each projection is one ``eigh`` plus a simplex
projection of the eigenvalues, with no polishing step; the projected state
is exact on the partial-transpose side and carries a reported positivity
residual on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import LN2, entropy_nats, relative_entropy_nats
from .linalg import (
    DEFAULT_FLOOR,
    DEFAULT_SUPPORT_TOL,
    BipartiteDims,
    check_square,
    dd_gradient,
    divided_difference_log,
    eig_hermitian,
    frobenius,
    hermitianize,
    partial_transpose,
    require_hermitian,
)
from .states import DensityMatrix, tensor

OBJ_STALL_WINDOW = 10
STEP_FLOOR = 1e-14
FACE_TOL = 1e-8
# Weight of I/n mixed into a final sigma that touches the cone boundary, so
# the reported bound is evaluated where sigma is positive definite.
FINAL_MIX = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200_000
    step_init: float = 1.0
    armijo_c: float = 1e-4
    backtrack_ratio: float = 0.5
    grad_map_tol: float = 1e-7
    obj_tol: float = 1e-10
    dykstra_iters: int = 5000
    dykstra_tol: float = 1e-11
    eig_floor: float = DEFAULT_FLOOR


@dataclass(eq=False)
class PptCheck:
    ok: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(eq=False)
class ProjectedState:
    state: DensityMatrix
    converged: bool
    residual: float
    cycles: int


@dataclass(eq=False)
class OptimizerResult:
    bound_bits: float
    sigma_opt: DensityMatrix
    iterations: int
    converged: bool
    final_grad_map_norm: float
    capped_projections: int = 0
    max_projection_residual: float = 0.0


@dataclass(eq=False)
class KktReport:
    """First-order optimality certificate for sigma against rho.

    ``passed`` asserts complementarity and positive semidefiniteness of the
    transposed multiplier within tolerance.  This certifies optimality; its
    failure on a particular sigma does not by itself bound the optimum away
    from sigma's value.
    """

    k_matrix: np.ndarray
    complementarity_residual: float
    k_gamma_min_eig: float
    passed: bool
    l_min_eig: float | None = None
    sigma_l_residual: float | None = None
    scalar_margin: float | None = None


@dataclass(eq=False)
class AdditivityReport:
    commutes: bool
    commutator_norm: float
    grad_pt_min_eig: float
    additive_universal: bool
    additive_self: bool


def is_ppt(rho: DensityMatrix, tol: float = 1e-8) -> PptCheck:
    """Whether the partial transpose of rho is positive semidefinite."""
    pt = partial_transpose(hermitianize(rho.matrix), rho.dims)
    low = float(np.linalg.eigvalsh(pt)[0])
    return PptCheck(ok=low >= -tol, min_eig=low)


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


def project_ppt(
    mat: np.ndarray, dims: BipartiteDims, cfg: OptimizerConfig | None = None
) -> ProjectedState:
    """Frobenius-nearest PPT density matrix to a Hermitian matrix.

    Runs Dykstra's scheme over two sets, the spectraplex S of unit-trace
    PSD matrices and its partial-transpose image, whose intersection is the
    PPT state set.  Each set is projected onto exactly with one ``eigh``:
    for S, the spectrum goes onto the probability simplex; the partial
    transpose is a trace-preserving Frobenius isometry, so the image is
    handled by conjugating with it.  Cycles stop when the drift of both
    increments falls under ``cfg.dykstra_tol``.  The returned state is the
    iterate on the partial-transpose side, so it is PPT and of unit trace
    to rounding; the reported residual is the positivity deficiency that
    remains on the untransposed side.  A result that used up the cycle
    budget is returned flagged, not raised.
    """
    cfg = cfg or OptimizerConfig()
    x = hermitianize(np.asarray(check_square(mat), dtype=complex))
    if x.shape[0] != dims.total:
        raise ValueError(f"matrix of size {x.shape[0]} does not match dims {dims.d_a}x{dims.d_b}")
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    converged = False
    cycles = 0
    for cycles in range(1, cfg.dykstra_iters + 1):
        y = _spectraplex_project(x + p)
        step_p = x - y
        p += step_p
        x = partial_transpose(_spectraplex_project(partial_transpose(y + q, dims)), dims)
        step_q = y - x
        q += step_q
        if math.hypot(frobenius(step_p), frobenius(step_q)) <= cfg.dykstra_tol:
            converged = True
            break
    x = hermitianize(x)
    residual = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
    return ProjectedState(
        state=DensityMatrix(matrix=x, dims=dims),
        converged=converged,
        residual=residual,
        cycles=cycles,
    )


def _evaluate(
    rho_mat: np.ndarray, sigma_mat: np.ndarray, c0: float, floor: float, support_tol: float
) -> tuple[float, tuple | None]:
    """Objective c0 - Tr(rho ln sigma) in nats, plus reusable spectral data.

    Returns (inf, None) when rho leaks out of the support of sigma; the
    line search treats that as a rejected step rather than an error.
    """
    w, v = np.linalg.eigh(hermitianize(sigma_mat))
    rho_t = v.conj().T @ rho_mat @ v
    diag = np.real(np.diag(rho_t))
    # A rho-supported direction pinned near the cone boundary makes the
    # gradient scale like 1/s there, which defeats the Armijo search before
    # the step floor is reached.  Treating such points as infeasible keeps
    # the iterates away from the wall; the objective headroom this costs at
    # a legitimately near-singular optimum is bounded by support_tol * |ln
    # FACE_TOL|, far below the reporting tolerances.
    starved = (w <= FACE_TOL) & (diag > support_tol)
    if starved.any():
        return math.inf, None
    kernel = w <= floor
    live = ~kernel
    cross = float(diag[live] @ np.log(w[live])) if live.any() else 0.0
    return c0 - cross, (w, v, rho_t, diag)


def _gradient_from_cache(cache: tuple, floor: float, support_tol: float) -> np.ndarray:
    """Gradient of the objective, restricted to the active face.

    Directions where sigma is numerically zero and rho carries no support
    are frozen: their divided-difference factors are huge but their true
    contribution is bounded by the support weight, so keeping them only
    injects noise that stalls the line search near singular optima.
    """
    w, v, rho_t, diag = cache
    f = divided_difference_log(w, floor)
    frozen = (w <= FACE_TOL) & (diag <= support_tol)
    if frozen.any():
        f[frozen, :] = 0.0
        f[:, frozen] = 0.0
    return hermitianize(v @ (rho_t * f) @ v.conj().T)


def minimize_rel_entropy(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    invariance_map: Callable[[DensityMatrix], DensityMatrix] | None = None,
    initial: DensityMatrix | None = None,
) -> OptimizerResult:
    """Minimize S(rho || sigma) over PPT density matrices sigma.

    Projected gradient descent from the maximally mixed state (or from
    ``initial``).  When ``invariance_map`` is given (a twirl fixing rho),
    every iterate is passed through it, which restricts the search to the
    invariant family without changing the optimum.  Any feasible iterate
    gives a valid upper bound, so the returned value is certified from
    above even when the convergence flag is false.  A final sigma with an
    eigenvalue at or under ``cfg.eig_floor`` is mixed with FINAL_MIX of
    I/n, which keeps it PPT, and the bound is the relative entropy at the
    mixed sigma.  Projections that used up their cycle budget are counted
    in ``capped_projections``, and the largest positivity deficiency any
    projection left is ``max_projection_residual``.
    """
    cfg = cfg or OptimizerConfig()
    dims = rho.dims
    rho_mat = hermitianize(np.asarray(rho.matrix, dtype=complex))
    if is_ppt(rho, tol=1e-12).ok:
        return OptimizerResult(
            bound_bits=0.0, sigma_opt=rho, iterations=0, converged=True, final_grad_map_norm=0.0
        )
    n = dims.total
    capped = 0
    worst_residual = 0.0

    def project(mat: np.ndarray) -> np.ndarray:
        nonlocal capped, worst_residual
        proj = project_ppt(mat, dims, cfg)
        capped += not proj.converged
        worst_residual = max(worst_residual, proj.residual)
        if invariance_map is None:
            return proj.state.matrix
        return invariance_map(proj.state).matrix

    c0 = -entropy_nats(rho_mat, cfg.eig_floor)
    start = np.eye(n, dtype=complex) / n if initial is None else np.asarray(initial.matrix, dtype=complex)
    sigma = project(start)
    f_cur, cache = _evaluate(rho_mat, sigma, c0, cfg.eig_floor, DEFAULT_SUPPORT_TOL)
    if cache is None:
        raise ValueError("initial iterate violates the support condition")
    grad = _gradient_from_cache(cache, cfg.eig_floor, DEFAULT_SUPPORT_TOL)
    step = cfg.step_init
    history = [f_cur]
    converged = False
    grad_map = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        accepted = False
        cand = sigma
        f_new, cache_new = f_cur, cache
        while step >= STEP_FLOOR:
            cand = project(sigma + step * grad)
            f_new, cache_new = _evaluate(rho_mat, cand, c0, cfg.eig_floor, DEFAULT_SUPPORT_TOL)
            if math.isfinite(f_new):
                predicted = -float(np.real(np.trace(grad @ (cand - sigma))))
                if f_new <= f_cur + cfg.armijo_c * predicted:
                    accepted = True
                    break
            step *= cfg.backtrack_ratio
        if not accepted:
            converged = True
            grad_map = 0.0 if math.isinf(grad_map) else grad_map
            break
        grad_map = frobenius(cand - sigma) / step
        sigma, f_cur, cache = cand, f_new, cache_new
        grad = _gradient_from_cache(cache, cfg.eig_floor, DEFAULT_SUPPORT_TOL)
        history.append(f_cur)
        if grad_map <= cfg.grad_map_tol:
            converged = True
            break
        if len(history) > OBJ_STALL_WINDOW:
            drop = history[-1 - OBJ_STALL_WINDOW] - f_cur
            if drop <= cfg.obj_tol * max(1.0, abs(f_cur)):
                converged = True
                break
        step = min(step * 2.0, cfg.step_init)
    if float(np.linalg.eigvalsh(sigma)[0]) <= cfg.eig_floor:
        sigma = (1.0 - FINAL_MIX) * sigma + (FINAL_MIX / n) * np.eye(n)
        f_cur = relative_entropy_nats(rho_mat, sigma, cfg.eig_floor)
    return OptimizerResult(
        bound_bits=f_cur / LN2,
        sigma_opt=DensityMatrix(matrix=sigma, dims=dims),
        iterations=iterations,
        converged=converged,
        final_grad_map_norm=grad_map,
        capped_projections=capped,
        max_projection_residual=worst_residual,
    )


def kkt_check(
    rho: DensityMatrix,
    sigma: DensityMatrix,
    tol: float = 1e-8,
    floor: float = DEFAULT_FLOOR,
) -> KktReport:
    """Optimality certificate for a positive definite PPT candidate sigma.

    Builds K = 1 - grad(Tr rho ln sigma) and passes iff the partial
    transposes satisfy sigma^G K^G = 0 and K^G >= 0 within tolerance.
    Singular sigma is rejected here; use :func:`kkt_check_maxcorr` for the
    structured diagonal-support family.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    sig_mat = hermitianize(np.asarray(sigma.matrix, dtype=complex))
    if float(np.linalg.eigvalsh(sig_mat)[0]) <= floor:
        raise ValueError(
            "sigma is singular: the plain certificate needs a positive definite sigma; "
            "for states supported on the diagonal pairs use kkt_check_maxcorr"
        )
    grad = dd_gradient(rho.matrix, sig_mat, floor)
    k_matrix = np.eye(sig_mat.shape[0], dtype=complex) - grad
    k_gamma = partial_transpose(k_matrix, rho.dims)
    sig_gamma = partial_transpose(sig_mat, rho.dims)
    residual = frobenius(sig_gamma @ k_gamma)
    min_eig = float(np.linalg.eigvalsh(hermitianize(k_gamma))[0])
    return KktReport(
        k_matrix=k_matrix,
        complementarity_residual=residual,
        k_gamma_min_eig=min_eig,
        passed=(residual <= tol and min_eig >= -tol),
    )


def kkt_check_maxcorr(alpha: np.ndarray, tol: float = 1e-8, floor: float = DEFAULT_FLOOR) -> KktReport:
    """Structured certificate for maximally correlated rho built from alpha.

    The candidate sigma keeps only the diagonal weights alpha_ii on |ii>.
    Because sigma is singular, the multiplier splits as K + L with L
    supported on the null space; the report carries the extra residuals and
    the scalar-route margin min_ij (1 - sqrt(a_ii a_jj) f(a_ii, a_jj)),
    whose nonnegativity is the pairwise sufficient condition.
    """
    a = require_hermitian(np.asarray(alpha, dtype=complex), 1e-9, "alpha")
    if abs(complex(np.trace(a)) - 1.0) > 1e-9:
        raise ValueError(f"alpha must have unit trace, got {np.trace(a):.12g}")
    if float(np.linalg.eigvalsh(hermitianize(a))[0]) < -1e-9:
        raise ValueError("alpha must be positive semidefinite")
    k = a.shape[0]
    d = np.clip(np.real(np.diag(a)), 0.0, None)
    n = k * k
    f = divided_difference_log(d, floor)
    live = d > floor
    live_pair = np.outer(live, live)
    off = ~np.eye(k, dtype=bool)

    lam = np.zeros((k, k))
    strength = np.abs(a) * f
    lam[off] = 1.0 - np.minimum(1.0, strength[off])
    lam[~live_pair] = 1.0

    k_matrix = np.zeros((n, n), dtype=complex)
    diag_idx = np.arange(k) * (k + 1)
    block = np.where(live_pair, -(a * f), 0.0)
    np.fill_diagonal(block, np.where(live, 0.0, 1.0))
    k_matrix[np.ix_(diag_idx, diag_idx)] = block
    l_diag = np.zeros(n)
    for i in range(k):
        for j in range(k):
            if i != j:
                k_matrix[i * k + j, i * k + j] = 1.0 - lam[i, j]
                l_diag[i * k + j] = lam[i, j]

    dims = BipartiteDims(k, k)
    sigma = np.zeros((n, n), dtype=complex)
    sigma[diag_idx, diag_idx] = d
    k_gamma = partial_transpose(k_matrix, dims)
    residual = frobenius(partial_transpose(sigma, dims) @ k_gamma)
    min_eig = float(np.linalg.eigvalsh(hermitianize(k_gamma))[0])
    l_min = float(l_diag.min())
    sigma_l = frobenius(sigma @ np.diag(l_diag))
    pair_margin = 1.0 - np.sqrt(np.outer(d, d)) * f
    scalar_margin = float(pair_margin[off & live_pair].min()) if (off & live_pair).any() else 1.0
    passed = (
        residual <= tol
        and min_eig >= -tol
        and l_min >= -tol
        and sigma_l <= tol
        and scalar_margin >= -tol
    )
    return KktReport(
        k_matrix=k_matrix,
        complementarity_residual=residual,
        k_gamma_min_eig=min_eig,
        passed=passed,
        l_min_eig=l_min,
        sigma_l_residual=sigma_l,
        scalar_margin=scalar_margin,
    )


def additivity_check(
    rho: DensityMatrix, sigma: DensityMatrix, tol: float = 1e-8
) -> AdditivityReport:
    """Commutation-based additivity test for an optimal pair (rho, sigma).

    For commuting pairs, the partial transpose of the gradient matrix being
    positive semidefinite certifies that sigma tensor tau stays optimal for
    rho tensor any state (universal); eigenvalues no lower than -1 certify
    optimality of sigma tensor sigma for the two-copy state (self).
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    comm = rho.matrix @ sigma.matrix - sigma.matrix @ rho.matrix
    comm_norm = frobenius(comm)
    commutes = comm_norm <= tol
    grad = dd_gradient(rho.matrix, sigma.matrix)
    min_eig = float(np.linalg.eigvalsh(hermitianize(partial_transpose(grad, rho.dims)))[0])
    return AdditivityReport(
        commutes=commutes,
        commutator_norm=comm_norm,
        grad_pt_min_eig=min_eig,
        additive_universal=commutes and min_eig >= -tol,
        additive_self=commutes and min_eig >= -1.0 - tol,
    )


def tensor_square_pair(
    rho: DensityMatrix, sigma: DensityMatrix
) -> tuple[DensityMatrix, DensityMatrix]:
    """Convenience: (rho tensor rho, sigma tensor sigma) with joint dims."""
    return tensor(rho, rho), tensor(sigma, sigma)
