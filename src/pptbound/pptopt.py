"""PPT membership, Frobenius projection onto the PPT set, relative-entropy
minimization over that set, and optimality certificates.

The optimizer is spectral projected gradient (Birgin, Martinez & Raydan,
SIAM J. Optim. 10, 2000): each iteration projects one gradient step whose
length is the Barzilai-Borwein estimate of the inverse curvature, then
runs a nonmonotone Armijo search along the segment to the projected
point.  Every trial point on that segment is feasible by convexity, so an
iteration costs exactly one projection.  Feasibility is kept by Dykstra's
alternating projection over two sets: the spectraplex of unit-trace PSD
matrices and its image under the partial transpose.  Dykstra's scheme is
proximal gradient on the dual increment of the second set, so it is run
with FISTA momentum that restarts whenever a step turns back against the
last move (Chambolle & Pock 2015; O'Donoghue & Candes 2015).  Each set
projection is one ``eigh`` plus a simplex projection of the eigenvalues,
with no polishing step; the projected state is exact on the
partial-transpose side and carries a reported positivity residual on the
other.  The iterates are also kept invariant under the diagonal local
phases that fix rho.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import LN2, entropy_nats, relative_entropy_nats
from .linalg import (
    DEFAULT_FLOOR,
    DEFAULT_SUPPORT_TOL,
    BipartiteDims,
    SpectralPoint,
    _spectraplex_project,
    check_dims,
    dd_gradient,
    divided_difference_log,
    frobenius,
    hermitianize,
    partial_transpose,
    require_hermitian,
)
from .states import DensityMatrix, check_alpha, max_correlated, phase_mask

# Spectral step of the first iteration.
STEP_INIT = 1.0
# Armijo sufficient-decrease constant and backtracking factor of the search.
ARMIJO_C = 1e-4
BACKTRACK_RATIO = 0.5
STEP_FLOOR = 1e-14
# Clamp on the Barzilai-Borwein step length.
SPECTRAL_MIN = 1e-10
SPECTRAL_MAX = 1e10
# The nonmonotone Armijo search compares against the largest of the last
# this many accepted objective values.
NONMONOTONE_MEMORY = 10
# Eigenvalues of sigma at or under FACE_TOL form the face the search keeps
# clear of: _evaluate rejects trial points where rho leaks onto them, and
# _search_gradient freezes the ones rho does not touch.  It stays above
# DEFAULT_FLOOR: at DEFAULT_FLOOR, random 3x3 pure states take 142-774
# iterations with up to 196 capped projections (46-128 with at most 4 at
# 1e-8), and without the freeze random 2x2 pure states take up to 498
# iterations instead of 12-15.
FACE_TOL = 1e-8
# Least weight of I/n mixed into a final sigma that touches the cone
# boundary, so the reported bound is evaluated where sigma is positive
# definite.
FINAL_MIX = 1e-9
# Cycle budget of one projection, and the stopping tolerance on the gap
# between its two iterates and the move of the returned one.
DYKSTRA_ITERS = 5000
DYKSTRA_TOL = 1e-11


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 200_000
    grad_map_tol: float = 1e-7


@dataclass(eq=False)
class PptCheck:
    ok: bool
    min_eig: float


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


def _gamma_min_eig(m: np.ndarray, dims: BipartiteDims) -> float:
    """Least eigenvalue of the partial transpose of the Hermitian ``m``."""
    return float(np.linalg.eigvalsh(hermitianize(partial_transpose(m, dims)))[0])


def is_ppt(rho: DensityMatrix, tol: float = 1e-8) -> PptCheck:
    """Whether the partial transpose of rho, which must be Hermitian, is PSD."""
    low = _gamma_min_eig(require_hermitian(rho.matrix, what="rho"), rho.dims)
    return PptCheck(ok=low >= -tol, min_eig=low)


def project_ppt(mat: np.ndarray, dims: BipartiteDims) -> ProjectedState:
    """Frobenius-nearest PPT density matrix to a Hermitian matrix.

    Projects onto the intersection of two sets, the spectraplex S of
    unit-trace PSD matrices and its partial-transpose image Gamma(S), whose
    intersection is the PPT state set.  Each set is projected onto exactly
    with one ``eigh``: for S, the spectrum goes onto the probability
    simplex; the partial transpose is a trace-preserving Frobenius
    isometry, so the image is handled by conjugating with it.

    With input z, Dykstra's scheme over the two sets is proximal gradient
    on the dual increment q of the Gamma(S) side: a = P_S(z - q), v = q + a,
    b = P_Gamma(S)(v), q <- v - b.  Each cycle takes that step from the
    FISTA extrapolation q + ((t - 1) / t') (q - q_prev) instead of from q
    (Chambolle & Pock, SMAI J. Comput. Math. 1, 2015), and drops the
    momentum (t = 1) whenever the step points back along the last move of
    q, the gradient restart of O'Donoghue & Candes (Found. Comput. Math.
    15, 2015).  Cycles stop when both |a - b| and the move of b since the
    previous cycle (from z on the first) fall under DYKSTRA_TOL together,
    so an input that is already a PPT state stops after one cycle.  The
    returned state is b, so it is PPT and of unit trace to rounding; the
    reported residual is the positivity deficiency that remains on the
    untransposed side.  A result that used up the cycle budget
    (DYKSTRA_ITERS cycles) is returned flagged, not raised; a matrix with a
    non-finite entry raises ValueError.
    """
    z = hermitianize(np.asarray(check_dims(mat, dims), dtype=complex))
    if not np.isfinite(z).all():
        raise ValueError("matrix to project has a non-finite entry")
    q = q_prev = np.zeros_like(z)
    b = z
    t = 1.0
    converged = False
    cycles = 0
    for cycles in range(1, DYKSTRA_ITERS + 1):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = q + ((t - 1.0) / t_next) * (q - q_prev)
        a = _spectraplex_project(z - y)
        v = y + a
        b_prev = b
        b = partial_transpose(_spectraplex_project(partial_transpose(v, dims)), dims)
        q_prev, q, t = q, v - b, t_next
        if np.vdot(y - q, q - q_prev).real > 0.0:
            q_prev, t = q, 1.0
        if math.hypot(frobenius(a - b), frobenius(b - b_prev)) <= DYKSTRA_TOL:
            converged = True
            break
    b = hermitianize(b)
    residual = max(0.0, -float(np.linalg.eigvalsh(b)[0]))
    return ProjectedState(
        state=DensityMatrix(matrix=b, dims=dims),
        converged=converged,
        residual=residual,
        cycles=cycles,
    )


def _evaluate(
    rho_mat: np.ndarray, sigma_mat: np.ndarray, c0: float
) -> tuple[float, SpectralPoint | None]:
    """Objective c0 - Tr(rho ln sigma) in nats, plus the spectral point.

    Returns (inf, None) when rho leaks out of the support of sigma; the
    line search treats that as a rejected step rather than an error.
    """
    point = SpectralPoint(rho_mat, sigma_mat)
    # A rho-supported direction pinned near the cone boundary makes the
    # gradient scale like 1/s there, which defeats the Armijo search before
    # the step floor is reached.  Treating such points as infeasible keeps
    # the iterates away from the wall; the objective headroom this costs at
    # a legitimately near-singular optimum is bounded by DEFAULT_SUPPORT_TOL
    # * |ln FACE_TOL|, far below the reporting tolerances.
    if point.leaks(FACE_TOL) is not None:
        return math.inf, None
    return c0 - point.cross(), point


def _search_gradient(point: SpectralPoint) -> np.ndarray:
    """Gradient of the objective, restricted to the active face.

    Directions where sigma is numerically zero and rho carries no support
    are frozen: their divided-difference factors are huge but their true
    contribution is bounded by the support weight, so keeping them only
    injects noise that stalls the line search near singular optima.
    """
    frozen = (point.eigenvalues <= FACE_TOL) & (point.weights <= DEFAULT_SUPPORT_TOL)
    return point.gradient(frozen)


def _mix_with_identity(sigma: np.ndarray, low: float) -> np.ndarray:
    """Mix sigma, whose least eigenvalue is ``low``, with eps I/n where
    eps = FINAL_MIX + n max(0, -low): the result is positive definite even
    when a projection left a positivity residual, and, since the partial
    transpose fixes I, it stays PPT and of unit trace."""
    n = sigma.shape[0]
    eps = FINAL_MIX + n * max(0.0, -low)
    return (1.0 - eps) * sigma + (eps / n) * np.eye(n)


def minimize_rel_entropy(
    rho: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    invariance_map: Callable[[DensityMatrix], DensityMatrix] | None = None,
    initial: DensityMatrix | None = None,
) -> OptimizerResult:
    """Minimize S(rho || sigma) over PPT density matrices sigma.

    Spectral projected gradient from the maximally mixed state (or from
    ``initial``).  With G the gradient of Tr(rho ln sigma) and s the
    spectral step (STEP_INIT at first), each iteration projects
    once to get the direction d = P(sigma + s G) - sigma.  Its scaled norm
    ``grad_map`` = |d| / min(s, 1) bounds the unit-step gradient map
    |P(sigma + G) - sigma| from above, because |P(x + s G) - x| does not
    decrease in s while |P(x + s G) - x| / s does not increase; the run
    reports ``converged`` only when ``grad_map`` is at most
    ``cfg.grad_map_tol``.  Otherwise a nonmonotone Armijo search tries
    sigma + t d for t = 1, BACKTRACK_RATIO, ... down to STEP_FLOOR
    against the largest of the last NONMONOTONE_MEMORY accepted values,
    and the next s is the Barzilai-Borwein ratio <ds, ds> / <ds, -dG>,
    clamped to [SPECTRAL_MIN, SPECTRAL_MAX].  There is no objective-stall
    stop: a search that finds no acceptable step ends the run unconverged
    at the last accepted sigma, as does the iteration cap.

    Every projected point is passed through ``invariance_map`` when one is
    given (a twirl fixing rho), and then through the diagonal-phase twirl
    of rho (:func:`~pptbound.states.phase_mask`), which zeroes the entries
    that a torus of local phases fixing rho averages away.  Segments
    between invariant points stay invariant, so the search is restricted
    to the invariant family without changing the optimum; on a degenerate
    face this keeps the iterate off the directions rho does not couple to,
    where the support wall would otherwise stall the search.  Any feasible
    iterate gives a valid upper bound, so the returned value is certified
    from above even when the convergence flag is false.  A final sigma with an eigenvalue at or
    under DEFAULT_FLOOR is mixed with enough of I/n to outweigh any
    negative eigenvalue (at least FINAL_MIX), which keeps it PPT, and the
    bound is the relative entropy at the mixed sigma.  Projections that
    used up their cycle budget are counted in ``capped_projections``, and
    the largest positivity deficiency any projection left is
    ``max_projection_residual``.  An ``initial`` that is not a finite
    Hermitian matrix of rho's dimensions raises ValueError.
    """
    cfg = cfg or OptimizerConfig()
    dims = rho.dims
    if initial is not None:
        if initial.dims != dims:
            raise ValueError(f"dimension mismatch: rho {dims}, initial {initial.dims}")
        require_hermitian(check_dims(initial.matrix, dims, "initial"), what="initial")
    rho_mat = hermitianize(np.asarray(rho.matrix, dtype=complex))
    if is_ppt(rho, tol=1e-12).ok:
        return OptimizerResult(
            bound_bits=0.0, sigma_opt=rho, iterations=0, converged=True, final_grad_map_norm=0.0
        )
    n = dims.total
    mask = phase_mask(rho)
    capped = 0
    worst_residual = 0.0

    def project(mat: np.ndarray) -> np.ndarray:
        nonlocal capped, worst_residual
        proj = project_ppt(mat, dims)
        capped += not proj.converged
        worst_residual = max(worst_residual, proj.residual)
        state = proj.state if invariance_map is None else invariance_map(proj.state)
        return state.matrix * mask

    c0 = -entropy_nats(rho_mat)
    start = np.eye(n, dtype=complex) / n if initial is None else np.asarray(initial.matrix, dtype=complex)
    sigma = project(start)
    f_cur, point = _evaluate(rho_mat, sigma, c0)
    if point is None:
        raise ValueError("initial iterate violates the support condition")
    grad = _search_gradient(point)
    step = STEP_INIT
    history = deque([f_cur], maxlen=NONMONOTONE_MEMORY)
    converged = False
    grad_map = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        d = project(sigma + step * grad) - sigma
        grad_map = frobenius(d) / min(step, 1.0)
        if grad_map <= cfg.grad_map_tol:
            converged = True
            break
        slope = float(np.vdot(grad, d).real)
        reference = max(history)
        t = 1.0
        while t >= STEP_FLOOR:
            cand = sigma + t * d
            f_new, point = _evaluate(rho_mat, cand, c0)
            if f_new <= reference - ARMIJO_C * t * slope:
                break
            t *= BACKTRACK_RATIO
        else:
            break  # no acceptable step down to STEP_FLOOR: stop unconverged
        grad_new = _search_gradient(point)
        ds = t * d
        curvature = float(np.vdot(ds, grad - grad_new).real)
        step = SPECTRAL_MAX
        if curvature > 0.0:
            step = min(max(frobenius(ds) ** 2 / curvature, SPECTRAL_MIN), SPECTRAL_MAX)
        sigma, f_cur, grad = cand, f_new, grad_new
        history.append(f_cur)
    low = float(np.linalg.eigvalsh(sigma)[0])
    if low <= DEFAULT_FLOOR:
        sigma = _mix_with_identity(sigma, low)
        f_cur = relative_entropy_nats(rho_mat, sigma)
    return OptimizerResult(
        bound_bits=f_cur / LN2,
        sigma_opt=DensityMatrix(matrix=sigma, dims=dims),
        iterations=iterations,
        converged=converged,
        final_grad_map_norm=grad_map,
        capped_projections=capped,
        max_projection_residual=worst_residual,
    )


def _certificate(
    k_matrix: np.ndarray,
    sigma: np.ndarray,
    dims: BipartiteDims,
    tol: float,
    multiplier_ok: bool = True,
    **multiplier: float,
) -> KktReport:
    """Report for the candidate multiplier K at sigma: the complementarity
    residual |sigma^G K^G|, the least eigenvalue of K^G, and ``passed`` when
    both are within ``tol`` and ``multiplier_ok`` holds."""
    residual = frobenius(partial_transpose(sigma, dims) @ partial_transpose(k_matrix, dims))
    min_eig = _gamma_min_eig(k_matrix, dims)
    return KktReport(
        k_matrix=k_matrix,
        complementarity_residual=residual,
        k_gamma_min_eig=min_eig,
        passed=residual <= tol and min_eig >= -tol and multiplier_ok,
        **multiplier,
    )


def kkt_check(rho: DensityMatrix, sigma: DensityMatrix, tol: float = 1e-8) -> KktReport:
    """Optimality certificate for a positive definite PPT candidate sigma.

    Builds K = 1 - grad(Tr rho ln sigma) and passes iff the partial
    transposes satisfy sigma^G K^G = 0 and K^G >= 0 within tolerance.
    Singular sigma is rejected here; use :func:`kkt_check_maxcorr` for the
    structured diagonal-support family.  rho and sigma must be Hermitian.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: rho {rho.dims}, sigma {sigma.dims}")
    sig_mat = hermitianize(np.asarray(require_hermitian(sigma.matrix, what="sigma"), dtype=complex))
    point = SpectralPoint(require_hermitian(rho.matrix, what="rho"), sig_mat)
    if float(point.eigenvalues[0]) <= DEFAULT_FLOOR:
        raise ValueError(
            "sigma is singular: the plain certificate needs a positive definite sigma; "
            "for states supported on the diagonal pairs use kkt_check_maxcorr"
        )
    k_matrix = np.eye(sig_mat.shape[0], dtype=complex) - point.gradient()
    return _certificate(k_matrix, sig_mat, rho.dims, tol)


def kkt_check_maxcorr(alpha: np.ndarray, tol: float = 1e-8) -> KktReport:
    """Structured certificate for maximally correlated rho built from alpha.

    The candidate sigma keeps only the diagonal weights alpha_ii on |ii>.
    Being singular, it takes K = 1 - grad(Tr rho ln sigma) - L, with L =
    diag(lambda_ij) on the null directions |ij>, i != j, and the gradient
    frozen on sigma's kernel: there ln is only seen through the floor clamp,
    and keeping those couplings fails pure states with a Schmidt weight
    under DEFAULT_FLOOR.  The report carries the extra residuals and the
    scalar-route margin min_ij (1 - sqrt(a_ii a_jj) f(a_ii, a_jj)), whose
    nonnegativity is the pairwise sufficient condition.
    """
    a = check_alpha(alpha)
    rho = max_correlated(a)
    k = a.shape[0]
    d = np.clip(np.real(np.diag(a)), 0.0, None)
    f = divided_difference_log(d)
    live = d > DEFAULT_FLOOR
    live_pair = np.outer(live, live)
    off = ~np.eye(k, dtype=bool)

    lam = np.where(live_pair, 1.0 - np.minimum(1.0, np.abs(a) * f), 1.0)
    l_diag = np.where(off, lam, 0.0).ravel()
    sigma = np.diag(np.where(off, 0.0, d).ravel()).astype(complex)
    point = SpectralPoint(rho.matrix, sigma)
    grad = point.gradient(point.eigenvalues <= DEFAULT_FLOOR)
    k_matrix = np.eye(k * k, dtype=complex) - grad - np.diag(l_diag)

    l_min = float(l_diag.min())
    sigma_l = frobenius(sigma @ np.diag(l_diag))
    pair_margin = 1.0 - np.sqrt(np.outer(d, d)) * f
    scalar_margin = float(pair_margin[off & live_pair].min()) if (off & live_pair).any() else 1.0
    return _certificate(
        k_matrix,
        sigma,
        rho.dims,
        tol,
        multiplier_ok=l_min >= -tol and sigma_l <= tol and scalar_margin >= -tol,
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
    min_eig = _gamma_min_eig(dd_gradient(rho.matrix, sigma.matrix), rho.dims)
    return AdditivityReport(
        commutes=commutes,
        commutator_norm=comm_norm,
        grad_pt_min_eig=min_eig,
        additive_universal=commutes and min_eig >= -tol,
        additive_self=commutes and min_eig >= -1.0 - tol,
    )
