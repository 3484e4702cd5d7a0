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
other.  The partial-transpose side is projected first: when that point is
already PSD it is the answer, exactly, and the loop is skipped; otherwise
the loop starts from it.  The iterates are also kept invariant under the
diagonal local phases that fix rho, and, when rho is real, under complex
conjugation: a real rho is solved in real arithmetic throughout.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import LN2, admit_pair, psd_entropy
from .linalg import (
    DEFAULT_FLOOR,
    BipartiteDims,
    SpectralPoint,
    _spectraplex_project,
    check_dims,
    frobenius,
    hermitianize,
    kernel_gradient,
    partial_transpose,
    require_hermitian,
)
from .states import DensityMatrix, admit_matrix, phase_mask

# First spectral step 1/n: the gradient at I/n is n rho, so the move is rho.
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
# clear of: each search point is a SpectralPoint at this wall, whose value
# is inf where rho leaks onto the face and whose gradient freezes it.  A
# rho-supported direction near the cone boundary makes the gradient scale
# like 1/s there, which defeats the Armijo search before the step floor is
# reached.  Keeping the iterates off the wall costs at most
# DEFAULT_SUPPORT_TOL * |ln FACE_TOL| of headroom at a legitimately
# near-singular optimum, far below the reporting tolerances.  On the frozen
# directions rho carries at most DEFAULT_SUPPORT_TOL, so their huge divided
# differences would only add noise that stalls the search near singular
# optima.  It trades bound tightness for speed.  On six random 3x3 pure
# states (rho = g g^dag, g a complex Gaussian of default_rng(9010 + s),
# s = 0-5; process CPU time on one Xeon core), at 1e-8 the solves take
# 41-107 iterations, 0-18 capped projections and 0.05-11 s, and end 9.4e-5
# to 1.3e-2 bits above the Schmidt entropy.
FACE_TOL = 1e-8
# Least weight of I/n mixed into a final sigma that touches the cone
# boundary, so the reported bound is evaluated where sigma is positive
# definite.
FINAL_MIX = 1e-9
# Cycle budget of one projection, and the stopping tolerance on the gap
# between its two iterates and the move of the returned one.
DYKSTRA_ITERS = 5000
DYKSTRA_TOL = 1e-11
# Tolerance of the certificates: is_ppt and kkt_check.
CERT_TOL = 1e-8


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
    """First-order optimality and self-additivity certificates for sigma
    against rho, both read off the multiplier K and its partial transpose.

    ``passed`` asserts that sigma is PPT, complementarity, and positive
    semidefiniteness of the transposed multiplier, all within tolerance.
    This certifies optimality; its failure on a particular sigma does not
    by itself bound the optimum away from sigma's value.

    ``grad_pt_min_eig`` is the least eigenvalue of the partial transpose
    of the gradient, 1 - K^Gamma.  When rho and sigma commute
    (``commutes``), its being >= 0 certifies that sigma tensor tau stays
    optimal for rho tensor any state (``additive_universal``), and >= -1
    that sigma tensor sigma stays optimal for rho tensor rho
    (``additive_self``).  A non-commuting pair is certified neither way.
    """

    k_matrix: np.ndarray
    complementarity_residual: float
    k_gamma_min_eig: float
    sigma_gamma_min_eig: float
    passed: bool
    commutator_norm: float
    grad_pt_min_eig: float
    commutes: bool
    additive_universal: bool
    additive_self: bool


def is_ppt(rho: DensityMatrix) -> PptCheck:
    """Whether rho^Gamma, for a Hermitian rho, is PSD within CERT_TOL, and
    its least eigenvalue.  Only rho^Gamma is tested: SWAP/2 has eigenvalue
    -1/2, but its partial transpose is the maximally entangled projector."""
    low = float(np.linalg.eigvalsh(partial_transpose(require_hermitian(rho.matrix, what="rho"), rho.dims))[0])
    return PptCheck(ok=low >= -CERT_TOL, min_eig=low)


def project_ppt(mat: np.ndarray, dims: BipartiteDims) -> ProjectedState:
    """Frobenius-nearest PPT density matrix to a Hermitian matrix.

    Projects onto the intersection of two sets, the spectraplex S of
    unit-trace PSD matrices and its partial-transpose image Gamma(S), whose
    intersection is the PPT state set.  Each set is projected onto exactly
    with one ``eigh``: for S, the spectrum goes onto the probability
    simplex; the partial transpose is a trace-preserving Frobenius
    isometry, so the image is handled by conjugating with it.

    With input z, the first cycle is the Gamma(S) side alone,
    b = P_Gamma(S)(z).  If b is PSD (least eigenvalue >= 0, with no
    tolerance), it is returned after that one ``eigh``, converged with
    residual 0: z - b lies in the normal cone of Gamma(S) at b, and a PSD b
    lies in the intersection, whose normal cone at b contains that of
    Gamma(S), so b is the projection onto the intersection.  Otherwise
    Dykstra's scheme runs, warm-started from the dual increment q = z - b
    of that cycle, with b as the previous Gamma(S) iterate.  The scheme is
    proximal gradient on q: a = P_S(z - q), v = q + a, b = P_Gamma(S)(v),
    q <- v - b, so it converges from any starting q.  Each cycle takes that
    step from the FISTA extrapolation q + ((t - 1) / t') (q - q_prev)
    instead of from q (Chambolle & Pock, SMAI J. Comput. Math. 1, 2015),
    and drops the momentum (t = 1) whenever the step points back along the
    last move of q, the gradient restart of O'Donoghue & Candes (Found.
    Comput. Math. 15, 2015).  Cycles stop when both |a - b| and the move
    of b since the previous cycle fall under DYKSTRA_TOL together.  The
    returned state is b, so it is PPT and of unit trace to rounding; the
    reported residual is the positivity deficiency that remains on the
    untransposed side.  A result that used up the cycle budget
    (DYKSTRA_ITERS cycles, the first included) is returned flagged, not
    raised; a matrix with a non-finite entry raises ValueError.  The
    arithmetic follows the input (``np.result_type(mat, float)``): a real
    matrix is projected in float64 and returned real, any other in
    complex128.
    """
    m = check_dims(mat, dims)
    z = hermitianize(np.asarray(m, dtype=np.result_type(m, float)))
    if not np.isfinite(z).all():
        raise ValueError("matrix to project has a non-finite entry")

    def gamma_side(v: np.ndarray) -> np.ndarray:
        return partial_transpose(_spectraplex_project(partial_transpose(v, dims)), dims)

    b = hermitianize(gamma_side(z))
    low = float(np.linalg.eigvalsh(b)[0])
    converged = low >= 0.0
    cycles = 1
    if not converged:
        q = q_prev = z - b
        t = 1.0
        for cycles in range(2, DYKSTRA_ITERS + 1):
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = q + ((t - 1.0) / t_next) * (q - q_prev)
            a = _spectraplex_project(z - y)
            v = y + a
            b_prev, b = b, gamma_side(v)
            q_prev, q, t = q, v - b, t_next
            if np.vdot(y - q, q - q_prev).real > 0.0:
                q_prev, t = q, 1.0
            if math.hypot(frobenius(a - b), frobenius(b - b_prev)) <= DYKSTRA_TOL:
                converged = True
                break
        b = hermitianize(b)
        low = float(np.linalg.eigvalsh(b)[0])
    return ProjectedState(
        state=DensityMatrix(matrix=b, dims=dims),
        converged=converged,
        residual=max(0.0, -low),
        cycles=cycles,
    )


def _mix_with_identity(sigma: np.ndarray, low: float) -> np.ndarray:
    """Mix sigma, whose least eigenvalue is ``low``, with eps I/n where
    eps = max(FINAL_MIX, 2 n DEFAULT_FLOOR) + n max(0, -low): the result's
    least eigenvalue is at least 2 DEFAULT_FLOOR, clear of the kernel wall
    at every n, even when a projection left a positivity residual, and,
    since the partial transpose fixes I, it stays PPT and of unit trace."""
    n = sigma.shape[0]
    eps = max(FINAL_MIX, 2 * n * DEFAULT_FLOOR) + n * max(0.0, -low)
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
    spectral step, 1/n at first (n = dim sigma; G = n rho at I/n, so the
    first trial point is I/n + rho, not a matrix of trace n + 1), each
    iteration projects once to get the direction d = P(sigma + s G) - sigma.
    Its scaled norm ``grad_map`` = |d| / min(s, 1) bounds the unit-step
    gradient map |P(sigma + G) - sigma| from above, because
    |P(x + s G) - x| does not decrease in s while |P(x + s G) - x| / s does
    not increase; the run reports ``converged`` only when ``grad_map`` is at
    most ``cfg.grad_map_tol``.  Otherwise a nonmonotone Armijo search tries
    sigma + t d for t = 1, BACKTRACK_RATIO, ... down to STEP_FLOOR
    against the largest of the last NONMONOTONE_MEMORY accepted values,
    and the next s is the Barzilai-Borwein ratio <ds, ds> / <ds, -dG>,
    clamped to [SPECTRAL_MIN, SPECTRAL_MAX].  There is no objective-stall
    stop: a search that finds no acceptable step ends the run unconverged
    at the last accepted sigma, as does the iteration cap.

    Every projected point is passed through ``invariance_map`` when one is
    given (a twirl fixing rho), and then through the diagonal-phase twirl of
    rho (:func:`~pptbound.states.phase_mask`), which zeroes the entries that
    a torus of local phases fixing rho averages away.  Segments between
    invariant points stay invariant, so the search is restricted to the
    invariant family without changing the optimum; on a degenerate face this
    keeps the iterate off the directions rho does not couple to, where the
    support wall would otherwise stall the search.  When rho.matrix has no
    nonzero imaginary part, complex conjugation fixes rho, the PPT set and
    S(rho || .), so the real part of each projected point is taken as well,
    after ``invariance_map`` and next to the phase twirl, and the whole run
    is in float64; ``sigma_opt.matrix`` is complex128 either way.  Any
    feasible iterate gives a valid upper bound, so the returned value is
    certified from above even when the convergence flag is false.  A final
    sigma with an eigenvalue at or under DEFAULT_FLOOR is mixed with enough
    of I/n to outweigh any negative eigenvalue (at least FINAL_MIX and at
    least 2 n DEFAULT_FLOOR), which keeps it PPT, and the bound is the
    relative entropy at the mixed sigma, at the kernel wall DEFAULT_FLOOR
    instead of FACE_TOL.  Projections that used up their cycle budget are
    counted in ``capped_projections``, and the largest positivity deficiency
    any projection left is ``max_projection_residual``.  rho and its S(rho)
    (:func:`~pptbound.entropy.psd_entropy`) are admitted before the exit for
    a PPT rho, ``initial`` after it, both by :func:`admit_matrix`.
    """
    cfg = cfg or OptimizerConfig()
    dims = rho.dims
    real = not np.imag(rho.matrix).any()
    rho_mat = admit_matrix(rho, "rho", real)
    c0 = -psd_entropy(rho_mat)
    if np.linalg.eigvalsh(partial_transpose(rho_mat, dims))[0] >= -1e-12:
        return OptimizerResult(
            bound_bits=0.0,
            sigma_opt=DensityMatrix(matrix=np.array(rho.matrix, dtype=complex), dims=dims),
            iterations=0,
            converged=True,
            final_grad_map_norm=0.0,
        )
    n = dims.total
    mask = phase_mask(DensityMatrix(matrix=rho_mat, dims=dims))
    capped = 0
    worst_residual = 0.0

    def project(mat: np.ndarray) -> np.ndarray:
        nonlocal capped, worst_residual
        proj = project_ppt(mat, dims)
        capped += not proj.converged
        worst_residual = max(worst_residual, proj.residual)
        state = proj.state if invariance_map is None else invariance_map(proj.state)
        return (state.matrix.real if real else state.matrix) * mask

    start = np.eye(n, dtype=rho_mat.dtype) / n
    if initial is not None:
        if initial.dims != dims:
            raise ValueError(f"dimension mismatch: rho {dims}, initial {initial.dims}")
        start = admit_matrix(initial, "initial", real)
    sigma = project(start)
    point = SpectralPoint(rho_mat, sigma, FACE_TOL)
    f_cur = point.divergence(c0)
    if math.isinf(f_cur):
        raise ValueError("initial iterate violates the support condition")
    grad = point.gradient()
    step = 1.0 / n
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
            trial = SpectralPoint(rho_mat, cand, FACE_TOL)
            f_new = trial.divergence(c0)
            if f_new <= reference - ARMIJO_C * t * slope:
                break
            t *= BACKTRACK_RATIO
        else:
            break  # no acceptable step down to STEP_FLOOR: stop unconverged
        grad_new = trial.gradient()
        ds = t * d
        curvature = float(np.vdot(ds, grad - grad_new).real)
        step = SPECTRAL_MAX
        if curvature > 0.0:
            step = min(max(frobenius(ds) ** 2 / curvature, SPECTRAL_MIN), SPECTRAL_MAX)
        sigma, f_cur, grad, point = cand, f_new, grad_new, trial
        history.append(f_cur)
    low = float(point.eigenvalues[0])
    if low <= DEFAULT_FLOOR:
        sigma = _mix_with_identity(sigma, low)
        f_cur = SpectralPoint(rho_mat, sigma).divergence(c0)
    return OptimizerResult(
        bound_bits=f_cur / LN2,
        sigma_opt=DensityMatrix(matrix=sigma.astype(complex), dims=dims),
        iterations=iterations,
        converged=converged,
        final_grad_map_norm=grad_map,
        capped_projections=capped,
        max_projection_residual=worst_residual,
    )


def kkt_check(rho: DensityMatrix, sigma: DensityMatrix, tol: float = CERT_TOL) -> KktReport:
    """Optimality and self-additivity certificates for a PPT candidate
    sigma of any rank.

    Builds K = 1 - G, with G the gradient of Tr(rho ln sigma) at sigma with
    sigma's kernel frozen, and passes iff sigma is PPT (sigma^G >= 0) and
    the partial transposes satisfy sigma^G K^G = 0 and K^G >= 0, all within
    tolerance.  The multiplier of sigma >= 0 is zero, which meets its
    conditions at any rank; when rho has no weight on sigma's kernel the
    frozen gradient is the gradient.  The one spectrum of K^G gives both
    k_gamma_min_eig = lambda_min(K^G) and
    grad_pt_min_eig = 1 - lambda_max(K^G); the commutator and additivity
    flags of :class:`KktReport` are judged at the same ``tol``.  The pair
    is admitted by :func:`~pptbound.entropy.admit_pair` (unit traces
    matter: K is invariant under scaling both), and G is the
    :func:`~pptbound.linalg.kernel_gradient` of its point.  A real pair
    gives a real ``k_matrix``.
    """
    rho_mat, sig_mat, _, point = admit_pair(rho, sigma)
    k_matrix = np.eye(sig_mat.shape[0], dtype=sig_mat.dtype) - kernel_gradient(point)
    sig_gamma = partial_transpose(sig_mat, rho.dims)
    k_gamma = partial_transpose(k_matrix, rho.dims)
    residual = frobenius(sig_gamma @ k_gamma)
    k_eigs = np.linalg.eigvalsh(k_gamma)
    min_eig, grad_min_eig = float(k_eigs[0]), 1.0 - float(k_eigs[-1])
    sigma_min_eig = float(np.linalg.eigvalsh(sig_gamma)[0])
    comm_norm = frobenius(rho_mat @ sig_mat - sig_mat @ rho_mat)
    commutes = comm_norm <= tol
    return KktReport(
        k_matrix=k_matrix,
        complementarity_residual=residual,
        k_gamma_min_eig=min_eig,
        sigma_gamma_min_eig=sigma_min_eig,
        passed=residual <= tol and min(min_eig, sigma_min_eig) >= -tol,
        commutator_norm=comm_norm,
        grad_pt_min_eig=grad_min_eig,
        commutes=commutes,
        additive_universal=commutes and grad_min_eig >= -tol,
        additive_self=commutes and grad_min_eig >= -1.0 - tol,
    )
