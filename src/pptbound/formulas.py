"""Closed-form bound values for the solvable families, plus the
non-additivity experiment that plays the optimizer against them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy, shannon_entropy
from .pptopt import (
    KktReport,
    OptimizerConfig,
    OptimizerResult,
    kkt_check,
    minimize_rel_entropy,
)
from .states import (
    DensityMatrix,
    bell_diagonal,
    check_alpha,
    check_probabilities,
    counterexample_pair,
    isotropic,
    max_correlated,
    tensor,
)


@dataclass(eq=False)
class ClosedFormResult:
    bound_bits: float
    sigma_opt: DensityMatrix


def _xlog2x(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log2(x)


def isotropic_bound(k: int, f: float) -> ClosedFormResult:
    """Exact bound for the isotropic state of fidelity f on a k x k system.

    Below fidelity 1/k the state is PPT and the bound is zero; above it the
    bound is log2(k) + f log2 f + (1-f) log2((1-f)/(k-1)), attained by the
    isotropic state of fidelity 1/k whatever f is.
    """
    if k < 2:
        raise ValueError(f"need local dimension >= 2, got {k}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    if f <= 1.0 / k:
        return ClosedFormResult(bound_bits=0.0, sigma_opt=isotropic(k, f))
    value = math.log2(k) + _xlog2x(f) + _xlog2x(1.0 - f) - (1.0 - f) * math.log2(k - 1)
    return ClosedFormResult(bound_bits=value, sigma_opt=isotropic(k, 1.0 / k))


def bell_z2_bound(p: np.ndarray) -> ClosedFormResult:
    """Exact bound for a Z_2 Bell-diagonal state with weights p.

    Only the largest weight a enters: zero when a <= 1/2 (the state is
    PPT), else 1 + a log2 a + (1-a) log2(1-a).  Below the threshold the
    optimizing state is the input itself; above it, the state puts weight
    1/2 on the dominant Bell label and rescales the rest to sum to 1/2.
    """
    w = check_probabilities(p, "weights", size=4)
    top = int(np.argmax(w))
    a = float(w[top])
    if a <= 0.5:
        return ClosedFormResult(bound_bits=0.0, sigma_opt=bell_diagonal(w))
    value = 1.0 + _xlog2x(a) + _xlog2x(1.0 - a)
    rest = float(np.delete(w, top).sum())
    q = w / (2.0 * rest) if rest > 1e-15 else np.full(4, 1.0 / 6.0)
    q[top] = 0.5
    return ClosedFormResult(bound_bits=value, sigma_opt=bell_diagonal(q))


def maxcorr_bound(alpha: np.ndarray) -> ClosedFormResult:
    """Exact bound for the maximally correlated state built from alpha:
    the entropy of the diagonal of alpha minus the entropy of alpha, with
    the diagonal-only state as the optimizer.

    :func:`~pptbound.pptopt.kkt_check` certifies that sigma.  It is
    singular on every |ij>, i != j, and on each |ii> with alpha_ii = 0; rho
    has no weight there, and K = 1 there.  On each pair |ij>, |ji> the
    block of K^G is [[1, -alpha_ij f_ij], [-conj(alpha_ij f_ij), 1]] with
    f_ij the divided difference of ln at (alpha_ii, alpha_jj).  1 / f_ij is
    the logarithmic mean, at least sqrt(alpha_ii alpha_jj) >= |alpha_ij|,
    so K^G >= 0.  sigma is diagonal in the product basis, so
    sigma^G = sigma >= 0.
    """
    a = check_alpha(alpha)
    diag = check_probabilities(np.real(np.diag(a)), "alpha diagonal", size=a.shape[0])
    value = shannon_entropy(diag) - shannon_entropy(np.linalg.eigvalsh(a))
    return ClosedFormResult(bound_bits=value, sigma_opt=max_correlated(np.diag(diag)))


def pure_state_bound(schmidt: np.ndarray) -> ClosedFormResult:
    """Exact bound for a pure state: the entropy of its Schmidt weights."""
    p = check_probabilities(schmidt, "Schmidt coefficients")
    return ClosedFormResult(bound_bits=shannon_entropy(p), sigma_opt=max_correlated(np.diag(p)))


@dataclass(eq=False)
class NonadditivityReport:
    b1_bits: float
    b2_bits: float
    gap_bits: float
    kkt_single: KktReport
    kkt_double: KktReport
    optimizer: OptimizerResult
    restart_b2_bits: tuple[float, ...] = ()

    @property
    def b2_spread_bits(self) -> float:
        """Scatter of the two-copy value across independent starts."""
        values = (self.b2_bits, *self.restart_b2_bits)
        return max(values) - min(values)


EXPERIMENT_CONFIG = OptimizerConfig(max_iters=50_000, grad_map_tol=1e-9)


def nonadditivity_experiment(
    cfg: OptimizerConfig | None = None, restarts: int = 0, seed: int = 0
) -> NonadditivityReport:
    """Quantify the two-copy bound deficit of the explicit 4x4 pair.

    The single-copy value b1 is evaluated in closed form at the certified
    optimizer sigma; the two-copy value b2 comes from the numerical
    optimizer on rho tensor rho, started at sigma tensor sigma, the point
    that ``kkt_double`` refutes.  Since any feasible iterate upper-bounds
    the true optimum, gap = 2 b1 - b2 can only understate the real deficit,
    so a positive gap is a certificate of non-additivity.  ``restarts``
    extra runs, each from a random feasible starting point drawn with
    ``seed``, gauge the reproducibility of b2; their scatter is the
    accuracy figure the gap should be measured against.  Each restart
    draws A, then B, n x n standard normal and starts at 0.9 S / tr S +
    0.1 I/n, where S = A A^T + B B^T is the real part of G G^dag with
    G = A + iB: the solve admits that start in float64, as rho tensor rho
    is real.  The generator, ``np.random.default_rng(seed)``, exists only
    for restarts: with ``restarts=0`` ``seed`` is not read and
    ``numpy.random`` is not imported.
    """
    cfg = cfg or EXPERIMENT_CONFIG
    rho, sigma = counterexample_pair()
    b1 = relative_entropy(rho, sigma)
    kkt_single = kkt_check(rho, sigma)
    rho2 = tensor(rho, rho)
    sigma2 = tensor(sigma, sigma)
    kkt_double = kkt_check(rho2, sigma2)
    result = minimize_rel_entropy(rho2, cfg, initial=sigma2)
    n = rho2.dims.total
    extra = []
    if restarts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            raw = g @ g.conj().T
            raw = 0.9 * raw / np.real(np.trace(raw)) + 0.1 * np.eye(n) / n
            start = DensityMatrix(matrix=raw, dims=rho2.dims)
            extra.append(minimize_rel_entropy(rho2, cfg, initial=start).bound_bits)
    gap = 2.0 * b1 - result.bound_bits
    return NonadditivityReport(
        b1_bits=b1,
        b2_bits=result.bound_bits,
        gap_bits=gap,
        kkt_single=kkt_single,
        kkt_double=kkt_double,
        optimizer=result,
        restart_b2_bits=tuple(extra),
    )
