"""Reference values and property checks, computed with numpy alone.

Nothing here imports pptbound.  Closed forms are evaluated from the
parameters a state was made from; relative entropies, gradients, partial
transposes and tensor products are recomputed from plain matrices with an
eigendecomposition of our own.  Every check raises :class:`CheckError`
with a message naming the property that failed.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# A returned sigma must be a density matrix and PPT to this accuracy.
STATE_TOL = 1e-9
# A bound is an upper bound: it may exceed its reference by at most
# BOUND_ABOVE and fall below it by at most BOUND_BELOW.
BOUND_ABOVE = 1e-5
BOUND_BELOW = 1e-9
# The reported value must equal S(rho||sigma_opt) at the returned sigma.
VALUE_TOL = 1e-9
# Acceptance floor for the two-copy deficit 2 b1 - b2 in bits.
GAP_FLOOR = 1e-7
# Certificate tolerance the CLI's kkt command uses by default.
KKT_TOL = 1e-8


class CheckError(AssertionError):
    """An output of the program violates a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def shannon_bits(p) -> float:
    w = np.asarray(p, dtype=float)
    w = w[w > 0.0]
    return float(-(w @ np.log2(w)))


def isotropic_bits(k: int, f: float) -> float:
    """log2 k + f log2 f + (1-f) log2((1-f)/(k-1)) above fidelity 1/k, else 0."""
    if f <= 1.0 / k:
        return 0.0
    rest = 0.0 if f >= 1.0 else (1.0 - f) * math.log2((1.0 - f) / (k - 1))
    return math.log2(k) + f * math.log2(f) + rest


def bell_bits(p) -> float:
    """1 - h(max p) for a two-qubit Bell-diagonal state, 0 when max p <= 1/2."""
    a = float(np.max(p))
    return 0.0 if a <= 0.5 else 1.0 - shannon_bits([a, 1.0 - a])


def maxcorr_bits(alpha: np.ndarray) -> float:
    """S(diag alpha) - S(alpha) for the maximally correlated state of alpha."""
    a = np.asarray(alpha, dtype=complex)
    return shannon_bits(np.real(np.diag(a))) - shannon_bits(np.linalg.eigvalsh(a))


def pure_bits(schmidt) -> float:
    """Entanglement entropy: the Shannon entropy of the Schmidt weights."""
    return shannon_bits(schmidt)


def partial_transpose(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second factor of an operator on C^d_a (x) C^d_b."""
    t = np.asarray(m).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("abcd->adcb", t).reshape(d_a * d_b, d_a * d_b)


def tensor_square(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """m (x) m with the joint cut (A A') | (B B') in lexicographic order."""
    t = np.asarray(m).reshape(d_a, d_b, d_a, d_b)
    n = (d_a * d_b) ** 2
    return np.einsum("abcd,efgh->aebfcgdh", t, t).reshape(n, n)


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(m, dtype=complex)
    return np.linalg.eigh((h + h.conj().T) / 2.0)


def rel_entropy_bits(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho||sigma) in bits; +inf when rho has weight where sigma is zero."""
    r = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    s, v = _spectrum(sigma)
    weight = np.real(np.einsum("ij,ik,kj->j", v.conj(), rho, v))
    live = s > 0.0
    if np.any(weight[~live] > 1e-12):
        return math.inf
    r = r[r > 0.0]
    return float(r @ np.log(r) - weight[live] @ np.log(s[live])) / LN2


def log_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Gradient of sigma -> Tr(rho ln sigma) for positive definite sigma.

    In the eigenbasis of sigma it is rho scaled entrywise by the first
    divided differences of ln, written as log1p(x)/x / s_j with
    x = (s_i - s_j)/s_j so that close eigenvalues keep their digits.
    """
    s, v = _spectrum(sigma)
    if s[0] <= 0.0:
        raise CheckError(f"sigma is not positive definite: min eigenvalue {s[0]:.3e}")
    x = (s[:, None] - s[None, :]) / s[None, :]
    safe = np.where(x == 0.0, 1.0, x)
    ratio = np.where(x == 0.0, 1.0, np.log1p(safe) / safe)
    table = ratio / s[None, :]
    g = v @ ((v.conj().T @ rho @ v) * table) @ v.conj().T
    return (g + g.conj().T) / 2.0


def dual_lower_bound_bits(rho: np.ndarray, sigma: np.ndarray, d_a: int, d_b: int) -> float:
    """f(sigma) + Tr(G sigma) - min(lmax G, lmax G^Gamma), in bits.

    G is the gradient of Tr(rho ln sigma).  For any PPT state tau,
    Tr(G tau) is at most both largest eigenvalues, so by convexity of
    f = S(rho||.) this lower-bounds the minimum over the PPT set.
    """
    g = log_gradient(rho, sigma)
    top = min(
        float(np.linalg.eigvalsh(g)[-1]),
        float(np.linalg.eigvalsh(partial_transpose(g, d_a, d_b))[-1]),
    )
    linear = float(np.real(np.trace(g @ sigma)))
    return rel_entropy_bits(rho, sigma) + (linear - top) / LN2


def kkt_values(rho: np.ndarray, sigma: np.ndarray, d_a: int, d_b: int) -> tuple[float, float]:
    """(||sigma^G K^G||_F, min eig K^G) for K = 1 - grad Tr(rho ln sigma)."""
    k = np.eye(sigma.shape[0]) - log_gradient(rho, sigma)
    k_gamma = partial_transpose(k, d_a, d_b)
    residual = float(np.linalg.norm(partial_transpose(sigma, d_a, d_b) @ k_gamma))
    return residual, float(np.linalg.eigvalsh((k_gamma + k_gamma.conj().T) / 2.0)[0])


def check_state(sigma: np.ndarray, d_a: int, d_b: int, what: str = "sigma_opt") -> None:
    """sigma is Hermitian, of unit trace, PSD and PPT, all within STATE_TOL."""
    m = np.asarray(sigma, dtype=complex)
    require(m.shape == (d_a * d_b, d_a * d_b), f"{what} has shape {m.shape}")
    require(np.all(np.isfinite(m)), f"{what} has non-finite entries")
    require(float(np.linalg.norm(m - m.conj().T)) <= STATE_TOL, f"{what} is not Hermitian")
    trace = complex(np.trace(m))
    require(abs(trace - 1.0) <= STATE_TOL, f"{what} has trace {trace:.12g}")
    low = float(np.linalg.eigvalsh(m)[0])
    require(low >= -STATE_TOL, f"{what} is not PSD: min eigenvalue {low:.3e}")
    low_pt = float(np.linalg.eigvalsh(partial_transpose(m, d_a, d_b))[0])
    require(low_pt >= -STATE_TOL, f"{what} is not PPT: min eigenvalue {low_pt:.3e}")


def check_bound(value: float, reference: float, what: str) -> None:
    """An upper bound: no lower than reference - BOUND_BELOW, within BOUND_ABOVE above."""
    require(math.isfinite(value), f"{what}: bound {value} is not finite")
    diff = value - reference
    require(
        -BOUND_BELOW <= diff <= BOUND_ABOVE,
        f"{what}: bound {value:.12g} is {diff:+.3e} off reference {reference:.12g}, "
        f"not within [-{BOUND_BELOW:.0e}, +{BOUND_ABOVE:.0e}]",
    )


def check_close(value: float, reference: float, tol: float, what: str) -> None:
    require(
        math.isfinite(value) and abs(value - reference) <= tol,
        f"{what}: {value!r} vs reference {reference!r} (tol {tol:.1e})",
    )


def check_printed(text: str, reference: float, what: str, digits: int = 9) -> None:
    """A value printed to ``digits`` significant digits matches the reference
    to one unit in its last digit (half a unit of rounding plus the solver's
    own error); a zero reference must print as zero to 1e-12."""
    try:
        value = float(text)
    except ValueError as exc:
        raise CheckError(f"{what}: cannot parse {text!r}") from exc
    unit = 1e-12 if reference == 0.0 else 10.0 ** (math.floor(math.log10(abs(reference))) - digits + 1)
    require(
        abs(value - reference) <= unit,
        f"{what}: printed {text} vs reference {reference:.12g}",
    )
