"""Spectral primitives, the divided-difference gradient, and bipartite reshapes."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_definite_density, random_density, random_hermitian, random_unitary
from pptbound.linalg import (
    DEFAULT_FLOOR,
    DEFAULT_SUPPORT_TOL,
    BipartiteDims,
    SpectralPoint,
    SupportError,
    check_square,
    dd_gradient,
    divided_difference_log,
    frobenius,
    hermitianize,
    partial_trace,
    partial_transpose,
    require_hermitian,
)
from pptbound.pptopt import FACE_TOL
from pptbound.states import isotropic, max_entangled_projector


def test_require_hermitian_returns_exactly_hermitian_part():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 5) + 1e-13 * rng.uniform(-1.0, 1.0, (5, 5))
    assert not np.array_equal(m, m.conj().T)
    a = require_hermitian(m)
    assert np.array_equal(a, a.conj().T)
    assert np.abs(a - m).max() <= 1e-13


def test_divided_difference_log_separated_and_diagonal():
    s = np.array([0.1, 0.5, 2.0])
    f = divided_difference_log(s)
    for i in range(3):
        assert f[i, i] == pytest.approx(1.0 / s[i], rel=1e-14)
        for j in range(3):
            if i != j:
                want = (np.log(s[i]) - np.log(s[j])) / (s[i] - s[j])
                assert f[i, j] == pytest.approx(want, rel=1e-13)


def test_divided_difference_log_near_degenerate_is_stable():
    a = 0.37
    for eps in (1e-7, 1e-9, 1e-12, 0.0):
        f = divided_difference_log(np.array([a, a * (1 + eps)]))
        assert f[0, 1] == pytest.approx(1.0 / a, rel=1e-6)
        assert np.isfinite(f).all()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_divided_difference_log_symmetric_positive(seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(1e-6, 3.0, size=6)
    f = divided_difference_log(s)
    assert np.array_equal(f, f.T)
    assert (f > 0).all()


def test_dd_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for n in (4, 9):
        for _ in range(10):
            rho = random_density(rng, n)
            sigma = random_definite_density(rng, n, mix=0.2)
            delta = random_hermitian(rng, n)
            delta /= frobenius(delta)
            grad = dd_gradient(rho, sigma)
            up = np.trace(rho @ scipy.linalg.logm(sigma + h * delta)).real
            dn = np.trace(rho @ scipy.linalg.logm(sigma - h * delta)).real
            fd = (up - dn) / (2 * h)
            an = np.trace(grad @ delta).real
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(fd))


def test_dd_gradient_commuting_pair_is_ratio_in_shared_basis():
    rng = np.random.default_rng(4)
    v = random_unitary(rng, 5)
    p = rng.dirichlet(np.ones(5))
    s = rng.uniform(0.1, 1.0, size=5)
    s /= s.sum()
    rho = hermitianize((v * p) @ v.conj().T)
    sigma = hermitianize((v * s) @ v.conj().T)
    want = hermitianize((v * (p / s)) @ v.conj().T)
    assert frobenius(dd_gradient(rho, sigma) - want) <= 1e-9


def test_dd_gradient_rejects_support_violation():
    rho = np.diag([0.5, 0.5, 0.0])
    sigma = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SupportError):
        dd_gradient(rho, sigma)


def test_dd_gradient_allows_shared_kernel():
    rho = np.diag([0.7, 0.3, 0.0])
    sigma = np.diag([0.4, 0.6, 0.0])
    grad = dd_gradient(rho, sigma)
    assert np.isfinite(grad).all()
    assert grad[2, 2] == 0.0


def test_spectral_point_leak_wall_and_frozen_gradient():
    rho = np.diag([0.6, 0.4 - 1e-6, 1e-6])
    sigma = np.diag([0.5, 0.5 - 1e-9, 1e-9])
    point = SpectralPoint(rho, sigma)
    face = SpectralPoint(rho, sigma, 1e-8)
    assert point.leaks() is None
    assert face.leaks() == pytest.approx(1e-6)
    assert point.divergence(0.0) == pytest.approx(-(rho.diagonal() @ np.log(sigma.diagonal())), rel=1e-14)
    assert face.divergence(0.0) == math.inf
    free = point.gradient()
    assert free[0, 0] == pytest.approx(1.2, rel=1e-12)
    assert free[2, 2] == pytest.approx(1e3, rel=1e-6)
    frozen = face.gradient()
    assert frozen[2, 2] == 0.0
    assert frobenius(frozen - np.diag([1.2, free[1, 1], 0.0])) <= 1e-12


def _rotated_pair(spectrum, small):
    """rho and sigma in one random eigenbasis of sigma = V diag(spectrum) V^dag:
    rho carries weight ``small[i]`` on eigenvector i alone and a random state
    on the rest."""
    rng = np.random.default_rng(11)
    n = len(spectrum)
    v = random_unitary(rng, n)
    rest = [i for i in range(n) if i not in small]
    r = np.zeros((n, n), dtype=complex)
    r[np.ix_(rest, rest)] = random_density(rng, len(rest)) * (1.0 - sum(small.values()))
    for i, w in small.items():
        r[i, i] = w
    return hermitianize(v @ r @ v.conj().T), hermitianize((v * np.array(spectrum)) @ v.conj().T)


@pytest.mark.parametrize(
    "spectrum, small, wall, frozen, dead",
    [
        # No eigenvalue at or under the wall: nothing leaks or is frozen.
        ([0.1, 0.2, 0.3, 0.4], {}, FACE_TOL, 0, 0),
        # An eigenvalue exactly at the wall is in the face, and rho leaks onto it.
        ([FACE_TOL, 0.2, 0.3, 0.5 - FACE_TOL], {0: 1e-3}, None, 1, 0),
        # Frozen by the gradient at FACE_TOL, but over DEFAULT_FLOOR, so the
        # divergence still counts it; rho's weight there stays under the leak
        # tolerance.
        ([1e-10, 0.3, 0.3, 0.4 - 1e-10], {0: DEFAULT_SUPPORT_TOL / 2}, FACE_TOL, 1, 0),
        # Every eigenvalue but one at or under the floor.
        ([0.0, 1e-13, 5e-13, 1.0 - 6e-13], {0: 0.0, 1: 0.0, 2: 0.0}, DEFAULT_FLOOR, 3, 3),
    ],
    ids=["empty-face", "eigenvalue-at-wall", "frozen-but-counted", "one-live-eigenvalue"],
)
def test_spectral_point_leading_runs_match_the_masks(spectrum, small, wall, frozen, dead):
    rho, sigma = _rotated_pair(spectrum, small)
    if wall is None:
        wall = np.linalg.eigh(sigma)[0][0]  # the very eigenvalue SpectralPoint sees
    point = SpectralPoint(rho, sigma, wall)
    s, v, weights = point.eigenvalues, point.eigenvectors, point.weights
    assert (point.frozen, point.dead) == (frozen, dead)
    # The same three quantities from boolean masks over the spectrum.
    face = s <= wall
    live = s > DEFAULT_FLOOR
    assert (face.sum(), (~live).sum()) == (frozen, dead)
    hit = face & (weights > DEFAULT_SUPPORT_TOL)
    leak = float(weights[hit].max()) if hit.any() else None
    assert point.leaks() == leak
    want = math.inf if leak is not None else 0.5 - float(weights[live] @ np.log(s[live]))
    assert point.divergence(0.5) == want
    f = divided_difference_log(s)
    f[face, :] = 0.0
    f[:, face] = 0.0
    assert np.array_equal(point.gradient(), hermitianize(v @ (point.rho_t * f) @ v.conj().T))


@given(st.integers(0, 10_000), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
@settings(max_examples=40, deadline=None)
def test_partial_transpose_involution_trace_hermiticity(seed, shape):
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(*shape)
    m = random_density(rng, dims.total)
    pt = partial_transpose(m, dims)
    assert frobenius(partial_transpose(pt, dims) - m) == 0.0
    assert np.trace(pt) == pytest.approx(np.trace(m))
    assert frobenius(pt - pt.conj().T) <= 1e-14


def test_partial_transpose_swaps_local_transpose():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dims = BipartiteDims(2, 3)
    assert frobenius(partial_transpose(np.kron(a, b), dims) - np.kron(a, b.T)) <= 1e-13


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partial_transpose_max_entangled_spectrum(k):
    pt = partial_transpose(max_entangled_projector(k), BipartiteDims(k, k))
    eigs = np.sort(np.linalg.eigvalsh(pt))
    want = np.sort(np.concatenate([np.full(k * (k - 1) // 2, -1.0 / k), np.full(k * (k + 1) // 2, 1.0 / k)]))
    assert np.max(np.abs(eigs - want)) <= 1e-12


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(7)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    dims = BipartiteDims(2, 3)
    m = np.kron(a, b)
    assert frobenius(partial_trace(m, dims, "B") - a) <= 1e-13
    assert frobenius(partial_trace(m, dims, "A") - b) <= 1e-13


def test_partial_trace_preserves_trace_and_rejects_bad_side():
    rng = np.random.default_rng(8)
    dims = BipartiteDims(2, 4)
    m = random_density(rng, dims.total)
    assert np.trace(partial_trace(m, dims, "A")) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        partial_trace(m, dims, "C")



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BipartiteDims(0, 2), "local dimensions must be positive"),
        (lambda: check_square(np.zeros((2, 3))), "must be square"),
        (lambda: dd_gradient(np.eye(4) / 4, np.eye(9) / 9), "shape mismatch"),
        (lambda: isotropic(1, 0.5), "need local dimension >= 2"),
    ],
    ids=["dims", "square", "dd-shapes", "isotropic-k"],
)
def test_shape_errors_name_the_violation(call, message):
    with pytest.raises(ValueError, match=message):
        call()
