"""Entropies in bits, relative entropy with its support convention, and entanglement fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_definite_density, random_density
from pptbound.entropy import LN2, psd_entropy, relative_entropy, shannon_entropy
from pptbound.linalg import BipartiteDims
from pptbound.pptopt import kkt_check
from pptbound.states import DensityMatrix, entanglement_fidelity, isotropic, pure_state


def _dm(matrix, d_a, d_b):
    return DensityMatrix(matrix=np.asarray(matrix, dtype=complex), dims=BipartiteDims(d_a, d_b))


def test_shannon_entropy_frozen_value():
    assert shannon_entropy(np.array([0.75, 0.25])) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_shannon_entropy_skips_zeros_and_clamps():
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5, 1e-18])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_shannon_entropy_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        shannon_entropy(np.array([bad, 1.0]))


@pytest.mark.parametrize("bad", [[-0.5, 1.5], [2.0], [0.5, 0.6], [0.5, -2e-9, 0.5 + 2e-9]])
def test_shannon_entropy_rejects_non_probability_vectors(bad):
    with pytest.raises(ValueError, match="probabilit"):
        shannon_entropy(np.array(bad))


def test_shannon_entropy_accepts_rounding_off_the_simplex():
    assert shannon_entropy(np.array([0.5 + 5e-10, 0.5, -5e-10])) == pytest.approx(1.0, abs=1e-8)


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=50, deadline=None)
def test_shannon_entropy_range(seed, n):
    p = np.random.default_rng(seed).dirichlet(np.ones(n))
    h = shannon_entropy(p)
    assert 0.0 <= h <= np.log2(n) + 1e-12


def test_von_neumann_entropy_pure_and_mixed():
    assert psd_entropy(pure_state(np.array([0.5, 0.5])).matrix) / LN2 == pytest.approx(0.0, abs=1e-10)
    rho = isotropic(2, 0.75)
    eigs = np.linalg.eigvalsh(rho.matrix)
    want = -(eigs * np.log2(eigs)).sum()
    assert psd_entropy(rho.matrix) / LN2 == pytest.approx(want, abs=1e-12)


def test_von_neumann_entropy_additive_over_kron():
    rng = np.random.default_rng(10)
    a = random_density(rng, 4)
    b = random_density(rng, 4)
    lhs = psd_entropy(np.kron(a, b)) / LN2
    rhs = psd_entropy(a) / LN2 + psd_entropy(b) / LN2
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_relative_entropy_zero_iff_equal():
    rng = np.random.default_rng(11)
    rho = _dm(random_density(rng, 4), 2, 2)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_klein_inequality_200_pairs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        rho = _dm(random_density(rng, 4), 2, 2)
        sigma = _dm(random_definite_density(rng, 4), 2, 2)
        assert relative_entropy(rho, sigma) >= -1e-10


def test_relative_entropy_pinsker():
    rng = np.random.default_rng(13)
    ln2 = math.log(2.0)
    for _ in range(50):
        rho = _dm(random_density(rng, 4), 2, 2)
        sigma = _dm(random_definite_density(rng, 4), 2, 2)
        td = 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum()
        assert relative_entropy(rho, sigma) >= 2.0 * td * td / ln2 - 1e-10


def test_relative_entropy_additive_over_tensor():
    rng = np.random.default_rng(14)
    r1, s1 = random_density(rng, 4), random_definite_density(rng, 4)
    r2, s2 = random_density(rng, 4), random_definite_density(rng, 4)
    lhs = relative_entropy(_dm(np.kron(r1, r2), 4, 4), _dm(np.kron(s1, s2), 4, 4))
    rhs = relative_entropy(_dm(r1, 2, 2), _dm(s1, 2, 2)) + relative_entropy(_dm(r2, 2, 2), _dm(s2, 2, 2))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_relative_entropy_infinite_off_support():
    rho = _dm(np.diag([0.5, 0.5, 0.0, 0.0]), 2, 2)
    sigma = _dm(np.diag([1.0, 0.0, 0.0, 0.0]), 2, 2)
    assert math.isinf(relative_entropy(rho, sigma))


def test_relative_entropy_finite_on_shared_support():
    rho = _dm(np.diag([0.6, 0.4, 0.0, 0.0]), 2, 2)
    sigma = _dm(np.diag([0.3, 0.7, 0.0, 0.0]), 2, 2)
    want = (0.6 * np.log2(0.6 / 0.3) + 0.4 * np.log2(0.4 / 0.7))
    assert relative_entropy(rho, sigma) == pytest.approx(want, abs=1e-10)


def test_entropy_rejects_rho_below_eig_tol():
    with pytest.raises(ValueError, match="rho is not PSD: least eigenvalue -2.000e-01"):
        psd_entropy(np.diag([0.7, 0.5, -0.2, 0.0]))
    assert psd_entropy(np.diag([0.5, 0.5, -5e-11])) == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("check", [kkt_check, relative_entropy])
def test_pair_checks_reject_trace_off_one(check):
    rho = isotropic(2, 0.9)
    doubled = _dm(2 * rho.matrix, 2, 2)
    with pytest.raises(ValueError, match="rho trace = 2"):
        check(doubled, rho)
    with pytest.raises(ValueError, match="sigma trace = 2"):
        check(rho, doubled)
    near = _dm(np.diag([0.25, 0.25, 0.25, 0.25 - 5e-11]), 2, 2)
    if check is kkt_check:
        assert check(near, near).passed
        return
    assert relative_entropy(near, near) == pytest.approx(0.0, abs=1e-12)
    assert relative_entropy(rho, near) == pytest.approx(relative_entropy(rho, _dm(np.eye(4) / 4, 2, 2)), abs=1e-9)


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError):
        relative_entropy(isotropic(2, 0.6), isotropic(3, 0.6))


def test_relative_entropy_jointly_convex_spot():
    rng = np.random.default_rng(15)
    lam = 0.3
    r1, s1 = random_density(rng, 4), random_definite_density(rng, 4)
    r2, s2 = random_density(rng, 4), random_definite_density(rng, 4)
    mixed = relative_entropy(_dm(lam * r1 + (1 - lam) * r2, 2, 2), _dm(lam * s1 + (1 - lam) * s2, 2, 2))
    split = lam * relative_entropy(_dm(r1, 2, 2), _dm(s1, 2, 2)) + (1 - lam) * relative_entropy(
        _dm(r2, 2, 2), _dm(s2, 2, 2)
    )
    assert mixed <= split + 1e-10


@pytest.mark.parametrize("k,f", [(2, 0.3), (2, 0.9), (3, 0.5)])
def test_fidelity_reads_back_isotropic_parameter(k, f):
    assert entanglement_fidelity(isotropic(k, f).matrix, k) == pytest.approx(f, abs=1e-12)
