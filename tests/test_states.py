"""State families, the two-qubit Bell basis, and twirls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from pptbound.linalg import BipartiteDims, frobenius, partial_trace, partial_transpose
from pptbound.states import (
    BELL_BASIS,
    DensityMatrix,
    bell_diagonal,
    bell_twirl,
    check_alpha,
    check_probabilities,
    counterexample_pair,
    density_matrix,
    entanglement_fidelity,
    isotropic,
    max_correlated,
    max_entangled_projector,
    phase_mask,
    phi_plus,
    pure_state,
    tensor,
)


def test_validate_names_the_violated_invariant():
    good = np.eye(4) / 4
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(matrix=good * 2, dims=BipartiteDims(2, 2)).validate()
    with pytest.raises(ValueError, match="positivity"):
        DensityMatrix(matrix=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), dims=BipartiteDims(2, 2)).validate()
    with pytest.raises(ValueError, match="Hermitian"):
        bad = good.astype(complex).copy()
        bad[0, 1] = 0.2
        DensityMatrix(matrix=bad, dims=BipartiteDims(2, 2)).validate()
    with pytest.raises(ValueError, match="match dims"):
        DensityMatrix(matrix=good, dims=BipartiteDims(2, 3)).validate()


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_probabilities([np.nan, 0.5, 0.5], "w"),
        lambda: bell_diagonal([np.nan, 0.5, 0.25, 0.25]),
        lambda: pure_state([np.nan, 1.0]),
        lambda: check_alpha([[np.nan, 0.0], [0.0, 1.0]]),
    ],
    ids=["check_probabilities", "bell_diagonal", "pure_state", "check_alpha"],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: bell_diagonal([0.25 + 5e-10, 0.25, 0.25, 0.25]),
        lambda: max_correlated(np.diag([0.5 + 5e-10, 0.5])),
        lambda: max_correlated(np.array([[1.0 + 5e-10, 0.0], [0.0, -5e-10]])),
    ],
    ids=["bell_diagonal_trace", "max_correlated_trace", "max_correlated_positivity"],
)
def test_constructors_admit_gray_band_input_as_states(build):
    build().validate()


def test_admission_keeps_valid_input_and_snaps_the_gray_band():
    w = np.random.default_rng(31).dirichlet(np.ones(5))
    assert np.array_equal(check_probabilities(w, "w"), w)
    m = random_density(np.random.default_rng(32), 6)
    assert np.array_equal(density_matrix(m, BipartiteDims(2, 3)).matrix, m)
    snapped = check_probabilities([0.5 + 5e-10, 0.5, -5e-10], "w")
    assert snapped.min() >= 0.0 and abs(snapped.sum() - 1.0) <= 1e-15


def test_density_matrix_takes_one_spectrum_of_a_valid_state(monkeypatch):
    m = random_density(np.random.default_rng(33), 6)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert np.array_equal(density_matrix(m, BipartiteDims(2, 3)).matrix, m)
    assert calls == [(6, 6)]


def test_phi_plus_projector():
    for k in (2, 3):
        v = phi_plus(k)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        p = max_entangled_projector(k)
        assert frobenius(p @ p - p) <= 1e-14
        assert entanglement_fidelity(p, k) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("k", [2, 3])
def test_isotropic_ppt_threshold(k):
    below = partial_transpose(isotropic(k, 1.0 / k - 0.01).matrix, BipartiteDims(k, k))
    above = partial_transpose(isotropic(k, 1.0 / k + 0.01).matrix, BipartiteDims(k, k))
    assert np.linalg.eigvalsh(below)[0] >= -1e-14
    assert np.linalg.eigvalsh(above)[0] < -1e-6


def test_isotropic_rejects_bad_fidelity():
    with pytest.raises(ValueError):
        isotropic(2, 1.2)
    with pytest.raises(ValueError):
        isotropic(2, -0.1)


def test_bell_basis_orthonormal_with_pauli_signatures():
    assert frobenius(BELL_BASIS.conj().T @ BELL_BASIS - np.eye(4)) <= 1e-15
    assert not BELL_BASIS.imag.any()
    # Columns phi+, phi-, psi+, psi- are the joint eigenvectors of X x X and
    # Z x Z with these eigenvalue pairs.
    x = np.array([[0, 1], [1, 0]])
    z = np.diag([1, -1])
    for op, signs in ((np.kron(x, x), [1, -1, 1, -1]), (np.kron(z, z), [1, 1, -1, -1])):
        assert frobenius(op @ BELL_BASIS - BELL_BASIS * signs) == 0.0


def test_bell_basis_first_column_is_phi_plus():
    overlap = abs(np.vdot(BELL_BASIS[:, 0], phi_plus(2)))
    assert overlap == pytest.approx(1.0, abs=1e-14)


def test_bell_diagonal_spectrum_and_projectors():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    rho = bell_diagonal(p)
    back = np.real(np.einsum("ik,ij,jk->k", BELL_BASIS.conj(), rho.matrix, BELL_BASIS))
    assert np.max(np.abs(np.sort(back) - np.sort(p))) <= 1e-12
    one = bell_diagonal([1.0, 0.0, 0.0, 0.0])
    assert frobenius(one.matrix - max_entangled_projector(2)) <= 1e-14


def test_bell_diagonal_rejects_bad_weights():
    with pytest.raises(ValueError):
        bell_diagonal([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        bell_diagonal([0.5, 0.1, 0.1, 0.1])


def test_bell_twirl_equals_group_average():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    rng = np.random.default_rng(17)
    state = density_matrix(random_density(rng, 4), BipartiteDims(2, 2))
    acc = np.zeros((4, 4), dtype=complex)
    for u in (np.eye(2), x, z, x @ z):
        w = np.kron(u, u.conj())
        acc += w @ state.matrix @ w.conj().T
    acc /= 4
    assert frobenius(bell_twirl(state).matrix - acc) <= 1e-12


def test_bell_twirl_rejects_non_two_qubit_states():
    rng = np.random.default_rng(21)
    state = density_matrix(random_density(rng, 9), BipartiteDims(3, 3))
    with pytest.raises(ValueError, match="2x2"):
        bell_twirl(state)


def test_bell_twirl_idempotent_and_fixes_bell_diagonal():
    rng = np.random.default_rng(18)
    state = density_matrix(random_density(rng, 4), BipartiteDims(2, 2))
    once = bell_twirl(state)
    twice = bell_twirl(once)
    assert frobenius(once.matrix - twice.matrix) <= 1e-13
    rho = bell_diagonal([0.5, 0.2, 0.2, 0.1])
    assert frobenius(bell_twirl(rho).matrix - rho.matrix) <= 1e-13
    once.validate()


def test_counterexample_pair_structure():
    rho, sigma = counterexample_pair()
    for state in (rho, sigma):
        state.validate()
        assert (state.dims.d_a, state.dims.d_b) == (2, 2)
    pt_sigma = partial_transpose(sigma.matrix, sigma.dims)
    eigs = np.sort(np.linalg.eigvalsh(pt_sigma))
    want = np.sort([0.0, 1.0 / 3.0, 55.0 / 144.0, 41.0 / 144.0])
    assert np.max(np.abs(eigs - want)) <= 1e-15
    pt_rho = partial_transpose(rho.matrix, rho.dims)
    assert np.linalg.eigvalsh(pt_rho)[0] < -1e-3


def test_max_correlated_embedding():
    alpha = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    rho = max_correlated(alpha)
    assert rho.matrix[0, 0] == pytest.approx(0.7)
    assert rho.matrix[0, 3] == pytest.approx(0.2 + 0.1j)
    assert rho.matrix[3, 3] == pytest.approx(0.3)
    assert abs(rho.matrix[1, 1]) == 0.0 and abs(rho.matrix[2, 2]) == 0.0
    rho.validate()


def test_max_correlated_rejects_invalid_alpha():
    with pytest.raises(ValueError, match="^alpha: positivity invariant"):
        max_correlated(np.array([[1.2, 0.0], [0.0, -0.2]]))
    with pytest.raises(ValueError, match="^alpha: positivity invariant"):
        max_correlated(np.array([[1.1, 0.0], [0.0, -0.1]]))
    with pytest.raises(ValueError, match="^alpha: trace invariant"):
        max_correlated(np.array([[0.5, 0.0], [0.0, 0.4]]))
    with pytest.raises(ValueError, match="^alpha: trace invariant"):
        max_correlated(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="^alpha: .*not Hermitian"):
        max_correlated(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_pure_state_rank_one_and_validation():
    rho = pure_state(np.array([0.8, 0.2]))
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(eigs[:-1])) <= 1e-12
    with pytest.raises(ValueError):
        pure_state(np.array([0.8, 0.1]))
    with pytest.raises(ValueError):
        pure_state(np.array([1.0]))


def _pure_state_from_vector(p):
    """Reference: the projector onto the renormalized vector
    sum_i sqrt(p_i) |ii>, built entry by entry."""
    k = len(p)
    v = np.zeros(k * k, dtype=complex)
    v[:: k + 1] = np.sqrt(p)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


@pytest.mark.parametrize("seed", range(4))
def test_pure_state_is_the_rank_one_max_correlated_state(seed):
    rng = np.random.default_rng(seed)
    vectors = [[0.8, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.6, 0.4 - 1e-9, 1e-9]]
    vectors += [rng.dirichlet(np.ones(k)) for k in (2, 3, 4, 5)]
    for p in vectors:
        s = np.sqrt(np.asarray(p))
        rho = pure_state(p)
        assert np.array_equal(rho.matrix, max_correlated(np.outer(s, s)).matrix)
        assert np.abs(rho.matrix - _pure_state_from_vector(p)).max() <= 1e-15


def test_tensor_regroups_and_partial_traces_factor():
    rng = np.random.default_rng(20)
    a = density_matrix(random_density(rng, 4), BipartiteDims(2, 2))
    b = density_matrix(random_density(rng, 6), BipartiteDims(2, 3))
    joint = tensor(a, b)
    assert (joint.dims.d_a, joint.dims.d_b) == (4, 6)
    joint.validate()
    left = partial_trace(joint.matrix, joint.dims, "B")
    want = np.kron(partial_trace(a.matrix, a.dims, "B"), partial_trace(b.matrix, b.dims, "B"))
    assert frobenius(left - want) <= 1e-12


def test_tensor_regroups_parties():
    rng = np.random.default_rng(9)
    d1 = BipartiteDims(2, 2)
    d2 = BipartiteDims(2, 3)
    a = DensityMatrix(matrix=random_density(rng, d1.total), dims=d1)
    b = DensityMatrix(matrix=random_density(rng, d2.total), dims=d2)
    joint = tensor(a, b)
    assert (joint.dims.d_a, joint.dims.d_b) == (4, 6)
    assert np.trace(joint.matrix) == pytest.approx(1.0)
    eigs = np.sort(np.linalg.eigvalsh(joint.matrix))
    prod = np.sort(np.outer(np.linalg.eigvalsh(a.matrix), np.linalg.eigvalsh(b.matrix)).ravel())
    assert np.max(np.abs(eigs - prod)) <= 1e-12
    pt_joint = partial_transpose(joint.matrix, joint.dims)
    pt_a = DensityMatrix(matrix=partial_transpose(a.matrix, d1), dims=d1)
    pt_b = DensityMatrix(matrix=partial_transpose(b.matrix, d2), dims=d2)
    assert frobenius(pt_joint - tensor(pt_a, pt_b).matrix) <= 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_bell_twirl_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    state = density_matrix(random_density(rng, 4), BipartiteDims(2, 2))
    out = bell_twirl(state)
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12


def test_phase_mask_keeps_exactly_the_charges_fixed_by_rho():
    rho, _ = counterexample_pair()
    rng = np.random.default_rng(26)
    cases = [
        (pure_state([0.5, 0.3, 0.2]), 15),
        (isotropic(3, 0.7), 15),
        (rho, 6),
        (tensor(rho, rho), 36),
        (bell_diagonal([0.7, 0.1, 0.15, 0.05]), 16),
        (density_matrix(random_density(rng, 9), BipartiteDims(3, 3)), 81),
    ]
    for state, kept in cases:
        dims = state.dims
        mask = phase_mask(state)
        assert mask.sum() == kept
        assert np.array_equal(state.matrix * mask, state.matrix)
        # Charges (e_a - e_a', e_b - e_b') of every entry; the torus of
        # local phases fixing rho is the null space of its support charges.
        a, b = np.divmod(np.arange(dims.total), dims.d_b)
        nodes = np.hstack([np.eye(dims.d_a)[a], np.eye(dims.d_b)[b]])
        charges = nodes[:, None, :] - nodes[None, :, :]
        support = charges[state.matrix != 0]
        _, sv, vt = np.linalg.svd(support)
        torus = vt[np.count_nonzero(sv > 1e-9) :].T
        turn = np.abs(charges @ (torus @ rng.standard_normal(torus.shape[1])))
        assert (turn[mask] <= 1e-12).all()
        assert (turn[~mask] >= 1e-6).all()
        # Masking keeps principal blocks on both sides of the partial
        # transpose, so the trace stays and neither least eigenvalue drops.
        sigma = random_density(rng, dims.total)
        masked = sigma * mask
        assert np.trace(masked) == np.trace(sigma)
        for side in (lambda m: m, lambda m: partial_transpose(m, dims)):
            assert np.linalg.eigvalsh(side(masked))[0] >= np.linalg.eigvalsh(side(sigma))[0] - 1e-12
