"""PPT membership, Dykstra projection, the optimizer, and the certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_definite_density, random_density, random_hermitian
from pptbound.entropy import relative_entropy
from pptbound.formulas import bell_z2_bound, isotropic_bound, maxcorr_bound, pure_state_bound
from pptbound.linalg import (
    DEFAULT_FLOOR,
    BipartiteDims,
    HermiticityError,
    _simplex,
    divided_difference_log,
    frobenius,
    hermitianize,
    partial_transpose,
)
from pptbound import pptopt
from pptbound.pptopt import (
    OptimizerConfig,
    _mix_with_identity,
    additivity_check,
    is_ppt,
    kkt_check,
    kkt_check_maxcorr,
    minimize_rel_entropy,
    project_ppt,
)
from pptbound.states import (
    DensityMatrix,
    bell_diagonal,
    bell_twirl,
    counterexample_pair,
    density_matrix,
    isotropic,
    max_correlated,
    max_entangled_projector,
    pure_state,
    tensor,
)

DIMS22 = BipartiteDims(2, 2)


def test_is_ppt_known_cases():
    assert is_ppt(isotropic(2, 0.45)).ok
    assert not is_ppt(isotropic(2, 0.55)).ok
    rho, sigma = counterexample_pair()
    assert is_ppt(sigma).ok
    assert not is_ppt(rho).ok
    assert is_ppt(rho).min_eig < -1e-3


def test_is_ppt_reports_min_eig():
    chk = is_ppt(isotropic(2, 1.0))
    assert chk.min_eig == pytest.approx(-0.5, abs=1e-12)


def _tilted_sigma():
    """The counterexample sigma with 0.05 added to entry (1, 2) only."""
    _, sigma = counterexample_pair()
    m = sigma.matrix.copy()
    m[1, 2] += 0.05
    return DensityMatrix(matrix=m, dims=DIMS22)


def test_is_ppt_rejects_non_hermitian_input():
    with pytest.raises(HermiticityError):
        is_ppt(_tilted_sigma())


def test_project_ppt_fixes_ppt_points():
    rng = np.random.default_rng(21)
    sep = density_matrix(np.diag(rng.dirichlet(np.ones(4))), DIMS22)
    out = project_ppt(sep.matrix, DIMS22)
    assert out.converged
    assert frobenius(out.state.matrix - sep.matrix) <= 1e-9


def test_project_ppt_output_feasible_and_idempotent():
    rng = np.random.default_rng(22)
    for _ in range(20):
        raw = random_density(rng, 4)
        out = project_ppt(raw, DIMS22)
        state = out.state
        state.validate()
        assert is_ppt(state, tol=1e-10).ok
        again = project_ppt(state.matrix, DIMS22)
        assert frobenius(again.state.matrix - state.matrix) <= 1e-8


@pytest.mark.parametrize("k", [2, 3])
def test_project_ppt_max_entangled_lands_on_isotropic_boundary(k):
    out = project_ppt(max_entangled_projector(k), BipartiteDims(k, k))
    want = isotropic(k, 1.0 / k)
    assert frobenius(out.state.matrix - want.matrix) <= 1e-9
    assert out.converged


def test_project_ppt_rejects_non_finite_input():
    with pytest.raises(ValueError, match="non-finite"):
        project_ppt(np.full((4, 4), np.nan), DIMS22)


def test_project_ppt_accepts_hermitian_non_state_input():
    rng = np.random.default_rng(23)
    raw = random_hermitian(rng, 4)
    out = project_ppt(raw, DIMS22)
    out.state.validate()
    assert is_ppt(out.state, tol=1e-10).ok


@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_simplex_projection_is_the_nearest_point(values):
    w = np.array(values)
    q = _simplex(w)
    assert (q >= 0.0).all()
    assert abs(q.sum() - 1.0) <= 1e-12
    # Variational inequality: w - q makes an obtuse angle with every
    # direction from q to a vertex e_i, hence with the whole simplex.
    r = w - q
    assert (r - r @ q <= 1e-12).all()


@given(st.integers(0, 10_000), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
@settings(max_examples=30, deadline=None)
def test_project_ppt_is_the_nearest_ppt_state(seed, shape):
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(*shape)
    n = dims.total
    x = random_hermitian(rng, n)
    out = project_ppt(x, dims)
    p = out.state.matrix
    assert abs(np.trace(p) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(partial_transpose(p, dims))[0] >= -1e-12
    assert out.residual == max(0.0, -np.linalg.eigvalsh(p)[0])
    if not out.converged:
        # Some unit-scale inputs in 3x3 need more than the default cycle
        # budget; such a result is flagged, and only its feasible side holds.
        assert out.cycles == pptopt.DYKSTRA_ITERS
        return
    assert out.residual <= 1e-10
    products = [np.kron(random_density(rng, dims.d_a), random_density(rng, dims.d_b)) for _ in range(4)]
    for y in products + [np.eye(n) / n]:
        assert np.vdot(x - p, y - p).real <= 1e-9


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_project_ppt_converges_on_random_inputs(shape):
    # Seven of these sixty unit-scale inputs take plain, unaccelerated
    # Dykstra past its 5,000-cycle budget.
    dims = BipartiteDims(*shape)
    n = dims.total
    for seed in range(30):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n)
        out = project_ppt(x, dims)
        p = out.state.matrix
        assert out.converged
        assert out.residual <= 1e-10
        assert abs(np.trace(p) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(partial_transpose(p, dims))[0] >= -1e-12
        products = [np.kron(random_density(rng, dims.d_a), random_density(rng, dims.d_b)) for _ in range(4)]
        for y in products + [np.eye(n) / n]:
            assert np.vdot(x - p, y - p).real <= 1e-9


def test_minimize_returns_zero_for_ppt_input():
    rho = isotropic(2, 0.4)
    res = minimize_rel_entropy(rho)
    assert res.bound_bits == 0.0
    assert res.iterations == 0
    assert res.converged
    assert frobenius(res.sigma_opt.matrix - rho.matrix) == 0.0


def test_minimize_matches_isotropic_closed_form():
    res = minimize_rel_entropy(isotropic(2, 0.75))
    assert res.converged
    assert res.bound_bits == pytest.approx(isotropic_bound(2, 0.75).bound_bits, abs=1e-7)


def test_minimize_bound_is_attained_by_reported_sigma():
    rho = bell_diagonal([0.6, 0.25, 0.1, 0.05])
    res = minimize_rel_entropy(rho)
    assert res.converged
    assert is_ppt(res.sigma_opt, tol=1e-9).ok
    assert relative_entropy(rho, res.sigma_opt) == pytest.approx(res.bound_bits, abs=1e-9)


def test_minimize_with_invariance_map_agrees():
    rho = bell_diagonal([0.7, 0.2, 0.06, 0.04])
    free = minimize_rel_entropy(rho)
    pinned = minimize_rel_entropy(rho, invariance_map=bell_twirl)
    assert abs(free.bound_bits - pinned.bound_bits) <= 1e-7
    assert free.bound_bits == pytest.approx(bell_z2_bound(np.array([0.7, 0.2, 0.06, 0.04])).bound_bits, abs=1e-7)


def test_minimize_accepts_warm_start():
    rho = isotropic(2, 0.8)
    warm = isotropic_bound(2, 0.8).sigma_opt
    res = minimize_rel_entropy(rho, initial=warm)
    assert res.converged
    assert res.bound_bits == pytest.approx(isotropic_bound(2, 0.8).bound_bits, abs=1e-9)


@pytest.mark.parametrize(
    "initial",
    [
        DensityMatrix(matrix=np.full((4, 4), np.nan, dtype=complex), dims=DIMS22),
        _tilted_sigma(),
        isotropic(3, 0.5),
        DensityMatrix(matrix=np.eye(9) / 9, dims=DIMS22),
    ],
    ids=["nan", "non-hermitian", "other-dims", "wrong-size"],
)
def test_minimize_rejects_bad_initial(initial):
    with pytest.raises(ValueError, match="initial"):
        minimize_rel_entropy(isotropic(2, 0.9), initial=initial)


def test_minimize_iteration_cap_reports_nonconvergence():
    cfg = OptimizerConfig(max_iters=1, grad_map_tol=1e-15)
    res = minimize_rel_entropy(isotropic(2, 0.9), cfg)
    assert not res.converged
    assert res.iterations == 1
    assert res.bound_bits >= isotropic_bound(2, 0.9).bound_bits - 1e-9


def test_minimize_line_search_exhaustion_reports_nonconvergence(monkeypatch):
    # f is convex, so no step can meet an Armijo constant above 1.
    monkeypatch.setattr(pptopt, "ARMIJO_C", 2.0)
    res = minimize_rel_entropy(isotropic(2, 0.9))
    assert not res.converged
    assert res.iterations == 1
    assert res.bound_bits >= isotropic_bound(2, 0.9).bound_bits - 1e-9


# The two slowest Bell-diagonal solves among Dirichlet(1, 1, 1, 1) draws of
# default_rng(0); each must end on the gradient-map certificate.
@pytest.mark.parametrize(
    "p",
    [
        [0.00013953969812733374, 0.029264398201111645, 0.9108992570035426, 0.059696805097218565],
        [0.627719708390659, 0.07725481544772529, 0.2306851606875173, 0.06434031547409826],
    ],
)
def test_minimize_slow_bell_states_stop_on_certificate(p):
    cfg = OptimizerConfig()
    res = minimize_rel_entropy(bell_diagonal(p), cfg)
    assert res.converged
    assert res.final_grad_map_norm <= cfg.grad_map_tol
    assert res.bound_bits == pytest.approx(bell_z2_bound(np.array(p)).bound_bits, abs=1e-6)


def test_minimize_survives_dominant_weight_near_boundary():
    # Small tail weights push the optimal sigma close to the cone boundary,
    # which used to defeat the line search outright.
    p = np.array([8.5e-01, 4.31029394e-04, 1.24144035e-01, 2.54249356e-02])
    res = minimize_rel_entropy(bell_diagonal(p))
    assert res.converged
    assert res.bound_bits == pytest.approx(bell_z2_bound(p).bound_bits, abs=1e-6)


def test_minimize_reports_capped_projections(monkeypatch):
    monkeypatch.setattr(pptopt, "DYKSTRA_ITERS", 1)
    res = minimize_rel_entropy(isotropic(2, 0.9))
    assert res.capped_projections > 0
    assert res.max_projection_residual >= 0.0


def test_minimize_bound_not_below_optimum_on_singular_sigma():
    # The optimal sigma is singular on the 1e-9 Schmidt direction; the bound
    # must still be evaluated at a positive definite PPT sigma.
    p = np.array([0.6, 0.4 - 1e-9, 1e-9])
    rho = pure_state(p)
    res = minimize_rel_entropy(rho)
    assert res.bound_bits >= pure_state_bound(p).bound_bits
    assert res.bound_bits == pytest.approx(relative_entropy(rho, res.sigma_opt), abs=1e-12)
    assert np.linalg.eigvalsh(res.sigma_opt.matrix)[0] > 0.0
    assert is_ppt(res.sigma_opt).ok


@pytest.mark.parametrize("p", [[0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]])
def test_minimize_degenerate_pure_states_converge(p):
    # Without the diagonal-phase twirl the iterate drifts onto directions
    # rho does not couple to, and the support wall stalls the search there.
    p = np.array(p)
    res = minimize_rel_entropy(pure_state(p))
    assert res.converged
    assert pure_state_bound(p).bound_bits <= res.bound_bits <= pure_state_bound(p).bound_bits + 1e-8


def test_final_mix_outweighs_negative_eigenvalue():
    # The partial transpose of an isotropic state just past f = 1/2 is PPT,
    # unit-trace, and has least eigenvalue -1e-9, as a capped projection
    # can leave; a fixed 1e-9 I/n mix would not lift it.
    sigma = partial_transpose(isotropic(2, 0.5 + 1e-9).matrix, DIMS22)
    low = np.linalg.eigvalsh(sigma)[0]
    assert low == pytest.approx(-1e-9, rel=1e-6)
    mixed = _mix_with_identity(sigma, low)
    assert np.linalg.eigvalsh(mixed)[0] > 0.0
    assert abs(np.trace(mixed) - 1.0) <= 1e-12
    state = DensityMatrix(matrix=mixed, dims=DIMS22)
    assert is_ppt(state, tol=0.0).ok
    assert np.isfinite(relative_entropy(isotropic(2, 0.9), state))


def test_kkt_check_passes_on_counterexample_pair():
    rho, sigma = counterexample_pair()
    report = kkt_check(rho, sigma, tol=1e-8)
    assert report.passed
    assert report.complementarity_residual <= 1e-12
    assert report.k_gamma_min_eig >= -1e-12


def test_kkt_check_fails_on_tensor_square():
    rho, sigma = counterexample_pair()
    report = kkt_check(tensor(rho, rho), tensor(sigma, sigma), tol=1e-8)
    assert not report.passed
    assert report.complementarity_residual > 1e-4
    assert report.k_gamma_min_eig < -1e-4


def test_kkt_check_trivial_fixed_point():
    eye = density_matrix(np.eye(4) / 4, DIMS22)
    report = kkt_check(eye, eye)
    assert report.passed
    assert report.complementarity_residual <= 1e-14
    assert abs(report.k_gamma_min_eig) <= 1e-14
    assert frobenius(report.k_matrix) <= 1e-14


def test_kkt_check_rejects_wrong_optimum():
    rho = isotropic(2, 0.9)
    report = kkt_check(rho, isotropic(2, 0.45))
    assert not report.passed


def test_kkt_check_rejects_non_hermitian_sigma():
    rho, _ = counterexample_pair()
    with pytest.raises(HermiticityError):
        kkt_check(rho, _tilted_sigma())


def test_kkt_check_rejects_singular_sigma():
    rho = isotropic(2, 0.9)
    singular = density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]), DIMS22)
    with pytest.raises(ValueError, match="kkt_check_maxcorr"):
        kkt_check(rho, singular)


def test_kkt_check_maxcorr_random_alphas():
    rng = np.random.default_rng(24)
    for k in (2, 3):
        for _ in range(5):
            a = hermitianize(random_density(rng, k))
            report = kkt_check_maxcorr(a)
            assert report.passed
            assert report.scalar_margin is not None and report.scalar_margin >= -1e-12
            assert report.l_min_eig >= -1e-10
            assert report.sigma_l_residual <= 1e-10


def test_kkt_check_maxcorr_diagonal_alpha_boundary():
    report = kkt_check_maxcorr(np.diag([0.6, 0.4]))
    assert report.passed
    assert report.scalar_margin == pytest.approx(1.0 - np.sqrt(0.24) * (np.log(0.6) - np.log(0.4)) / 0.2, abs=1e-12)


def _maxcorr_reference_k(alpha):
    """K of the max-correlated certificate filled entry by entry: -alpha o f
    on the live |ii> x |jj> pairs, 1 on a dead |ii>, and 1 - lambda_ij on
    |ij>, i != j, with lambda_ij = 1 - min(1, |alpha_ij| f_ij) when both
    diagonal weights are live and 1 otherwise."""
    a = hermitianize(np.asarray(alpha, dtype=complex))
    k = a.shape[0]
    d = np.clip(np.real(np.diag(a)), 0.0, None)
    f = divided_difference_log(d)
    live = d > DEFAULT_FLOOR
    want = np.zeros((k * k, k * k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if i == j:
                want[i * k + i, i * k + i] = 0.0 if live[i] else 1.0
                continue
            lam = 1.0
            if live[i] and live[j]:
                want[i * k + i, j * k + j] = -a[i, j] * f[i, j]
                lam = 1.0 - min(1.0, abs(a[i, j]) * f[i, j])
            want[i * k + j, i * k + j] = 1.0 - lam
    return want


@pytest.mark.parametrize(
    "alpha",
    [
        np.diag([0.6, 0.4, 0.0]),
        np.outer(np.sqrt([0.5, 0.3, 0.2]), np.sqrt([0.5, 0.3, 0.2])),
        np.outer(np.sqrt([0.6, 0.4 - 1e-13, 1e-13]), np.sqrt([0.6, 0.4 - 1e-13, 1e-13])),
    ],
    ids=["dead-index", "rank-one", "rank-one-coupled-to-dead-index"],
)
def test_kkt_check_maxcorr_k_matrix_matches_entrywise_reference(alpha):
    report = kkt_check_maxcorr(alpha)
    assert report.passed
    assert np.abs(report.k_matrix - _maxcorr_reference_k(alpha)).max() <= 1e-14


def test_kkt_check_maxcorr_validates_alpha():
    with pytest.raises(ValueError):
        kkt_check_maxcorr(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        kkt_check_maxcorr(np.array([[1.1, 0.0], [0.0, -0.1]]))


def test_kkt_maxcorr_consistent_with_optimizer():
    rng = np.random.default_rng(25)
    a = hermitianize(random_definite_density(rng, 2, mix=0.3))
    res = minimize_rel_entropy(max_correlated(a))
    assert res.bound_bits == pytest.approx(maxcorr_bound(a).bound_bits, abs=1e-6)
    assert kkt_check_maxcorr(a).passed


def test_additivity_check_isotropic_self_additive():
    rho = isotropic(2, 0.9)
    sigma = isotropic_bound(2, 0.9).sigma_opt
    report = additivity_check(rho, sigma)
    assert report.commutes
    assert report.commutator_norm <= 1e-12
    assert report.grad_pt_min_eig == pytest.approx(-0.6, abs=1e-9)
    assert report.additive_self
    assert not report.additive_universal


def test_additivity_check_counterexample_not_certified():
    rho, sigma = counterexample_pair()
    report = additivity_check(rho, sigma)
    assert not report.commutes
    assert not report.additive_self
    assert not report.additive_universal


def test_additivity_check_universal_for_separable_diagonal():
    rho = density_matrix(np.diag([0.4, 0.1, 0.2, 0.3]), DIMS22)
    report = additivity_check(rho, rho)
    assert report.commutes
    assert report.additive_universal

