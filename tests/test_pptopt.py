"""PPT membership, Dykstra projection, the optimizer, and the certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_definite_density, random_density, random_hermitian
from pptbound.entropy import relative_entropy, shannon_entropy
from pptbound.formulas import (
    bell_z2_bound,
    isotropic_bound,
    maxcorr_bound,
    nonadditivity_experiment,
    pure_state_bound,
)
from pptbound.linalg import (
    DEFAULT_FLOOR,
    BipartiteDims,
    HermiticityError,
    SupportError,
    _simplex,
    dd_gradient,
    divided_difference_log,
    frobenius,
    hermitianize,
    partial_transpose,
)
from pptbound import linalg, pptopt
from pptbound.pptopt import (
    OptimizerConfig,
    _mix_with_identity,
    is_ppt,
    kkt_check,
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
        assert is_ppt(state).min_eig >= -1e-10
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
    assert is_ppt(out.state).min_eig >= -1e-10


@given(
    st.one_of(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=256),
        # Ties: every value drawn from a pool of at most four.
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=256)
        ),
    )
)
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


def test_project_ppt_keeps_real_input_real():
    rng = np.random.default_rng(24)
    dims = BipartiteDims(3, 3)
    for _ in range(5):
        x = random_hermitian(rng, 9).real
        out = project_ppt(x, dims)
        assert out.state.matrix.dtype == np.float64
        want = project_ppt(x.astype(complex), dims)
        assert want.state.matrix.dtype == np.complex128
        assert frobenius(out.state.matrix - want.state.matrix) <= 1e-12


def _eigh_counter(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    return calls


def _max_variational_gap(x, p, dims, rng, extra=()):
    """Largest <x - p, y - p> over I/n, ``extra`` and four random product
    states y; at the projection p of x onto a convex set holding them all,
    it is at most 0."""
    products = [np.kron(random_density(rng, dims.d_a), random_density(rng, dims.d_b)) for _ in range(4)]
    ys = [np.eye(dims.total) / dims.total, *extra, *products]
    return max(np.vdot(x - p, y - p).real for y in ys)


def test_project_ppt_exits_after_one_eigh_when_gamma_side_is_psd(monkeypatch):
    # The Gamma(S)-side projection of I/16 + rho (x) rho is already PSD, so
    # it is the PPT projection and no Dykstra cycle follows.
    rho, sigma = counterexample_pair()
    rho2, sigma2 = tensor(rho, rho), tensor(sigma, sigma)
    x = np.eye(16) / 16 + rho2.matrix
    calls = _eigh_counter(monkeypatch)
    out = project_ppt(x, rho2.dims)
    assert calls == [1]
    assert out.cycles == 1 and out.converged
    assert out.residual == 0.0
    p = out.state.matrix
    assert np.linalg.eigvalsh(p)[0] >= 0.0
    assert np.linalg.eigvalsh(partial_transpose(p, rho2.dims))[0] >= -1e-14
    assert abs(np.trace(p) - 1.0) <= 1e-14
    rng = np.random.default_rng(27)
    assert _max_variational_gap(x, p, rho2.dims, rng, extra=[sigma2.matrix]) <= 1e-12


def test_project_ppt_runs_dykstra_from_a_gamma_side_that_is_not_psd(monkeypatch):
    # The first cycle is the Gamma(S) side alone; every later one projects
    # onto both sets, one eigh each.
    x = random_hermitian(np.random.default_rng(0), 4)
    calls = _eigh_counter(monkeypatch)
    out = project_ppt(x, DIMS22)
    assert out.converged and out.cycles > 1
    assert len(calls) == 2 * out.cycles - 1
    assert _max_variational_gap(x, out.state.matrix, DIMS22, np.random.default_rng(28)) <= 1e-12


def test_minimize_returns_zero_for_ppt_input():
    rho = isotropic(2, 0.4)
    res = minimize_rel_entropy(rho)
    assert res.bound_bits == 0.0
    assert res.iterations == 0
    assert res.converged
    assert frobenius(res.sigma_opt.matrix - rho.matrix) == 0.0


def test_minimize_ppt_input_returns_complex_copy():
    rho = DensityMatrix(matrix=np.eye(4) / 4, dims=DIMS22)
    res = minimize_rel_entropy(rho)
    assert res.sigma_opt is not rho
    assert res.sigma_opt.matrix.dtype == np.complex128
    assert not np.shares_memory(res.sigma_opt.matrix, rho.matrix)
    assert np.array_equal(res.sigma_opt.matrix, rho.matrix)


def test_minimize_matches_isotropic_closed_form():
    res = minimize_rel_entropy(isotropic(2, 0.75))
    assert res.converged
    assert res.bound_bits == pytest.approx(isotropic_bound(2, 0.75).bound_bits, abs=1e-7)


def test_minimize_real_state_agrees_with_its_phase_rotation():
    # rho is real, so the solve runs in real arithmetic; the local diagonal
    # phases make an equivalent complex rho that runs in complex arithmetic.
    rho, _ = counterexample_pair()
    d_a = np.exp(1j * np.array([0.0, 0.7]))
    d_b = np.exp(1j * np.array([0.3, -1.1]))
    u = np.kron(d_a, d_b)
    rotated = DensityMatrix(matrix=u[:, None] * rho.matrix * u.conj()[None, :], dims=rho.dims)
    real = minimize_rel_entropy(rho)
    cplx = minimize_rel_entropy(rotated)
    assert real.converged and cplx.converged
    assert abs(real.bound_bits - cplx.bound_bits) <= 1e-9
    assert real.sigma_opt.matrix.dtype == np.complex128
    assert cplx.sigma_opt.matrix.dtype == np.complex128


def test_minimize_bound_is_attained_by_reported_sigma():
    rho = bell_diagonal([0.6, 0.25, 0.1, 0.05])
    res = minimize_rel_entropy(rho)
    assert res.converged
    assert is_ppt(res.sigma_opt).min_eig >= -1e-9
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
        DensityMatrix(matrix=np.eye(4) / 2, dims=DIMS22),
        density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]), DIMS22),
    ],
    ids=["nan", "non-hermitian", "other-dims", "wrong-size", "trace-two", "off-support"],
)
def test_minimize_rejects_bad_initial(initial):
    with pytest.raises(ValueError, match="initial"):
        minimize_rel_entropy(isotropic(2, 0.9), initial=initial)


def test_minimize_rejects_trace_off_one():
    rho = isotropic(2, 0.9)
    for m in (2 * rho.matrix, np.eye(4, dtype=complex) / 2):
        with pytest.raises(ValueError, match="rho trace = 2"):
            minimize_rel_entropy(DensityMatrix(matrix=m, dims=DIMS22))
    near = minimize_rel_entropy(DensityMatrix(matrix=(1 - 5e-11) * rho.matrix, dims=DIMS22))
    assert near.converged
    assert near.bound_bits == pytest.approx(isotropic_bound(2, 0.9).bound_bits, abs=1e-7)


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
    # A rank-2 3x3 state keeps the PSD side of its projections active, so
    # a one-cycle budget caps them.
    monkeypatch.setattr(pptopt, "DYKSTRA_ITERS", 1)
    rho = density_matrix(random_density(np.random.default_rng(700), 9, rank=2), BipartiteDims(3, 3))
    res = minimize_rel_entropy(rho, OptimizerConfig(max_iters=200))
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


@pytest.mark.parametrize("seed", range(6))
def test_minimize_bound_is_finite_on_random_pure_states(seed):
    # rho = g g^dag with g a complex Gaussian of default_rng(9010 + seed).
    # The final mix leaves sigma positive definite with its least eigenvalue
    # near 1e-10, under the line search's FACE_TOL wall; the bound there is
    # still the finite relative entropy.  The cap keeps the solves short.
    rng = np.random.default_rng(9010 + seed)
    g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    g /= np.linalg.norm(g)
    rho = density_matrix(np.outer(g, g.conj()), BipartiteDims(3, 3))
    schmidt = np.linalg.svd(g.reshape(3, 3), compute_uv=False) ** 2
    res = minimize_rel_entropy(rho, OptimizerConfig(max_iters=40))
    assert np.isfinite(res.bound_bits)
    assert res.bound_bits == pytest.approx(relative_entropy(rho, res.sigma_opt), abs=1e-9)
    assert res.bound_bits >= shannon_entropy(schmidt) - 1e-9


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
    assert is_ppt(state).min_eig >= 0.0
    assert np.isfinite(relative_entropy(isotropic(2, 0.9), state))


def test_mix_with_identity_clears_the_kernel_wall_at_large_n():
    # A fixed FINAL_MIX weight would leave FINAL_MIX / n under DEFAULT_FLOOR.
    n = 1024
    sigma = np.zeros((n, n))
    sigma[0, 0] = 1.0
    assert np.diag(_mix_with_identity(sigma, 0.0)).min() > DEFAULT_FLOOR


def test_kkt_check_passes_on_counterexample_pair():
    rho, sigma = counterexample_pair()
    report = kkt_check(rho, sigma, tol=1e-8)
    assert report.passed
    assert report.complementarity_residual <= 1e-12
    assert report.k_gamma_min_eig >= -1e-12
    assert report.sigma_gamma_min_eig >= -1e-12


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


def test_kkt_check_rejects_entangled_sigma():
    # sigma = rho makes K = 1 - rho rho^-1 = 0, which meets every condition
    # on K, but sigma is not PPT.
    rho = isotropic(2, 0.9)
    report = kkt_check(rho, rho)
    assert not report.passed
    assert report.complementarity_residual <= 1e-12
    assert abs(report.k_gamma_min_eig) <= 1e-12
    assert report.sigma_gamma_min_eig == pytest.approx(-0.4, rel=1e-12)


def test_kkt_check_rejects_non_hermitian_sigma():
    rho, _ = counterexample_pair()
    with pytest.raises(HermiticityError):
        kkt_check(rho, _tilted_sigma())


def test_kkt_check_rejects_singular_sigma():
    rho = isotropic(2, 0.9)
    singular = density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]), DIMS22)
    with pytest.raises(SupportError, match="null space"):
        kkt_check(rho, singular)


@pytest.mark.parametrize(
    "p", [[0.5, 0.5], [0.8, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.6, 0.4 - 1e-9, 1e-9], [0.5, 0.3, 0.2]]
)
def test_kkt_check_certifies_pure_state_schmidt_optimum(p):
    # sigma_opt keeps the Schmidt weights on |ii> and is singular on every
    # |ij>, i != j, where the pure state has no weight.
    s = np.sqrt(p)
    alpha = np.outer(s, s)
    maxcorr = kkt_check(max_correlated(alpha), maxcorr_bound(alpha).sigma_opt)
    for report in (kkt_check(pure_state(p), pure_state_bound(p).sigma_opt), maxcorr):
        assert report.passed
        assert report.complementarity_residual <= 1e-14
        assert report.k_gamma_min_eig >= -1e-14
        assert report.sigma_gamma_min_eig >= -1e-14


def test_kkt_check_rejects_wrong_singular_optimum():
    report = kkt_check(pure_state([0.8, 0.2]), max_correlated(np.diag([0.5, 0.5])))
    assert not report.passed
    assert report.complementarity_residual == pytest.approx(0.3 * np.sqrt(2.0), rel=1e-12)
    assert report.k_gamma_min_eig == pytest.approx(-0.6, rel=1e-12)


@pytest.mark.parametrize("check", [kkt_check, relative_entropy])
def test_pair_checks_reject_mismatched_dims(check):
    with pytest.raises(ValueError, match="dimension mismatch: rho 2x2, sigma 3x3"):
        check(isotropic(2, 0.9), isotropic(3, 0.5))


def test_kkt_check_maxcorr_random_alphas():
    rng = np.random.default_rng(24)
    for k in (2, 3):
        off = ~np.eye(k, dtype=bool)
        for rank in range(1, k + 1):
            for _ in range(5):
                a = hermitianize(random_density(rng, k, rank))
                report = kkt_check(max_correlated(a), maxcorr_bound(a).sigma_opt)
                assert report.passed
                # sigma's kernel holds every |ij>, i != j, and K is 1 there.
                k_off = np.real(np.diag(report.k_matrix)).reshape(k, k)[off]
                assert (k_off == 1.0).all()


def test_kkt_check_maxcorr_diagonal_alpha_boundary():
    alpha = np.diag([0.6, 0.4])
    report = kkt_check(max_correlated(alpha), maxcorr_bound(alpha).sigma_opt)
    assert report.passed


def _maxcorr_reference_k(alpha):
    """K of the max-correlated certificate filled entry by entry: -alpha o f
    on the live |ii> x |jj> pairs, 0 on a live |ii>, and 1 on the kernel of
    sigma, a dead |ii> or any |ij>, i != j."""
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
            if live[i] and live[j]:
                want[i * k + i, j * k + j] = -a[i, j] * f[i, j]
            want[i * k + j, i * k + j] = 1.0
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
    report = kkt_check(max_correlated(alpha), maxcorr_bound(alpha).sigma_opt)
    assert report.passed
    assert np.abs(report.k_matrix - _maxcorr_reference_k(alpha)).max() <= 1e-14


def test_kkt_check_maxcorr_validates_alpha():
    # maxcorr_bound supplies the sigma that kkt_check certifies, so it is
    # where an invalid alpha must stop the max-correlated certificate.
    with pytest.raises(ValueError, match="^alpha: trace invariant"):
        maxcorr_bound(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="^alpha: positivity invariant"):
        maxcorr_bound(np.array([[1.1, 0.0], [0.0, -0.1]]))


def test_kkt_maxcorr_consistent_with_optimizer():
    rng = np.random.default_rng(25)
    a = hermitianize(random_definite_density(rng, 2, mix=0.3))
    res = minimize_rel_entropy(max_correlated(a))
    assert res.bound_bits == pytest.approx(maxcorr_bound(a).bound_bits, abs=1e-6)
    assert kkt_check(max_correlated(a), maxcorr_bound(a).sigma_opt).passed


def _swap_pair():
    """rho = P_s / 3, with P_s the projector onto the symmetric subspace of
    two qubits, and sigma = SWAP / 2.  K = 1 - 2 P_s / 3 meets every
    condition of the certificate, but sigma has eigenvalue -1/2 on the
    singlet, so it is no state."""
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    rho = DensityMatrix(matrix=(np.eye(4) + swap) / 6, dims=DIMS22)
    return rho, DensityMatrix(matrix=swap / 2, dims=DIMS22)


@pytest.mark.parametrize("check", [kkt_check, relative_entropy])
def test_pair_checks_reject_sigma_below_eig_tol(check):
    rho, sigma = _swap_pair()
    with pytest.raises(ValueError, match="sigma is not PSD: least eigenvalue -5.000e-01"):
        check(rho, sigma)
    rho = pure_state([0.8, 0.2])
    with pytest.raises(ValueError, match="sigma is not PSD"):
        check(rho, DensityMatrix(matrix=np.diag([0.8, -2e-10, 0.0, 0.2]).astype(complex), dims=DIMS22))


@pytest.mark.parametrize("check", [kkt_check, relative_entropy])
def test_pair_checks_reject_rho_below_eig_tol(check):
    # rho has weight only on sigma's support, so a check that never looks at
    # rho's spectrum would pass the pair.
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    rho[2, 3] = rho[3, 2] = 0.1
    sigma = np.diag([0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="rho is not PSD: least eigenvalue -1.000e-01"):
        check(DensityMatrix(matrix=rho, dims=DIMS22), DensityMatrix(matrix=sigma, dims=DIMS22))


def test_pair_checks_accept_sigma_within_eig_tol():
    # -5e-11 sits on |01>, where the pure state has no weight.
    rho = pure_state([0.8, 0.2])
    sigma = DensityMatrix(matrix=np.diag([0.8, -5e-11, 0.0, 0.2]).astype(complex), dims=DIMS22)
    report = kkt_check(rho, sigma)
    assert report.passed
    assert not report.commutes
    assert relative_entropy(rho, sigma) == pytest.approx(shannon_entropy([0.8, 0.2]), abs=1e-12)


def test_optimizer_points_are_exactly_hermitian(monkeypatch):
    # SpectralPoint hands sigma to eigh unsymmetrized, which is exact only
    # if every point the optimizer builds is Hermitian entry by entry.
    dtypes = set()
    spectral_point = pptopt.SpectralPoint

    def checked(rho, sigma, *args):
        assert np.array_equal(sigma, sigma.conj().T)
        dtypes.add(sigma.dtype)
        return spectral_point(rho, sigma, *args)

    monkeypatch.setattr(pptopt, "SpectralPoint", checked)
    minimize_rel_entropy(max_correlated([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]]))
    minimize_rel_entropy(isotropic(3, 0.8))
    minimize_rel_entropy(bell_diagonal([0.7, 0.2, 0.06, 0.04]), invariance_map=bell_twirl)
    nonadditivity_experiment()
    assert dtypes == {np.dtype(float), np.dtype(complex)}


def test_real_solve_projects_a_complex_initial_in_float64(monkeypatch):
    # A random start of the kind --restarts draws: complex, full rank.
    rho, _ = counterexample_pair()
    rng = np.random.default_rng(24)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    raw = g @ g.conj().T
    start = DensityMatrix(matrix=0.9 * raw / np.trace(raw).real + 0.1 * np.eye(4) / 4, dims=rho.dims)
    dtypes = []
    project, spectral_point = pptopt.project_ppt, pptopt.SpectralPoint

    def projected(mat, dims):
        dtypes.append(mat.dtype)
        return project(mat, dims)

    def point(rho_mat, sigma, *args):
        dtypes.extend((rho_mat.dtype, sigma.dtype))
        return spectral_point(rho_mat, sigma, *args)

    monkeypatch.setattr(pptopt, "project_ppt", projected)
    monkeypatch.setattr(pptopt, "SpectralPoint", point)
    res = minimize_rel_entropy(rho, initial=start)
    assert res.converged
    assert len(dtypes) > 3
    assert set(dtypes) == {np.dtype(float)}


def _phase_rotated(state: DensityMatrix) -> DensityMatrix:
    """state conjugated by diag(e^{i theta_a}) (x) I, a local unitary that
    leaves every certificate value unchanged."""
    d = state.dims
    u = np.kron(np.exp(1j * np.linspace(0.3, 2.1, d.d_a)), np.ones(d.d_b))
    return DensityMatrix(matrix=u[:, None] * state.matrix * u.conj()[None, :], dims=d)


@pytest.mark.parametrize("square", [False, True], ids=["single", "tensor-square"])
def test_kkt_check_real_arithmetic_agrees_with_complex(square):
    rho, sigma = counterexample_pair()
    if square:
        rho, sigma = tensor(rho, rho), tensor(sigma, sigma)
    real = kkt_check(rho, sigma)
    rotated_rho = _phase_rotated(rho)
    assert np.imag(rotated_rho.matrix).any()
    cplx = kkt_check(rotated_rho, _phase_rotated(sigma))
    assert real.k_matrix.dtype == np.float64
    assert cplx.k_matrix.dtype == np.complex128
    for field in (
        "complementarity_residual", "k_gamma_min_eig", "sigma_gamma_min_eig", "grad_pt_min_eig", "commutator_norm"
    ):
        assert abs(getattr(real, field) - getattr(cplx, field)) <= 1e-14, field
    for flag in ("passed", "commutes", "additive_universal", "additive_self"):
        assert getattr(real, flag) == getattr(cplx, flag), flag
    assert real.passed is not square


def test_relative_entropy_follows_the_arithmetic_of_its_inputs(monkeypatch):
    # The pair's point is built by linalg.psd_point.
    seen = []
    point = linalg.SpectralPoint

    def recorded(rho, sigma, *args):
        seen.append((rho.dtype, sigma.dtype))
        return point(rho, sigma, *args)

    monkeypatch.setattr(linalg, "SpectralPoint", recorded)
    rho, sigma = counterexample_pair()
    assert relative_entropy(rho, sigma) == 0.18779749924411723
    rotated = relative_entropy(_phase_rotated(rho), _phase_rotated(sigma))
    assert seen == [(np.float64, np.float64), (np.complex128, np.complex128)]
    assert abs(rotated - 0.18779749924411723) <= 1e-14


def test_additivity_check_isotropic_self_additive():
    rho = isotropic(2, 0.9)
    sigma = isotropic_bound(2, 0.9).sigma_opt
    report = kkt_check(rho, sigma)
    assert report.commutes
    assert report.commutator_norm <= 1e-12
    assert report.grad_pt_min_eig == pytest.approx(-0.6, abs=1e-9)
    assert report.additive_self
    assert not report.additive_universal


def test_additivity_check_counterexample_not_certified():
    # The paper's phenomenon in one report: sigma is optimal for rho, but
    # nothing certifies sigma tensor sigma for rho tensor rho.
    rho, sigma = counterexample_pair()
    report = kkt_check(rho, sigma)
    assert report.passed
    assert not report.commutes
    assert not report.additive_self
    assert not report.additive_universal


def test_additivity_check_universal_for_separable_diagonal():
    rho = density_matrix(np.diag([0.4, 0.1, 0.2, 0.3]), DIMS22)
    report = kkt_check(rho, rho)
    assert report.commutes
    assert report.additive_universal


def _gradient_pairs():
    rng = np.random.default_rng(106)
    diag = density_matrix(np.diag([0.4, 0.1, 0.2, 0.3]), DIMS22)
    pairs = [(isotropic(k, f), isotropic_bound(k, f).sigma_opt) for k, f in ((2, 0.9), (3, 0.8))]
    pairs += [counterexample_pair(), (diag, diag)]
    pairs += [
        tuple(density_matrix(np.diag(rng.dirichlet(np.ones(4))), DIMS22) for _ in range(2)) for _ in range(3)
    ]
    return pairs


@pytest.mark.parametrize(
    "rho, sigma",
    _gradient_pairs(),
    ids=[
        "isotropic-2", "isotropic-3", "counterexample", "separable-diagonal", "diagonal-0", "diagonal-1", "diagonal-2"
    ],
)
def test_kkt_check_grad_pt_min_eig_is_the_gradient_spectrum(rho, sigma):
    # 1 - lambda_max(K^Gamma) against a separate spectrum of the gradient's
    # partial transpose.
    want = np.linalg.eigvalsh(partial_transpose(dd_gradient(rho.matrix, sigma.matrix), rho.dims))[0]
    assert abs(kkt_check(rho, sigma).grad_pt_min_eig - want) <= 1e-14


def test_kkt_check_transposes_and_diagonalizes_each_matrix_once(count_calls):
    pair = counterexample_pair()
    count_calls(linalg, "partial_transpose")
    calls = count_calls(np.linalg, "eigvalsh")
    kkt_check(*pair)
    assert calls == {"partial_transpose": 2, "eigvalsh": 3}


@pytest.mark.parametrize(
    "run, want",
    [
        (relative_entropy, 2),
        (kkt_check, 2),
        (lambda rho, sigma: minimize_rel_entropy(rho), 1),
        (lambda rho, sigma: nonadditivity_experiment(), 8),
    ],
    ids=["relative_entropy", "kkt_check", "minimize", "nonadditivity_experiment"],
)
def test_each_outside_matrix_is_admitted_once(count_calls, run, want):
    # One require_hermitian per outside matrix: the two-copy experiment
    # admits 2 in relative_entropy, 2 in each kkt_check, and rho and
    # initial in the solve.
    pair = counterexample_pair()
    calls = count_calls(linalg, "require_hermitian")
    run(*pair)
    assert calls["require_hermitian"] == want


def test_minimize_rejects_rho_below_eig_tol():
    # SWAP/2 has trace 1 and a PSD partial transpose, so it passes is_ppt.
    swap = np.eye(4)[[0, 2, 1, 3]]
    rho = DensityMatrix(matrix=swap / 2, dims=DIMS22)
    assert is_ppt(rho).ok
    with pytest.raises(ValueError, match="rho is not PSD: least eigenvalue -5.000e-01"):
        minimize_rel_entropy(rho)


@pytest.mark.parametrize(
    "check",
    [relative_entropy, kkt_check, lambda rho, sigma: minimize_rel_entropy(rho)],
    ids=["relative_entropy", "kkt_check", "minimize"],
)
def test_entry_points_reject_rho_off_its_dims(check):
    rho = DensityMatrix(matrix=isotropic(3, 0.8).matrix, dims=DIMS22)
    sigma = DensityMatrix(matrix=isotropic_bound(3, 0.8).sigma_opt.matrix, dims=DIMS22)
    with pytest.raises(ValueError, match="rho of size 9 does not match dims 2x2"):
        check(rho, sigma)

