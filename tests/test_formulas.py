"""Closed-form bounds, their optimizing states, and the two-copy experiment."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from pptbound.entropy import LN2, psd_entropy, relative_entropy, shannon_entropy
from pptbound.formulas import (
    EXPERIMENT_CONFIG,
    bell_z2_bound,
    isotropic_bound,
    maxcorr_bound,
    nonadditivity_experiment,
    pure_state_bound,
)
from pptbound.linalg import frobenius, hermitianize, partial_trace
from pptbound import formulas, pptopt
from pptbound.pptopt import OptimizerConfig, is_ppt, kkt_check, minimize_rel_entropy
from pptbound.states import bell_diagonal, counterexample_pair, isotropic, max_correlated, pure_state, tensor


def test_isotropic_bound_frozen_value():
    assert isotropic_bound(2, 0.75).bound_bits == pytest.approx(0.18872187554086717, abs=1e-15)


def test_isotropic_bound_edges():
    assert isotropic_bound(2, 0.5).bound_bits == 0.0
    assert isotropic_bound(2, 1.0).bound_bits == pytest.approx(1.0, abs=1e-14)
    assert isotropic_bound(3, 1.0).bound_bits == pytest.approx(np.log2(3.0), abs=1e-14)
    with pytest.raises(ValueError):
        isotropic_bound(1, 0.5)
    with pytest.raises(ValueError):
        isotropic_bound(2, 1.5)


@pytest.mark.parametrize("k,f", [(2, 0.75), (2, 0.95), (3, 0.9)])
def test_isotropic_sigma_opt_is_ppt_and_certified(k, f):
    result = isotropic_bound(k, f)
    assert is_ppt(result.sigma_opt).min_eig >= -1e-10
    assert kkt_check(isotropic(k, f), result.sigma_opt, tol=1e-8).passed


@given(st.integers(2, 4), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_isotropic_bound_attained_by_reported_sigma(k, f):
    result = isotropic_bound(k, f)
    direct = relative_entropy(isotropic(k, f), result.sigma_opt)
    assert direct == pytest.approx(result.bound_bits, abs=1e-10)


def test_bell_z2_bound_zero_in_ppt_region():
    result = bell_z2_bound(np.array([0.4, 0.3, 0.2, 0.1]))
    assert result.bound_bits == 0.0
    assert frobenius(result.sigma_opt.matrix - bell_diagonal([0.4, 0.3, 0.2, 0.1]).matrix) <= 1e-14


def test_bell_z2_bound_matches_isotropic_family():
    f = 0.75
    p = np.array([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])
    assert bell_z2_bound(p).bound_bits == pytest.approx(isotropic_bound(2, f).bound_bits, abs=1e-14)


def test_bell_z2_bound_permutation_invariant():
    rng = np.random.default_rng(26)
    p = np.array([0.62, 0.2, 0.1, 0.08])
    base = bell_z2_bound(p)
    for _ in range(5):
        perm = rng.permutation(4)
        shuffled = bell_z2_bound(p[perm])
        assert shuffled.bound_bits == pytest.approx(base.bound_bits, abs=1e-14)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bell_z2_bound_attained_by_reported_sigma(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4))
    result = bell_z2_bound(p)
    rho = bell_diagonal(p)
    assert is_ppt(result.sigma_opt).min_eig >= -1e-10
    assert relative_entropy(rho, result.sigma_opt) == pytest.approx(result.bound_bits, abs=1e-10)


def test_bell_z2_bound_pure_label_degenerate_case():
    result = bell_z2_bound(np.array([1.0, 0.0, 0.0, 0.0]))
    assert result.bound_bits == pytest.approx(1.0, abs=1e-14)
    result.sigma_opt.validate()
    assert is_ppt(result.sigma_opt).min_eig >= -1e-10

    # Near-pure weights that sum to 1 + 5e-13: the minority labels must be
    # rescaled by their own sum, not by 1 - a.
    a = 1.0 - 1e-14
    p = np.array([a, 1e-14 + 5e-13, 0.0, 0.0])
    result = bell_z2_bound(p)
    assert result.bound_bits == pytest.approx(1.0 + a * np.log2(a) + (1.0 - a) * np.log2(1.0 - a), abs=1e-14)
    result.sigma_opt.validate()
    assert is_ppt(result.sigma_opt).min_eig >= -1e-10
    assert relative_entropy(bell_diagonal(p), result.sigma_opt) == pytest.approx(result.bound_bits, abs=1e-10)


def test_maxcorr_bound_is_entropy_difference():
    rng = np.random.default_rng(27)
    for k in (2, 3):
        a = hermitianize(random_density(rng, k))
        rho = max_correlated(a)
        reduced = partial_trace(rho.matrix, rho.dims, "A")
        want = shannon_entropy(np.linalg.eigvalsh(reduced)) - psd_entropy(rho.matrix) / LN2
        assert maxcorr_bound(a).bound_bits == pytest.approx(want, abs=1e-10)


def test_maxcorr_sigma_opt_diagonal_and_ppt():
    # The second alpha is admitted untouched (its least eigenvalue is within
    # EIG_TOL) with a -5e-11 diagonal, which sigma_opt must not inherit.
    for a in (np.array([[0.6, 0.3], [0.3, 0.4]]), np.array([[1.0 + 5e-11, 0.0], [0.0, -5e-11]])):
        sig = maxcorr_bound(a).sigma_opt
        assert is_ppt(sig).min_eig >= -1e-12
        off = sig.matrix - np.diag(np.diag(sig.matrix))
        assert frobenius(off) == 0.0
        assert np.linalg.eigvalsh(sig.matrix).min() >= 0.0
        sig.validate()


def test_maxcorr_bound_additive_over_kron():
    rng = np.random.default_rng(28)
    a = hermitianize(random_density(rng, 2))
    b = hermitianize(random_density(rng, 2))
    joint = maxcorr_bound(np.kron(a, b)).bound_bits
    assert joint == pytest.approx(maxcorr_bound(a).bound_bits + maxcorr_bound(b).bound_bits, abs=1e-10)


def test_pure_state_bound_frozen_value():
    assert pure_state_bound(np.array([0.8, 0.2])).bound_bits == pytest.approx(
        0.7219280948873623, abs=1e-15
    )


def test_pure_state_is_maxcorr_with_rank_one_alpha():
    p = np.array([0.7, 0.3])
    alpha = np.sqrt(np.outer(p, p))
    assert maxcorr_bound(alpha).bound_bits == pytest.approx(pure_state_bound(p).bound_bits, abs=1e-12)
    assert frobenius(max_correlated(alpha).matrix - pure_state(p).matrix) <= 1e-14


def test_pure_state_bound_attained():
    p = np.array([0.8, 0.2])
    result = pure_state_bound(p)
    assert relative_entropy(pure_state(p), result.sigma_opt) == pytest.approx(
        result.bound_bits, abs=1e-10
    )


def test_two_copy_solve_stops_on_certificate():
    rep = nonadditivity_experiment(EXPERIMENT_CONFIG)
    assert rep.optimizer.converged
    assert rep.optimizer.final_grad_map_norm <= 1e-9
    assert rep.optimizer.iterations <= 25


def test_two_copy_solve_starts_at_the_refuted_point():
    # sigma* (x) sigma* lies 3.5e-7 bits above the two-copy optimum, so a
    # solve started there skips the iterations a start at I/16 spends
    # getting back to it, and ends at the same value.
    rep = nonadditivity_experiment(EXPERIMENT_CONFIG)
    rho, _ = counterexample_pair()
    cold = minimize_rel_entropy(tensor(rho, rho), EXPERIMENT_CONFIG)
    assert rep.optimizer.iterations <= 12
    assert abs(rep.b2_bits - cold.bound_bits) <= 1e-12


def test_two_copy_solve_projection_cycles(monkeypatch):
    cycles = []
    project = pptopt.project_ppt

    def counted(mat, dims):
        out = project(mat, dims)
        cycles.append(out.cycles)
        return out

    monkeypatch.setattr(pptopt, "project_ppt", counted)
    nonadditivity_experiment(EXPERIMENT_CONFIG)
    assert sum(cycles) <= 80


def test_two_copy_every_projection_takes_one_cycle(monkeypatch):
    # Each projection of the solve lands where the Gamma(S) side alone is
    # already PSD, so it is exact after one cycle.
    cycles = []
    project = pptopt.project_ppt

    def counted(mat, dims):
        out = project(mat, dims)
        cycles.append(out.cycles)
        return out

    monkeypatch.setattr(pptopt, "project_ppt", counted)
    nonadditivity_experiment(EXPERIMENT_CONFIG)
    assert len(cycles) > 1
    assert cycles == [1] * len(cycles)


def test_nonadditivity_experiment_report():
    cfg = OptimizerConfig(max_iters=20_000, grad_map_tol=1e-8)
    rep = nonadditivity_experiment(cfg, restarts=1, seed=3)
    assert rep.b1_bits == pytest.approx(0.18779749924411723, abs=1e-9)
    assert rep.kkt_single.passed
    assert not rep.kkt_double.passed
    assert rep.optimizer.converged
    assert rep.gap_bits == pytest.approx(2 * rep.b1_bits - rep.b2_bits, abs=1e-15)
    assert rep.gap_bits > 1e-7
    assert len(rep.restart_b2_bits) == 1
    assert rep.b2_spread_bits <= 1e-6


def test_restarts_draw_the_documented_starts(monkeypatch):
    seen = []

    def record(rho, cfg=None, invariance_map=None, initial=None):
        seen.append(initial.matrix)
        return SimpleNamespace(bound_bits=0.375)

    monkeypatch.setattr(formulas, "minimize_rel_entropy", record)
    nonadditivity_experiment(EXPERIMENT_CONFIG, restarts=2, seed=3)
    _, sigma = counterexample_pair()
    assert np.array_equal(seen[0], tensor(sigma, sigma).matrix)
    rng = np.random.default_rng(3)
    n = 16
    for got in seen[1:]:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw = g @ g.conj().T
        assert np.array_equal(got, 0.9 * raw / np.real(np.trace(raw)) + 0.1 * np.eye(n) / n)
    assert len(seen) == 3
    # Without restarts the seed is not read: numpy rejects seed -1, the run does not.
    seen.clear()
    nonadditivity_experiment(EXPERIMENT_CONFIG, restarts=0, seed=-1)
    assert len(seen) == 1
