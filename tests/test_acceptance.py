"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance here is part of the acceptance contract; do
not loosen them to make a failure go away.
"""

import time

import numpy as np
import scipy.linalg

from conftest import random_definite_density, random_density, random_hermitian
from pptbound.entropy import relative_entropy
from pptbound.formulas import (
    bell_z2_bound,
    isotropic_bound,
    maxcorr_bound,
    nonadditivity_experiment,
    pure_state_bound,
)
from pptbound.linalg import BipartiteDims, dd_gradient, frobenius, hermitianize, partial_transpose
from pptbound.pptopt import kkt_check, minimize_rel_entropy, project_ppt
from pptbound.states import (
    bell_diagonal,
    bell_twirl,
    counterexample_pair,
    density_matrix,
    entanglement_fidelity,
    isotropic,
    max_correlated,
    max_entangled_projector,
    pure_state,
    tensor,
)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {name}{suffix}")


def test_criterion_01_isotropic_closed_form_agreement():
    worst = 0.0
    slowest = 0.0
    for k in (2, 3):
        for f in (0.6, 0.75, 0.9, 1.0):
            t0 = time.perf_counter()
            res = minimize_rel_entropy(isotropic(k, f))
            elapsed = time.perf_counter() - t0
            slowest = max(slowest, elapsed)
            worst = max(worst, abs(res.bound_bits - isotropic_bound(k, f).bound_bits))
            assert res.converged, (k, f)
    ok = worst <= 1e-5 and slowest < 30.0
    report(1, "isotropic optimizer vs closed form", ok, f"worst err {worst:.2e}, slowest run {slowest:.1f}s")
    assert ok


def test_criterion_02_bell_z2_agreement():
    rng = np.random.default_rng(101)
    worst_opt = 0.0
    worst_identity = 0.0
    for _ in range(20):
        a = rng.uniform(0.5, 1.0)
        p = np.concatenate([[a], rng.dirichlet(np.ones(3)) * (1.0 - a)])
        closed = bell_z2_bound(p)
        rho = bell_diagonal(p)
        worst_identity = max(worst_identity, abs(relative_entropy(rho, closed.sigma_opt) - closed.bound_bits))
        res = minimize_rel_entropy(rho)
        worst_opt = max(worst_opt, abs(res.bound_bits - closed.bound_bits))
    ok = worst_opt <= 1e-5 and worst_identity <= 1e-10
    report(2, "Bell-mixture optimizer and displayed-optimum identity", ok,
           f"worst optimizer err {worst_opt:.2e}, worst identity err {worst_identity:.2e}")
    assert ok


def test_criterion_03_maxcorr_agreement_and_certificate():
    rng = np.random.default_rng(102)
    worst = 0.0
    certified = True
    for i in range(10):
        k = 2 if i < 5 else 3
        alpha = hermitianize(random_density(rng, k))
        res = minimize_rel_entropy(max_correlated(alpha))
        worst = max(worst, abs(res.bound_bits - maxcorr_bound(alpha).bound_bits))
        certified &= kkt_check(max_correlated(alpha), maxcorr_bound(alpha).sigma_opt, tol=1e-8).passed
    ok = worst <= 1e-5 and certified
    report(3, "maximally correlated optimizer vs entropy difference", ok,
           f"worst err {worst:.2e}, certificates {'all pass' if certified else 'FAILED'}")
    assert ok


def test_criterion_04_nonadditivity_reproduction():
    t0 = time.perf_counter()
    rep = nonadditivity_experiment(restarts=3, seed=11)
    elapsed = time.perf_counter() - t0
    gap_floor = max(1e-7, 100.0 * rep.b2_spread_bits)
    ok = (
        rep.kkt_single.passed
        and not rep.kkt_double.passed
        and rep.optimizer.converged
        and rep.gap_bits > gap_floor
        and elapsed < 600.0
    )
    report(4, "two-copy gap with certificates", ok,
           f"gap {rep.gap_bits:.3e} bits, restart spread {rep.b2_spread_bits:.1e}, "
           f"single {'PASS' if rep.kkt_single.passed else 'FAIL'}, "
           f"double {'FAIL' if not rep.kkt_double.passed else 'PASS'}, {elapsed:.0f}s")
    assert ok


def test_criterion_05_ppt_fidelity_cap_and_pt_spectrum():
    rng = np.random.default_rng(103)
    worst_excess = -1.0
    for k in (2, 3):
        cap = 1.0 / k + 1e-10
        for _ in range(200):
            raw = random_density(rng, k * k)
            out = project_ppt(raw, BipartiteDims(k, k))
            fid = entanglement_fidelity(out.state.matrix, k)
            worst_excess = max(worst_excess, fid - 1.0 / k)
            assert fid <= cap
    spectrum_ok = True
    for k in (2, 3):
        pt = partial_transpose(max_entangled_projector(k), BipartiteDims(k, k))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        want = np.sort(np.concatenate([
            np.full(k * (k - 1) // 2, -1.0 / k),
            np.full(k * (k + 1) // 2, 1.0 / k),
        ]))
        spectrum_ok &= bool(np.max(np.abs(eigs - want)) <= 1e-12)
    ok = worst_excess <= 1e-10 and spectrum_ok
    report(5, "PPT fidelity cap over 400 projections and PT spectrum", ok,
           f"max fidelity excess {worst_excess:.1e}, spectrum exact {spectrum_ok}")
    assert ok


def test_criterion_06_ppt_factor_does_not_change_bound():
    rho_ppt = density_matrix(np.diag([0.4, 0.1, 0.2, 0.3]), BipartiteDims(2, 2))
    rho_iso = isotropic(2, 0.8)
    joint = minimize_rel_entropy(tensor(rho_ppt, rho_iso))
    alone = minimize_rel_entropy(rho_iso)
    diff = abs(joint.bound_bits - alone.bound_bits)
    ok = diff <= 1e-4 and joint.converged and alone.converged
    report(6, "separable factor leaves the bound unchanged", ok, f"difference {diff:.2e}")
    assert ok


def test_criterion_07_pure_state_schmidt_entropy():
    worst = 0.0
    for schmidt in ([0.5, 0.5], [0.8, 0.2], [1 / 3, 1 / 3, 1 / 3]):
        p = np.array(schmidt)
        res = minimize_rel_entropy(pure_state(p))
        worst = max(worst, abs(res.bound_bits - pure_state_bound(p).bound_bits))
        assert res.converged
    ok = worst <= 1e-5
    report(7, "pure states reach the Schmidt entropy", ok, f"worst err {worst:.2e}")
    assert ok


def test_criterion_08_gradient_against_central_differences():
    rng = np.random.default_rng(104)
    h = 1e-5
    worst = 0.0
    for n in (4, 9):
        for _ in range(25):
            rho = random_density(rng, n)
            sigma = random_definite_density(rng, n, mix=0.2)
            delta = random_hermitian(rng, n)
            delta /= frobenius(delta)
            grad = dd_gradient(rho, sigma)
            up = np.trace(rho @ scipy.linalg.logm(sigma + h * delta)).real
            dn = np.trace(rho @ scipy.linalg.logm(sigma - h * delta)).real
            fd = (up - dn) / (2 * h)
            an = np.trace(grad @ delta).real
            worst = max(worst, abs(an - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-6
    report(8, "divided-difference gradient vs finite differences", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_09_twirl_restriction_and_monotonicity():
    worst_restrict = 0.0
    for p in ([0.62, 0.2, 0.1, 0.08], [0.85, 0.000431029394, 0.124144035, 0.0254249356]):
        rho = bell_diagonal(p)
        free = minimize_rel_entropy(rho)
        pinned = minimize_rel_entropy(rho, invariance_map=bell_twirl)
        worst_restrict = max(worst_restrict, abs(free.bound_bits - pinned.bound_bits))
    rng = np.random.default_rng(105)
    rho = bell_diagonal([0.6, 0.2, 0.15, 0.05])
    worst_gain = -np.inf
    for _ in range(100):
        sigma = density_matrix(random_definite_density(rng, 4), BipartiteDims(2, 2))
        gain = relative_entropy(rho, bell_twirl(sigma)) - relative_entropy(rho, sigma)
        worst_gain = max(worst_gain, gain)
    ok = worst_restrict <= 1e-5 and worst_gain <= 1e-10
    report(9, "twirl-restricted optimization and data processing", ok,
           f"restriction gap {worst_restrict:.2e}, max twirl gain {worst_gain:.2e}")
    assert ok


def test_criterion_10_additivity_reports():
    iso_ok = True
    for k, f in ((2, 0.9), (3, 0.8)):
        rep = kkt_check(isotropic(k, f), isotropic_bound(k, f).sigma_opt)
        iso_ok &= rep.additive_self and rep.commutes and rep.grad_pt_min_eig >= -1.0 - 1e-8
    rho, sigma = counterexample_pair()
    assert kkt_check(rho, sigma, tol=1e-8).passed
    counter = kkt_check(rho, sigma)
    ok = iso_ok and not counter.additive_self
    report(10, "self-additivity classification", ok,
           f"isotropic certified {iso_ok}, counterexample certified False={not counter.additive_self}")
    assert ok
