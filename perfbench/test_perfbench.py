"""Tests of the benchmark's own checks and tracer.

Each mutation test feeds one wrong value to a check and confirms that the
benchmark loop counts the operation as failed.  Run with

    python3 -m pytest -q perfbench/test_perfbench.py

The two-copy fixture solves the paper's experiment once (about 8 s).
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from pptbound import pptopt, states  # noqa: E402
from tracing import Tracer  # noqa: E402


def failures(op: workloads.Op, output) -> int:
    """Failed operations when ``op`` returns ``output``, as the loop counts them."""
    fake = workloads.Op(op.label, lambda: output, op.check)
    return run.run_loop([fake], 0.0)["failed"]


def assert_caught(op: workloads.Op, cases: list) -> None:
    """Each (wrong output, message) is counted as one failed operation, and
    the first check to reject it is the one whose message matches."""
    for output, message in cases:
        assert failures(op, output) == 1, message
        with pytest.raises(ref.CheckError, match=message):
            op.check(output)


def with_sigma(result, matrix: np.ndarray):
    state = states.DensityMatrix(matrix=matrix, dims=result.sigma_opt.dims)
    return dataclasses.replace(result, sigma_opt=state)


def not_psd(sigma: np.ndarray) -> np.ndarray:
    """Same trace, min eigenvalue pushed to -1e-6."""
    w, v = np.linalg.eigh(sigma)
    t = w[0] + 1e-6
    return sigma + t * (np.outer(v[:, -1], v[:, -1].conj()) - np.outer(v[:, 0], v[:, 0].conj()))


# ------------------------------------------------------------- references


def test_closed_forms_on_known_values():
    assert ref.isotropic_bits(2, 0.75) == pytest.approx(0.188721875540867, abs=1e-14)
    assert ref.isotropic_bits(3, 1.0) == pytest.approx(np.log2(3), abs=1e-15)
    assert ref.isotropic_bits(2, 0.5) == 0.0
    assert ref.bell_bits([0.75, 0.25, 0.0, 0.0]) == pytest.approx(ref.isotropic_bits(2, 0.75), abs=1e-15)
    assert ref.bell_bits([0.5, 0.5, 0.0, 0.0]) == 0.0
    assert ref.pure_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert ref.maxcorr_bits(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_tensor_square_and_partial_transpose_match_the_package():
    rho, _ = states.counterexample_pair()
    mine = ref.tensor_square(np.asarray(rho.matrix), 2, 2)
    theirs = states.tensor(rho, rho).matrix
    assert np.array_equal(mine, theirs)
    from pptbound.linalg import BipartiteDims, partial_transpose

    assert np.array_equal(ref.partial_transpose(mine, 4, 4), partial_transpose(mine, BipartiteDims(4, 4)))


def test_log_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sigma = g @ g.conj().T + 0.1 * np.eye(4)
    sigma /= np.trace(sigma).real
    rho, _ = states.counterexample_pair()
    rho = np.asarray(rho.matrix)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2.0

    def f(s):
        w, v = np.linalg.eigh(s)
        return float(np.real(np.trace(rho @ (v * np.log(w)) @ v.conj().T)))

    eps = 1e-6
    numeric = (f(sigma + eps * h) - f(sigma - eps * h)) / (2 * eps)
    analytic = float(np.real(np.trace(ref.log_gradient(rho, sigma) @ h)))
    assert analytic == pytest.approx(numeric, rel=1e-6)


def test_dual_lower_bound_is_tight_at_the_optimum_and_valid_elsewhere():
    k, f = 3, 0.75
    rho = np.asarray(states.isotropic(k, f).matrix)
    best = ref.isotropic_bits(k, f)
    phi = np.eye(k).reshape(k * k) / np.sqrt(k)
    sigma_star = np.outer(phi, phi) / (k + 1) + np.eye(k * k) / (k * (k + 1))
    assert ref.dual_lower_bound_bits(rho, sigma_star, k, k) == pytest.approx(best, abs=1e-12)
    assert ref.dual_lower_bound_bits(rho, np.eye(k * k) / k**2, k, k) <= best


def test_printed_values_match_to_one_unit_in_the_ninth_digit():
    ref.check_printed("0.188721876", 0.188721875540867, "iso")
    ref.check_printed("0", 0.0, "zero")
    for text, value in (("0.188721878", 0.188721875540867), ("1e-9", 0.0), ("x", 1.0)):
        with pytest.raises(ref.CheckError):
            ref.check_printed(text, value, "wrong")


# --------------------------------------------------------------- two_copy


@pytest.fixture(scope="module")
def two_copy(tmp_path_factory):
    (op,) = workloads.two_copy_ops(0, tmp_path_factory.mktemp("two_copy"), False)
    rep = op.run()
    assert failures(op, rep) == 0
    return op, rep


def test_two_copy_mutations_fail(two_copy):
    op, rep = two_copy
    sigma = np.asarray(rep.optimizer.sigma_opt.matrix)
    rho2 = ref.tensor_square(np.asarray(states.counterexample_pair()[0].matrix), 2, 2)
    replace = dataclasses.replace
    assert_caught(op, [
        (replace(rep, b1_bits=rep.b1_bits + 1e-8), r"b1 = S"),
        (replace(rep, kkt_single=replace(rep.kkt_single, passed=False)), "kkt_single"),
        (replace(rep, kkt_double=replace(rep.kkt_double, passed=True)), "kkt_double"),
        (replace(rep, optimizer=with_sigma(rep.optimizer, not_psd(sigma))), "not PSD"),
        (replace(rep, optimizer=with_sigma(rep.optimizer, rho2)), "not PPT"),
        (replace(rep, optimizer=with_sigma(rep.optimizer, sigma * (1 + 1e-6))), "trace"),
        (replace(rep, b2_bits=rep.b2_bits + 1e-8), r"b2 = S"),
        (replace(rep, gap_bits=rep.gap_bits + 1e-9), r"gap = 2 b1 - b2"),
    ])


def test_two_copy_ordering_and_gap_floor_fail(two_copy):
    """A b1 that agrees with its reference but leaves 2 b1 under b2, or the
    gap under the floor, is rejected by the ordering and floor checks."""
    _, rep = two_copy
    rho2 = ref.tensor_square(np.asarray(states.counterexample_pair()[0].matrix), 2, 2)
    for shift, message in ((4e-7, r"<= b2 .* <= 2 b1"), (1.5e-7, "not above")):
        b1 = rep.b1_bits - shift
        wrong = dataclasses.replace(rep, b1_bits=b1, gap_bits=2.0 * b1 - rep.b2_bits)
        op = workloads.Op("two_copy", lambda: wrong, workloads.two_copy_check(b1, rho2))
        assert_caught(op, [(wrong, message)])


def test_dual_lower_bound_stays_under_the_value_at_a_poor_sigma():
    rho2 = ref.tensor_square(np.asarray(states.counterexample_pair()[0].matrix), 2, 2)
    lower = ref.dual_lower_bound_bits(rho2, np.eye(16) / 16, 4, 4)
    assert lower < ref.rel_entropy_bits(rho2, np.eye(16) / 16)


# --------------------------------------------------------------- families


@pytest.fixture(scope="module")
def family_outputs(tmp_path_factory):
    """(op, output, input matrix) for the first entangled input of each kind."""
    inputs = workloads._families_inputs(0)
    ops = workloads.families_ops(0, tmp_path_factory.mktemp("families"), False)
    out = {}
    for (label, state, expected, _), op in zip(inputs, ops):
        kind = label.split()[0]
        if kind not in out and expected > 0:
            result = op.run()
            assert failures(op, result) == 0
            out[kind] = (op, result, np.asarray(state.matrix))
    return out


KINDS = ["isotropic", "bell", "bell+twirl", "max_correlated", "pure", "counterexample"]


@pytest.mark.parametrize("kind", KINDS)
def test_family_mutations_fail(family_outputs, kind):
    op, result, rho = family_outputs[kind]
    sigma = np.asarray(result.sigma_opt.matrix)
    n = sigma.shape[0]
    assert_caught(op, [
        (dataclasses.replace(result, bound_bits=result.bound_bits + 2e-5), "not within"),
        (dataclasses.replace(result, bound_bits=result.bound_bits - 1e-8), "not within"),
        (dataclasses.replace(result, bound_bits=float("nan")), "not finite"),
        (with_sigma(result, sigma[:-1, :-1]), "shape"),
        (with_sigma(result, np.where(np.eye(n) > 0, np.nan, sigma)), "non-finite"),
        (with_sigma(result, sigma + 1e-6 * np.eye(n, k=1)), "not Hermitian"),
        (with_sigma(result, not_psd(sigma)), "not PSD"),
        (with_sigma(result, sigma * (1 + 1e-6)), "trace"),
        (with_sigma(result, rho), "not PPT"),
        (with_sigma(result, np.eye(n) / n), r"S\(rho\|\|sigma_opt\)"),
    ])


# -------------------------------------------------------------------- cli


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    ops = workloads.cli_ops(1, tmp_path_factory.mktemp("cli"), in_process=True)
    out = {op.label.split(" f=")[0]: (op, op.run()) for op in ops}
    for op, result in out.values():
        assert failures(op, result) == 0
    return out


def edit(output, old: str, new: str, field: str = "stdout"):
    text = getattr(output, field)
    assert old in text, (old, text)
    return dataclasses.replace(output, **{field: text.replace(old, new, 1)})


def bump_printed(output, key: str):
    """Raise the last printed digit of ``key = value`` by two units."""
    line = next(line for line in output.stdout.splitlines() if line.startswith(key + " = "))
    value = line.split(" = ")[1].split()[0]
    assert "e" not in value, value
    head = value.rstrip("0123456789")
    tail = value[len(head):]
    return edit(output, line, line.replace(value, head + str(int(tail) + 2).zfill(len(tail)), 1))


def test_cli_mutations_fail(cli_outputs):
    replace = dataclasses.replace
    for label in ("bound counterexample_rho", "bound isotropic4"):
        op, out = cli_outputs[label]
        assert_caught(op, [
            (bump_printed(out, "bound_bits"), "printed"),
            (replace(out, code=2), "exit code 2"),
            (edit(out, "converged = true", "converged = false"), "not converged"),
        ])
    op, out = cli_outputs["kkt"]
    assert_caught(op, [
        (replace(out, code=3), "exit code 3"),
        (edit(out, "PASS", "FAIL"), "must print PASS"),
        (edit(out, "min eig K_Gamma = ", "min eig K_Gamma = -1e-07 "), "outside tolerance"),
    ])
    op, out = cli_outputs["kkt --tensor-square"]
    assert_caught(op, [
        (replace(out, code=0), "exit code 0"),
        (edit(out, "FAIL", "PASS"), "must print FAIL"),
        (bump_printed(out, "complementarity residual"), "tensor-square residual"),
        (bump_printed(out, "min eig K_Gamma"), "tensor-square min eig"),
    ])
    op, out = cli_outputs["experiment isotropic_scan"]
    assert_caught(op, [
        (edit(out, "0.188721876,0.188721876", "0.188721876,0.188721878", "csv_text"), "optimizer"),
        (edit(out, "0.188721876,0.188721876", "0.188721878,0.188721876", "csv_text"), "closed form"),
        (edit(out, ",true\n", ",false\n", "csv_text"), "not converged"),
        (replace(out, code=1), "exit code 1"),
        (replace(out, csv_text=out.csv_text.splitlines()[0] + "\n"), "no rows"),
    ])
    op, out = cli_outputs["experiment bell_scan"]
    assert_caught(op, [
        (edit(out, "0.625,false", "0.625,true", "csv_text"), "is_ppt"),
        (edit(out, "0.875,false,0.456435557", "0.875,false,0.456435559", "csv_text"), "printed"),
        (edit(out, "0,0,0.125,0.875", "0,0,0.125,0.8", "csv_text"), "sum to 1"),
    ])


def test_a_crash_counts_as_failed():
    def boom():
        raise ValueError("solver blew up")

    assert run.run_loop([workloads.Op("boom", boom, lambda out: None)], 0.0)["failed"] == 1


# ----------------------------------------------------------------- tracer


def test_tracer_counts_repeat_and_uninstall_restores():
    original = pptopt.project_ppt
    tracer = Tracer()
    tracer.install()
    try:
        summaries = []
        for _ in range(2):
            tracer.reset()
            pptopt.minimize_rel_entropy(states.bell_diagonal(np.array([0.7, 0.1, 0.1, 0.1])))
            summaries.append(tracer.summary(1))
    finally:
        tracer.uninstall()
    assert pptopt.project_ppt is original
    first, second = summaries
    counters = [k for k in first if not k.endswith((".s", "self_s"))]
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    assert first["pptopt.minimize_rel_entropy.calls"] == 1
    assert first["pptopt.project_ppt.calls"] > first["pptopt.minimize_rel_entropy.iterations"] > 0
    assert first["linalg.eigh.calls"] > first["pptopt.project_ppt.cycles"]
    assert 0.0 < first["pptopt.project_ppt.self_s"] < first["pptopt.project_ppt.s"]
