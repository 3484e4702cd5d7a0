"""End-to-end command line behavior: output parsing, CSV shape, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pptbound import cli, formulas
from pptbound.cli import MAX_PRECISION, build_parser, main
from pptbound.formulas import isotropic_bound

RUN = [sys.executable, "-W", "error", "-m", "pptbound"]


def run_cli(*args):
    return subprocess.run([*RUN, *args], capture_output=True, text=True)


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"pattern {pattern!r} not found in:\n{text}"
    return m.group(1)


@pytest.fixture
def iso_file(tmp_path):
    return write_spec(tmp_path / "iso.json", {"family": "isotropic", "params": {"k": 2, "f": 0.75}})


@pytest.fixture
def pair_files(tmp_path):
    rho = write_spec(tmp_path / "rho.json", {"family": "counterexample_rho"})
    sigma = write_spec(tmp_path / "sig.json", {"family": "counterexample_sigma"})
    return rho, sigma


def test_bound_reports_value_and_csv(iso_file, tmp_path):
    out_csv = tmp_path / "row.csv"
    proc = run_cli("bound", "--state", iso_file, "--out", str(out_csv))
    assert proc.returncode == 0, proc.stderr
    value = float(grab(r"bound_bits = ([-\d.eE+]+)", proc.stdout))
    assert abs(value - isotropic_bound(2, 0.75).bound_bits) <= 1e-6
    assert "converged = true" in proc.stdout
    assert "sigma_opt eigenvalues:" in proc.stdout
    fid = float(grab(r"entanglement fidelity = ([-\d.eE+]+)", proc.stdout))
    assert fid == pytest.approx(0.5, abs=1e-6)
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["bound_bits"]) == pytest.approx(value, abs=1e-12)
    assert rows[0]["converged"] == "true"


def test_bound_ppt_input_is_zero(pair_files):
    _, sigma = pair_files
    proc = run_cli("bound", "--state", sigma)
    assert proc.returncode == 0
    assert float(grab(r"bound_bits = ([-\d.eE+]+)", proc.stdout)) == 0.0


@pytest.mark.parametrize("dims", [[1, 1], [1, 2]])
def test_bound_prints_fidelity_only_for_equal_dims_of_two_or_more(dims, tmp_path, capsys):
    n = dims[0] * dims[1]
    state = write_spec(tmp_path / "s.json", {"dims": dims, "matrix": (np.eye(n) / n).tolist()})
    assert main(["bound", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "bound_bits = 0" in out
    assert "entanglement fidelity" not in out


def test_bound_precision_flag(iso_file):
    proc = run_cli("bound", "--state", iso_file, "--precision", "12")
    text = grab(r"bound_bits = ([-\d.eE+]+)", proc.stdout)
    assert len(text.replace("-", "").replace(".", "").lstrip("0")) >= 11


def test_precision_bounds_are_inclusive():
    for digits in (1, MAX_PRECISION):
        args = build_parser().parse_args(["bound", "--state", "s.json", "--precision", str(digits)])
        assert args.precision == digits


def test_bound_nonconvergence_exit_code(tmp_path):
    state = write_spec(tmp_path / "hard.json", {"family": "isotropic", "params": {"k": 2, "f": 0.9}})
    proc = run_cli("bound", "--state", state, "--max-iters", "1", "--tol", "1e-15")
    assert proc.returncode == 2
    assert "converged = false" in proc.stdout


def test_bound_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2],\n "matrix": oops')
    proc = run_cli("bound", "--state", str(bad))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr


@pytest.mark.parametrize(
    "payload",
    [b'{"family": "isotropic"}\xff', b'{"dims": [1, 1], "matrix": [[1' + b"0" * 5000 + b"]]}"],
    ids=["not-utf8", "int-over-4300-digits"],
)
def test_bound_undecodable_file_exit_code(tmp_path, payload):
    bad = tmp_path / "undecodable.json"
    bad.write_bytes(payload)
    proc = run_cli("bound", "--state", str(bad))
    assert proc.returncode == 1
    assert f"error: {bad}: " in proc.stderr


def test_bound_invalid_state_names_invariant(tmp_path):
    m = (np.eye(4) * 0.5).tolist()
    spec = {"dims": [2, 2], "matrix": [[[v, 0.0] for v in row] for row in m]}
    proc = run_cli("bound", "--state", write_spec(tmp_path / "t.json", spec))
    assert proc.returncode == 1
    assert "trace invariant" in proc.stderr


def test_bound_rejects_unknown_family_param(tmp_path):
    spec = {"family": "counterexample_rho", "params": {"k": 3}}
    proc = run_cli("bound", "--state", write_spec(tmp_path / "cx.json", spec))
    assert proc.returncode == 1
    assert "unknown keys ['k'] in 'params' of family 'counterexample_rho'" in proc.stderr
    assert "bound_bits" not in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--max-iters", "-3"],
        ["bound", "--max-iters", "0"],
        ["bound", "--tol", "nan"],
        ["bound", "--tol", "-1"],
        ["bound", "--tol", "inf"],
        ["bound", "--precision", "-2"],
        ["kkt", "--tol", "nan"],
        ["kkt", "--tol", "0"],
        ["kkt", "--precision", "0"],
        ["bound", "--precision", "2147483648"],
        ["kkt", "--precision", "18"],
        ["experiment", "--precision", "2147483648"],
        ["bound", "--max-iters", "1.5"],
        ["kkt", "--tol", "abc"],
    ],
)
def test_bad_flag_values_are_input_errors(argv, iso_file, tmp_path, capsys):
    # A bad value is rejected while parsing, before any solve or any output.
    out = tmp_path / "F.csv"
    files = {
        "bound": ["--state", iso_file, "--out", str(out)],
        "kkt": ["--rho", iso_file, "--sigma", iso_file],
        "experiment": ["isotropic_scan", "--out", str(out)],
    }[argv[0]]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *files, *argv[1:]])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert argv[1] in err
    assert repr(argv[2]) in err
    assert not out.exists()


def test_usage_error_exit_code():
    proc = run_cli("bound")
    assert proc.returncode == 1
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_kkt_pass_and_fail_paths(pair_files):
    rho, sigma = pair_files
    proc = run_cli("kkt", "--rho", rho, "--sigma", sigma)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("PASS")
    assert float(grab(r"complementarity residual = ([-\d.eE+]+)", proc.stdout)) <= 1e-12

    proc = run_cli("kkt", "--rho", rho, "--sigma", sigma, "--tensor-square")
    assert proc.returncode == 3
    assert proc.stdout.strip().endswith("FAIL")
    assert float(grab(r"min eig K_Gamma = ([-\d.eE+]+)", proc.stdout)) < -1e-5

    # rho against itself meets every condition on K, but it is not PPT.
    proc = run_cli("kkt", "--rho", rho, "--sigma", rho)
    assert proc.returncode == 3
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "FAIL"
    assert lines[-2].startswith("tolerance = ")
    assert float(grab(r"min eig sigma_Gamma = ([-\d.eE+]+)", lines[-3])) == pytest.approx(-0.2487, abs=1e-4)


def test_kkt_singular_sigma_pass_and_leak(tmp_path):
    rho = write_spec(tmp_path / "pure.json", {"family": "pure", "params": {"schmidt": [0.8, 0.2]}})
    sigma = write_spec(
        tmp_path / "diag.json", {"family": "max_correlated", "params": {"alpha": [[0.8, 0.0], [0.0, 0.2]]}}
    )
    proc = run_cli("kkt", "--rho", rho, "--sigma", sigma)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("PASS")

    leaky = write_spec(
        tmp_path / "leaky.json", {"family": "max_correlated", "params": {"alpha": [[1.0, 0.0], [0.0, 0.0]]}}
    )
    proc = run_cli("kkt", "--rho", rho, "--sigma", leaky)
    assert proc.returncode == 1
    assert "null space" in proc.stderr
    assert proc.stdout == ""


def test_kkt_dimension_mismatch(tmp_path, pair_files):
    rho, _ = pair_files
    other = write_spec(tmp_path / "k3.json", {"family": "isotropic", "params": {"k": 3, "f": 0.9}})
    proc = run_cli("kkt", "--rho", rho, "--sigma", other)
    assert proc.returncode == 1
    assert "error: dimension mismatch: rho 2x2, sigma 3x3" in proc.stderr


def test_cli_import_loads_no_test_extra():
    # The runtime needs numpy only; the test extras must not leak into it.
    code = "import sys, pptbound.cli; print(*sorted({'pytest', 'hypothesis', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_imports_with_scipy_blocked():
    # scipy is a test extra: every module of src/ must import, lazily or not,
    # without it.  Each is imported by name, so the check does not depend on
    # which modules cli happens to import; and the package re-exports nothing,
    # so its only public names are its modules.
    code = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import pptbound
names = [m.name for m in pkgutil.iter_modules(pptbound.__path__)]
for name in names:
    importlib.import_module("pptbound." + name)
print(*sorted(k for k in vars(pptbound) if not k.startswith("_") and k not in names))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_two_copy_run_leaves_numpy_random_unloaded(tmp_path):
    # pytest's plugins load numpy.random, so the check runs in a fresh
    # interpreter.  The generator exists only for restarts: the experiment
    # and the CLI command without them never import numpy.random, and one
    # restart does (the control that keeps the check honest).  A numpy that
    # imports numpy.random with numpy itself, as 1.x does, skips the check.
    code = """
import sys
import numpy
print("numpy.random" in sys.modules)
from pptbound import cli, formulas
formulas.nonadditivity_experiment()
print("numpy.random" in sys.modules)
cli.main(["experiment", "nonadditivity", "--out", sys.argv[1]])
print("numpy.random" in sys.modules)
formulas.nonadditivity_experiment(restarts=1)
print("numpy.random" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "na.csv")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line in ("True", "False")]
    if loaded[0] == "True":
        pytest.skip(f"numpy {np.__version__} imports numpy.random eagerly")
    assert loaded == ["False", "False", "False", "True"]


def test_experiment_bell_scan_csv(tmp_path):
    out = tmp_path / "bell.csv"
    assert main(["experiment", "bell_scan", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 165
    assert list(rows[0]) == ["p1", "p2", "p3", "p4", "max_p", "is_ppt", "bound_bits"]
    for row in rows:
        ppt = row["is_ppt"] == "true"
        assert ppt == (float(row["max_p"]) <= 0.5 + 1e-12)
        assert (float(row["bound_bits"]) == 0.0) == ppt


def test_experiment_isotropic_scan_csv(tmp_path):
    out = tmp_path / "iso.csv"
    assert main(["experiment", "isotropic_scan", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["k"] for row in rows} == {"2", "3"}
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-5
        assert row["converged"] == "true"


def test_experiment_nonadditivity_csv(tmp_path):
    out = tmp_path / "na.csv"
    assert main(["experiment", "nonadditivity", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert float(row["gap_bits"]) > 0.0
    assert row["kkt_single_passed"] == "true"
    assert row["kkt_double_passed"] == "false"
    assert row["converged"] == "true"
    assert float(row["b1_bits"]) == pytest.approx(0.187797499, abs=1e-8)


def test_experiment_error_paths(tmp_path):
    assert main(["experiment", "bell_scan", "--out", str(tmp_path / "nodir" / "x.csv")]) == 1
    for argv in (
        ["frobnicate"],
        ["bell_scan", "--seed", "1"],
        ["isotropic_scan", "--restarts", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 1
    assert not (tmp_path / "x.csv").exists()


def test_experiment_nonadditivity_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "nonadditivity", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--restarts" in out and "--seed" in out


def test_experiment_nonadditivity_restarts(tmp_path, capsys):
    out = tmp_path / "na.csv"
    assert main(["experiment", "nonadditivity", "--out", str(out), "--restarts", "1", "--seed", "3"]) == 0
    assert float(grab(r"b2_spread_bits = ([-\d.eE+]+)", capsys.readouterr().out)) <= 1e-6
    with open(out, newline="") as fh:
        assert list(csv.DictReader(fh))[0]["converged"] == "true"


@pytest.mark.parametrize("command", ["bound", "experiment"])
def test_unwritable_out_fails_before_any_solve(command, iso_file, tmp_path, capsys, monkeypatch):
    # --out is opened before the run, so a path that cannot be written costs
    # no solve and prints no result.
    def never(*args, **kwargs):
        raise AssertionError("minimize_rel_entropy called")

    monkeypatch.setattr(cli, "minimize_rel_entropy", never)
    monkeypatch.setattr(formulas, "minimize_rel_entropy", never)
    out = str(tmp_path / "missing" / "x.csv")
    argv = {
        "bound": ["bound", "--state", iso_file, "--out", out],
        "experiment": ["experiment", "nonadditivity", "--restarts", "6", "--out", out],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err
    assert "gap_bits" not in captured.out and "bound_bits" not in captured.out
