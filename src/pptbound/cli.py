"""Command line front end.

Three subcommands: ``bound`` minimizes relative entropy over the PPT cone
for a state file, ``kkt`` checks an optimality certificate for a state
pair, and ``experiment`` reproduces the scans and the non-additivity run
as CSV.  Exit codes: 0 success, 1 input error (including a bad flag
value), 2 optimizer did not converge, 3 certificate check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from typing import Sequence, TextIO

import numpy as np

from .formulas import bell_z2_bound, isotropic_bound, nonadditivity_experiment
from .pptopt import CERT_TOL, OptimizerConfig, is_ppt, kkt_check, minimize_rel_entropy
from .statespec import load_state
from .states import bell_diagonal, entanglement_fidelity, isotropic, tensor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CERT_FAIL = 3

ISOTROPIC_SCAN_K = (2, 3)
ISOTROPIC_SCAN_F = (0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)
BELL_SCAN_STEPS = 8
# Significant digits that round-trip every float64.
MAX_PRECISION = 17


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; 2 is reserved
    # for optimizer non-convergence here, so usage errors become input errors.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(low: int, high: int | None = None):
    """Argparse type for an integer flag that must be at least ``low`` and,
    when ``high`` is given, at most ``high``."""
    wanted = f">= {low}" if high is None else f"from {low} to {high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer {wanted}, got {text!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """Argparse type for a tolerance flag: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _cell(value: object, precision: int) -> str:
    """One output field: a bool as true/false, a float to ``precision``
    significant digits, anything else through ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _open_out(path: str | None):
    """``--out`` opened before the run, so a path that cannot be written
    fails (exit 1) before any solve; a null context when there is none."""
    return contextlib.nullcontext() if path is None else open(path, "w", newline="", encoding="utf-8")


def _write_csv(fh: TextIO, header: list[str], rows: list[list[object]], precision: int) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v, precision) for v in row] for row in rows)


def cmd_bound(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    cfg = OptimizerConfig(max_iters=args.max_iters, grad_map_tol=args.tol)
    p = args.precision
    with _open_out(args.out) as fh:
        result = minimize_rel_entropy(state, cfg)
        if fh is not None:
            header = ["state", "bound_bits", "converged", "iterations", "grad_map_norm"]
            row = [args.state, result.bound_bits, result.converged, result.iterations, result.final_grad_map_norm]
            _write_csv(fh, header, [row], p)
    d = state.dims
    print(f"state: {args.state} ({d.total}x{d.total}, dims {d})")
    print(f"bound_bits = {_cell(result.bound_bits, p)}")
    print(
        f"converged = {_cell(result.converged, p)}  iterations = {result.iterations}"
        f"  grad_map_norm = {_cell(result.final_grad_map_norm, p)}"
    )
    eigs = np.linalg.eigvalsh(result.sigma_opt.matrix)
    print("sigma_opt eigenvalues: " + " ".join(_cell(v, p) for v in eigs))
    if d.d_a == d.d_b >= 2:
        fid = entanglement_fidelity(result.sigma_opt.matrix, d.d_a)
        print(f"sigma_opt entanglement fidelity = {_cell(fid, p)}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_kkt(args: argparse.Namespace) -> int:
    rho = load_state(args.rho)
    sigma = load_state(args.sigma)
    if args.tensor_square:
        rho, sigma = tensor(rho, rho), tensor(sigma, sigma)
    report = kkt_check(rho, sigma, tol=args.tol)
    p = args.precision
    print(f"complementarity residual = {_cell(report.complementarity_residual, p)}")
    print(f"min eig K_Gamma = {_cell(report.k_gamma_min_eig, p)}")
    print(f"min eig sigma_Gamma = {_cell(report.sigma_gamma_min_eig, p)}")
    print(f"tolerance = {_cell(args.tol, p)}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def _rows_nonadditivity(args: argparse.Namespace) -> tuple[list[str], list[list[object]]]:
    rep = nonadditivity_experiment(restarts=args.restarts, seed=args.seed)
    header = ["b1_bits", "b2_bits", "gap_bits", "kkt_single_passed", "kkt_double_passed", "converged"]
    row = [
        rep.b1_bits,
        rep.b2_bits,
        rep.gap_bits,
        rep.kkt_single.passed,
        rep.kkt_double.passed,
        rep.optimizer.converged,
    ]
    print(f"gap_bits = {_cell(rep.gap_bits, args.precision)}")
    if rep.restart_b2_bits:
        print(f"b2_spread_bits = {_cell(rep.b2_spread_bits, args.precision)}")
    return header, [row]


def _rows_isotropic_scan(args: argparse.Namespace) -> tuple[list[str], list[list[object]]]:
    header = ["k", "f", "closed_form_bits", "optimizer_bits", "abs_diff", "converged"]
    rows = []
    for k in ISOTROPIC_SCAN_K:
        for f in ISOTROPIC_SCAN_F:
            closed = isotropic_bound(k, f).bound_bits
            result = minimize_rel_entropy(isotropic(k, f))
            rows.append([k, f, closed, result.bound_bits, abs(result.bound_bits - closed), result.converged])
    return header, rows


def _rows_bell_scan(args: argparse.Namespace) -> tuple[list[str], list[list[object]]]:
    header = ["p1", "p2", "p3", "p4", "max_p", "is_ppt", "bound_bits"]
    rows = []
    n = BELL_SCAN_STEPS
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                p = np.array([i, j, k, n - i - j - k], dtype=float) / n
                rows.append([*p, float(p.max()), is_ppt(bell_diagonal(p)).ok, bell_z2_bound(p).bound_bits])
    return header, rows


def cmd_experiment(args: argparse.Namespace) -> int:
    with _open_out(args.out) as fh:
        header, rows = args.rows(args)
        _write_csv(fh, header, rows, args.precision)
    print(f"wrote {len(rows)} row(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pptbound", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--precision", type=_count(1, MAX_PRECISION), default=9, help="significant digits in output"
    )

    p_bound = sub.add_parser("bound", parents=[output], help="minimize relative entropy over PPT states")
    p_bound.add_argument("--state", required=True, help="state file (JSON)")
    p_bound.add_argument(
        "--tol", type=_tolerance, default=OptimizerConfig.grad_map_tol, help="gradient-map stopping tolerance"
    )
    p_bound.add_argument(
        "--max-iters", type=_count(1), default=OptimizerConfig.max_iters, help="iteration cap"
    )
    p_bound.add_argument("--out", default=None, help="optional CSV output path")
    p_bound.set_defaults(func=cmd_bound)

    p_kkt = sub.add_parser("kkt", parents=[output], help="check an optimality certificate for a state pair")
    p_kkt.add_argument("--rho", required=True, help="state file for the argument state")
    p_kkt.add_argument("--sigma", required=True, help="state file for the candidate optimum")
    p_kkt.add_argument("--tol", type=_tolerance, default=CERT_TOL, help="certificate tolerance")
    p_kkt.add_argument(
        "--tensor-square",
        action="store_true",
        help="check the pair (rho x rho, sigma x sigma) instead",
    )
    p_kkt.set_defaults(func=cmd_kkt)

    p_exp = sub.add_parser("experiment", help="write a named experiment as CSV")
    p_exp.set_defaults(func=cmd_experiment)
    experiments = p_exp.add_subparsers(dest="name", required=True)
    for name, rows, text in (
        ("nonadditivity", _rows_nonadditivity, "two-copy bound deficit of the counterexample pair"),
        ("isotropic_scan", _rows_isotropic_scan, "optimizer against the closed form on isotropic states"),
        ("bell_scan", _rows_bell_scan, "PPT test and closed-form bound on Bell-diagonal states"),
    ):
        p = experiments.add_parser(name, parents=[output], help=text)
        p.add_argument("--out", required=True, help="CSV output path")
        p.set_defaults(rows=rows)
    p_na = experiments.choices["nonadditivity"]
    p_na.add_argument(
        "--restarts", type=_count(0), default=0, help="extra two-copy runs from random feasible starts"
    )
    p_na.add_argument("--seed", type=_count(0), default=0, help="seed of the restarts")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
