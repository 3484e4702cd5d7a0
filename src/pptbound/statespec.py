"""Reading and writing state files.

A state file is a single JSON object in one of two shapes:

* explicit: ``{"dims": [d_a, d_b], "matrix": [[[re, im], ...], ...]}``
* family:   ``{"family": "isotropic", "params": {"k": 2, "f": 0.75}}``

Complex entries are written as ``[re, im]`` pairs; a bare number is accepted
on input and read as a real entry.  Explicit matrices are admitted when they
are Hermitian, unit-trace, and positive semidefinite to within ``FILE_TOL``,
then nudged onto the exact constraint set.  Files that already satisfy the
in-memory invariants pass through untouched, so a dump/load cycle preserves
every entry bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .linalg import BipartiteDims, HermiticityError, hermitianize
from .states import (
    EIG_TOL,
    TRACE_TOL,
    DensityMatrix,
    bell_diagonal,
    counterexample_pair,
    isotropic,
    max_correlated,
    pure_state,
)

FILE_TOL = 1e-9

FAMILY_NAMES = (
    "isotropic",
    "bell_diagonal",
    "max_correlated",
    "pure",
    "counterexample_rho",
    "counterexample_sigma",
)


class StateSpecError(ValueError):
    """A state file failed to parse or violates a stated invariant."""


def _as_complex(entry: Any, where: str) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        value = complex(float(entry), 0.0)
    elif (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        value = complex(float(entry[0]), float(entry[1]))
    else:
        raise StateSpecError(f"{where}: expected an [re, im] pair, got {entry!r}")
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise StateSpecError(f"{where}: entry is not finite: {entry!r}")
    return value


def _parse_matrix(rows: Any, label: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StateSpecError(f"'{label}' must be a non-empty list of rows")
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise StateSpecError(
                f"'{label}' row {i} must be a list of {n} entries to match {n} rows"
            )
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"'{label}'[{i}][{j}]")
    return out


def _real_vector(values: Any, label: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise StateSpecError(f"'{label}' must be a non-empty list of numbers")
    out = np.zeros(len(values), dtype=float)
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise StateSpecError(f"'{label}'[{i}] must be a number, got {v!r}")
        out[i] = float(v)
    if not np.all(np.isfinite(out)):
        raise StateSpecError(f"'{label}' contains a non-finite value")
    return out


def _explicit_state(spec: dict) -> DensityMatrix:
    extra = set(spec) - {"dims", "matrix"}
    if extra:
        raise StateSpecError(f"unknown keys {sorted(extra)} alongside 'matrix'")
    dims = spec.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateSpecError("'dims' must be a pair of positive integers [d_a, d_b]")
    d_a, d_b = dims
    m = _parse_matrix(spec["matrix"], "matrix")
    if m.shape[0] != d_a * d_b:
        raise StateSpecError(
            f"matrix is {m.shape[0]}x{m.shape[0]} but dims {d_a}x{d_b} require {d_a * d_b}"
        )
    dims = BipartiteDims(int(d_a), int(d_b))
    candidate = DensityMatrix(matrix=m, dims=dims)
    try:
        candidate.validate(FILE_TOL)
    except HermiticityError as exc:
        raise StateSpecError(f"hermiticity invariant violated: {exc}") from exc
    except ValueError as exc:
        raise StateSpecError(str(exc)) from exc
    try:
        candidate.validate()
    except ValueError:
        pass
    else:
        # Already valid at working precision: hand the entries back untouched
        # so a dump/load cycle is bit-exact.
        return candidate
    m = hermitianize(m)
    if float(np.linalg.eigvalsh(m)[0]) < -EIG_TOL:
        w, v = np.linalg.eigh(m)
        m = hermitianize((v * np.clip(w, 0.0, None)) @ v.conj().T)
    tr_real = float(np.trace(m).real)
    if abs(tr_real - 1.0) > TRACE_TOL:
        m = m / tr_real
    state = DensityMatrix(matrix=m, dims=dims)
    state.validate()
    return state


def _family_state(spec: dict) -> DensityMatrix:
    extra = set(spec) - {"family", "params"}
    if extra:
        raise StateSpecError(f"unknown keys {sorted(extra)} alongside 'family'")
    name = spec["family"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise StateSpecError("'params' must be an object")
    try:
        if name == "isotropic":
            k = params.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 2:
                raise StateSpecError("isotropic: 'k' must be an integer >= 2")
            f = params.get("f")
            if not isinstance(f, (int, float)) or isinstance(f, bool):
                raise StateSpecError("isotropic: 'f' must be a number")
            return isotropic(k, float(f))
        if name == "bell_diagonal":
            return bell_diagonal(_real_vector(params.get("probs"), "probs"))
        if name == "max_correlated":
            if "alpha" not in params:
                raise StateSpecError("max_correlated: missing 'alpha' matrix")
            return max_correlated(_parse_matrix(params["alpha"], "alpha"))
        if name == "pure":
            return pure_state(_real_vector(params.get("schmidt"), "schmidt"))
        if name == "counterexample_rho":
            return counterexample_pair()[0]
        if name == "counterexample_sigma":
            return counterexample_pair()[1]
    except StateSpecError:
        raise
    except ValueError as exc:
        raise StateSpecError(f"family '{name}': {exc}") from exc
    raise StateSpecError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")


def spec_to_state(spec: Any) -> DensityMatrix:
    """Build a validated state from a decoded JSON object."""
    if not isinstance(spec, dict):
        raise StateSpecError("top level must be a JSON object")
    if "matrix" in spec and "family" in spec:
        raise StateSpecError("give either 'matrix' or 'family', not both")
    if "matrix" in spec:
        return _explicit_state(spec)
    if "family" in spec:
        return _family_state(spec)
    raise StateSpecError("missing 'matrix' or 'family' key")


def state_to_spec(state: DensityMatrix) -> dict:
    """Explicit-form JSON object for ``state``; inverse of :func:`spec_to_state`."""
    m = state.matrix
    rows = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])] for i in range(m.shape[0])]
    return {"dims": [state.dims.d_a, state.dims.d_b], "matrix": rows}


def load_state(path: str | Path) -> DensityMatrix:
    """Parse and validate the state file at ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateSpecError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return spec_to_state(spec)
    except StateSpecError as exc:
        raise StateSpecError(f"{path}: {exc}") from exc


def save_state(state: DensityMatrix, path: str | Path) -> None:
    """Write ``state`` to ``path`` in explicit form."""
    Path(path).write_text(json.dumps(state_to_spec(state), indent=1) + "\n", encoding="utf-8")
