"""Reading and writing state files.

A state file is a single JSON object in one of two shapes:

* explicit: ``{"dims": [d_a, d_b], "matrix": [[[re, im], ...], ...]}``
* family:   ``{"family": "isotropic", "params": {"k": 2, "f": 0.75}}``

Complex entries are written as ``[re, im]`` pairs; a bare number is accepted
on input and read as a real entry.  Every number must be finite as a float.
Explicit matrices and family parameters alike go through the admission rule
of :mod:`pptbound.states`: within ``INPUT_TOL`` of a state, then onto the
state set.  Files that already satisfy the in-memory invariants pass
through untouched, so a dump/load cycle preserves every entry bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .linalg import BipartiteDims, HermiticityError
from .states import (
    DensityMatrix,
    bell_diagonal,
    counterexample_pair,
    density_matrix,
    isotropic,
    max_correlated,
    pure_state,
)


class StateSpecError(ValueError):
    """A state file failed to parse or violates a stated invariant."""


def _number(x: Any, where: str) -> float:
    """``x`` as a finite float; a bool, a non-number or a value outside the
    float range (such as a huge integer literal) raises StateSpecError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise StateSpecError(f"{where} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise StateSpecError(f"{where} is not finite")
    return value


def _integer(x: Any, low: int, where: str) -> int:
    """``x`` as an integer of at least ``low``, read through :func:`_number`."""
    if not isinstance(x, int) or _number(x, where) < low:
        raise StateSpecError(f"{where} must be an integer >= {low}, got {x!r}")
    return x


def _entry(x: Any, where: str) -> complex:
    """A bare real number or an ``[re, im]`` pair."""
    if not isinstance(x, list):
        return complex(_number(x, where), 0.0)
    if len(x) != 2:
        raise StateSpecError(f"{where}: expected an [re, im] pair, got {x!r}")
    return complex(_number(x[0], where), _number(x[1], where))


def _vector(values: Any, label: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise StateSpecError(f"'{label}' must be a non-empty list of numbers")
    return np.array([_number(v, f"'{label}'[{i}]") for i, v in enumerate(values)])


def _matrix(rows: Any, label: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise StateSpecError(f"'{label}' must be a non-empty list of rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise StateSpecError(f"'{label}' row {i} must be a list of {n} entries to match {n} rows")
    return np.array(
        [[_entry(x, f"'{label}'[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(rows)],
        dtype=complex,
    )


def _known_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """StateSpecError naming the keys of ``obj`` outside ``allowed``."""
    extra = set(obj) - set(allowed)
    if extra:
        raise StateSpecError(f"unknown keys {sorted(extra)} {where}")


def _explicit_state(spec: dict) -> DensityMatrix:
    _known_keys(spec, ("dims", "matrix"), "alongside 'matrix'")
    dims = spec.get("dims")
    if not isinstance(dims, list) or len(dims) != 2:
        raise StateSpecError("'dims' must be a pair of positive integers [d_a, d_b]")
    d_a, d_b = (_integer(d, 1, f"'dims'[{i}]") for i, d in enumerate(dims))
    m = _matrix(spec["matrix"], "matrix")
    try:
        return density_matrix(m, BipartiteDims(d_a, d_b))
    except HermiticityError as exc:
        raise StateSpecError(f"hermiticity invariant violated: {exc}") from exc
    except ValueError as exc:
        raise StateSpecError(str(exc)) from exc


# Family name -> (parameter names, constructor from the ``params`` object).
FAMILIES = {
    "isotropic": (
        ("k", "f"),
        lambda p: isotropic(_integer(p.get("k"), 2, "isotropic: 'k'"), _number(p.get("f"), "isotropic: 'f'")),
    ),
    "bell_diagonal": (("probs",), lambda p: bell_diagonal(_vector(p.get("probs"), "probs"))),
    "max_correlated": (("alpha",), lambda p: max_correlated(_matrix(p.get("alpha"), "alpha"))),
    "pure": (("schmidt",), lambda p: pure_state(_vector(p.get("schmidt"), "schmidt"))),
    "counterexample_rho": ((), lambda p: counterexample_pair()[0]),
    "counterexample_sigma": ((), lambda p: counterexample_pair()[1]),
}


def _family_state(spec: dict) -> DensityMatrix:
    _known_keys(spec, ("family", "params"), "alongside 'family'")
    name = spec["family"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise StateSpecError("'params' must be an object")
    if not isinstance(name, str) or name not in FAMILIES:
        raise StateSpecError(f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}")
    names, build = FAMILIES[name]
    _known_keys(params, names, f"in 'params' of family '{name}'")
    try:
        return build(params)
    except StateSpecError:
        raise
    except ValueError as exc:
        raise StateSpecError(f"family '{name}': {exc}") from exc


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
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in state.matrix]
    return {"dims": [state.dims.d_a, state.dims.d_b], "matrix": rows}


def load_state(path: str | Path) -> DensityMatrix:
    """Parse and validate the state file at ``path``.  A file that is not
    UTF-8 or not JSON, or that holds an integer literal too long to convert,
    raises StateSpecError naming the path."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StateSpecError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise StateSpecError(f"{path}: {exc}") from exc
    try:
        return spec_to_state(spec)
    except StateSpecError as exc:
        raise StateSpecError(f"{path}: {exc}") from exc


def save_state(state: DensityMatrix, path: str | Path) -> None:
    """Write ``state`` to ``path`` in explicit form."""
    Path(path).write_text(json.dumps(state_to_spec(state), indent=1) + "\n", encoding="utf-8")
