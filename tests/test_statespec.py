"""State file serialization: round trips, family dispatch, and error reporting."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from pptbound.linalg import BipartiteDims, frobenius
from pptbound.statespec import (
    StateSpecError,
    load_state,
    save_state,
    spec_to_state,
    state_to_spec,
)
from pptbound.states import bell_diagonal, counterexample_pair, density_matrix, isotropic, pure_state


def test_round_trip_preserves_entries_exactly():
    rng = np.random.default_rng(29)
    state = density_matrix(random_density(rng, 6), BipartiteDims(2, 3))
    spec = state_to_spec(state)
    back = spec_to_state(spec)
    assert np.array_equal(back.matrix, state.matrix)
    assert back.dims == state.dims
    assert state_to_spec(back) == spec


def test_save_load_file_round_trip(tmp_path):
    rho, _ = counterexample_pair()
    path = tmp_path / "rho.json"
    save_state(rho, path)
    again = tmp_path / "rho2.json"
    save_state(load_state(path), again)
    assert path.read_text() == again.read_text()


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_round_trip_random_states(seed):
    rng = np.random.default_rng(seed)
    state = density_matrix(random_density(rng, 4), BipartiteDims(2, 2))
    assert np.array_equal(spec_to_state(state_to_spec(state)).matrix, state.matrix)


def test_family_isotropic():
    state = spec_to_state({"family": "isotropic", "params": {"k": 3, "f": 0.8}})
    assert frobenius(state.matrix - isotropic(3, 0.8).matrix) == 0.0


def test_family_bell_diagonal():
    probs = [0.4, 0.3, 0.2, 0.1]
    state = spec_to_state({"family": "bell_diagonal", "params": {"probs": probs}})
    assert frobenius(state.matrix - bell_diagonal(probs).matrix) == 0.0


def test_family_max_correlated_mixed_entry_forms():
    spec = {
        "family": "max_correlated",
        "params": {"alpha": [[0.6, [0.2, 0.1]], [[0.2, -0.1], 0.4]]},
    }
    state = spec_to_state(spec)
    assert state.matrix[0, 3] == pytest.approx(0.2 + 0.1j)


def test_family_pure_and_counterexamples():
    state = spec_to_state({"family": "pure", "params": {"schmidt": [0.8, 0.2]}})
    assert frobenius(state.matrix - pure_state(np.array([0.8, 0.2])).matrix) == 0.0
    rho, sigma = counterexample_pair()
    assert np.array_equal(spec_to_state({"family": "counterexample_rho"}).matrix, rho.matrix)
    assert np.array_equal(spec_to_state({"family": "counterexample_sigma"}).matrix, sigma.matrix)


def test_unknown_family_and_bad_shapes():
    with pytest.raises(StateSpecError, match="unknown family"):
        spec_to_state({"family": "unicorn"})
    with pytest.raises(StateSpecError, match="'k'"):
        spec_to_state({"family": "isotropic", "params": {"k": "two", "f": 0.5}})
    with pytest.raises(StateSpecError, match="probs"):
        spec_to_state({"family": "bell_diagonal", "params": {"probs": "nope"}})
    with pytest.raises(StateSpecError, match="family 'pure'"):
        spec_to_state({"family": "pure", "params": {"schmidt": [0.8, 0.1]}})
    with pytest.raises(StateSpecError, match=r"'probs'\[1\] must be a number"):
        spec_to_state({"family": "bell_diagonal", "params": {"probs": [0.5, "x", 0.25, 0.25]}})
    with pytest.raises(StateSpecError, match="'params' must be an object"):
        spec_to_state({"family": "isotropic", "params": [2, 0.5]})
    with pytest.raises(StateSpecError, match="'f' must be a number"):
        spec_to_state({"family": "isotropic", "params": {"k": 2, "f": "x"}})
    with pytest.raises(StateSpecError, match="'alpha'"):
        spec_to_state({"family": "max_correlated", "params": {}})
    with pytest.raises(StateSpecError, match="family 'max_correlated': alpha: trace invariant"):
        spec_to_state({"family": "max_correlated", "params": {"alpha": [[0.5, 0.0], [0.0, 0.4]]}})
    with pytest.raises(StateSpecError, match=r"unknown keys \['k'\] in 'params' of family 'counterexample_rho'"):
        spec_to_state({"family": "counterexample_rho", "params": {"k": 3}})
    with pytest.raises(StateSpecError, match=r"unknown keys \['k'\] in 'params' of family 'pure'"):
        spec_to_state({"family": "pure", "params": {"schmidt": [0.5, 0.5], "k": 3}})


def test_explicit_requires_consistent_dims():
    spec = state_to_spec(isotropic(2, 0.5))
    for dims in ([2, 3], [True, 4], [0, 4], [2, 2, 1]):
        spec["dims"] = dims
        with pytest.raises(StateSpecError, match="dims"):
            spec_to_state(spec)


def test_explicit_validation_names_invariant():
    base = state_to_spec(isotropic(2, 0.5))

    bad_trace = json.loads(json.dumps(base))
    bad_trace["matrix"][0][0][0] += 0.5
    with pytest.raises(StateSpecError, match="trace invariant"):
        spec_to_state(bad_trace)

    bad_herm = json.loads(json.dumps(base))
    bad_herm["matrix"][0][1][0] += 0.3
    with pytest.raises(StateSpecError, match="hermiticity invariant"):
        spec_to_state(bad_herm)

    bad_pos = json.loads(json.dumps(base))
    for i in range(4):
        bad_pos["matrix"][i][i] = [[0.5, 0.0], [0.7, 0.0], [-0.1, 0.0], [-0.1, 0.0]][i]
    with pytest.raises(StateSpecError, match="positivity invariant"):
        spec_to_state(bad_pos)


def test_explicit_rejects_malformed_entries():
    with pytest.raises(StateSpecError, match="re, im"):
        spec_to_state({"dims": [2, 2], "matrix": [[[0.25, 0.0, 0.0]] * 4] * 4})
    with pytest.raises(StateSpecError, match="row 0"):
        spec_to_state({"dims": [2, 2], "matrix": [[0.25] * 3] * 4})
    with pytest.raises(StateSpecError, match="not finite"):
        spec_to_state(
            {"dims": [1, 2], "matrix": [[float("nan"), 0.0], [0.0, 1.0]]}
        )
    with pytest.raises(StateSpecError, match="'matrix' must be a non-empty list of rows"):
        spec_to_state({"dims": [2, 2], "matrix": "rows"})


def test_oversized_integer_is_not_finite(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [1, 1], "matrix": [[1' + "0" * 400 + "]]}")
    with pytest.raises(StateSpecError, match=r"'matrix'\[0\]\[0\].*not finite"):
        load_state(path)
    with pytest.raises(StateSpecError, match=r"'probs'\[0\].*not finite"):
        spec_to_state({"family": "bell_diagonal", "params": {"probs": [10**400, 0, 0, 0]}})


@pytest.mark.parametrize(
    "payload",
    [b'{"dims": [1, 1], "matrix": [[1.0]]}\xff', b'{"dims": [1, 1], "matrix": [[1' + b"0" * 5000 + b"]]}"],
    ids=["not-utf8", "int-over-4300-digits"],
)
def test_undecodable_file_names_the_path(tmp_path, payload):
    path = tmp_path / "undecodable.json"
    path.write_bytes(payload)
    with pytest.raises(StateSpecError, match=re.escape(str(path))):
        load_state(path)


def test_top_level_shape_errors():
    with pytest.raises(StateSpecError, match="JSON object"):
        spec_to_state([1, 2, 3])
    with pytest.raises(StateSpecError, match="not both"):
        spec_to_state({"family": "isotropic", "matrix": []})
    with pytest.raises(StateSpecError, match="missing"):
        spec_to_state({"dims": [2, 2]})
    with pytest.raises(StateSpecError, match="unknown keys"):
        spec_to_state({"family": "isotropic", "params": {"k": 2, "f": 0.5}, "comment": "x"})
    with pytest.raises(StateSpecError, match="unknown keys"):
        spec_to_state({"dims": [1, 1], "matrix": [[1.0]], "comment": "x"})


def test_syntax_error_is_line_localized(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2],\n "matrix": [[1, 0],\n oops')
    with pytest.raises(StateSpecError, match=r"line 3 column"):
        load_state(path)


def test_gray_band_inputs_are_canonicalized():
    spec = state_to_spec(isotropic(2, 0.5))
    spec["matrix"][0][0][0] += 5e-10
    state = spec_to_state(spec)
    assert abs(np.trace(state.matrix).real - 1.0) <= 1e-14
    state.validate()

    tilted = state_to_spec(isotropic(2, 0.5))
    tilted["matrix"][2][2][0] -= 2e-10
    tilted["matrix"][3][3][0] += 2e-10
    spec_to_state(tilted).validate()

    # Family parameters in the same band go through the same rule.
    eps = 5e-10
    for family, params in (
        ("bell_diagonal", {"probs": [0.25 + eps, 0.25, 0.25, 0.25]}),
        ("max_correlated", {"alpha": [[1.0 + eps, 0.0], [0.0, -eps]]}),
        ("pure", {"schmidt": [1.0 + eps, -eps]}),
    ):
        spec_to_state({"family": family, "params": params}).validate()


def test_slightly_negative_eigenvalue_is_clipped():
    eps = 5e-10
    m = np.diag([0.5 + eps, 0.5, 0.0, -eps]).astype(complex)
    spec = {"dims": [2, 2], "matrix": [[[m[i, j].real, 0.0] for j in range(4)] for i in range(4)]}
    state = spec_to_state(spec)
    state.validate()
    assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-15
