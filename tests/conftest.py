"""Shared random-matrix helpers and call counting for the test suite."""

import sys
from collections import Counter

import numpy as np
import pytest


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) * (scale / 2.0)


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_definite_density(rng: np.random.Generator, n: int, mix: float = 0.05) -> np.ndarray:
    return (1.0 - mix) * random_density(rng, n) + mix * np.eye(n) / n


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` there and under
    every pptbound module that binds the same function, as perfbench's
    tracer does, so calls from inside the package are caught too.  Returns
    the Counter, shared by every name counted in one test, whose ``name``
    entry counts the calls."""
    calls = Counter()

    def install(owner, name: str) -> Counter:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pptbound":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
