"""Per-layer tracing of pptbound from outside the package.

:class:`Tracer` replaces chosen functions of ``pptbound`` modules with
wrappers that record one span per call (layer name, start, end, parent
span) plus counters read off the returned values.  A function is replaced
under every module name it was imported into, so calls from inside the
package are caught too.  ``numpy.linalg.eigh`` and ``eigvalsh`` are
counted as the ``linalg.eigh`` layer, but only while a pptbound span is
open, so the benchmark's own reference checks stay out of the counts.
Spans are kept in flat arrays and reduced to totals and self times in
:meth:`Tracer.summary`.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _project_counts(counts: dict, result) -> None:
    counts["pptopt.project_ppt.cycles"] += result.cycles
    counts["pptopt.project_ppt.capped"] += not result.converged
    counts["residual_max"] = max(counts["residual_max"], result.residual)


def _minimize_counts(counts: dict, result) -> None:
    counts["pptopt.minimize_rel_entropy.iterations"] += result.iterations


# (module, function, layer name, counter hook)
TARGETS = (
    ("pptbound.linalg", "hermitianize", "linalg.hermitianize", None),
    ("pptbound.linalg", "partial_transpose", "linalg.partial_transpose", None),
    ("pptbound.linalg", "dd_gradient", "linalg.dd_gradient", None),
    ("pptbound.pptopt", "project_ppt", "pptopt.project_ppt", _project_counts),
    ("pptbound.pptopt", "minimize_rel_entropy", "pptopt.minimize_rel_entropy", _minimize_counts),
    ("pptbound.pptopt", "kkt_check", "pptopt.kkt_check", None),
    ("pptbound.pptopt", "is_ppt", "pptopt.is_ppt", None),
    ("pptbound.entropy", "relative_entropy", "entropy.relative_entropy", None),
    ("pptbound.states", "tensor", "states.tensor", None),
    ("pptbound.states", "bell_twirl", "states.bell_twirl", None),
    ("pptbound.formulas", "nonadditivity_experiment", "formulas.nonadditivity_experiment", None),
    ("pptbound.statespec", "load_state", "statespec.load_state", None),
    ("pptbound.cli", "main", "cli.main", None),
)
EIGH_LAYER = "linalg.eigh"


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, fn, layer: str, hook=None, only_nested: bool = False):
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if only_nested and not stack:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(layer_id)
            self._parent.append(stack[-1] if stack else -1)
            self._end.append(0.0)
            self._start.append(0.0)
            stack.append(idx)
            self._start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target under each pptbound module name bound to it."""
        import pptbound.cli  # noqa: F401  (loads every module of the package)

        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pptbound"]
        for mod_name, attr, layer, hook in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            traced = self.wrap(original, layer, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, traced)
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self.wrap(getattr(np.linalg, attr), EIGH_LAYER, only_nested=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, ops: int) -> dict[str, float]:
        """Per-operation calls, seconds and self seconds of every layer,
        plus the counters, keyed by metric name."""
        n = len(self.layers)
        name = np.asarray(self._name)
        parent = np.asarray(self._parent)
        dur = np.asarray(self._end) - np.asarray(self._start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=dur - covered, minlength=n)
        out: dict[str, float] = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = calls[i] / ops
            out[f"{layer}.s"] = total[i] / ops
            out[f"{layer}.self_s"] = own[i] / ops
        for key, value in self.counts.items():
            if key != "residual_max":
                out[key] = value / ops
        out["pptopt.project_ppt.residual_max"] = self.counts["residual_max"]
        iterations = self.counts["pptopt.minimize_rel_entropy.iterations"]
        projections = calls[self.layers.index("pptopt.project_ppt")]
        out["pptopt.trials_per_iteration"] = projections / iterations if iterations else 0.0
        return out
