"""Span tracing installed from outside the library.

The traced run replaces public functions, and the names one module
imports from another, with timing wrappers; the library itself is not
edited.  Spans (layer, start, end, parent span, operation id) are kept
in flat arrays while the run lasts and written out when it ends; every
per-layer figure is computed from them afterwards.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from gdag_lab.graph import GDag

_MARK = "_perfbench_layer"

#: (layer, module, attribute).  One layer may be reached through
#: several module attributes; the library calls each by that name.
TARGETS = (
    ("enumeration.classification_census", "gdag_lab.enumeration", "classification_census"),
    ("enumeration.canonical_key", "gdag_lab.enumeration", "canonical_key"),
    ("classify.sufficient_condition_holds", "gdag_lab.enumeration", "sufficient_condition_holds"),
    ("classify.sufficient_condition_holds", "gdag_lab.classify", "sufficient_condition_holds"),
    ("classify.apply_reduction", "gdag_lab.enumeration", "apply_reduction"),
    ("dsep._dsep_mask", "gdag_lab.classify", "_dsep_mask"),
    ("dsep.ci_subset", "gdag_lab.classify", "ci_subset"),
    ("dsep.observable_ci_set", "gdag_lab.dsep", "observable_ci_set"),
    ("dsep.observable_ci_set", "gdag_lab.cones", "observable_ci_set"),
    ("linprog.nonneg_combination.cones", "gdag_lab.cones", "nonneg_combination"),
    ("linprog.nonneg_combination.inequalities", "gdag_lab.inequalities", "nonneg_combination"),
    ("scipy.linprog", "scipy.optimize", "linprog"),
    ("cones.derive_classical_cone", "gdag_lab.cones", "derive_classical_cone"),
    ("cones.derive_independence_cone", "gdag_lab.cones", "derive_independence_cone"),
    ("cones.implied_by", "gdag_lab.cones", "implied_by"),
    ("models.observed_from_classical_gmc", "gdag_lab.models", "observed_from_classical_gmc"),
    ("models.satisfies_I", "gdag_lab.models", "satisfies_I"),
    ("models.is_conditionally_independent", "gdag_lab.models", "is_conditionally_independent"),
    ("models.entropy", "gdag_lab.inequalities", "entropy"),
    ("inequalities.triangle_monogamy_margin", "gdag_lab.inequalities", "triangle_monogamy_margin"),
    ("inequalities.triangle_gpt_feasible", "gdag_lab.inequalities", "triangle_gpt_feasible"),
    ("inequalities.instrumental_value", "gdag_lab.inequalities", "instrumental_value"),
)

GDAG_LAYER = "graph.GDag"
OP_LAYER = "op"


def _loaded(module: str):
    """The module if this process has imported it, else None: a workload
    that never loads SciPy is neither wrapped nor made to import it."""
    return sys.modules.get(module)


def installed_wrappers() -> list[str]:
    """Layers whose wrapper is currently installed."""
    found = [
        layer
        for layer, module, attr in TARGETS
        if (mod := _loaded(module)) is not None and hasattr(getattr(mod, attr), _MARK)
    ]
    if hasattr(GDag.__init__, _MARK):
        found.append(GDAG_LAYER)
    return found


class Tracer:
    """Records spans while installed; only calls made inside an operation
    (between ``begin_op`` and ``end_op``) are recorded."""

    def __init__(self) -> None:
        self.layers: list[str] = [OP_LAYER]
        self._layer_id = {OP_LAYER: 0}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.some = array("b")  # 1 when the call returned something other than None
        self._stack: list[int] = []
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, layer_id: int) -> int:
        i = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.some.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, result: object) -> None:
        self.end[i] = perf_counter()
        self.some[i] = result is not None
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(0)

    def end_op(self) -> None:
        self._close(self._stack[-1], None)
        self._op_id = -1

    def _wrap(self, layer: str, fn):
        if layer not in self._layer_id:
            self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        layer_id = self._layer_id[layer]

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            i = self._open(layer_id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(i, result)

        setattr(wrapper, _MARK, layer)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for layer, module, attr in TARGETS:
            mod = _loaded(module)
            if mod is None:
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(layer, original))
        original_init = GDag.__init__
        self._saved.append((GDag, "__init__", original_init))
        GDag.__init__ = self._wrap(GDAG_LAYER, original_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total_s, self_s and non-None results."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "some": 0}
        )
        for i in range(n):
            row = out[self.layers[self.layer[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
            row["some"] += self.some[i]
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\top\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.layers[self.layer[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
