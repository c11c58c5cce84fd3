"""Per-layer tracing of tetradkit from outside its source.

``Tracer.install`` rebinds each traced public function, wherever a
tetradkit module holds it, to a wrapper that counts the call and, for
timed layers, records a span (name, start, end, parent).  ``uninstall``
puts every original back.  A target that no longer exists is listed in
``absent`` instead of raising, so the trace outlives refactors that delete
functions.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Timed layers: layer -> "module:qualname" targets.  Self time of a span is
# its duration minus the time its child spans cover, so the layers split
# run_checks without double counting.
TIMED = {
    "exprkit.eval": ("exprkit:eval_jet", "exprkit:eval_jet_grid", "exprkit:evaluate"),
    # The frame connection's jet: the Levi-Civita solve where there is one,
    # the explicit pair-entry assembly elsewhere.
    "geometry.connection": (
        "geometry:LeviCivitaConnection.jet",
        "geometry:SummedConnection.jet",
        "geometry:SpinConnectionField.jet",
        "geometry:ContorsionField.jet",
    ),
    "geometry.derived": (
        "geometry:metric_jet",
        "geometry:inverse_tetrad_jet",
        "geometry:christoffel_jet",
        "geometry:field_strength_jet",
        "geometry:torsion_jet",
        "geometry:torsion_tensor_jet",
        "geometry:tetrad_covariant_jet",
    ),
    "fieldeqs.derived": (
        "fieldeqs:riemann_jet",
        "fieldeqs:einstein_jet",
        "fieldeqs:torsion_q_jet",
        "fieldeqs:determinant_jet",
        "fieldeqs:curvature_three_form",
        "fieldeqs:torsion_three_form",
        "fieldeqs:dual_component_projection",
        "fieldeqs:stress_tensor_to_form",
        "fieldeqs:spin_tensor_to_form",
    ),
    "fieldeqs.residuals": (
        "fieldeqs:pc_action_density",
        "fieldeqs:curvature_equation_residual",
        "fieldeqs:torsion_equation_sides",
        "fieldeqs:torsion_equation_residual",
        "fieldeqs:component_field_equation_residuals",
    ),
    "forms": (
        "forms:internal_wedge",
        "forms:epsilon_trace",
        "forms:raise_lower",
        "forms:interior_product",
        "forms:exterior_derivative",
        "forms:covariant_D",
        "forms:covariant_exterior_derivative",
    ),
    "identities": (
        "identities:second_bianchi_residual",
        "identities:first_bianchi_residual",
        "identities:rewritten_lhs_check",
        "identities:conservation_form_residuals",
        "identities:spin_potential_tensor",
        "identities:conservation_component_residuals",
        "identities:metric_compatibility_residual",
        "identities:commutator_residual",
        "identities:curvature_wedge_action",
        "identities:d_squared_residual",
    ),
    "runner": ("runner:run_checks",),
    "runner.report": ("runner:report_document",),
}

# Counted without spans: these run thousands of times per point.
COUNTED = ("jets:Jet.__init__", "jets:jet_einsum")

EVAL_TARGET = "exprkit:eval_jet"

_LAYER_OF = {target: layer for layer, targets in TIMED.items() for target in targets}


@dataclass
class CallTrace:
    """What one traced call did: per-layer self seconds, call counts, spans."""

    self_s: Counter = field(default_factory=Counter)
    check_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    eval_keys: int = 0
    faults: int = 0
    names: list[str] = field(default_factory=list)
    spans: list[tuple[int, float, float, int]] = field(default_factory=list)


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None if it is gone."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(f"tetradkit.{module_name}")
    parts = qualname.split(".")
    try:
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except AttributeError:
        return None


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self._undo: list = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._reset()

    def _reset(self):
        self._spans: list = []
        self._counts: Counter = Counter()
        self._eval_keys: set = set()
        self._faults = 0

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    def _timed(self, name: str, fn):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        is_eval = name == EVAL_TARGET

        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            if is_eval:
                expr, point, order = (tuple(args) + tuple(kwargs.values()))[:3]
                point = np.asarray(point, dtype=float).tobytes()
                self._eval_keys.add((id(expr), point, order))
            spans = self._spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if is_eval and type(exc).__name__ == "DomainFault":
                    self._faults += 1
                raise
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, target: str, make):
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, original = found
        wrapper = make(target, original)
        if isinstance(owner, type):
            if attr in vars(owner):
                self._undo.append(lambda: setattr(owner, attr, original))
            else:
                self._undo.append(lambda: delattr(owner, attr))
            setattr(owner, attr, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != "tetradkit" and not module_name.startswith("tetradkit."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append(lambda m=module, k=key: setattr(m, k, original))
                    setattr(module, key, wrapper)

    def install(self):
        for targets in TIMED.values():
            for target in targets:
                self._rebind(target, self._timed)
        for target in COUNTED:
            self._rebind(target, self._counted)
        runner = sys.modules["tetradkit.runner"]
        # CHECKS entries are frozen dataclasses holding their evaluators.
        for check in runner.CHECKS:
            original = check.evaluate
            self._undo.append(
                lambda c=check, f=original: object.__setattr__(c, "evaluate", f)
            )
            object.__setattr__(check, "evaluate", self._timed(f"check:{check.name}", original))

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- per-call results --------------------------------------------------

    def finish_call(self, keep_spans: bool) -> CallTrace:
        """Fold the spans recorded since the last call into a CallTrace."""
        spans = self._spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = CallTrace(
            counts=self._counts,
            eval_keys=len(self._eval_keys),
            faults=self._faults,
        )
        for i, (name_id, start, end, _) in enumerate(spans):
            name = self._names[name_id]
            self_time = end - start - covered[i]
            if name.startswith("check:"):
                out.check_s[name[len("check:"):]] += end - start
                # check bodies are runner code
                out.self_s["runner"] += self_time
            else:
                out.self_s[_LAYER_OF[name]] += self_time
        if keep_spans:
            out.names = list(self._names)
            out.spans = spans
        self._reset()
        return out
