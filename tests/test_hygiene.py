"""Source hygiene: every module-level import in the package is used, every
top-level definition has a reader, η is applied one way, and jets have
one layout with every point fault recorded."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tetradkit").glob("*.py"))


def _imported_names(tree: ast.Module):
    """(bound name, line) for each import at module level, including those
    under a module-level ``if`` such as ``if TYPE_CHECKING:``."""
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If):
            nodes.extend(node.body + node.orelse)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads: in code, in quoted annotations and in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            inner = ast.parse(note.value, mode="eval")
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _einsum_calls_reading(tree: ast.Module, name: str):
    """Lines of ``np.einsum``/``numpy.einsum`` calls with ``name`` among their arguments."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and any(isinstance(a, ast.Name) and a.id == name for a in node.args)
        ):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_eta_is_applied_as_a_sign_flip(path):
    """Lowering an internal index is ``forms.eta_lower``, not an einsum with ETA."""
    lines = list(_einsum_calls_reading(ast.parse(path.read_text(encoding="utf-8")), "ETA"))
    assert not lines, f"{path.name} contracts ETA with np.einsum at lines {lines}; use forms.eta_lower"


# Definitions that no module in the package reads, each with the reason it
# stays: a tool of the acceptance gate, a reference the tests compare to, or
# a target that perfbench/layertrace.py times by name (these go once the
# benchmark's trace list drops them).
UNREAD_ALLOWED = {
    "forms.exterior_derivative": "test reference for the twisted derivative",
    "forms.covariant_exterior_derivative": "benchmark trace target; the tests' dense reference",
    "fieldeqs.dual_component_projection": "test reference: pins CURVATURE_DUAL_FACTOR",
    "fieldeqs.pc_action_density": "benchmark trace target",
    "fieldeqs.torsion_q_jet": "benchmark trace target",
    "forms.raise_lower": "benchmark trace target",
    "forms.interior_product": "benchmark trace target",
}


LAYERTRACE = SOURCES[0].parents[2] / "perfbench" / "layertrace.py"


def _timed_targets() -> set[str]:
    """The "module:qualname" targets of ``TIMED`` in perfbench/layertrace.py,
    read from its source without importing it."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    (timed,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)
    ]
    return {target for targets in ast.literal_eval(timed).values() for target in targets}


def test_every_allowed_trace_target_is_timed():
    """An allowlisted definition kept as a benchmark trace target is still
    named in the benchmark's ``TIMED``; once the trace list drops it, it
    goes from ``src/`` or moves to the tests' reference."""
    timed = _timed_targets()
    stale = [
        name
        for name, reason in UNREAD_ALLOWED.items()
        if "benchmark trace target" in reason and name.replace(".", ":", 1) not in timed
    ]
    assert not stale, f"allowlisted as trace targets but not timed: {', '.join(stale)}"


def _readers(tree: ast.Module):
    """(name, top-level statement) for each name a module reads, in code or
    in a quoted annotation."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, stmt
        for note in _annotations(ast.Module(body=[stmt], type_ignores=[])):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for node in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def _defined_names(stmt: ast.stmt):
    """Names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment other than dunders like ``__all__``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not node.id.startswith("__"):
                    yield node.id


def test_every_definition_has_a_reader():
    """A top-level function, class or assigned name is read somewhere in
    the package, outside its own statement, or is listed in
    ``UNREAD_ALLOWED``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read: dict[str, set[int]] = {}
    for tree in trees.values():
        for name, stmt in _readers(tree):
            read.setdefault(name, set()).add(id(stmt))
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if not read.get(name, set()) - {id(stmt)}:
                    unread.append(f"{module}.{name}")
    unexpected = sorted(set(unread) - set(UNREAD_ALLOWED))
    assert not unexpected, f"definitions nothing in src/ reads: {', '.join(unexpected)}"
    stale = sorted(set(UNREAD_ALLOWED) - set(unread))
    assert not stale, f"allowlisted definitions that now have a reader: {', '.join(stale)}"


def _defaults(args: ast.arguments):
    """(parameter, default) pairs of a function's signature."""
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults) :], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_fault_list_is_required(path):
    """No function takes a ``faults`` list that may be left out, or asks
    whether it was: a point's fault is recorded in its caller's list, never
    raised for want of one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    optional = [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg, default in _defaults(node.args)
        if arg.arg == "faults" and _is_none(default)
    ]
    optional += [
        f"a test of faults against None (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "faults"
        and any(_is_none(c) for c in node.comparators)
    ]
    assert not optional, f"{path.name} lets faults be None: {', '.join(optional)}"


def _spelled(node: ast.AST):
    """The identifier or string an AST node spells, if any: a ``__slots__``
    entry is a string constant."""
    for field in ("attr", "arg", "name", "id", "value"):
        value = getattr(node, field, None)
        if isinstance(value, str):
            return value
    return None


def test_jets_have_no_lead():
    """``Jet`` and ``PointJets`` carry exactly one point axis, so neither
    defines a ``lead``: no slot, attribute, property or parameter."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    found = []
    for module, name in (("jets", "Jet"), ("pointjets", "PointJets")):
        (cls,) = [n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == name]
        found += [f"{name} (line {n.lineno})" for n in ast.walk(cls) if _spelled(n) == "lead"]
    assert not found, f"a jet layout flag is back: {', '.join(found)}"
