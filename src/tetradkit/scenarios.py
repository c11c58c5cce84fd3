"""Scenario documents: schema, loading, and the builtin catalog.

A scenario is a JSON document that names a chart, a tetrad, a connection
recipe, a matter model, and sampling defaults.  This module checks the
document's structure; the field classes of ``geometry`` own the two
expression formats (``parse_grid`` for 4x4 grids, ``_PairField`` for
pair-keyed entries) and ``MatterModel`` owns the coupling.  Loading builds
the tetrad, the connection and the matter once, reporting their errors,
which name the offending entry, as ``ScenarioError``.  Builtin scenarios
are generated documents, so ``dump`` output is a valid input file and
digests are stable across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exprkit import Chart, ChartError, ExpressionError, check_parameter_names
from .fieldeqs import FieldEquationError, MatterModel
from .geometry import (
    ContorsionField,
    FrameSource,
    GeometryError,
    LeviCivitaConnection,
    SpinConnectionField,
    SummedConnection,
    TetradField,
)

DIM = 4

PAIR_KEYS = ("01", "02", "03", "12", "13", "23")

CONNECTION_MODES = ("explicit", "levi-civita", "levi-civita+contorsion")
MATTER_MODES = ("vacuum", "manufactured", "explicit")

_TOP_KEYS = {
    "schema_version",
    "name",
    "chart",
    "parameters",
    "tetrad",
    "connection",
    "matter",
    "kappa",
    "lambda_cc",
    "sampling",
    "tolerances",
}


class ScenarioError(ValueError):
    """A scenario document failed validation."""


def _fail(msg: str) -> ScenarioError:
    return ScenarioError(msg)


def _expect_mapping(value, what: str) -> dict:
    if not isinstance(value, Mapping):
        raise _fail(f"{what} must be an object, got {type(value).__name__}")
    return dict(value)


def _expect_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise _fail(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _parse_chart(doc) -> Chart:
    block = _expect_mapping(doc, "chart")
    unknown = set(block) - {"names", "bounds"}
    if unknown:
        raise _fail(f"chart has unknown keys {sorted(unknown)}")
    names = block.get("names")
    bounds = block.get("bounds")
    if names is None or bounds is None:
        raise _fail("chart needs both 'names' and 'bounds'")
    if not isinstance(names, Sequence) or isinstance(names, str):
        raise _fail("chart names must be a list of coordinate names")
    try:
        return Chart(tuple(str(n) for n in names), tuple(tuple(b) for b in bounds))
    except (ChartError, TypeError, ValueError) as exc:
        raise _fail(f"chart: {exc}") from exc


def _parse_parameters(doc, chart: Chart) -> dict[str, float]:
    if doc is None:
        return {}
    block = _expect_mapping(doc, "parameters")
    params = {str(k): _expect_number(v, f"parameter '{k}'") for k, v in block.items()}
    try:
        check_parameter_names(params, chart)
    except ExpressionError as exc:
        raise _fail(str(exc)) from exc
    return params


def _copy_entries(entries: Mapping) -> dict[str, list[str]]:
    return {key: list(comps) for key, comps in entries.items()}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario: its built fields and matter, sampling defaults,
    and the normalized document they were built from."""

    name: str
    chart: Chart
    parameters: dict[str, float]
    connection_mode: str
    tetrad: TetradField
    connection: FrameSource
    matter: MatterModel
    points: int
    seed: int
    tolerances: dict[str, float]
    document: dict = field(repr=False)

    @property
    def digest(self) -> str:
        payload = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenario_from_dict(doc, source: str = "<dict>") -> Scenario:
    """Validate a scenario document and build the Scenario."""
    try:
        return _build_scenario(doc, source)
    except (GeometryError, FieldEquationError) as exc:
        raise ScenarioError(str(exc)) from exc


def _build_scenario(doc, source: str) -> Scenario:
    doc = _expect_mapping(doc, "scenario document")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise _fail(f"unknown scenario keys {sorted(unknown)}")
    version = doc.get("schema_version", "1")
    if str(version) != "1":
        raise _fail(f"unsupported scenario schema_version {version!r}")
    missing = {"chart", "tetrad", "connection"} - set(doc)
    if missing:
        raise _fail(f"missing required scenario keys {sorted(missing)}")

    chart = _parse_chart(doc["chart"])
    params = _parse_parameters(doc.get("parameters"), chart)
    tetrad = TetradField(doc["tetrad"], chart, params)

    connection_doc = doc["connection"]
    if connection_doc == "levi-civita":
        connection_mode = "levi-civita"
        connection = LeviCivitaConnection(tetrad)
    else:
        block = _expect_mapping(connection_doc, "connection")
        connection_mode = block.get("mode")
        if connection_mode not in ("explicit", "levi-civita+contorsion"):
            raise _fail(
                f"connection mode must be one of {CONNECTION_MODES}, got {connection_mode!r}"
            )
        unknown = set(block) - {"mode", "entries"}
        if unknown:
            raise _fail(f"connection has unknown keys {sorted(unknown)}")
        entries = block.get("entries", {})
        if connection_mode == "explicit":
            connection = SpinConnectionField(entries, chart, params)
        else:
            connection = SummedConnection(
                LeviCivitaConnection(tetrad), ContorsionField(entries, chart, params)
            )
        connection_doc = {"mode": connection_mode, "entries": _copy_entries(entries)}

    kappa = doc.get("kappa")
    if kappa is not None:
        kappa = _expect_number(kappa, "kappa")
    lambda_cc = _expect_number(doc.get("lambda_cc", 0.0), "lambda_cc")

    matter_doc = doc.get("matter", "vacuum")
    if isinstance(matter_doc, str):
        if matter_doc not in ("vacuum", "manufactured"):
            raise _fail(f"matter mode must be one of {MATTER_MODES}, got {matter_doc!r}")
        matter = MatterModel(matter_doc, kappa=kappa, lam=lambda_cc)
    else:
        block = _expect_mapping(matter_doc, "matter")
        if block.get("mode") != "explicit":
            raise _fail(
                f"matter mode must be one of {MATTER_MODES}, got {block.get('mode')!r}"
            )
        unknown = set(block) - {"mode", "stress", "spin"}
        if unknown:
            raise _fail(f"matter has unknown keys {sorted(unknown)}")
        stress = block.get("stress")
        if stress is None:
            raise _fail("explicit matter needs a 'stress' grid")
        spin = block.get("spin", {})
        matter = MatterModel.explicit(stress, spin, chart, params, kappa=kappa, lam=lambda_cc)
        matter_doc = {
            "mode": "explicit",
            "stress": [list(row) for row in stress],
            "spin": _copy_entries(spin),
        }

    sampling = _expect_mapping(doc.get("sampling", {}), "sampling")
    unknown = set(sampling) - {"points", "seed"}
    if unknown:
        raise _fail(f"sampling has unknown keys {sorted(unknown)}")
    points = sampling.get("points", 100)
    seed = sampling.get("seed", 0)
    if not isinstance(points, int) or isinstance(points, bool) or points <= 0:
        raise _fail(f"sampling points must be a positive integer, got {points!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _fail(f"sampling seed must be a nonnegative integer, got {seed!r}")

    tolerances = {}
    for key, value in _expect_mapping(doc.get("tolerances", {}), "tolerances").items():
        tol = _expect_number(value, f"tolerance for check '{key}'")
        if tol <= 0:
            raise _fail(f"tolerance for check '{key}' must be positive, got {tol}")
        tolerances[str(key)] = tol

    name = str(doc.get("name", source))
    document = {
        "schema_version": "1",
        "name": name,
        "chart": {
            "names": list(chart.coord_names),
            "bounds": [list(b) for b in chart.bounds],
        },
        "parameters": dict(params),
        "tetrad": [list(row) for row in doc["tetrad"]],
        "connection": connection_doc,
        "matter": matter_doc,
        "kappa": kappa,
        "lambda_cc": lambda_cc,
        "sampling": {"points": points, "seed": seed},
        "tolerances": dict(sorted(tolerances.items())),
    }

    return Scenario(
        name=name,
        chart=chart,
        parameters=params,
        connection_mode=connection_mode,
        tetrad=tetrad,
        connection=connection,
        matter=matter,
        points=points,
        seed=seed,
        tolerances=tolerances,
        document=document,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc, source=str(path))


# -- builtin catalog --------------------------------------------------------


def _identity_rows() -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(DIM)] for i in range(DIM)]


def _poly_texts(rng: np.random.Generator, names, count: int, scale: float) -> list[str]:
    out = []
    for _ in range(count):
        parts = []
        for _ in range(3):
            degree = int(rng.integers(1, 4))
            coeff = round(float(rng.uniform(-scale, scale)), 4)
            factors = [names[int(rng.integers(0, DIM))] for _ in range(degree)]
            parts.append("*".join([repr(coeff)] + factors))
        out.append(" + ".join(parts))
    return out


def _minkowski_document() -> dict:
    return {
        "name": "minkowski",
        "chart": {"names": ["x0", "x1", "x2", "x3"], "bounds": [[-1.0, 1.0]] * 4},
        "tetrad": _identity_rows(),
        "connection": {
            "mode": "explicit",
            "entries": {key: ["0", "0", "0", "0"] for key in PAIR_KEYS},
        },
        "matter": "vacuum",
        "sampling": {"points": 100, "seed": 0},
    }


def _flat_polar_document() -> dict:
    rows = _identity_rows()
    rows[1][1] = "r"
    return {
        "name": "flat-polar",
        "chart": {
            "names": ["r", "th", "z", "t"],
            "bounds": [[0.5, 3.0], [0.3, 2.8], [-1.0, 1.0], [-1.0, 1.0]],
        },
        "tetrad": rows,
        "connection": "levi-civita",
        "matter": "vacuum",
        "sampling": {"points": 100, "seed": 0},
    }


def _schwarzschild_document() -> dict:
    return {
        "name": "schwarzschild",
        "chart": {
            "names": ["r", "th", "ph", "t"],
            "bounds": [[3.0, 10.0], [0.5, 2.6], [0.0, 6.283], [-1.0, 1.0]],
        },
        "parameters": {"M": 1.0},
        "tetrad": [
            ["1/sqrt(1 - 2*M/r)", "0", "0", "0"],
            ["0", "r", "0", "0"],
            ["0", "0", "r*sin(th)", "0"],
            ["0", "0", "0", "sqrt(1 - 2*M/r)"],
        ],
        "connection": "levi-civita",
        "matter": "vacuum",
        "sampling": {"points": 100, "seed": 0},
    }


def _flrw_document() -> dict:
    rows = [["0"] * 4 for _ in range(DIM)]
    for i in range(3):
        rows[i][i] = "exp(H*t)"
    rows[3][3] = "1"
    return {
        "name": "flrw",
        "chart": {"names": ["x", "y", "z", "t"], "bounds": [[-1.0, 1.0]] * 4},
        "parameters": {"H": 0.3},
        "tetrad": rows,
        "connection": "levi-civita",
        "matter": "manufactured",
        "sampling": {"points": 100, "seed": 0},
    }


def _flat_contorsion_document() -> dict:
    return {
        "name": "flat-contorsion",
        "chart": {"names": ["x0", "x1", "x2", "x3"], "bounds": [[-1.0, 1.0]] * 4},
        "tetrad": _identity_rows(),
        "connection": {
            "mode": "levi-civita+contorsion",
            "entries": {
                "01": ["0.2*x1", "0.1*x0", "0", "0.05*x3"],
                "02": ["0", "0.15*x2", "-0.1*x0", "0"],
                "03": ["0.1*x3", "0", "0", "-0.2*x0"],
                "12": ["-0.05*x2", "0.2*x3", "0.1*x1", "0"],
                "13": ["0", "-0.1*x1", "0.2*x0", "0.1*x2"],
                "23": ["0.1*x0", "0", "-0.15*x3", "0.2*x1"],
            },
        },
        "matter": "manufactured",
        "sampling": {"points": 100, "seed": 0},
    }


def _random_fields_document() -> dict:
    rng = np.random.default_rng(11)
    names = ("x0", "x1", "x2", "x3")
    tetrad = _identity_rows()
    perturbations = _poly_texts(rng, names, 16, 0.05)
    for i in range(DIM):
        for j in range(DIM):
            tetrad[i][j] = f"{tetrad[i][j]} + {perturbations[4 * i + j]}"
    entries = {key: _poly_texts(rng, names, 4, 0.3) for key in PAIR_KEYS}
    return {
        "name": "random-fields",
        "chart": {"names": list(names), "bounds": [[-1.0, 1.0]] * 4},
        "tetrad": tetrad,
        "connection": {"mode": "explicit", "entries": entries},
        "matter": "manufactured",
        "sampling": {"points": 100, "seed": 0},
    }


_BUILTIN_FACTORIES = {
    "minkowski": _minkowski_document,
    "flat-polar": _flat_polar_document,
    "schwarzschild": _schwarzschild_document,
    "flrw": _flrw_document,
    "flat-contorsion": _flat_contorsion_document,
    "random-fields": _random_fields_document,
}

BUILTIN_NAMES = tuple(_BUILTIN_FACTORIES)


def builtin_document(name: str) -> dict:
    """A fresh copy of a builtin scenario document."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise ScenarioError(
            f"no builtin scenario named {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
    return factory()


def builtin_scenario(name: str) -> Scenario:
    return scenario_from_dict(builtin_document(name), source=name)
