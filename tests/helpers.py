"""Shared generators and scenario factories for randomized tests.

Everything here is seeded and deterministic.  Expression generators only
emit text that is smooth and domain-safe on the chart box they are built
for, so derivative oracles never step outside a function's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tetradkit.exprkit import Chart, Expression, parse_expression
from tetradkit.fieldeqs import MatterModel
from tetradkit.forms import ETA
from tetradkit.geometry import (
    ContorsionField,
    GeometryError,
    SpinConnectionField,
    TetradField,
)

UNIT_CHART = Chart(("x0", "x1", "x2", "x3"), ((-1.0, 1.0),) * 4)
SCHW_CHART = Chart(
    ("r", "th", "ph", "t"), ((2.5, 12.0), (0.3, 2.8), (0.0, 6.283), (-1.0, 1.0))
)
FLRW_CHART = Chart(("x", "y", "z", "t"), ((-1.0, 1.0),) * 4)

PAIR_KEYS = ("01", "02", "03", "12", "13", "23")


def _coef(rng: np.random.Generator, scale: float = 1.0) -> str:
    # short decimal literals keep printed forms tidy and round-trippable
    c = rng.uniform(-scale, scale)
    return repr(round(float(c), 4))


def random_smooth_text(rng: np.random.Generator, chart: Chart = UNIT_CHART) -> str:
    """Random smooth expression text, safe on the whole chart box."""
    names = chart.coord_names

    def var() -> str:
        return names[rng.integers(0, 4)]

    def piece() -> str:
        kind = rng.integers(0, 8)
        if kind == 0:
            return _coef(rng, 2.0)
        if kind == 1:
            return f"{_coef(rng)}*{var()}"
        if kind == 2:
            return f"{_coef(rng)}*{var()}*{var()}"
        if kind == 3:
            return f"sin({_coef(rng)}*{var()} + {_coef(rng)})"
        if kind == 4:
            return f"cos({_coef(rng)}*{var()}*{var()})"
        if kind == 5:
            return f"exp({_coef(rng, 0.5)}*{var()})"
        if kind == 6:
            return f"sqrt(2 + {var()}^2)"
        return f"{_coef(rng)}/(3 + {var()}^2)"

    n = int(rng.integers(2, 5))
    parts = [piece() for _ in range(n)]
    out = parts[0]
    for p in parts[1:]:
        out = f"{out} {'+' if rng.random() < 0.6 else '*'} ({p})"
    return out


def random_smooth_expression(rng: np.random.Generator, chart: Chart = UNIT_CHART) -> Expression:
    return parse_expression(random_smooth_text(rng, chart), chart)


def random_polynomial_text(
    rng: np.random.Generator,
    chart: Chart = UNIT_CHART,
    degree: int = 3,
    scale: float = 0.1,
    terms: int = 4,
) -> str:
    """Random polynomial with small coefficients; all partials exist exactly."""
    names = chart.coord_names
    parts = []
    for _ in range(terms):
        d = int(rng.integers(1, degree + 1))
        factors = [names[rng.integers(0, 4)] for _ in range(d)]
        parts.append("*".join([_coef(rng, scale)] + factors))
    return " + ".join(parts)


def at(source, x, order):
    """A frame source's jet at the point x, a chunk of one, which must not
    fault there."""
    faults = [None]
    jet = source.jet([x], order, faults)
    assert faults == [None], faults
    return jet


def identity_tetrad(chart=UNIT_CHART):
    return TetradField(
        [["1" if i == j else "0" for j in range(4)] for i in range(4)], chart
    )


def schwarzschild_tetrad(mass=1.0, chart=SCHW_CHART):
    return TetradField(
        [
            ["1/sqrt(1 - 2*M/r)", "0", "0", "0"],
            ["0", "r", "0", "0"],
            ["0", "0", "r*sin(th)", "0"],
            ["0", "0", "0", "sqrt(1 - 2*M/r)"],
        ],
        chart,
        params={"M": mass},
    )


def flrw_tetrad(hubble=0.3):
    texts = [["0"] * 4 for _ in range(4)]
    for i in range(3):
        texts[i][i] = "exp(H*t)"
    texts[3][3] = "1"
    return TetradField(texts, FLRW_CHART, params={"H": hubble})


def random_tetrad(rng, scale=0.1):
    rows = [
        [("1" if i == j else "0") + " + "
         + random_polynomial_text(rng, UNIT_CHART, scale=scale)
         for j in range(4)]
        for i in range(4)
    ]
    return TetradField(rows, UNIT_CHART)


def random_connection(rng, scale=0.3):
    entries = {
        key: [random_polynomial_text(rng, UNIT_CHART, scale=scale) for _ in range(4)]
        for key in PAIR_KEYS
    }
    return SpinConnectionField(entries, UNIT_CHART)


def constant_connection(values):
    """The connection with constant components w[a, b, mu], the (a, b)
    entries with a < b written as ``repr`` literals."""
    entries = {
        key: [repr(float(values[int(key[0]), int(key[1]), m])) for m in range(4)]
        for key in PAIR_KEYS
    }
    return SpinConnectionField(entries, UNIT_CHART)


def random_contorsion(rng, scale=0.25):
    entries = {
        key: [random_polynomial_text(rng, UNIT_CHART, scale=scale) for _ in range(4)]
        for key in PAIR_KEYS
    }
    return ContorsionField(entries, UNIT_CHART)


def random_matter(rng, **kwargs):
    stress = [
        [f"0.2*({random_polynomial_text(rng, UNIT_CHART, scale=1.0)})" for _ in range(4)]
        for _ in range(4)
    ]
    spin = {
        key: [f"0.1*({random_polynomial_text(rng, UNIT_CHART, scale=1.0)})" for _ in range(4)]
        for key in PAIR_KEYS
    }
    return MatterModel.explicit(stress, spin, UNIT_CHART, **kwargs)


def ricci(jets) -> np.ndarray:
    """Ricci components [mu, omega] at a chunk of one's point: the second
    and fourth slots of ``jets.riemann(0)`` contracted."""
    return np.einsum("msws->mw", jets.riemann(0).value[0])


def curvature_scalar(jets) -> float:
    """The Ricci tensor traced with the inverse metric, at a chunk of one's
    point."""
    return float(np.einsum("mw,mw->", jets.inverse_metric(0).value[0], ricci(jets)))


@dataclass(frozen=True)
class CurvatureData:
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    einstein: np.ndarray


def curvature_from_values(e, einv, g, f) -> CurvatureData:
    """Curvature tensors from the values of e, e^-1, g and F alone.

    An independent value-level route that the jet formulas are compared
    against.
    """
    riemann = np.einsum("sa,abmn,bc,cw->mnws", einv, f, ETA, e)
    ricci = np.einsum("msws->mw", riemann)
    scalar = -float(np.einsum("ma,wb,abmw->", einv, einv, f))
    check = float(np.einsum("mw,mw->", np.linalg.inv(g), ricci))
    if abs(scalar - check) > 1e-10 * max(1.0, abs(scalar)):
        raise GeometryError(
            f"curvature scalar routes disagree: {scalar!r} vs {check!r}"
        )
    einstein = ricci - 0.5 * g * scalar
    return CurvatureData(riemann=riemann, ricci=ricci, scalar=scalar, einstein=einstein)
