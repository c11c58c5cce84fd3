"""Mutation gate: a wrong derivation must fail some check.

Each mutant replaces one derivation that ``pointjets`` imports with a
wrong one, by monkeypatching the name there, and runs all six builtins at
6 points.  ``MUTANTS`` lists, per mutant, the builtins on which the run
must not pass; on every other builtin the mutant survives, for the reason
given beside it.  A refactor that lets a mutant through, or that starts
to catch a survivor, changes this table, and the change has to be argued.
"""

import pytest

from tetradkit import pointjets
from tetradkit.fieldeqs import einstein_jet
from tetradkit.geometry import field_strength_jet
from tetradkit.jets import jet_einsum, jet_partial, jet_transpose
from tetradkit.runner import run_checks
from tetradkit.scenarios import BUILTIN_NAMES, builtin_scenario

POINTS = 6


def _field_strength_parts(omega):
    """(F, its linear term d omega) of a connection jet."""
    dw = jet_transpose(jet_partial(omega), (0, 1, 3, 2))
    return field_strength_jet(omega), dw - jet_transpose(dw, (0, 1, 3, 2))


def _f_linear_flipped(omega):
    f, lin = _field_strength_parts(omega)
    return f - lin.scaled(2.0)


def _f_quadratic_flipped(omega):
    f, lin = _field_strength_parts(omega)
    return lin.scaled(2.0) - f


def _einstein_trace_flipped(riemann, einv, g, f):
    """ricci + (1/2) g R where the Einstein tensor has ricci - (1/2) g R."""
    half = jet_einsum("ma,abmw->bw", einv, f)
    scalar = jet_einsum("wb,bw->", einv, half).scaled(-1.0)
    trace_term = jet_einsum("mw,->mw", g, scalar).scaled(0.5)
    return einstein_jet(riemann, einv, g, f) + trace_term.scaled(2.0)


def _scaled(name: str, factor: float):
    """``pointjets.<name>`` as imported, its result times ``factor``."""
    original = getattr(pointjets, name)
    return lambda *args: original(*args).scaled(factor)


ALL = frozenset(BUILTIN_NAMES)
FLAT = frozenset({"minkowski", "flat-polar"})
VACUUM = FLAT | {"schwarzschild"}
TORSIONLESS = VACUUM | {"flrw"}

# Why the survivors pass.  All but one are invisible by construction; the
# Riemann sign flip on schwarzschild is not.
ZERO_F = "F = 0 on the flat frames, and a zero re-signed or doubled is still zero"
ZERO_THETA = "Theta = 0 without contorsion, and every law that reads Theta or its 3-form is linear in it"
VACUUM_LAWS = "in vacuum every law that reads it is zero or scales with it"

# mutant -> (the name in pointjets it replaces, the replacement, the
# builtins on which it must fail at seed 0, why it passes on the others)
MUTANTS = {
    "F linear sign": ("field_strength_jet", _f_linear_flipped, ALL - FLAT, ZERO_F),
    "F quadratic sign": ("field_strength_jet", _f_quadratic_flipped, ALL - FLAT, ZERO_F),
    "theta sign": ("torsion_jet", _scaled("torsion_jet", -1.0), ALL - TORSIONLESS, ZERO_THETA),
    "riemann sign": (
        "riemann_jet",
        _scaled("riemann_jet", -1.0),
        ALL - VACUUM,
        "R = 0 on the flat frames; on schwarzschild R != 0, but in vacuum only scalar-consistency "
        "reads R, through a trace that vanishes (ROADMAP item 11's coordinate commutator would read it)",
    ),
    "einstein sign": ("einstein_jet", _scaled("einstein_jet", -1.0), ALL - VACUUM, VACUUM_LAWS),
    "einstein trace sign": ("einstein_jet", _einstein_trace_flipped, ALL - VACUUM, VACUUM_LAWS),
    "curvature 3-form sign": (
        "curvature_three_form", _scaled("curvature_three_form", -1.0), ALL - VACUUM, VACUUM_LAWS
    ),
    "F x2": ("field_strength_jet", _scaled("field_strength_jet", 2.0), ALL - FLAT, ZERO_F),
    "theta x2": ("torsion_jet", _scaled("torsion_jet", 2.0), ALL - TORSIONLESS, ZERO_THETA),
    "torsion 3-form x2": (
        "torsion_three_form", _scaled("torsion_three_form", 2.0), ALL - TORSIONLESS, ZERO_THETA
    ),
    "det e x2": ("determinant_jet", _scaled("determinant_jet", 2.0), ALL - VACUUM, VACUUM_LAWS),
    "g x2": ("metric_jet", _scaled("metric_jet", 2.0), ALL - VACUUM, VACUUM_LAWS),
    "gamma x(1+1e-6)": (
        "christoffel_jet",
        _scaled("christoffel_jet", 1.0 + 1e-6),
        ALL - {"minkowski"},
        "Gamma = 0 on the Cartesian minkowski frame",
    ),
    "levi-civita x(1+1e-6)": (
        "levi_civita_jet",
        _scaled("levi_civita_jet", 1.0 + 1e-6),
        frozenset({"flat-polar", "schwarzschild", "flrw"}),
        "minkowski and random-fields derive no Levi-Civita connection; on flat-contorsion the scaled "
        "part is just another connection, which every identity accepts and whose field equations the "
        "manufactured sources solve",
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_mutant_fails_where_the_table_says(monkeypatch, mutant):
    name, replacement, must_fail, _ = MUTANTS[mutant]
    monkeypatch.setattr(pointjets, name, replacement)
    failed = {
        builtin
        for builtin in BUILTIN_NAMES
        if not run_checks(builtin_scenario(builtin), points=POINTS, seed=0).overall_pass
    }
    assert failed == must_fail


def test_the_unmutated_builtins_pass():
    assert all(run_checks(builtin_scenario(b), points=POINTS, seed=0).overall_pass for b in BUILTIN_NAMES)
