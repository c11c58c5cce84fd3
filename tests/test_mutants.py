"""Mutation gate: a wrong derivation must fail some check.

Each mutant replaces one derivation that ``pointjets`` imports, or one
primitive that the residual functions and derivations call, with a wrong
one, by monkeypatching the name where it is imported (``WHERE``), and runs
all six builtins at 6 points.  A mutant breaks coherence, by a wrong sign,
axis or coefficient: a uniform scale of a source jet would only swap in
another coherent field.  ``MUTANTS`` lists, per mutant, the builtins on
which the run must not pass; on every other builtin the mutant survives,
for the reason given beside it.  A refactor that lets a mutant through, or
that starts to catch a survivor, changes this table, and the change has
to be argued.
"""

import pytest

from tetradkit import exprkit, fieldeqs, geometry, identities, pointjets
from tetradkit.fieldeqs import _eps_lead, einstein_jet
from tetradkit.forms import covariant_D, slot_action, twisted_divergence, two_form_dual
from tetradkit.geometry import field_strength_jet
from tetradkit.jets import _mul_coordinate, jet_einsum, jet_partial, jet_transpose
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


def _dual_pair_02_resigned(x, at):
    """``two_form_dual`` with its (0, 2) and (2, 0) entries negated."""
    out = two_form_dual(x, at)
    lead = (slice(None),) * (1 + at)
    for d in out.data:
        d[lead + (0, 2)] *= -1.0
        d[lead + (2, 0)] *= -1.0
    return out


def _divergence_connection_flipped(wmix, y, variances):
    return twisted_divergence(wmix.scaled(-1.0), y, variances)


def _slot_variances_flipped(mat, x, variances, spec, acc=None):
    return slot_action(mat, x, tuple(-v for v in variances), spec, acc)


def _covariant_connection_flipped(wmix, alpha, variances):
    return covariant_D(wmix.scaled(-1.0), alpha, variances)


def _eps_0123_resigned(jet, n):
    """``_eps_lead`` with eps_0123 alone re-signed, so the symbol no longer
    alternates.  Every caller contracts two indices: out[0, 1] = ... + x[2, 3]."""
    assert n == 2
    out = _eps_lead(jet, n)
    for d, x in zip(out.data, jet.data):
        d[:, 0, 1] -= 2.0 * x[:, 2, 3]
    return out


def _coordinate_product_hessian_lopsided(f, index, x, left):
    """``_mul_coordinate`` with one of the two cross terms of the second
    derivative left out, so the Hessian is no longer symmetric."""
    out = _mul_coordinate(f, index, x, left)
    if out.order >= 2:
        out.data[2][..., index, :] -= f.data[1]
    return out


# Where a replaced name is bound, if not in pointjets: a primitive where the
# modules that call it import it (its own module's functions keep it).
WHERE = {
    "two_form_dual": (identities, fieldeqs),
    "twisted_divergence": (identities, fieldeqs),
    "slot_action": (identities,),
    "covariant_D": (identities, geometry),
    "_eps_lead": (fieldeqs,),
    "_mul_coordinate": (exprkit,),
}

ALL = frozenset(BUILTIN_NAMES)
FLAT = frozenset({"minkowski", "flat-polar"})
VACUUM = FLAT | {"schwarzschild"}
TORSIONLESS = VACUUM | {"flrw"}

# Why the survivors pass.  All but one are invisible by construction; the
# Riemann sign flip on schwarzschild is not.
ZERO_F = "F = 0 on the flat frames, and a zero re-signed or doubled is still zero"
ZERO_THETA = "Theta = 0 without contorsion, and every law that reads Theta or its 3-form is linear in it"
VACUUM_LAWS = "in vacuum every law that reads it is zero or scales with it"
CONSTANT_FRAME = (
    "minkowski's frame is constant and its connection zero: every form it derives is zero or "
    "constant, and a re-signed constant has no derivative"
)

# mutant -> (the name it replaces, the replacement, the builtins on which
# it must fail at seed 0, why it passes on the others)
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
    "dual (0, 2) sign": ("two_form_dual", _dual_pair_02_resigned, ALL - {"minkowski"}, CONSTANT_FRAME),
    "twisted divergence connection sign": (
        "twisted_divergence", _divergence_connection_flipped, ALL - {"minkowski"}, CONSTANT_FRAME
    ),
    "slot action variances": ("slot_action", _slot_variances_flipped, ALL - FLAT, ZERO_F),
    "covariant D connection sign": (
        "covariant_D", _covariant_connection_flipped, ALL - {"minkowski"}, CONSTANT_FRAME
    ),
    "eps_0123 sign": (
        "_eps_lead",
        _eps_0123_resigned,
        ALL - FLAT,
        "F, Theta and D(e ^ e) vanish on the flat frames, and each epsilon contraction reads one of them",
    ),
    "coordinate product hessian": (
        "_mul_coordinate",
        _coordinate_product_hessian_lopsided,
        frozenset({"random-fields", "schwarzschild"}),
        "no other builtin multiplies an expression by a coordinate: its coordinate products have a "
        "constant factor, which scales",
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_each_mutant_fails_where_the_table_says(monkeypatch, mutant):
    name, replacement, must_fail, _ = MUTANTS[mutant]
    for module in WHERE.get(name, (pointjets,)):
        monkeypatch.setattr(module, name, replacement)
    failed = {
        builtin
        for builtin in BUILTIN_NAMES
        if not run_checks(builtin_scenario(builtin), points=POINTS, seed=0).overall_pass
    }
    assert failed == must_fail


def test_the_unmutated_builtins_pass():
    assert all(run_checks(builtin_scenario(b), points=POINTS, seed=0).overall_pass for b in BUILTIN_NAMES)
