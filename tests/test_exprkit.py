"""Expression DSL: parsing, printing, jet evaluation, difference oracle."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from tetradkit.exprkit import (
    ArityError,
    BinOp,
    Call,
    Chart,
    ChartDomainError,
    ChartError,
    Const,
    CoordRef,
    DomainFault,
    ExpressionError,
    Neg,
    ParamRef,
    Pow,
    SyntaxFault,
    UnknownSymbolError,
    eval_jet,
    evaluate,
    format_expression,
    parse_expression,
)
from tetradkit.runner import sample_points

from helpers import UNIT_CHART, random_smooth_text
from reference import finite_difference_oracle

POLAR = Chart(("r", "th", "ph", "t"), ((0.5, 4.0), (0.1, 3.0), (0.0, 6.28), (-1.0, 1.0)))


class TestChart:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ChartError):
            Chart(("x", "x", "y", "z"), ((-1, 1),) * 4)

    def test_rejects_empty_interval(self):
        with pytest.raises(ChartError):
            Chart(("a", "b", "c", "d"), ((0, 0), (-1, 1), (-1, 1), (-1, 1)))

    def test_sampling_is_deterministic_and_inside(self):
        pts1 = sample_points(POLAR, 50, 3)
        pts2 = sample_points(POLAR, 50, 3)
        npt.assert_array_equal(pts1, pts2)
        lo = np.array([b[0] for b in POLAR.bounds])
        hi = np.array([b[1] for b in POLAR.bounds])
        pad = 0.01 * (hi - lo)
        assert np.all(pts1 >= lo + pad - 1e-12) and np.all(pts1 <= hi - pad + 1e-12)


# exponents that fold to no real number, and the error each raises
BAD_EXPONENTS = [
    ("x0^((-8)^0.5)", "exponent '(-8)^0.5' has no real value: negative base -8 to the non-integer power 0.5"),
    ("x0^(0^-1)", "exponent '0^(-1)' has no real value: division by zero"),
    ("x0^(1/0)", "exponent '1 / 0' has no real value: division by zero"),
]


class TestParser:
    @pytest.mark.parametrize("text, message", BAD_EXPONENTS, ids=[t for t, _ in BAD_EXPONENTS])
    def test_an_exponent_with_no_real_value_names_its_cause(self, text, message):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text, UNIT_CHART)
        assert str(err.value) == f"{message} (at position 2)"

    def test_simple_shapes(self):
        e = parse_expression("r^2*sin(th)", POLAR)
        assert e.root == BinOp("*", Pow(CoordRef(0, "r"), 2), Call("sin", CoordRef(1, "th")))

    def test_parameters_bind_values(self):
        e = parse_expression("1 - 2*M/r", POLAR, {"M": 1.0})
        assert e.root == BinOp(
            "-",
            Const(1.0),
            BinOp("/", BinOp("*", Const(2.0), ParamRef("M", 1.0)), CoordRef(0, "r")),
        )

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expression("-r^2", POLAR)
        assert e.root == Neg(Pow(CoordRef(0, "r"), 2))

    def test_power_right_associative(self):
        e = parse_expression("r^2^3", POLAR)
        assert e.root == Pow(CoordRef(0, "r"), 8)

    def test_negative_exponent(self):
        e = parse_expression("r^-2", POLAR)
        assert e.root == Pow(CoordRef(0, "r"), -2)
        assert evaluate(e, [2.0, 1.0, 1.0, 0.0]) == pytest.approx(0.25)

    def test_real_exponent(self):
        e = parse_expression("r^1.5", POLAR)
        assert e.root == Pow(CoordRef(0, "r"), 1.5)
        assert isinstance(e.root.exponent, float)

    def test_left_associative_subtraction(self):
        e = parse_expression("1 - r - th", POLAR)
        assert evaluate(e, [0.5, 0.25, 1.0, 0.0]) == pytest.approx(0.25)

    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2*r", POLAR)
        assert evaluate(e, [3.0, 1.0, 1.0, 0.0]) == pytest.approx(7.0)

    def test_unknown_symbol_reports_position(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse_expression("r + zz", POLAR)
        assert err.value.name == "zz"
        assert err.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownSymbolError):
            parse_expression("sinh(r)", POLAR)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_expression("sin(r, th)", POLAR)

    def test_syntax_error_position(self):
        with pytest.raises(SyntaxFault) as err:
            parse_expression("r + * th", POLAR)
        assert err.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(SyntaxFault):
            parse_expression("sin(r", POLAR)

    def test_trailing_garbage(self):
        with pytest.raises(SyntaxFault):
            parse_expression("r th", POLAR)

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(SyntaxFault):
            parse_expression("r^th", POLAR)

    def test_parameter_shadowing_coordinate_rejected(self):
        with pytest.raises(Exception):
            parse_expression("r", POLAR, {"r": 2.0})


class TestPrinter:
    CASES = [
        "r^2*sin(th)",
        "-r^2 + 3*(th - 1)/(r + 2)",
        "1 - 2*M/r",
        "sqrt(1 - 2*M/r)",
        "exp(-(r - 3)^2)*cos(th)",
        "r^-2 - th^1.5",
        "-(r + th)*t",
        "1/(3 + r^2)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_fixed(self, text):
        params = {"M": 1.0}
        first = parse_expression(text, POLAR, params)
        again = parse_expression(format_expression(first), POLAR, params)
        assert first.root == again.root

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            text = random_smooth_text(rng)
            first = parse_expression(text, UNIT_CHART)
            again = parse_expression(format_expression(first), UNIT_CHART)
            assert first.root == again.root, text


def eval_at(expr, point, order):
    """``eval_jet`` at one point, a chunk of one, and the point's fault."""
    faults = [None]
    return eval_jet(expr, [point], order, faults), faults[0]


class TestEvalJet:
    def test_square_at_three(self):
        e = parse_expression("r^2", POLAR)
        j, fault = eval_at(e, [3.0, 1.0, 1.0, 0.0], 1)
        assert fault is None
        assert j.value[0] == pytest.approx(9.0)
        npt.assert_allclose(j.data[1][0], [6.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_exp_sin_against_oracle(self):
        e = parse_expression("exp(r)*sin(t)", POLAR)
        point = [1.0, 1.5, 1.0, 0.5]
        jet, _ = eval_at(e, point, 2)
        fd = finite_difference_oracle(e, point, 2, step=1e-5)
        scale = max(1.0, abs(jet.value[0]))
        for k in range(3):
            npt.assert_allclose(jet.data[k], fd.data[k], rtol=0, atol=1e-6 * scale)

    def test_schwarzschild_factor_value(self):
        e = parse_expression("sqrt(1 - 2*M/r)", POLAR, {"M": 1.0})
        assert evaluate(e, [4.0, 1.0, 1.0, 0.0]) == pytest.approx(math.sqrt(0.5))

    def test_domain_error_names_subexpression(self):
        e = parse_expression("log(r - 3)", POLAR)
        _, fault = eval_at(e, [2.0, 1.0, 1.0, 0.0], 1)
        assert isinstance(fault, DomainFault)
        assert "log(r - 3)" in str(fault)
        with pytest.raises(DomainFault, match=r"in 'log\(r - 3\)'"):
            evaluate(e, [2.0, 1.0, 1.0, 0.0])

    def test_division_by_zero(self):
        e = parse_expression("1/(r - r)", POLAR)
        assert isinstance(eval_at(e, [2.0, 1.0, 1.0, 0.0], 0)[1], DomainFault)

    def test_real_power_negative_base(self):
        e = parse_expression("(r - 3)^0.5", POLAR)
        assert isinstance(eval_at(e, [2.0, 1.0, 1.0, 0.0], 0)[1], DomainFault)

    def test_point_outside_chart(self):
        e = parse_expression("r", POLAR)
        with pytest.raises(ChartDomainError):
            eval_at(e, [9.0, 1.0, 1.0, 0.0], 0)
        with pytest.raises(ChartError, match=r"points need shape \(N, 4\), got \(4,\)"):
            eval_jet(e, [2.0, 1.0, 1.0, 0.0], 0, [None])

    def test_clairaut_on_random_expressions(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            e = parse_expression(random_smooth_text(rng), UNIT_CHART)
            j, _ = eval_at(e, rng.uniform(-0.9, 0.9, size=4), 3)
            scale = max(1.0, float(np.max(np.abs(j.data[2]))), float(np.max(np.abs(j.data[3]))))
            d2, d3 = j.data[2][0], j.data[3][0]
            assert np.max(np.abs(d2 - d2.T)) / scale < 1e-14
            for perm in [(0, 2, 1), (1, 0, 2)]:
                assert np.max(np.abs(d3 - np.transpose(d3, perm))) / scale < 1e-14


class TestOracle:
    def test_stencil_leaving_domain_is_an_error(self):
        e = parse_expression("r", POLAR)
        with pytest.raises(ChartDomainError):
            finite_difference_oracle(e, [0.5, 1.0, 1.0, 0.0], 2, step=1e-2)

    def test_oracle_matches_closed_form(self):
        e = parse_expression("r^3", POLAR)
        fd = finite_difference_oracle(e, [2.0, 1.0, 1.0, 0.0], 3, step=1e-4)
        assert fd.data[1][0, 0] == pytest.approx(12.0, rel=1e-7)
        assert fd.data[2][0, 0, 0] == pytest.approx(12.0, rel=1e-6)
        assert fd.data[3][0, 0, 0, 0] == pytest.approx(6.0, rel=1e-5)


class TestOracleCorpus:
    """Jets against central differences on a 200-expression random corpus."""

    def test_corpus_agreement(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for i in range(200):
            text = random_smooth_text(rng)
            expr = parse_expression(text, UNIT_CHART)
            point = rng.uniform(-0.9, 0.9, size=4)
            order = 3 if i % 5 == 0 else 2
            jet, _ = eval_at(expr, point, order)
            fd = finite_difference_oracle(expr, point, order, step=1e-5)
            scale = max(1.0, *(float(np.max(np.abs(d))) for d in jet.data))
            for k in range(order + 1):
                diff = float(np.max(np.abs(jet.data[k] - fd.data[k]))) / scale
                worst = max(worst, diff)
            assert worst < 1e-6, f"disagreement {worst:.2e} on '{text}'"
        assert worst < 1e-6
