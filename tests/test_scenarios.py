import json
import sys

import numpy as np
import pytest

from tetradkit.exprkit import parse_expression
from tetradkit.runner import run_checks
from tetradkit.scenarios import (
    BUILTIN_NAMES,
    Scenario,
    ScenarioError,
    builtin_document,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
)

from helpers import at


def minimal_document(**overrides):
    doc = {
        "chart": {"names": ["x0", "x1", "x2", "x3"], "bounds": [[-1.0, 1.0]] * 4},
        "tetrad": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
        "connection": {"mode": "explicit", "entries": {}},
    }
    doc.update(overrides)
    return doc


class TestDocumentValidation:
    def test_minimal_document_loads(self):
        sc = scenario_from_dict(minimal_document())
        assert isinstance(sc, Scenario)
        assert sc.matter.mode == "vacuum"
        assert sc.points == 100
        assert sc.seed == 0
        assert sc.matter.lam == 0.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys.*frobnicate"):
            scenario_from_dict(minimal_document(frobnicate=1))

    def test_missing_required_key(self):
        doc = minimal_document()
        del doc["tetrad"]
        with pytest.raises(ScenarioError, match="missing required scenario keys"):
            scenario_from_dict(doc)

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(minimal_document(schema_version="7"))

    def test_chart_needs_four_names(self):
        doc = minimal_document()
        doc["chart"]["names"] = ["x0", "x1"]
        with pytest.raises(ScenarioError, match="chart"):
            scenario_from_dict(doc)

    def test_chart_rejects_reversed_bounds(self):
        doc = minimal_document()
        doc["chart"]["bounds"][2] = [1.0, -1.0]
        with pytest.raises(ScenarioError, match="chart"):
            scenario_from_dict(doc)

    def test_tetrad_parse_error_names_the_entry(self):
        doc = minimal_document()
        doc["tetrad"][2][3] = "sin("
        with pytest.raises(ScenarioError, match=r"tetrad entry \[2\]\[3\]"):
            scenario_from_dict(doc)

    def test_tetrad_unknown_symbol_names_the_entry(self):
        doc = minimal_document()
        doc["tetrad"][0][0] = "1 + q"
        with pytest.raises(ScenarioError, match=r"tetrad entry \[0\]\[0\]"):
            scenario_from_dict(doc)

    def test_tetrad_shape_checked(self):
        doc = minimal_document()
        doc["tetrad"] = doc["tetrad"][:3]
        with pytest.raises(ScenarioError, match="4x4 grid"):
            scenario_from_dict(doc)

    def test_diagonal_connection_pair_rejected_by_name(self):
        doc = minimal_document()
        doc["connection"]["entries"] = {"00": ["1", "0", "0", "0"]}
        with pytest.raises(ScenarioError, match=r"omega\^\{00\}"):
            scenario_from_dict(doc)

    def test_reversed_connection_pair_rejected(self):
        doc = minimal_document()
        doc["connection"]["entries"] = {"10": ["1", "0", "0", "0"]}
        with pytest.raises(ScenarioError, match=r"omega\^\{10\}"):
            scenario_from_dict(doc)

    def test_connection_component_error_names_coordinate(self):
        doc = minimal_document()
        doc["connection"]["entries"] = {"01": ["0", "0", "cos(", "0"]}
        with pytest.raises(ScenarioError, match=r"omega\^\{01\} component x2"):
            scenario_from_dict(doc)

    def test_connection_entry_length_checked(self):
        doc = minimal_document()
        doc["connection"]["entries"] = {"01": ["0", "0"]}
        with pytest.raises(ScenarioError, match="4 component expressions"):
            scenario_from_dict(doc)

    def test_bad_connection_mode(self):
        doc = minimal_document(connection={"mode": "teleparallel", "entries": {}})
        with pytest.raises(ScenarioError, match="connection mode"):
            scenario_from_dict(doc)

    def test_contorsion_errors_name_k(self):
        doc = minimal_document(
            connection={"mode": "levi-civita+contorsion", "entries": {"11": ["0"] * 4}}
        )
        with pytest.raises(ScenarioError, match=r"K\^\{11\}"):
            scenario_from_dict(doc)

    def test_bad_matter_mode(self):
        with pytest.raises(ScenarioError, match="matter mode"):
            scenario_from_dict(minimal_document(matter="dust"))

    def test_matter_unknown_key(self):
        # explicit matter takes mode, stress and spin only
        doc = minimal_document(
            matter={
                "mode": "explicit",
                "stress": [["0"] * 4 for _ in range(4)],
                "totally_antisymmetric": True,
            }
        )
        with pytest.raises(ScenarioError, match="matter has unknown keys.*totally_antisymmetric"):
            scenario_from_dict(doc)

    def test_explicit_matter_needs_stress(self):
        with pytest.raises(ScenarioError, match="stress"):
            scenario_from_dict(minimal_document(matter={"mode": "explicit"}))

    def test_spin_entries_named_sigma(self):
        doc = minimal_document(
            matter={
                "mode": "explicit",
                "stress": [["0"] * 4 for _ in range(4)],
                "spin": {"22": ["0"] * 4},
            }
        )
        with pytest.raises(ScenarioError, match=r"Sigma\^\{22\}"):
            scenario_from_dict(doc)

    def test_parameters_must_be_numbers(self):
        with pytest.raises(ScenarioError, match="parameter 'M'"):
            scenario_from_dict(minimal_document(parameters={"M": "one"}))

    def test_sampling_validation(self):
        with pytest.raises(ScenarioError, match="points"):
            scenario_from_dict(minimal_document(sampling={"points": 0}))
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict(minimal_document(sampling={"seed": -1}))
        with pytest.raises(ScenarioError, match="sampling has unknown keys"):
            scenario_from_dict(minimal_document(sampling={"count": 10}))

    def test_tolerances_must_be_positive(self):
        with pytest.raises(ScenarioError, match="tolerance"):
            scenario_from_dict(minimal_document(tolerances={"first-bianchi": -1.0}))

    def test_zero_kappa_rejected(self):
        with pytest.raises(ScenarioError, match="kappa must be nonzero"):
            scenario_from_dict(minimal_document(kappa=0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "overrides, named",
        [
            (lambda v: {"kappa": v}, "kappa"),
            (lambda v: {"lambda_cc": v}, "lambda_cc"),
            (lambda v: {"parameters": {"M": v}}, "parameter 'M'"),
            (lambda v: {"tolerances": {"first-bianchi": v}}, "tolerance for check 'first-bianchi'"),
        ],
        ids=["kappa", "lambda_cc", "parameter", "tolerance"],
    )
    def test_non_finite_numbers_rejected(self, overrides, named, value):
        with pytest.raises(ScenarioError, match=f"^{named} must be a finite number"):
            scenario_from_dict(minimal_document(**overrides(value)))

    def test_parameter_shadowing_a_coordinate_is_named(self):
        doc = builtin_document("flrw")
        doc["parameters"] = {"H": 0.3, "x": 2.0}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == "parameter 'x' shadows a chart coordinate"

    def test_parameter_shadowing_a_function_is_named(self):
        with pytest.raises(ScenarioError, match="^parameter 'exp' shadows a function name$"):
            scenario_from_dict(minimal_document(parameters={"exp": 1.0}))

    def test_kappa_and_lambda_recorded(self):
        sc = scenario_from_dict(minimal_document(kappa=-2.5, lambda_cc=0.1))
        assert sc.matter.kappa == -2.5
        assert sc.matter.lam == 0.1
        assert (sc.document["kappa"], sc.document["lambda_cc"]) == (-2.5, 0.1)


class TestBuiltins:
    def test_catalog_names(self):
        assert BUILTIN_NAMES == (
            "minkowski",
            "flat-polar",
            "schwarzschild",
            "flrw",
            "flat-contorsion",
            "random-fields",
        )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_builtin_validates(self, name):
        sc = builtin_scenario(name)
        assert sc.name == name
        assert sc.matter.mode in ("vacuum", "manufactured", "explicit")

    def test_minkowski_shape(self):
        sc = builtin_scenario("minkowski")
        assert sc.document["connection"]["mode"] == "explicit"
        assert sc.matter.mode == "vacuum"
        point = np.zeros(4)
        assert np.array_equal(at(sc.tetrad, point, 0).value[0], np.eye(4))
        assert np.array_equal(at(sc.connection, point, 0).value[0], np.zeros((4, 4, 4)))

    def test_schwarzschild_shape(self):
        sc = builtin_scenario("schwarzschild")
        assert sc.parameters == {"M": 1.0}
        assert sc.document["connection"] == "levi-civita"
        assert sc.chart.bounds[0] == (3.0, 10.0)

    def test_flat_contorsion_is_torsionful(self):
        sc = builtin_scenario("flat-contorsion")
        point = np.array([[0.3, -0.2, 0.4, 0.1]])
        from tetradkit.pointjets import PointJets

        assert np.abs(PointJets(sc.tetrad, sc.connection, point).torsion(0).value).max() > 1e-3

    def test_digests_are_pinned(self):
        assert [builtin_scenario(name).digest for name in BUILTIN_NAMES] == [
            "0f4ce3b40a54fcfe",
            "47b3c131c7bacb35",
            "6d019a9b36cec269",
            "cd85dab3bc10d1a9",
            "16557f285727b2db",
            "32438410d782a6d2",
        ]

    def test_fields_are_parsed_once_at_load(self, monkeypatch):
        # count every parse, whichever tetradkit module makes it
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse_expression(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("tetradkit") and getattr(module, "parse_expression", None) is parse_expression:
                monkeypatch.setattr(module, "parse_expression", counting)
        sc = builtin_scenario("random-fields")
        assert len(calls) == 16 + 24
        for _ in range(2):
            run_checks(sc, points=1)
        assert len(calls) == 16 + 24

    def test_digests_are_stable(self):
        for name in BUILTIN_NAMES:
            assert builtin_scenario(name).digest == builtin_scenario(name).digest

    def test_documents_are_fresh_copies(self):
        doc = builtin_document("minkowski")
        doc["tetrad"][0][0] = "2"
        assert builtin_document("minkowski")["tetrad"][0][0] == "1"

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError, match="no builtin scenario"):
            builtin_document("kerr")


class TestFilesAndRoundTrip:
    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_document(name="disk-test")))
        sc = load_scenario(path)
        assert sc.name == "disk-test"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_dump_reload_preserves_digest(self, name, tmp_path):
        sc = builtin_scenario(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(sc.document))
        reloaded = load_scenario(path)
        assert reloaded.digest == sc.digest

    def test_document_normalization_is_idempotent(self):
        sc = scenario_from_dict(minimal_document(name="norm"))
        again = scenario_from_dict(json.loads(json.dumps(sc.document)))
        assert again.document == sc.document
