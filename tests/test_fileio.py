"""Map file formats, generation kinds, record encoding."""

import json
import math
import warnings

import numpy as np
import pytest

from cpnorm import (
    ContractionReport,
    CrossValidation,
    DiagnosticsReport,
    InvalidInput,
    MapFile,
    OracleMethod,
    OracleResult,
    PowerConfig,
    StructuralProperty,
    StructuralVerdict,
    Verdict,
    check_positively_improving,
    depolarizing_channel,
    generate_map,
    identity_channel,
    objective,
    parse_map,
    serialize_map,
)
from cpnorm.fileio import canonical_json, load_map, save_map


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        mf = MapFile.from_cpmap(identity_channel(2), {"name": "id2"})
        text = serialize_map(mf)
        back = parse_map(text)
        assert back.n == mf.n and back.m == mf.m
        assert back.metadata == mf.metadata
        for v, w in zip(back.kraus, mf.kraus):
            assert np.array_equal(v, w)

    def test_serialize_is_canonical_fixed_point(self):
        mf = generate_map(2, 3, 4, seed=5)
        text = serialize_map(mf)
        assert serialize_map(parse_map(text)) == text

    def test_file_roundtrip(self, tmp_path):
        mf = generate_map(3, 3, 3, seed=1)
        path = tmp_path / "map.json"
        save_map(mf, path)
        back = load_map(path)
        for v, w in zip(back.kraus, mf.kraus):
            assert np.array_equal(v, w)


class TestParseErrors:
    def test_malformed_json_reports_line(self):
        with pytest.raises(InvalidInput, match="line"):
            parse_map("{\n  broken", source="bad.json")

    def test_missing_version(self):
        with pytest.raises(InvalidInput, match="version"):
            parse_map(json.dumps({"n": 2, "m": 2, "kraus": []}))

    def test_unsupported_version(self):
        with pytest.raises(InvalidInput, match="version"):
            parse_map(json.dumps({"version": 99, "n": 2, "m": 2, "kraus": []}))

    def test_bad_dimensions(self):
        with pytest.raises(InvalidInput, match="'n' and 'm'"):
            parse_map(json.dumps({"version": 1, "n": 0, "m": 2, "kraus": [[]]}))

    @pytest.mark.parametrize("field", ["version", "n", "m"])
    def test_boolean_integer_fields_rejected(self, field):
        obj = {"version": 1, "n": 1, "m": 1, "kraus": [[[[1.0, 0.0]]]]}
        parse_map(json.dumps(obj))
        obj[field] = True
        with pytest.raises(InvalidInput):
            parse_map(json.dumps(obj))

    def test_kraus_shape_mismatch_names_operator(self):
        obj = {
            "version": 1,
            "n": 2,
            "m": 1,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0]]]],
        }
        with pytest.raises(InvalidInput, match=r"kraus\[1\]"):
            parse_map(json.dumps(obj))


class TestGeneration:
    def test_deterministic(self):
        a = generate_map(2, 2, 3, seed=1)
        b = generate_map(2, 2, 3, seed=1)
        assert serialize_map(a) == serialize_map(b)

    def test_generic_respects_kraus_bound(self):
        with pytest.raises(InvalidInput):
            generate_map(2, 2, 5, seed=0, kind="generic")

    def test_positively_improving_kind(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mf = generate_map(3, 3, 3, seed=2, kind="positively_improving")
            phi = mf.to_cpmap()
        verdict = check_positively_improving(phi, trials=64, seed=0)
        assert verdict.verdict is Verdict.PROBABLY_TRUE

    def test_diagonal_embedding_matches_matrix_objective(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        mf = generate_map(0, 0, 0, seed=0, kind="diagonal_from_matrix", matrix=a)
        phi = mf.to_cpmap()
        x = np.array([0.6, 0.4])
        value = objective(phi, np.diag(x), 4, 2)
        expected = np.linalg.norm(a @ x, ord=2) / np.linalg.norm(x, ord=4)
        assert value == pytest.approx(expected, abs=1e-12)
        assert mf.metadata["kind"] == "diagonal_from_matrix"

    def test_diagonal_kind_requires_matrix(self):
        with pytest.raises(InvalidInput):
            generate_map(2, 2, 2, seed=0, kind="diagonal_from_matrix")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            generate_map(2, 2, 2, seed=0, kind="nonsense")


class TestCanonicalJson:
    def test_nonfinite_floats_become_strings(self):
        text = canonical_json({"a": float("inf"), "b": float("nan"), "c": 1.5})
        obj = json.loads(text)
        assert obj == {"a": "inf", "b": "nan", "c": 1.5}

    def test_sorted_and_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_depolarizing_roundtrip_exact_floats(self):
        mf = MapFile.from_cpmap(depolarizing_channel(3))
        back = parse_map(serialize_map(mf))
        for v, w in zip(back.kraus, mf.kraus):
            assert np.array_equal(v, w)


def _layout(expected) -> str:
    return json.dumps(expected, indent=2, sort_keys=True) + "\n"


_TRIVIAL_CONTRACTION = {
    "adjoint": None, "diameter_lower_bound": 0.0, "diameter_upper_bound": None,
    "improving": None, "kappa_lower": 0.0, "kappa_step_upper": None,
    "kappa_upper": None, "sample_count": 0, "step_certified": False,
    "upper_source": "trivial",
}


class TestRecordLayout:
    """Records carry one key per dataclass field, matrices as [re, im] rows."""

    def test_verdict_with_witness(self):
        v = StructuralVerdict(
            StructuralProperty.POSITIVELY_IMPROVING, Verdict.COUNTEREXAMPLE_FOUND,
            trials=3, witness=np.array([[1.0, 0.5j], [-0.5j, 0.0]]), margin=-0.25,
        )
        assert canonical_json(v) == _layout({
            "margin": -0.25, "property": "positively_improving", "trials": 3,
            "verdict": "counterexample_found",
            "witness": [[[1.0, 0.0], [0.0, 0.5]], [[-0.0, -0.5], [0.0, 0.0]]],
        })

    def test_contraction_with_adjoint_and_nonfinite(self):
        c = ContractionReport(
            diameter_lower_bound=math.inf, kappa_lower=1.0, sample_count=4,
            kappa_upper=math.nan, improving=Verdict.PROBABLY_TRUE,
            adjoint=ContractionReport(0.0, 0.0, 0), kappa_step_upper=0.5,
            step_certified=True, upper_source="improving-slice",
        )
        assert canonical_json(c) == _layout({
            "adjoint": _TRIVIAL_CONTRACTION, "diameter_lower_bound": "inf",
            "diameter_upper_bound": None, "improving": "probably_true",
            "kappa_lower": 1.0, "kappa_step_upper": 0.5, "kappa_upper": "nan",
            "sample_count": 4, "step_certified": True,
            "upper_source": "improving-slice",
        })

    def test_oracle_result(self):
        r = OracleResult(
            best_value=1.5, best_point=np.array([[1.0]]), restarts=7,
            budget_used=123, method=OracleMethod.PROJECTED_ASCENT,
            best_from_psd_starts=1.5,
        )
        assert canonical_json(r) == _layout({
            "best_from_hermitian_starts": None, "best_from_psd_starts": 1.5,
            "best_point": [[[1.0, 0.0]]], "best_value": 1.5, "budget_used": 123,
            "method": "projected_ascent", "restarts": 7,
        })

    def test_cross_validation(self):
        cv = CrossValidation("WARN", False, 1.25, 1.5, 0.25, 1e-4, None,
                             ("estimates disagree",))
        assert canonical_json(cv) == _layout({
            "certified": False, "difference": 0.25, "maximizer_distance": None,
            "messages": ["estimates disagree"], "oracle_value": 1.5,
            "power_value": 1.25, "status": "WARN", "tol": 1e-4,
        })

    def test_power_config_with_start(self):
        config = PowerConfig(p=3.0, q=2.0, max_iter=50, start=np.array([[2.0]]), seed=4)
        assert canonical_json(config) == _layout({
            "contraction_samples": 64, "max_iter": 50, "p": 3.0, "q": 2.0,
            "seed": 4, "start": [[[2.0, 0.0]]], "tol_fixed_point": 1e-10,
            "tol_objective": 1e-12, "with_contraction": True,
        })

    def test_diagnostics_report(self):
        fi = StructuralVerdict(StructuralProperty.FULLY_INDECOMPOSABLE,
                               Verdict.PROBABLY_TRUE, trials=2)
        pi = StructuralVerdict(StructuralProperty.POSITIVELY_IMPROVING,
                               Verdict.PROBABLY_TRUE, trials=5, margin=0.125)
        report = DiagnosticsReport(fi, pi, pi, ContractionReport(0.0, 0.0, 0),
                                   p=3.0, q=2.0)
        pi_record = {"margin": 0.125, "property": "positively_improving",
                     "trials": 5, "verdict": "probably_true", "witness": None}
        assert canonical_json(report) == _layout({
            "adjoint_positively_improving": pi_record,
            "contraction": _TRIVIAL_CONTRACTION,
            "fully_indecomposable": {
                "margin": None, "property": "fully_indecomposable", "trials": 2,
                "verdict": "probably_true", "witness": None,
            },
            "p": 3.0, "positively_improving": pi_record, "q": 2.0,
        })
