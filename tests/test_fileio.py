"""Map file formats, generation kinds, record encoding."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    subseed,
)
from cpnorm import cli, fileio
from cpnorm.fileio import (
    _jsonable,
    canonical_json,
    load_hermitian,
    load_map,
    load_matrix,
    save_map,
)

from helpers import (
    NON_FINITE_NUMBERS,
    UNDECODABLE_FILES,
    canonical_json_reference,
    kraus_reference,
    non_finite_file,
    records_close,
)


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

    def test_signed_zeros_roundtrip(self, tmp_path):
        # -0.0 in either part survives the parse, and the file its write
        kraus = [[[[1.0, -0.0], [-0.0, 1.0]], [[-0.0, -0.0], [0.5, 0.0]]]]
        text = json.dumps({"version": 1, "n": 2, "m": 2, "kraus": kraus})
        path = tmp_path / "map.json"
        save_map(parse_map(text), path)
        back = load_map(path)
        pairs = np.stack([back.kraus.real, back.kraus.imag], axis=-1)
        assert np.signbit(pairs).tolist() == np.signbit(kraus).tolist()
        assert serialize_map(back) == path.read_text()


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

    @pytest.mark.parametrize("text, message", [
        ("[1]", "top level must be an object"),
        ('{"version": 1, "n": 1, "m": 1, "kraus": []}', "field 'kraus' must be a nonempty list"),
        ('{"version": 1, "n": 1, "m": 1, "kraus": {"0": 1}}',
         "field 'kraus' must be a nonempty list"),
        ('{"version": 1, "n": 1, "m": 1, "kraus": [[[[1, 0]]]], "metadata": [1]}',
         "field 'metadata' must be an object"),
    ], ids=["top-level-list", "kraus-empty", "kraus-object", "metadata-list"])
    def test_misshapen_fields(self, text, message):
        with pytest.raises(InvalidInput) as info:
            parse_map(text, source="m.json")
        assert str(info.value) == f"m.json: {message}"


class TestMatrixFiles:
    """The nonnegative-matrix and start-matrix files reject a shape they
    cannot hold, naming the file and the shape they got."""

    def test_matrix_that_is_not_2d(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("[[[1, 2]], [[3, 4]]]")
        with pytest.raises(InvalidInput) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: expected a 2-d array, got shape (2, 1, 2)"

    def test_start_that_is_not_square(self, tmp_path):
        path = tmp_path / "start.json"
        path.write_text("[[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]")
        with pytest.raises(InvalidInput) as info:
            load_hermitian(path)
        assert str(info.value) == (f"{path}: expected shape 2x2 of [re, im] pairs, "
                                   "got (2, 3, 2)")


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

    def test_positively_improving_operators_in_loop_order(self):
        n, m, k, seed = 2, 3, 2, 5
        rng = subseed(seed, "generate", "positively_improving")
        old = [
            (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
            for _ in range(k)
        ]
        for i in range(m):
            for j in range(n):
                v = np.zeros((m, n), dtype=np.complex128)
                v[i, j] = np.sqrt(0.2)
                old.append(v)
        mf = generate_map(n, m, k, seed=seed, kind="positively_improving")
        assert mf.kraus.tobytes() == np.stack(old).tobytes()

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

    @pytest.mark.parametrize("n,m,k", [(2.0, 2, 2), (2, 2, 1.5), (2, True, 2), (2, 2, 0)])
    def test_rejects_bad_counts(self, n, m, k):
        with pytest.raises(InvalidInput):
            generate_map(n, m, k, seed=0)


class TestCanonicalJson:
    def test_nonfinite_floats_become_strings(self):
        text = canonical_json({"a": float("inf"), "b": float("nan"), "c": 1.5})
        obj = json.loads(text)
        assert obj == {"a": "inf", "b": "nan", "c": 1.5}

    def test_nonfinite_matrix_entries_become_strings(self):
        mat = np.array([[math.inf, complex(0.5, -math.inf)], [math.nan, -0.0]])
        assert json.loads(canonical_json(mat)) == [
            [["inf", 0.0], [0.5, "-inf"]], [["nan", 0.0], [-0.0, 0.0]]]

    def test_rejects_an_object_it_cannot_serialize(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(object())

    def test_sorted_and_stable(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_depolarizing_roundtrip_exact_floats(self):
        mf = MapFile.from_cpmap(depolarizing_channel(3))
        back = parse_map(serialize_map(mf))
        for v, w in zip(back.kraus, mf.kraus):
            assert np.array_equal(v, w)

    def test_complex_matrix_prints_one_row_per_line(self):
        assert canonical_json(np.array([[1.0, 2j], [0.0, -1.5]])) == (
            "[\n"
            "  [[1.0, 0.0], [0.0, 2.0]],\n"
            "  [[0.0, 0.0], [-1.5, 0.0]]\n"
            "]\n"
        )

    @pytest.mark.parametrize("shape", [(0,), (3,), (0, 2), (2, 0), (2, 3),
                                       (2, 0, 3), (0, 2, 3), (2, 3, 0), (2, 3, 2),
                                       (1, 1, 1, 2)])
    def test_matrix_layout_follows_the_nesting_rule(self, shape):
        # the layout of a matrix comes from its shape, without a scan of its
        # pairs; it must be the layout of the same nested lists in general
        mat = np.arange(math.prod(shape)).reshape(shape) * (1 - 0.5j)
        text = canonical_json({"m": mat})
        assert text == _layout(json.loads(text))

    def test_old_layout_map_file_loads_same_stack(self, tmp_path):
        mf = generate_map(3, 2, 4, seed=6)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(_jsonable(mf), indent=2, sort_keys=True) + "\n")
        back = load_map(path)
        assert back.kraus.tobytes() == mf.kraus.tobytes()
        assert serialize_map(back) == serialize_map(mf)

    @pytest.mark.parametrize("command", ["gen", "compute", "diagnose", "verify"])
    def test_records_parse_as_indented_dump(self, command, tmp_path, monkeypatch,
                                            capsys):
        path = tmp_path / "map.json"
        save_map(generate_map(2, 2, 3, seed=1), path)
        records = []

        def capture(obj):
            records.append(obj)
            return canonical_json(obj)

        monkeypatch.setattr(fileio, "canonical_json", capture)
        monkeypatch.setattr(cli, "canonical_json", capture)
        argv = {
            "gen": ["gen", "--n", "2", "--m", "3", "--k", "2", "--seed", "4"],
            "compute": ["compute", "--map", str(path), "--p", "3", "--q", "2"],
            "diagnose": ["diagnose", "--map", str(path), "--p", "3", "--q", "2",
                         "--trials", "8", "--samples", "8"],
            "verify": ["verify", "--map", str(path), "--p", "3", "--q", "2",
                       "--budget", "200"],
        }[command]
        assert cli.main(argv) == 0
        (record,) = records
        text = canonical_json(record)
        assert capsys.readouterr().out == text
        indented = json.dumps(_jsonable(record), indent=2, sort_keys=True)
        assert json.loads(text) == json.loads(indented)
        assert text.count("\n") < indented.count("\n")

    def test_records_close_compares_floats_only_relatively(self):
        text = canonical_json({"k": 3, "m": np.eye(2), "name": "seed1", "x": 0.5})
        assert records_close(text, text.replace("0.5", "0.5000000000001"), 1e-12)
        assert not records_close(text, text.replace("0.5", "0.51"), 1e-12)
        assert not records_close(text, text.replace("seed1", "seed2"), 1.0)
        assert not records_close(text, text.replace('"k": 3', '"k": 4'), 1.0)
        assert not records_close(text, text.replace('"k": 3', '"k": 3.0'), 1.0)
        indented = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert not records_close(text, indented, 1.0)


def _depth(x) -> float:
    """Nesting depth of lists; an object counts as deeper than any row."""
    if isinstance(x, dict):
        return math.inf
    if isinstance(x, list):
        return 1 + max(map(_depth, x), default=0)
    return 0


def _layout(expected) -> str:
    """Reference of the record layout: ``json.dumps`` with a two-space indent
    and sorted keys, except that each list nested at most two deep is printed
    on one line. Such lists are swapped for numbered placeholder strings, and
    the indented text gets their one-line form back."""
    rows = []

    def mark(x):
        if isinstance(x, dict):
            return {key: mark(v) for key, v in x.items()}
        if isinstance(x, list) and _depth(x) > 2:
            return [mark(v) for v in x]
        if isinstance(x, list):
            rows.append(json.dumps(x))
            return f"\0{len(rows) - 1}"
        return x

    text = json.dumps(mark(expected), indent=2, sort_keys=True)
    return re.sub(r'"\\u0000(\d+)"', lambda m: rows[int(m.group(1))], text) + "\n"


_TRIVIAL_CONTRACTION = {
    "adjoint": None, "diameter_lower_bound": None, "diameter_upper_bound": None,
    "kappa_lower": None, "kappa_step_upper": None, "kappa_upper": None,
    "sample_count": 0, "step_certified": False, "upper_source": "trivial",
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
            kappa_upper=math.nan, adjoint=ContractionReport(), kappa_step_upper=0.5,
            step_certified=True, upper_source="choi",
        )
        assert canonical_json(c) == _layout({
            "adjoint": _TRIVIAL_CONTRACTION, "diameter_lower_bound": "inf",
            "diameter_upper_bound": None, "kappa_lower": 1.0,
            "kappa_step_upper": 0.5, "kappa_upper": "nan", "sample_count": 4,
            "step_certified": True, "upper_source": "choi",
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
        config = PowerConfig(p=3.0, q=2.0, max_iter=50, start=np.array([[2.0]]))
        assert canonical_json(config) == _layout({
            "max_iter": 50, "p": 3.0, "q": 2.0,
            "start": [[[2.0, 0.0]]], "tol_fixed_point": 1e-10,
            "tol_objective": 1e-12, "with_contraction": True,
        })

    def test_diagnostics_report(self):
        fi = StructuralVerdict(StructuralProperty.FULLY_INDECOMPOSABLE,
                               Verdict.PROBABLY_TRUE, trials=2)
        pi = StructuralVerdict(StructuralProperty.POSITIVELY_IMPROVING,
                               Verdict.PROBABLY_TRUE, trials=5, margin=0.125)
        report = DiagnosticsReport(fi, pi, pi, ContractionReport(), p=3.0, q=2.0)
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


@st.composite
def nested_matrices(draw):
    """Arrays nested 1-4 deep with axes of length 0-3, real or complex, over
    the float range, some with a non-finite entry or a negative zero."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    if draw(st.booleans()):
        mat = mat + 1j * rng.standard_normal(shape)
    special = draw(st.sampled_from([None, math.inf, -math.inf, math.nan, -0.0,
                                    complex(0.5, -math.inf)]))
    if mat.size and special is not None:
        mat = mat.astype(complex) if isinstance(special, complex) else mat
        mat.flat[rng.integers(mat.size)] = special
    return mat


def _captured_record(command, tmp_path, monkeypatch, capsys):
    """The record object a CLI command encodes, and its stdout."""
    path = tmp_path / "map.json"
    save_map(generate_map(3, 2, 3, seed=5), path)
    records = []

    def capture(obj):
        records.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", capture)
    monkeypatch.setattr(fileio, "canonical_json", capture)
    argv = {
        "gen": ["gen", "--n", "3", "--m", "2", "--k", "4", "--seed", "4"],
        "compute": ["compute", "--map", str(path), "--p", "2", "--q", "3"],
        "diagnose": ["diagnose", "--map", str(path), "--p", "3", "--q", "2",
                     "--trials", "8", "--samples", "8"],
        "verify": ["verify", "--map", str(path), "--p", "3", "--q", "2",
                   "--budget", "200"],
    }[command]
    assert cli.main(argv) == 0
    (record,) = records
    return record, capsys.readouterr().out


class TestMatrixEncoder:
    """``canonical_json`` walks each matrix by its shape; the text is that
    of the row-by-row encoder, which scans each list for its depth."""

    @settings(max_examples=300)
    @given(nested_matrices())
    def test_matches_the_row_by_row_encoder(self, mat):
        for obj in (mat, {"m": mat}, {"a": {"b": [mat, 1.5, mat]}}, [[mat]]):
            assert canonical_json(obj) == canonical_json_reference(obj)

    @pytest.mark.parametrize("command", ["gen", "compute", "diagnose", "verify"])
    def test_records_match_the_row_by_row_encoder(self, command, tmp_path,
                                                   monkeypatch, capsys):
        record, out = _captured_record(command, tmp_path, monkeypatch, capsys)
        assert out == canonical_json_reference(record)


@st.composite
def map_texts(draw):
    """Valid map files with k, m, n <= 4, entries over the float range, some
    written as JSON integers or as negative zeros."""
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((k, m, n, 2)) * 10.0 ** rng.integers(-300, 300, (k, m, n, 2))
    values[rng.random(values.shape) < 0.1] = -0.0
    kraus = values.tolist()
    for entry in kraus:
        for row in entry:
            for pair in row:
                if rng.random() < 0.2:
                    pair[0] = int(rng.integers(-5, 6))
    return json.dumps({"version": 1, "n": n, "m": m, "kraus": kraus})


class TestOnePassParse:
    """``parse_map`` decodes the Kraus list entry by entry and names the
    first bad entry."""

    @settings(max_examples=200)
    @given(map_texts())
    def test_same_stack_as_per_entry_decoding(self, text):
        assert parse_map(text).kraus.tobytes() == kraus_reference(text).tobytes()

    GOOD = [[[1.0, 0.0], [0.5, -0.5]]]

    @pytest.mark.parametrize("bad, message", [
        ([[[1.0, 0.0]]], "m.json: kraus[1]: expected shape 1x2 of [re, im] pairs, got (1, 1, 2)"),
        ([[[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.5, 0.0]]],
         "m.json: kraus[1]: expected shape 1x2 of [re, im] pairs, got (2, 2, 2)"),
        ([[[1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]],
         "m.json: kraus[1]: expected shape 1x2 of [re, im] pairs, got (1, 2, 3)"),
        (3.0, "m.json: kraus[1]: expected shape 1x2 of [re, im] pairs, got ()"),
    ])
    def test_wrongly_shaped_entry_message(self, bad, message):
        text = json.dumps({"version": 1, "n": 2, "m": 1, "kraus": [self.GOOD, bad]})
        with pytest.raises(InvalidInput) as info:
            parse_map(text, source="m.json")
        assert str(info.value) == message

    @pytest.mark.parametrize("bad, detail", [
        ([[[1.0, 0.0], ["a", 0.0]]], "could not convert string to float: 'a'"),
        ([[[1.0, 0.0], {"re": 1.0}]], "inhomogeneous shape"),
        ([[[1.0, 0.0], [0.5]]], "inhomogeneous shape"),
        ([[[10**400, 0.0], [0.5, 0.0]]], "int too large to convert to float"),
    ])
    def test_ragged_or_non_numeric_entry_message(self, bad, detail):
        text = json.dumps({"version": 1, "n": 2, "m": 1, "kraus": [self.GOOD, bad]})
        with pytest.raises(InvalidInput) as info:
            parse_map(text, source="m.json")
        message = str(info.value)
        assert message.startswith("m.json: kraus[1]: entries must be [re, im] number pairs (")
        assert detail in message


class TestUndecodableFiles:
    """Bytes that are not UTF-8, JSON nested past the recursion limit and
    integers too large for a float raise ``InvalidInput`` naming the file."""

    @pytest.mark.parametrize("loader", [load_map, load_hermitian, load_matrix])
    @pytest.mark.parametrize("content", sorted(UNDECODABLE_FILES))
    def test_loaders_raise_invalid_input(self, loader, content, tmp_path):
        path = tmp_path / f"{content}.json"
        path.write_bytes(UNDECODABLE_FILES[content])
        with pytest.raises(InvalidInput, match=re.escape(str(path))):
            loader(path)

    def test_huge_integer_matrix(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(f"[[{10**400}, 0], [0, 1]]")
        with pytest.raises(InvalidInput, match=re.escape(str(path))):
            load_matrix(path)


class TestNonFiniteNumbers:
    """``null``, ``NaN``, ``Infinity`` and numbers beyond the float range
    raise ``InvalidInput`` naming the file and, in a Kraus list, the entry."""

    @pytest.mark.parametrize("number", NON_FINITE_NUMBERS)
    @pytest.mark.parametrize("loader, kind, where", [
        (load_map, "map", ": kraus[1]: "),
        (load_hermitian, "start", ": "),
        (load_matrix, "matrix", ": "),
    ], ids=["map", "start", "matrix"])
    def test_loader_names_the_file(self, tmp_path, loader, kind, where, number):
        path = tmp_path / "f.json"
        path.write_text(non_finite_file(kind, number))
        with pytest.raises(InvalidInput) as info:
            loader(path)
        assert str(info.value).startswith(f"{path}{where}entries must be finite numbers")
