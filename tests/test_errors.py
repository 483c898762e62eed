"""Every bad input raises a ``CPNormError``, never a bare numpy or Python
conversion error."""

import numpy as np
import pytest

from cpnorm import (
    CPMap,
    CPNormError,
    DegenerateMap,
    InvalidExponent,
    InvalidInput,
    PowerConfig,
    classical_pq_norm,
    default_start,
    embed_nonnegative_matrix,
    frobenius_inner,
    hermitian_part,
    oracle_max,
    parse_map,
    random_cpmap,
    require_hermitian,
    schatten_norm,
    step_contraction_bound,
)

PHI = random_cpmap(2, 2, 2, 0)
EYE = np.eye(2)

BAD_INPUTS = {
    "matrix-string": (InvalidInput, lambda: require_hermitian("abc")),
    "matrix-ragged": (InvalidInput, lambda: require_hermitian([[1, 2], [3]])),
    "matrix-object": (InvalidInput, lambda: require_hermitian(object())),
    "apply-string": (InvalidInput, lambda: PHI.apply("x")),
    "start-string": (InvalidInput, lambda: PowerConfig(p=3, q=2, start="x")),
    "kraus-string": (InvalidInput, lambda: CPMap(["a"])),
    "kraus-ragged": (InvalidInput, lambda: CPMap([[[1, 2], [3]]])),
    "kraus-int": (InvalidInput, lambda: CPMap(5)),
    "kraus-none": (InvalidInput, lambda: CPMap(None)),
    "p-string": (InvalidExponent, lambda: PowerConfig(p="x", q=2)),
    "p-none": (InvalidExponent, lambda: PowerConfig(p=None, q=2)),
    "norm-string": (InvalidExponent, lambda: schatten_norm(EYE, "x")),
    "norm-none": (InvalidExponent, lambda: schatten_norm(EYE, None)),
    "embed-string": (InvalidInput, lambda: embed_nonnegative_matrix("x")),
    "classical-string": (InvalidInput, lambda: classical_pq_norm("x", 3, 2)),
    "oracle-seed": (InvalidInput, lambda: oracle_max(PHI, 3, 2, budget=7, seed="x")),
    "random-map-seed": (InvalidInput, lambda: random_cpmap(2, 2, 2, "x")),
    "hermitian-part-string": (InvalidInput, lambda: hermitian_part("x")),
    "hermitian-part-ragged": (InvalidInput, lambda: hermitian_part([[1, 2], [3]])),
    "inner-string": (InvalidInput, lambda: frobenius_inner("x", EYE)),
    "inner-ragged": (InvalidInput, lambda: frobenius_inner([[1, 2], [3]], EYE)),
    "start-dimension-string": (InvalidInput, lambda: default_start("x", 3)),
    "kappa-string": (InvalidInput, lambda: step_contraction_bound("x", 0.5, 3, 2)),
    "map-text-int": (InvalidInput, lambda: parse_map(5)),
    "map-bytes-not-utf8": (InvalidInput, lambda: parse_map(b"\x80abc")),
    "map-bytes-utf16-truncated": (InvalidInput, lambda: parse_map(b"\xff\xfe\x00")),
    "hermitian-part-not-square": (InvalidInput, lambda: hermitian_part(np.ones((2, 3)))),
    "hermitian-part-vector": (InvalidInput, lambda: hermitian_part(np.ones(3))),
    "inner-scalar": (InvalidInput, lambda: frobenius_inner(EYE, 1.0)),
    "inner-stack": (InvalidInput, lambda: frobenius_inner(EYE, np.ones((3, 2, 2)))),
    "matrix-empty": (InvalidInput, lambda: require_hermitian(np.zeros((0, 0)))),
    "kraus-3d": (InvalidInput, lambda: CPMap(np.ones((1, 2, 2, 2)))),
    "kraus-nan": (InvalidInput, lambda: CPMap([[[1.0, np.nan], [0.0, 1.0]]])),
    "embed-3d": (InvalidInput, lambda: embed_nonnegative_matrix(np.ones((2, 2, 2)))),
    "embed-inf": (InvalidInput, lambda: embed_nonnegative_matrix([[1.0, np.inf], [0.0, 1.0]])),
    "classical-3d": (InvalidInput, lambda: classical_pq_norm(np.ones((2, 2, 2)), 3, 2)),
    "classical-negative": (InvalidInput, lambda: classical_pq_norm([[1.0, -1.0]], 3, 2)),
    "classical-nan": (InvalidInput, lambda: classical_pq_norm([[1.0, np.nan]], 3, 2)),
    "classical-zero": (DegenerateMap, lambda: classical_pq_norm(np.zeros((2, 3)), 3, 2)),
    "classical-overflow": (InvalidInput, lambda: classical_pq_norm(np.full((4, 4), 1.7e308), 3, 2)),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_raises_a_cpnorm_error(case):
    error, call = BAD_INPUTS[case]
    assert issubclass(error, CPNormError)
    with pytest.raises(error):
        call()
