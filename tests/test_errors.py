"""Every bad input raises a ``CPNormError``, never a bare numpy or Python
conversion error."""

import numpy as np
import pytest

from cpnorm import (
    CPMap,
    CPNormError,
    InvalidExponent,
    InvalidInput,
    PowerConfig,
    classical_pq_norm,
    embed_nonnegative_matrix,
    matrix_power,
    oracle_max,
    random_cpmap,
    require_hermitian,
    schatten_norm,
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
    # matrix_power rejects an out-of-range exponent with InvalidInput too
    "power-string": (InvalidInput, lambda: matrix_power(EYE, "x")),
    "embed-string": (InvalidInput, lambda: embed_nonnegative_matrix("x")),
    "classical-string": (InvalidInput, lambda: classical_pq_norm("x", 3, 2)),
    "oracle-seed": (InvalidInput, lambda: oracle_max(PHI, 3, 2, budget=7, seed="x")),
    "random-map-seed": (InvalidInput, lambda: random_cpmap(2, 2, 2, "x")),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_raises_a_cpnorm_error(case):
    error, call = BAD_INPUTS[case]
    assert issubclass(error, CPNormError)
    with pytest.raises(error):
        call()
