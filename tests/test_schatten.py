"""Schatten norm and duality map tests."""

import math

import numpy as np
import pytest

from cpnorm import (
    InvalidExponent,
    NotPsd,
    ZeroInput,
    dual_exponent,
    duality_map,
    frobenius_inner,
    psd_spectrum,
    random_hermitian,
    random_psd,
    schatten_norm,
)
from cpnorm import schatten
from cpnorm.schatten import _norm_and_duality, as_exponent
from helpers import loewner_pair, spectral_norm_and_duality, well_conditioned_pd


def spectrum_norm(a, p):
    """Independent reference: l^p norm of the eigenvalue magnitudes."""
    vals = np.abs(np.linalg.eigvalsh(a))
    if np.isinf(p):
        return vals.max()
    return float(np.sum(vals**p) ** (1.0 / p))


class TestSchattenNorm:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
    def test_identity_flat_spectrum(self, p):
        assert schatten_norm(np.eye(4), p) == pytest.approx(4 ** (1.0 / p), abs=1e-12)

    def test_takes_a_validated_exponent(self):
        assert schatten_norm(np.eye(2), as_exponent(3)) == schatten_norm(np.eye(2), 3)

    def test_frobenius_3_4_5(self):
        assert schatten_norm(np.diag([3.0, -4.0]), 2) == pytest.approx(5.0, abs=1e-12)

    def test_cubic_sum(self):
        # 1 + 8 + 27 = 36
        value = schatten_norm(np.diag([1.0, 2.0, 3.0]), 3)
        assert value == pytest.approx(36.0 ** (1.0 / 3.0), abs=1e-12)

    def test_endpoints(self):
        a = np.diag([3.0, -1.0])
        assert schatten_norm(a, 1) == pytest.approx(4.0)
        assert schatten_norm(a, np.inf) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert schatten_norm(np.zeros((3, 3)), 2.5) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.99, -1.0, np.nan])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(InvalidExponent):
            schatten_norm(np.eye(2), p)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        a = random_hermitian(4, seed)
        for p in (1.5, 2.0, 3.3):
            assert schatten_norm(a, p) == pytest.approx(spectrum_norm(a, p), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_on_ordered_psd(self, seed):
        a, b = loewner_pair(4, seed)
        for p in (1.5, 2.0, 4.0):
            assert schatten_norm(a, p) >= schatten_norm(b, p) - 1e-9


class TestDualExponent:
    @pytest.mark.parametrize("p,expected", [(2.0, 2.0), (4.0, 4.0 / 3.0), (1.5, 3.0)])
    def test_values(self, p, expected):
        exp = dual_exponent(p)
        assert exp.p_star == pytest.approx(expected, rel=1e-14)
        assert abs(1.0 / exp.p + 1.0 / exp.p_star - 1.0) <= 1e-14

    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
    def test_rejects_endpoints(self, p):
        with pytest.raises(InvalidExponent):
            dual_exponent(p)

    def test_rejects_exponents_whose_dual_rounds_to_one(self):
        # a dual of exactly 1 makes the iterate's duality map constant
        with pytest.raises(InvalidExponent, match="rounds to 1"):
            dual_exponent(1e16)
        assert dual_exponent(9e15).p_star == 1.0000000000000002

    def test_dual_pair_is_built_once(self):
        exp = dual_exponent(3.0)
        dual = exp.dual
        assert (dual.p, dual.p_star) == (1.5, 3.0)
        assert exp.dual is dual
        assert exp == dual_exponent(3.0) and repr(exp) == repr(dual_exponent(3.0))


class TestDualityMap:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_identity_input(self, p):
        n = 3
        exp = dual_exponent(p)
        expected = np.eye(n) / n ** (1.0 / exp.p_star)
        np.testing.assert_allclose(duality_map(np.eye(n), p), expected, atol=1e-12)

    def test_p2_is_frobenius_normalization(self):
        a = random_psd(3, 3, 4)
        np.testing.assert_allclose(
            duality_map(a, 2), a / np.linalg.norm(a), atol=1e-12
        )

    def test_hand_value_p3(self):
        a = np.diag([4.0, 1.0])
        expected = np.diag([16.0, 1.0]) / (16.0**1.5 + 1.0) ** (1.0 / 1.5)
        np.testing.assert_allclose(duality_map(a, 3), expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
    def test_defining_pair(self, seed, p):
        a = random_psd(4, 4, seed)
        exp = dual_exponent(p)
        j = duality_map(a, exp)
        assert frobenius_inner(a, j) == pytest.approx(schatten_norm(a, p), abs=1e-9)
        assert spectrum_norm(j, exp.p_star) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_involution_onto_unit_sphere(self, seed):
        a = random_psd(4, 4, seed)
        exp = dual_exponent(2.5)
        back = duality_map(duality_map(a, exp), dual_exponent(exp.p_star))
        np.testing.assert_allclose(
            back, a / schatten_norm(a, exp.p), atol=1e-9
        )

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
    def test_homogeneity(self, alpha):
        a = random_psd(3, 3, 9)
        base = duality_map(a, 3)
        assert np.linalg.norm(duality_map(alpha * a, 3) - base) <= 1e-10

    def test_singular_input(self):
        # zero eigenvalues stay zero under the continuous extension
        a = np.diag([2.0, 0.0])
        j = duality_map(a, 1.5)
        assert abs(j[1, 1]) <= 1e-14
        assert spectrum_norm(j, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ZeroInput):
            duality_map(np.zeros((2, 2)), 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            duality_map(np.diag([1.0, -1.0]), 2)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_rejects_endpoint_exponents(self, p):
        with pytest.raises(InvalidExponent):
            duality_map(np.eye(2), p)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_by_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = well_conditioned_pd(3, rng)
        h = random_hermitian(3, rng)
        p = [1.5, 2.0, 2.5, 3.0, 4.0][seed % 5]
        eps = 1e-6
        numeric = (schatten_norm(a + eps * h, p) - schatten_norm(a - eps * h, p)) / (
            2 * eps
        )
        analytic = frobenius_inner(h, duality_map(a, p))
        assert numeric == pytest.approx(analytic, abs=1e-5)


class TestNormAndDuality:
    """``_norm_and_duality`` gives (||B||_q, J_q(B)): at q = 2, on a positive
    definite B that Cholesky factorises, in closed form, B / ||B||_F; on every
    other B and at every other q, from the spectrum, bit for bit as before."""

    Q2 = as_exponent(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_definite_matches_the_spectral_path(self, seed):
        b = well_conditioned_pd(5, seed)
        norm, j = _norm_and_duality(b, self.Q2)
        ref_norm, ref_j = spectral_norm_and_duality(b, self.Q2)
        assert norm == pytest.approx(ref_norm, rel=1e-14)
        assert norm == pytest.approx(np.linalg.norm(b), rel=1e-15)
        np.testing.assert_allclose(j, ref_j, rtol=0, atol=1e-14)
        assert np.array_equal(j, j.conj().T)

    @pytest.mark.parametrize("e", [-1000, -1, 1, 1000])
    def test_exact_under_powers_of_two(self, e):
        # the norm neither overflows nor underflows at 2^(+-1000)
        b = well_conditioned_pd(4, 3)
        norm, j = _norm_and_duality(b, self.Q2)
        scaled_norm, scaled_j = _norm_and_duality(b * 2.0**e, self.Q2)
        assert scaled_j.tobytes() == j.tobytes()
        assert scaled_norm == math.ldexp(norm, e)

    def test_singular_takes_the_spectral_path(self):
        # an exactly zero pivot fails the factorisation
        b = np.zeros((4, 4), dtype=np.complex128)
        b[:3, :3] = well_conditioned_pd(3, 1)
        got = _norm_and_duality(b, self.Q2)
        ref = spectral_norm_and_duality(b, self.Q2)
        assert got[0] == ref[0]
        assert got[1].tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("q", [1.5, 2.0000001, 3.0])
    def test_other_exponents_take_the_spectral_path(self, q):
        b = well_conditioned_pd(4, 2)
        got = _norm_and_duality(b, as_exponent(q))
        ref = spectral_norm_and_duality(b, as_exponent(q))
        assert got[0] == ref[0]
        assert got[1].tobytes() == ref[1].tobytes()

    def test_large_dimensions_take_the_spectral_path(self, monkeypatch):
        monkeypatch.setattr(schatten, "_CHOLESKY_MAX_DIM", 3)
        b = well_conditioned_pd(4, 2)
        got = _norm_and_duality(b, self.Q2)
        ref = spectral_norm_and_duality(b, self.Q2)
        assert got[1].tobytes() == ref[1].tobytes()

    def test_indefinite_raises_the_spectral_not_psd(self):
        a = random_hermitian(4, 6)
        with pytest.raises(NotPsd) as spectral:
            psd_spectrum(a)
        with pytest.raises(NotPsd) as raised:
            duality_map(a, 2)
        assert str(raised.value) == str(spectral.value)
