"""Hermitian/PSD matrix algebra tests."""

import numpy as np
import pytest

from cpnorm import (
    InvalidInput,
    DimMismatch,
    NotPsd,
    PsdKind,
    abs_matrix,
    classify_psd,
    eig_decompose,
    loewner_geq,
    matrix_power,
    numerical_rank,
    random_hermitian,
    random_psd,
    require_hermitian,
)
from helpers import loewner_pair


class TestHermitianMatrix:
    """Validation of Hermitian inputs at the IO boundary (``require_hermitian``)."""

    def test_symmetrizes_small_drift(self):
        base = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
        noisy = base + np.array([[0, 1e-13], [0, 0]])
        mat = require_hermitian(noisy)
        assert np.array_equal(mat, mat.conj().T)
        assert mat.shape == (2, 2)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(InvalidInput):
            require_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            require_hermitian(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestEigDecompose:
    def test_identity(self):
        dec = eig_decompose(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(2), atol=1e-12
        )

    def test_diagonal_phase_fixed(self):
        dec = eig_decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(dec.eigenvectors, np.eye(2), atol=1e-12)

    def test_hand_solved_2x2(self):
        # eigenpairs of [[2,1],[1,2]]: (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2)
        dec = eig_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, -s], atol=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_reconstruction(self, seed):
        a = random_hermitian(4, seed)
        dec = eig_decompose(a)
        err = np.linalg.norm(dec.reconstruct() - a)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.all(np.diff(dec.eigenvalues) <= 0)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-12

    def test_deterministic(self):
        a = random_hermitian(3, 11)
        d1, d2 = eig_decompose(a), eig_decompose(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            eig_decompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestMatrixPower:
    def test_identity_sqrt(self):
        np.testing.assert_allclose(matrix_power(np.eye(3), 0.5), np.eye(3), atol=1e-14)

    def test_diagonal_sqrt(self):
        np.testing.assert_allclose(
            matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_square_matches_matmul(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(matrix_power(a, 2), a @ a, atol=1e-12)
        np.testing.assert_allclose(a @ a, [[5.0, 4.0], [4.0, 5.0]])

    @pytest.mark.parametrize("t", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_roundtrip(self, t, seed):
        a = random_psd(4, 4, seed)
        back = matrix_power(matrix_power(a, t), 1.0 / t)
        assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)

    def test_power_one_is_identity_map(self):
        a = random_psd(3, 3, 5)
        np.testing.assert_allclose(matrix_power(a, 1.0), a, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            matrix_power(np.diag([1.0, -1.0]), 0.5)

    def test_clamps_tiny_negative_drift(self):
        a = np.diag([1.0, -1e-14])
        out = matrix_power(a, 0.5)
        assert np.linalg.eigvalsh(out)[0] >= 0.0

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan])
    def test_rejects_bad_exponent(self, t):
        with pytest.raises(InvalidInput):
            matrix_power(np.eye(2), t)


class TestAbsMatrix:
    def test_sign_flip(self):
        np.testing.assert_allclose(
            abs_matrix(np.diag([1.0, -2.0])), np.diag([1.0, 2.0]), atol=1e-12
        )

    def test_psd_fixed_point(self):
        a = random_psd(3, 3, 7)
        np.testing.assert_allclose(abs_matrix(a), a, atol=1e-12)

    def test_off_diagonal_example(self):
        np.testing.assert_allclose(
            abs_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), np.eye(2), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_dominates_plus_minus(self, seed):
        a = random_hermitian(4, seed)
        assert loewner_geq(abs_matrix(a), a, tol=1e-9)
        assert loewner_geq(abs_matrix(a), -a, tol=1e-9)


class TestLoewner:
    def test_trivial_orders(self):
        assert loewner_geq(2 * np.eye(2), np.eye(2))
        assert not loewner_geq(np.eye(2), 2 * np.eye(2))

    def test_hand_solved_incomparable(self):
        # diag(3,1) - [[2,1],[1,2]] has eigenvalues 1 +- sqrt(2)
        assert not loewner_geq(np.diag([3.0, 1.0]), np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            loewner_geq(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_ordered_pairs_have_ordered_spectra(self, seed):
        a, b = loewner_pair(4, seed)
        la = np.linalg.eigvalsh(a)
        lb = np.linalg.eigvalsh(b)
        assert np.all(la >= lb - 1e-9)


class TestRankAndClassify:
    def test_rank_examples(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.eye(4)) == 4
        v = np.array([1.0, 2.0, 1j])
        assert numerical_rank(np.outer(v, v.conj())) == 1

    def test_classify(self):
        assert classify_psd(np.eye(2)).kind is PsdKind.POSITIVE_DEFINITE
        assert classify_psd(np.diag([1.0, 0.0])).kind is (
            PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
        )
        assert classify_psd(np.diag([1.0, -1.0])).kind is PsdKind.INDEFINITE
        assert classify_psd(np.diag([1.0, 0.0])).rank == 1


class TestRandomGeneration:
    def test_determinism(self):
        assert np.array_equal(random_hermitian(2, 7), random_hermitian(2, 7))
        assert np.array_equal(random_psd(3, 2, 7), random_psd(3, 2, 7))

    def test_psd_rank_is_exact(self):
        assert numerical_rank(random_psd(3, 1, 0)) == 1
        assert numerical_rank(random_psd(5, 3, 1)) == 3

    def test_full_rank_is_positive_definite(self):
        assert classify_psd(random_psd(3, 3, 2)).kind is PsdKind.POSITIVE_DEFINITE

    def test_rank_out_of_range(self):
        with pytest.raises(InvalidInput):
            random_psd(3, 4, 0)
        with pytest.raises(InvalidInput):
            random_psd(3, 0, 0)
