"""Hermitian/PSD matrix algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnorm import (
    InvalidInput,
    DimMismatch,
    NotPsd,
    PsdKind,
    abs_matrix,
    classify_psd,
    dual_exponent,
    eig_decompose,
    hermitian_part,
    hilbert_distance,
    loewner_geq,
    matrix_power,
    numerical_rank,
    psd_spectrum,
    random_hermitian,
    random_psd,
    require_hermitian,
)
from cpnorm.config import HERMITIZE_RTOL
from cpnorm.hermitian import _psd_spectrum
from cpnorm.hilbert import _hilbert_distance
from cpnorm.schatten import _duality_map
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

    def test_rejects_overflowing_non_hermitian(self):
        # both norms of the Hermitian test overflow to inf, and so does the
        # symmetrized copy
        with pytest.raises(InvalidInput):
            require_hermitian(np.array([[1e308, 1e308], [0.0, 1e308]]))

    def test_rejects_non_hermitian_when_norms_overflow(self):
        # every entry and the symmetrized copy are finite, but ||M||_F and
        # ||M - M^dag||_F both overflow; the test is redone at a power-of-two
        # scale
        with pytest.raises(InvalidInput, match="not Hermitian"):
            require_hermitian(np.array([[0.0, 1e200], [0.0, 0.0]]))

    @pytest.mark.parametrize("off", [1e200, 1e200j, 1e200 + 1e200j])
    def test_accepts_hermitian_when_norms_overflow(self, off):
        m = np.array([[1e200, off], [np.conj(off), -1e200]])
        assert np.array_equal(require_hermitian(m), m)

    def test_rank_of_overflowing_matrix_is_rejected(self):
        with pytest.raises(InvalidInput):
            numerical_rank(np.array([[1e308, 1e308], [0.0, 1e308]]))

    def test_distance_of_overflowing_matrices_is_rejected(self):
        with pytest.raises(InvalidInput):
            hilbert_distance(1e308 * np.diag([1.0, 0.5]), 1e308 * np.diag([0.3, 1.0]))
        # one decade lower nothing overflows: ln((1/0.3) / (0.5/1))
        d = hilbert_distance(1e307 * np.diag([1.0, 0.5]), 1e307 * np.diag([0.3, 1.0]))
        assert d.value == pytest.approx(np.log(1.0 / 0.15), rel=1e-12)


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


def _phase_loop(a):
    """Reference: canonical phases set one eigenvector column at a time."""
    vals, vecs = np.linalg.eigh(require_hermitian(a))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        significant = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        pivot = col[significant[0]]
        vecs[:, j] = col * (np.conj(pivot) / abs(pivot))
    return vals, vecs


@st.composite
def hermitian_matrices(draw):
    """Gaussian Hermitian matrices at several scales, some of them permuted
    block-diagonal so that eigenvectors have exactly zero leading entries,
    some with repeated eigenvalues."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_hermitian(n, rng)
    shape = draw(st.sampled_from(["dense", "blocks", "repeated"]))
    if shape == "blocks":
        cut = draw(st.integers(0, n))
        m[:cut, cut:] = 0.0
        m[cut:, :cut] = 0.0
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
    elif shape == "repeated":
        q, _ = np.linalg.qr(m + 1j * np.eye(n))
        m = (q * rng.integers(-2, 3, n)) @ q.conj().T
    return m * draw(st.sampled_from([1e-12, 1.0, 1e12]))


def _first_significant(col):
    return col[np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0]]


class TestCanonicalPhase:
    @settings(max_examples=300)
    @given(hermitian_matrices())
    def test_matches_column_loop_bitwise(self, m):
        vals, vecs = _phase_loop(m)
        dec = eig_decompose(m)
        assert dec.eigenvalues.tobytes() == vals.tobytes()
        assert dec.eigenvectors.tobytes() == vecs.tobytes()

    @settings(max_examples=300)
    @given(hermitian_matrices())
    def test_first_significant_component_real_positive(self, m):
        vecs = eig_decompose(m).eigenvectors
        for col in vecs.T:
            pivot = _first_significant(col)
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-15 * pivot.real


@st.composite
def psd_matrices(draw, n=None, scaled=True):
    """PSD matrices of size 1..8, at several scales unless ``scaled`` is
    false: a random unitary times eigenvalues that are distinct, repeated
    small integers (zero included), or distinct with a zero block."""
    n = draw(st.integers(1, 8)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    shape = draw(st.sampled_from(["distinct", "repeated", "zeros"]))
    vals = rng.exponential(size=n)
    if shape == "repeated":
        vals = rng.integers(0, 3, n).astype(float)
    elif shape == "zeros":
        vals[: draw(st.integers(0, n - 1))] = 0.0
    m = hermitian_part((q * vals) @ q.conj().T)
    if not scaled:
        return m
    return m * draw(st.sampled_from([1e-150, 1e-12, 1.0, 1e12, 1e150]))


@st.composite
def psd_pairs(draw):
    """Two PSD matrices of one size: independent, or the second on the
    range of the first (its square), so that every part relation occurs."""
    a = draw(psd_matrices())
    if draw(st.booleans()):
        return a, draw(psd_matrices(n=a.shape[0]))
    return a, hermitian_part(a @ a) / max(np.abs(a).max(), 1e-300)


class TestTwoDecompositionPaths:
    """The kernels keep ``eigh``'s eigenvector phases and the public
    ``psd_spectrum`` canonicalizes them; nothing built from the two may differ
    beyond rounding, and the public functions that return no eigenvectors
    return the kernels' bits."""

    @settings(max_examples=200)
    @given(psd_matrices())
    def test_same_eigenvalues_reconstruction_and_duality_map(self, m):
        kernel = _psd_spectrum(require_hermitian(m))
        public = psd_spectrum(m)
        assert kernel.eigenvalues.tobytes() == public.eigenvalues.tobytes()
        scale = np.linalg.norm(m)
        assert np.linalg.norm(kernel.reconstruct() - public.reconstruct()) <= 1e-14 * scale
        if public.eigenvalues[0] > 0.0:
            exp = dual_exponent(3.0)
            assert np.linalg.norm(_duality_map(kernel, exp)
                                  - _duality_map(public, exp)) <= 1e-14

    @settings(max_examples=200)
    @given(psd_matrices())
    def test_public_phases_are_canonical(self, m):
        for col in psd_spectrum(m).eigenvectors.T:
            pivot = _first_significant(col)
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-15 * pivot.real

    @settings(max_examples=200)
    @given(psd_pairs())
    def test_hilbert_distance_is_the_kernel_bitwise(self, pair):
        a, b = pair
        expected = _hilbert_distance(_psd_spectrum(require_hermitian(a)),
                                     _psd_spectrum(require_hermitian(b)))
        assert repr(hilbert_distance(a, b)) == repr(expected)


def _require_hermitian_reference(m):
    """Reference: the Hermitian test as stated, with ``hermitian_part``."""
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise InvalidInput("non-finite")
    with np.errstate(over="ignore", invalid="ignore"):
        s = a
        if np.isinf(np.linalg.norm(a)):
            top = max(np.abs(a.real).max(), np.abs(a.imag).max())
            s = a * np.ldexp(1.0, -int(np.frexp(top)[1]))
        if np.linalg.norm(s - s.conj().T) > HERMITIZE_RTOL * np.linalg.norm(s):
            raise InvalidInput("not Hermitian")
        sym = hermitian_part(a)
    if not np.isfinite(sym).all():
        raise InvalidInput("non-finite")
    return sym


@st.composite
def nearly_hermitian_matrices(draw):
    """Hermitian matrices plus a drift around the rejection threshold, at
    scales up to where the norms and the symmetrized copy overflow, some with
    a non-finite entry."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    drift = draw(st.sampled_from([0.0, 1e-12, 3e-9, 1e-8, 3e-8, 1.0]))
    m = random_hermitian(n, rng) + drift * g
    with np.errstate(over="ignore"):
        m = m * draw(st.sampled_from([1.0, 1e-300, 1e154, 1e200, 1e307, 8e307]))
    bad = draw(st.sampled_from([None, None, None, np.inf, np.nan]))
    if bad is not None:
        m[rng.integers(n), rng.integers(n)] = bad
    return m


class TestRequireHermitianReference:
    @settings(max_examples=300)
    @given(nearly_hermitian_matrices())
    def test_same_bits_and_same_rejections(self, m):
        try:
            expected = _require_hermitian_reference(m)
        except InvalidInput:
            with pytest.raises(InvalidInput):
                require_hermitian(m)
            return
        assert require_hermitian(m).tobytes() == expected.tobytes()


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
        assert loewner_geq(abs_matrix(a), a)
        assert loewner_geq(abs_matrix(a), -a)


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

    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1.0, 1e150])
    def test_relative_perturbation_within_the_cutoff(self, scale):
        # the cutoff comes from A and B, not from A - B = -1e-12 A
        a = scale * random_psd(3, 3, 0)
        assert loewner_geq(a, a * (1 + 1e-12))
        assert not loewner_geq(a, a * (1 + 1e-6))

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


    @settings(max_examples=100)
    @given(psd_matrices(scaled=False), st.floats(-150, 150))
    def test_rank_and_class_are_scale_invariant(self, m, e):
        c = 10.0**e
        assert numerical_rank(c * m) == numerical_rank(m)
        assert classify_psd(c * m) == classify_psd(m)


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
