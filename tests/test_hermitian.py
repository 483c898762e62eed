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
    random_unit_vector,
    require_hermitian,
)
from cpnorm.config import HERMITIZE_RTOL
from cpnorm import hermitian
from cpnorm.hermitian import (
    _eig_decompose,
    _psd_spectrum,
    _rank,
    _require_hermitian_full,
    _spectral_cutoff,
)
from cpnorm.hilbert import _hilbert_distance, _inv_sqrt_conjugate
from cpnorm.schatten import _duality_map
from helpers import (
    ENTRY_KINDS,
    hermitian_part_formula,
    loewner_pair,
    random_entries,
)


class TestHermitianPart:
    """``hermitian_part`` halves in place, yet gives the bits and dtype of
    (M + M^dag) / 2: a zero keeps its sign, which ``*= 0.5`` would not."""

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bits_match_the_formula(self, kind, lead, sign):
        rng = np.random.default_rng([len(lead), int(sign > 0), len(kind)])
        for n in (1, 2, 3, 5, 8):
            m = sign * random_entries(rng, kind, lead + (n, n))
            h, expected = hermitian_part(m), hermitian_part_formula(m)
            assert h.dtype == expected.dtype and h.flags.c_contiguous
            assert h.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_real_inputs_give_float64(self, dtype):
        m = np.array([[1, 2], [3, 4]], dtype=dtype)
        h = hermitian_part(m)
        assert h.dtype == np.float64
        assert h.tobytes() == hermitian_part_formula(m).tobytes()
        np.testing.assert_array_equal(h, [[1.0, 2.5], [2.5, 4.0]])

    def test_input_is_unchanged(self):
        m = random_entries(np.random.default_rng(0), "gaussian", (3, 4, 4))
        before = m.tobytes()
        hermitian_part(m)
        assert m.tobytes() == before


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
def psd_pairs(draw, n=None):
    """Two PSD matrices of one size: independent, or the second on the
    range of the first (its square), so that every part relation occurs."""
    a = draw(psd_matrices(n=n))
    if draw(st.booleans()):
        return a, draw(psd_matrices(n=a.shape[0]))
    return a, hermitian_part(a @ a) / max(np.abs(a).max(), 1e-300)


@st.composite
def stacks(draw, element):
    """1 to 8 draws of ``element(n)``, for one size n from 1 to 6."""
    n = draw(st.integers(1, 6))
    return [draw(element(n)) for _ in range(draw(st.integers(1, 8)))]


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestStackedKernels:
    """Every kernel that takes stacks gives each matrix of a (B, n, n) stack
    the bits of its call on that matrix alone, and a (1, B, n, n) stack the
    bits of the (B, n, n) one."""

    @settings(max_examples=150, deadline=None)
    @given(stacks(lambda n: psd_matrices(n=n)), st.integers(0, 2**8 - 1))
    def test_spectral_kernels(self, mats, signs):
        # negated matrices make |lambda|_max the last eigenvalue
        signed = np.stack([m if signs >> i & 1 else -m for i, m in enumerate(mats)])
        dec = _eig_decompose(signed)
        cutoffs, ranks = _spectral_cutoff(dec.eigenvalues), _rank(dec.eigenvalues)
        rebuilt = dec.reconstruct()
        for i, m in enumerate(signed):
            one = _eig_decompose(m)
            assert _bits(dec.eigenvalues[i]) == _bits(one.eigenvalues)
            assert _bits(dec.eigenvectors[i]) == _bits(one.eigenvectors)
            assert _bits(dec[i].eigenvectors) == _bits(one.eigenvectors)
            assert _bits(rebuilt[i]) == _bits(one.reconstruct())
            cutoff, rank = _spectral_cutoff(one.eigenvalues), _rank(one.eigenvalues)
            assert type(cutoff) is float and type(rank) is int
            assert _bits(cutoffs[i]) == _bits(cutoff) and ranks[i] == rank
        nested = _eig_decompose(signed[None])
        assert _bits(nested.eigenvectors[0]) == _bits(dec.eigenvectors)
        assert _bits(_spectral_cutoff(nested.eigenvalues)[0]) == _bits(cutoffs)
        assert _bits(_rank(nested.eigenvalues)[0]) == _bits(ranks)

        stack = np.stack(mats)
        psd = _psd_spectrum(stack)
        for i, m in enumerate(mats):
            one = _psd_spectrum(m)
            assert _bits(psd.eigenvalues[i]) == _bits(one.eigenvalues)
            assert _bits(psd.eigenvectors[i]) == _bits(one.eigenvectors)
        assert _bits(_psd_spectrum(stack[None]).eigenvalues[0]) == _bits(psd.eigenvalues)

    @settings(max_examples=150, deadline=None)
    @given(stacks(lambda n: psd_pairs(n=n)))
    def test_hilbert_distance_and_conjugate(self, pairs):
        da = _psd_spectrum(np.stack([a for a, _ in pairs]))
        db = _psd_spectrum(np.stack([b for _, b in pairs]))
        d = _hilbert_distance(da, db)
        nested = _hilbert_distance(da[None], db[None])
        assert _bits(nested.value[0]) == _bits(d.value)
        assert _bits(nested.same_part[0]) == _bits(d.same_part)
        for i, (a, b) in enumerate(pairs):
            one = _hilbert_distance(_psd_spectrum(a), _psd_spectrum(b))
            assert type(one.value) is float
            assert _bits(d.value[i]) == _bits(one.value)
            assert d.same_part[i] == one.same_part
        n = da.eigenvalues.shape[-1]
        full = _rank(db.eigenvalues) == n
        if full.any():
            conj = _inv_sqrt_conjugate(da[full].reconstruct(), db[full])
            for j, i in enumerate(np.flatnonzero(full)):
                one = _inv_sqrt_conjugate(da[i].reconstruct(), db[i])
                assert _bits(conj[j]) == _bits(one)

    def test_not_psd_names_the_first_matrix_in_c_order(self):
        mats = np.stack([random_psd(3, 3, s) for s in range(6)]).reshape(3, 2, 3, 3)
        mats[1, 1] *= -1.0
        mats[2, 0] *= -2.0
        with pytest.raises(NotPsd) as single:
            _psd_spectrum(mats[1, 1])
        with pytest.raises(NotPsd) as stacked:
            _psd_spectrum(mats)
        assert str(stacked.value) == str(single.value)


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


def _scaled(m: np.ndarray, k: int) -> np.ndarray:
    """m * 2^k, exact until the parts underflow or overflow."""
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)


def _off_hermitian(n: int, rng, ratio: float) -> np.ndarray:
    """H + cK with ||M - M^dag||_F = ratio * HERMITIZE_RTOL * ||M||_F up to
    rounding: H Hermitian, K anti-Hermitian, and the two orthogonal, so
    ||M||^2 = ||H||^2 + c^2 ||K||^2."""
    h = random_hermitian(n, rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g - g.conj().T) / 2
    t = ratio * HERMITIZE_RTOL
    c = t * np.linalg.norm(h) / (np.linalg.norm(k) * np.sqrt(4.0 - t * t))
    return h + c * k


@st.composite
def threshold_matrices(draw):
    """Matrices within 2e-3 relative of the rejection threshold on either
    side, or well inside or outside it, scaled by 2^k for k in [-600, 600],
    some with an inf or nan entry."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratio = draw(st.one_of(st.floats(1 - 2e-3, 1 + 2e-3),
                           st.sampled_from([0.0, 0.5, 2.0])))
    m = _scaled(_off_hermitian(n, rng, ratio), draw(st.integers(-600, 600)))
    bad = draw(st.sampled_from([None, None, None, np.inf, -np.inf, np.nan]))
    if bad is not None:
        m[rng.integers(n), rng.integers(n)] = bad
    return m


def _outcome(check, m):
    """The bits ``check`` returns, or the message it raises."""
    try:
        return check(m).tobytes()
    except InvalidInput as exc:
        return str(exc)


class TestLeanValidation:
    """``require_hermitian``'s short accept path gives the bits, decisions
    and messages of the full test."""

    @staticmethod
    def full(m):
        a = np.asarray(m, dtype=np.complex128)
        return _require_hermitian_full(a, a.conj().T)

    @settings(max_examples=400)
    @given(threshold_matrices())
    def test_same_outcome_as_the_full_test(self, m):
        assert _outcome(require_hermitian, m) == _outcome(self.full, m)

    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_both_sides_of_the_threshold(self, k):
        rng = np.random.default_rng(k + 1000)
        inside = _scaled(_off_hermitian(4, rng, 1 - 5e-4), k)
        outside = _scaled(_off_hermitian(4, rng, 1 + 5e-4), k)
        assert require_hermitian(inside).tobytes() == self.full(inside).tobytes()
        with pytest.raises(InvalidInput, match="not Hermitian"):
            require_hermitian(outside)

    def test_ordinary_matrices_skip_the_full_test(self, monkeypatch):
        def unreachable(a, ah):
            raise AssertionError("took the full test")

        monkeypatch.setattr(hermitian, "_require_hermitian_full", unreachable)
        for n in range(1, 7):
            require_hermitian(_off_hermitian(n, np.random.default_rng(n), 0.5))
            require_hermitian(np.eye(n))


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

    @pytest.mark.parametrize("n,rank", [(3, 2.0), (3.0, 2), (True, 1)])
    def test_psd_rejects_bad_counts(self, n, rank):
        with pytest.raises(InvalidInput):
            random_psd(n, rank, 0)

    @pytest.mark.parametrize("sampler", [random_hermitian, random_unit_vector])
    @pytest.mark.parametrize("n", [2.0, True, 0])
    def test_samplers_reject_bad_dimensions(self, sampler, n):
        with pytest.raises(InvalidInput):
            sampler(n, 0)
