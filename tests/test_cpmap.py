"""CP map construction, application, objective, and structural checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnorm import (
    CPMap,
    DimMismatch,
    InvalidInput,
    KrausRedundancyWarning,
    Verdict,
    ZeroInput,
    abs_matrix,
    check_fully_indecomposable,
    check_positively_improving,
    depolarizing_channel,
    embed_nonnegative_matrix,
    frobenius_inner,
    identity_channel,
    numerical_rank,
    objective,
    random_cpmap,
    random_hermitian,
    random_psd,
    random_unit_vector,
)
from cpnorm.cpmap import _rank_one_extreme


class TestConstruction:
    def test_requires_kraus(self):
        with pytest.raises(InvalidInput):
            CPMap([])

    def test_shape_agreement(self):
        with pytest.raises(InvalidInput):
            CPMap([np.eye(2), np.zeros((3, 2))])

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidInput):
            CPMap([np.zeros((2, 2))])

    def test_warns_on_redundant_list(self):
        ops = [np.eye(2)] * 5
        with pytest.warns(KrausRedundancyWarning):
            CPMap(ops)

    def test_dims(self):
        phi = CPMap([np.zeros((3, 2)) + np.eye(3, 2)])
        assert phi.input_dim == 2 and phi.output_dim == 3 and phi.kraus_count == 1

    def test_adjoint_roundtrip(self):
        phi = random_cpmap(2, 3, 2, 0)
        back = phi.adjoint().adjoint()
        for v, w in zip(phi.kraus, back.kraus):
            assert np.array_equal(v, w)


class TestApply:
    def test_identity_channel(self):
        phi = identity_channel(2)
        a = random_hermitian(2, 0)
        np.testing.assert_allclose(phi.apply(a), a, atol=1e-14)

    def test_depolarizing_collapses_to_identity_direction(self):
        phi = depolarizing_channel(3)
        a = random_hermitian(3, 1)
        expected = np.trace(a).real / 3 * np.eye(3)
        np.testing.assert_allclose(phi.apply(a), expected, atol=1e-12)

    def test_corner_extraction(self):
        phi = CPMap([np.array([[1.0, 0.0]])])
        a = np.array([[2.0, 1j], [-1j, 5.0]])
        np.testing.assert_allclose(phi.apply(a), [[2.0]], atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            identity_channel(2).apply(np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_cpmap(3, 2, 3, rng)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        alpha, beta = rng.standard_normal(2)
        lhs = phi.apply(alpha * a + beta * b)
        rhs = alpha * phi.apply(a) + beta * phi.apply(b)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_preserves_psd(self, seed):
        phi = random_cpmap(3, 3, 2, seed)
        out = phi.apply(random_psd(3, 2, seed))
        assert np.linalg.eigvalsh(out)[0] >= -1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_order_preserving(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_cpmap(3, 3, 3, rng)
        b = random_psd(3, 3, rng)
        a = b + random_psd(3, 3, rng)
        diff = phi.apply(a) - phi.apply(b)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-9


class TestAdjoint:
    def test_identity(self):
        phi = identity_channel(3)
        a = random_hermitian(3, 2)
        np.testing.assert_allclose(phi.adjoint_apply(a), a, atol=1e-14)

    def test_corner_map_adjoint(self):
        phi = CPMap([np.array([[1.0, 0.0]])])
        np.testing.assert_allclose(
            phi.adjoint_apply(np.array([[3.0]])), np.diag([3.0, 0.0]), atol=1e-14
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_cpmap(3, 2, 3, rng)
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        lhs = frobenius_inner(phi.apply(a), b)
        rhs = frobenius_inner(a, phi.adjoint_apply(b))
        assert abs(lhs - rhs) <= 1e-10


class TestObjective:
    def test_identity_flat_input(self):
        value = objective(identity_channel(2), np.eye(2), 4, 2)
        assert value == pytest.approx(2**0.25, abs=1e-12)

    def test_depolarizing_flat_input(self):
        value = objective(depolarizing_channel(3), np.eye(3), 3, 2)
        assert value == pytest.approx(3 ** (1.0 / 6.0), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 10.0])
    def test_scale_invariant(self, alpha):
        phi = random_cpmap(3, 3, 3, 4)
        a = random_hermitian(3, 4)
        assert objective(phi, alpha * a, 3, 2) == pytest.approx(
            objective(phi, a, 3, 2), rel=1e-12
        )

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            objective(identity_channel(2), np.zeros((2, 2)), 3, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_absolute_value(self, seed):
        phi = random_cpmap(3, 3, 3, seed)
        a = random_hermitian(3, seed + 100)
        assert objective(phi, a, 3, 2) <= objective(phi, abs_matrix(a), 3, 2) + 1e-9


class TestFullyIndecomposable:
    def test_identity_has_counterexample(self):
        verdict = check_fully_indecomposable(identity_channel(2), trials=8, seed=0)
        assert verdict.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert verdict.witness is not None
        w = verdict.witness
        phi = identity_channel(2)
        assert numerical_rank(phi.adjoint_apply(phi.apply(w))) <= numerical_rank(w)

    def test_depolarizing_probably_true(self):
        verdict = check_fully_indecomposable(depolarizing_channel(3), trials=16, seed=0)
        assert verdict.verdict is Verdict.PROBABLY_TRUE
        assert verdict.trials == 2 * 16

    def test_shift_map_increases_rank(self):
        phi = CPMap([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        composite = phi.adjoint_apply(phi.apply(np.diag([0.0, 1.0])))
        assert numerical_rank(composite) == 2
        verdict = check_fully_indecomposable(phi, trials=32, seed=0)
        assert verdict.verdict is Verdict.PROBABLY_TRUE

    def test_never_certifies(self):
        verdict = check_fully_indecomposable(depolarizing_channel(2), trials=4, seed=1)
        assert verdict.verdict is not Verdict.CERTIFIED


class TestPositivelyImproving:
    def test_depolarizing_margin(self):
        verdict = check_positively_improving(depolarizing_channel(3), trials=32, seed=0)
        assert verdict.verdict is Verdict.PROBABLY_TRUE
        assert verdict.margin == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_identity_counterexample(self):
        verdict = check_positively_improving(identity_channel(2), trials=16, seed=0)
        assert verdict.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert verdict.witness is not None
        assert numerical_rank(verdict.witness) == 1

    def test_single_full_rank_kraus_fails_for_n_ge_2(self):
        phi = CPMap([np.array([[1.0, 2.0], [0.5, 1.5]])])
        verdict = check_positively_improving(phi, trials=16, seed=0)
        assert verdict.verdict is Verdict.COUNTEREXAMPLE_FOUND


def _extreme_at(phi, x):
    """(smallest, largest) eigenvalue of phi(xx^dag), as the search computes them."""
    w = np.linalg.eigh(phi.apply(np.outer(x, x.conj())))[0]
    return float(w[0]), float(w[-1])


class TestRankOneExtreme:
    @pytest.mark.parametrize("seed", range(4))
    def test_single_kraus_peak_is_top_singular_value_squared(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        peak, x = _rank_one_extreme(CPMap([v]), random_unit_vector(4, rng), top=True)
        sigma = np.linalg.svd(v, compute_uv=False)[0]
        assert peak == pytest.approx(sigma**2, rel=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_depolarizing_margin_equals_peak(self, n):
        phi = depolarizing_channel(n)
        x = random_unit_vector(n, n)
        margin, _ = _rank_one_extreme(phi, x, top=False)
        peak, _ = _rank_one_extreme(phi, x, top=True)
        assert margin == pytest.approx(1.0 / n, rel=1e-12)
        assert peak == pytest.approx(1.0 / n, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_worse_than_samples(self, n, m, k, seed):
        phi = random_cpmap(n, m, min(k, n * m), seed)
        rng = np.random.default_rng(seed)
        starts = [random_unit_vector(n, rng) for _ in range(8)]
        extremes = [_extreme_at(phi, x) for x in starts]
        low = min(range(8), key=lambda i: extremes[i][0])
        high = max(range(8), key=lambda i: extremes[i][1])
        margin, x_low = _rank_one_extreme(phi, starts[low], top=False)
        peak, x_high = _rank_one_extreme(phi, starts[high], top=True)
        assert margin <= extremes[low][0]
        assert peak >= extremes[high][1]
        scale = max(1.0, peak)
        assert margin == pytest.approx(_extreme_at(phi, x_low)[0], abs=1e-12 * scale)
        assert peak == pytest.approx(_extreme_at(phi, x_high)[1], abs=1e-12 * scale)


class TestEmbedding:
    def test_diagonal_action(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        phi = embed_nonnegative_matrix(a)
        x = np.array([0.7, 0.3])
        image = phi.apply(np.diag(x))
        np.testing.assert_allclose(image, np.diag(a @ x), atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            embed_nonnegative_matrix([[1.0, -0.5], [0.0, 1.0]])

    def test_rejects_zero_matrix(self):
        with pytest.raises(InvalidInput):
            embed_nonnegative_matrix(np.zeros((2, 2)))


def test_random_cpmap_deterministic():
    a = random_cpmap(2, 3, 2, 42)
    b = random_cpmap(2, 3, 2, 42)
    for v, w in zip(a.kraus, b.kraus):
        assert np.array_equal(v, w)
