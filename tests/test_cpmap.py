"""CP map construction, application, objective, and structural checks."""

import tracemalloc

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
    hermitian_part,
    identity_channel,
    numerical_rank,
    objective,
    random_cpmap,
    random_hermitian,
    random_psd,
    random_unit_vector,
    schatten_norm,
)
from cpnorm.cpmap import _rank_one_extreme

from helpers import (
    ENTRY_KINDS,
    count_validations,
    hermitian_part_formula,
    loop_apply,
    random_entries,
    stack_copy_adjoint_apply,
    stack_copy_apply,
)


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

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_identity_relative(self, n, m, k, seed):
        phi = random_cpmap(n, m, k, seed)
        rng = np.random.default_rng(seed)
        a, b = random_hermitian(n, rng), random_hermitian(m, rng)
        lhs = frobenius_inner(phi.apply(a), b)
        rhs = frobenius_inner(a, phi.adjoint_apply(b))
        weight = float(np.sum(np.abs(phi.kraus) ** 2))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b) * weight
        assert _bits(phi.adjoint().adjoint().kraus) == _bits(phi.kraus)

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

    @pytest.mark.parametrize("seed", range(10))
    def test_validates_once_and_matches_public_norms_bitwise(self, monkeypatch, seed):
        phi = random_cpmap(3, 2 + seed % 3, 1 + seed % 4, seed)
        a = random_hermitian(3, seed + 200)
        p, q = 1.5 + seed / 4, 1.2 + seed / 3
        expected = schatten_norm(phi.apply(a), q) / schatten_norm(a, p)
        validations = count_validations(monkeypatch)
        assert objective(phi, a, p, q) == expected
        assert validations() == 1

    def test_rejects_input_of_the_wrong_size(self):
        with pytest.raises(DimMismatch):
            objective(identity_channel(2), np.eye(3), 3, 2)


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
        # The Choi tier certifies the depolarizing channel; the sampled check
        # still only reports that it found no counterexample.
        verdict = check_fully_indecomposable(depolarizing_channel(2), trials=4, seed=1)
        assert verdict.verdict is Verdict.PROBABLY_TRUE
        assert set(Verdict) == {Verdict.PROBABLY_TRUE, Verdict.COUNTEREXAMPLE_FOUND,
                                Verdict.CERTIFIED}


@pytest.mark.parametrize("trials", [0, -4, 2.5, True])
@pytest.mark.parametrize("check", [check_fully_indecomposable, check_positively_improving])
def test_structural_checks_reject_bad_trial_counts(check, trials):
    with pytest.raises(InvalidInput, match="trials"):
        check(depolarizing_channel(2), trials=trials)


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

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_is_exactly_hermitian(self, seed):
        """The witness is the projector x x^dag symmetrized, so its diagonal
        is exactly real; a raw outer product carries rounding there."""
        phi = random_cpmap(4, 4, 1, seed)
        verdict = check_positively_improving(phi, trials=16, seed=seed)
        assert verdict.verdict is Verdict.COUNTEREXAMPLE_FOUND
        w = verdict.witness
        assert np.array_equal(w, w.conj().T)
        assert not np.diag(w).imag.any()

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
    def test_row_kraus_margin_is_smallest_singular_value_squared(self, seed):
        # With 1 x n Kraus rows v_i, phi(xx^dag) = sum_i |v_i x|^2 = ||K x||^2,
        # so the margin over unit x is sigma_min(K)^2 exactly.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((3, 1, 3)) + 1j * rng.standard_normal((3, 1, 3))
        margin, x = _rank_one_extreme(CPMap(rows), random_unit_vector(3, rng))
        sigma = np.linalg.svd(rows.reshape(3, 3), compute_uv=False)[-1]
        assert margin == pytest.approx(sigma**2, rel=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_depolarizing_margin_equals_peak(self, n):
        phi = depolarizing_channel(n)
        margin, x = _rank_one_extreme(phi, random_unit_vector(n, n))
        assert margin == pytest.approx(1.0 / n, rel=1e-12)
        assert _extreme_at(phi, x) == pytest.approx((1.0 / n, 1.0 / n), rel=1e-12)

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
        margin, x_low = _rank_one_extreme(phi, starts[low])
        assert margin <= extremes[low][0]
        scale = max(1.0, extremes[low][1])
        assert margin == pytest.approx(_extreme_at(phi, x_low)[0], abs=1e-12 * scale)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _five_paths(phi, a, b):
    """Every way to apply ``phi`` to ``a`` or its adjoint to ``b``, each paired
    with the per-operator reference, the reference operators and its input."""
    ops = tuple(phi.kraus)
    adj_ops = tuple(v.conj().T for v in ops)
    adj = phi.adjoint()
    return [
        (phi.apply(a), ops, a),
        (phi.adjoint_apply(b), adj_ops, b),
        (adj.apply(b), adj_ops, b),
        (adj.adjoint_apply(a), ops, a),
        (adj.adjoint().apply(a), ops, a),
    ]


def _integer_hermitian(rng, n):
    g = rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))
    return g + g.conj().T


class TestKrausStack:
    """The (k, m, n) stack against per-operator code over separate operators."""

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_matches_per_operator_loop(self, n, m, k, seed):
        # Integer stacks and inputs: every product and sum is exact, so any
        # summation order gives the same bits (up to the sign of a zero,
        # which adding 0.0 clears).
        rng = np.random.default_rng(seed)
        ints = rng.integers(-3, 4, (k, m, n)) + 1j * rng.integers(-3, 4, (k, m, n))
        ints[0, 0, 0] = 1.0
        phi = CPMap(ints)
        assert phi.kraus.shape == (k, m, n)
        for out, ops, x in _five_paths(phi, _integer_hermitian(rng, n),
                                       _integer_hermitian(rng, m)):
            assert _bits(out + 0.0) == _bits(loop_apply(ops, x) + 0.0)

        # Gaussian stacks: the kernel sums in another order than the loop.
        # Each entry of either result goes through at most 2 k max(n, m)
        # rounded additions of terms whose magnitudes sum to at most
        # sum_i ||V_i||_F^2 ||X||_F, so the two agree entrywise within twice
        # that many eps of it.
        phi = random_cpmap(n, m, k, seed)
        weight = float(np.sum(np.abs(phi.kraus) ** 2))
        eps = np.finfo(np.float64).eps
        for out, ops, x in _five_paths(phi, random_hermitian(n, seed),
                                       random_hermitian(m, seed)):
            bound = 4 * k * max(n, m) * eps * weight * np.linalg.norm(x)
            assert np.max(np.abs(out - loop_apply(ops, x))) <= bound

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        b=st.integers(1, 8),
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_on_stacks_match_per_matrix_calls(self, b, n, m, k, seed):
        # square maps when m == n, rectangular ones otherwise
        phi = random_cpmap(n, m, k, seed)
        rng = np.random.default_rng(seed)
        xs = np.stack([random_hermitian(n, rng) for _ in range(b)])
        ys = np.stack([random_hermitian(m, rng) for _ in range(b)])
        raw = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
        for kernel, stack in ((phi._apply, xs), (phi._adjoint_apply, ys),
                              (hermitian_part, raw)):
            out = kernel(stack)
            assert out.shape[0] == b
            assert _bits(out) == _bits(np.stack([kernel(x) for x in stack]))

    def test_depolarizing_operators_in_loop_order(self):
        n = 3
        old = []
        for i in range(n):
            for j in range(n):
                v = np.zeros((n, n), dtype=np.complex128)
                v[i, j] = 1.0 / np.sqrt(n)
                old.append(v)
        assert _bits(depolarizing_channel(n).kraus) == _bits(np.stack(old))

    @pytest.mark.parametrize("n", [0, -1])
    def test_depolarizing_rejects_nonpositive_dimension(self, n):
        with pytest.raises(InvalidInput):
            depolarizing_channel(n)

    @pytest.mark.parametrize("seed", range(3))
    def test_embedding_operators_in_loop_order(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.uniform(0.0, 2.0, (3, 4)) * (rng.uniform(size=(3, 4)) < 0.6)
        mat[0, 0] = 1.5
        old = []
        for i in range(3):
            for j in range(4):
                if mat[i, j] > 0:
                    v = np.zeros((3, 4), dtype=np.complex128)
                    v[i, j] = np.sqrt(mat[i, j])
                    old.append(v)
        assert _bits(embed_nonnegative_matrix(mat).kraus) == _bits(np.stack(old))

    def test_stack_is_read_only(self):
        ops = np.stack([np.eye(2, dtype=np.complex128), np.diag([0.0, 1.0 + 0j])])
        phi = CPMap(ops)
        for stack in (phi.kraus, phi.adjoint().kraus):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 2.0
        ops[0, 0, 0] = 2.0  # the caller's array is copied, not frozen
        assert phi.kraus[0, 0, 0] == 1.0


def _peak_bytes(f, *args) -> int:
    """Peak traced allocation of one call of ``f``, after a first call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_kernels_against_stack_copy(phi, a, b):
    """Both kernels give the bits of the formulas that copied the conjugated
    stack, and leave their input and the stack as they were."""
    stack = _bits(phi._stack)
    for kernel, reference, x in ((phi._apply, stack_copy_apply, a),
                                 (phi._adjoint_apply, stack_copy_adjoint_apply, b)):
        before = _bits(x)
        out, expected = kernel(x), reference(phi, x)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert _bits(out) == _bits(expected)
        assert _bits(x) == before
    assert _bits(phi._stack) == stack


class TestConjugatedProduct:
    """The kernels conjugate their own first product instead of copying the
    stack: X S^dag = conj(conj(X) S^T) and S^dag U = conj(S^T conj(U)). Both
    sides make the same products, negated in the imaginary part, so the
    results are the same bits, signed zeros included."""

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        k=st.integers(1, 5),
        lead=st.sampled_from([(), (1,), (2,), (4,), (2, 2)]),
        kraus_kind=st.sampled_from(ENTRY_KINDS),
        input_kind=st.sampled_from(ENTRY_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_the_stack_copy(self, n, m, k, lead, kraus_kind,
                                       input_kind, seed):
        rng = np.random.default_rng(seed)
        ops = random_entries(rng, kraus_kind, (k, m, n))
        ops[0, 0, 0] += 1.0  # a map needs one nonzero entry
        phi = CPMap(ops)
        a = hermitian_part_formula(random_entries(rng, input_kind, lead + (n, n)))
        b = hermitian_part_formula(random_entries(rng, input_kind, lead + (m, m)))
        _check_kernels_against_stack_copy(phi, a, b)

    @pytest.mark.parametrize("n, k", [(32, 4), (64, 8)])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_bits_match_the_stack_copy_at_scale(self, n, k, lead):
        phi = random_cpmap(n, n, k, 100 * n + k)
        rng = np.random.default_rng(n + k)
        a = hermitian_part_formula(random_entries(rng, "gaussian", lead + (n, n)))
        b = hermitian_part_formula(random_entries(rng, "gaussian", lead + (n, n)))
        _check_kernels_against_stack_copy(phi, a, b)

    @pytest.mark.parametrize("lead, n, k", [((), 64, 8), ((8,), 8, 8)])
    def test_kernels_peak_below_the_stack_copy(self, lead, n, k):
        # A call holds its first product, which for a square map is as large
        # as the stack once per input matrix, until it returns. Three arrays
        # of the output's size come on top: the second product, the output
        # and numpy's buffer for the transposed sum in ``hermitian_part``.
        # The bound allows half a stack more. The stack-copy formulas, with a
        # conjugated stack and three temporaries in the symmetrisation, peak
        # above it: at (64, 8) at 2.1 stacks, against a bound of 1.9.
        phi = random_cpmap(n, n, k, 3)
        a = random_hermitian(n, 4) if not lead else np.stack(
            [random_hermitian(n, s) for s in range(lead[0])])
        stack = phi._stack.nbytes
        product = stack * int(np.prod(lead, dtype=int))
        for kernel, reference in ((phi._apply, stack_copy_apply),
                                  (phi._adjoint_apply, stack_copy_adjoint_apply)):
            bound = product + 3 * kernel(a).nbytes + stack // 2
            assert _peak_bytes(kernel, a) < bound
            assert _peak_bytes(reference, phi, a) >= bound
            if not lead:
                assert _peak_bytes(kernel, a) < 2 * stack


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


@pytest.mark.parametrize("n,m,k", [(2.5, 2, 2), (2, 2.0, 2), (2, 2, True), (0, 2, 2)])
def test_random_cpmap_rejects_bad_counts(n, m, k):
    with pytest.raises(InvalidInput):
        random_cpmap(n, m, k, 0)


@pytest.mark.parametrize("channel", [identity_channel, depolarizing_channel])
@pytest.mark.parametrize("n", [2.0, True, 0])
def test_channels_reject_bad_dimensions(channel, n):
    with pytest.raises(InvalidInput):
        channel(n)
