"""Hilbert projective metric, diameter estimation, contraction bounds."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnorm import (
    CPMap,
    DimMismatch,
    InvalidInput,
    KrausRedundancyWarning,
    NotPsd,
    PowerConfig,
    Verdict,
    ZeroInput,
    contraction_report,
    depolarizing_channel,
    embed_nonnegative_matrix,
    estimate_diameter,
    generate_map,
    hermitian_part,
    hilbert_distance,
    identity_channel,
    m_ratio,
    numerical_rank,
    random_cpmap,
    random_psd,
    random_unit_vector,
    run_diagnostics,
    run_power_method,
    sampled_contraction_ratio,
    step_contraction_bound,
)
from cpnorm import hilbert, power
from cpnorm.config import subseed
from helpers import (
    contraction_ratio_reference,
    count_calls,
    count_validations,
    same_part_pair_reference,
    sampled_diameter_reference,
    shared_range_pair,
    well_conditioned_pd,
)


class TestMRatio:
    def test_identity_pair(self):
        assert m_ratio(np.eye(2), np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert m_ratio(np.diag([2.0, 1.0]), np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_range_not_contained(self):
        assert m_ratio(np.eye(2), np.diag([1.0, 0.0])) == math.inf

    def test_singular_denominator_contained(self):
        # both supported on span(e1): ratio of the nonzero eigenvalues
        assert m_ratio(np.diag([3.0, 0.0]), np.diag([1.5, 0.0])) == pytest.approx(2.0)

    def test_zero_numerator(self):
        assert m_ratio(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroInput):
            m_ratio(np.eye(2), np.zeros((2, 2)))


class TestHilbertDistance:
    def test_log_two(self):
        d = hilbert_distance(np.eye(2), np.diag([2.0, 1.0]))
        assert d.same_part
        assert d.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ray_invariance(self):
        a = random_psd(3, 3, 0)
        d = hilbert_distance(a, 5.0 * a)
        assert d.value <= 1e-12

    def test_different_parts(self):
        d = hilbert_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not d.same_part and d.value == math.inf

    def test_both_zero(self):
        d = hilbert_distance(np.zeros((2, 2)), np.zeros((2, 2)))
        assert d.same_part and d.value == 0.0

    def test_one_zero(self):
        d = hilbert_distance(np.zeros((2, 2)), np.eye(2))
        assert not d.same_part and d.value == math.inf

    @pytest.mark.parametrize("seed", range(15))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a = well_conditioned_pd(3, rng)
        b = well_conditioned_pd(3, rng)
        c = well_conditioned_pd(3, rng)
        dab = hilbert_distance(a, b).value
        dba = hilbert_distance(b, a).value
        dac = hilbert_distance(a, c).value
        dcb = hilbert_distance(c, b).value
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab <= dac + dcb + 1e-9

    @pytest.mark.parametrize("alpha,beta", [(1e-3, 1.0), (1.0, 1e3), (1e-3, 1e3)])
    def test_scale_invariance(self, alpha, beta):
        rng = np.random.default_rng(3)
        a = well_conditioned_pd(3, rng)
        b = well_conditioned_pd(3, rng)
        base = hilbert_distance(a, b).value
        assert abs(hilbert_distance(alpha * a, beta * b).value - base) <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_singular_same_part_pairs(self, seed):
        a, b = shared_range_pair(4, 2, seed)
        d = hilbert_distance(a, b)
        assert d.same_part and math.isfinite(d.value)
        assert hilbert_distance(b, a).value == pytest.approx(d.value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_cp_maps_never_expand(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_cpmap(3, 3, 3, rng)
        a = well_conditioned_pd(3, rng)
        b = well_conditioned_pd(3, rng)
        din = hilbert_distance(a, b).value
        dout = hilbert_distance(phi.apply(a), phi.apply(b)).value
        assert dout <= din + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_part_preservation(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_cpmap(4, 4, 3, rng)
        a, b = shared_range_pair(4, 2, seed)
        d = hilbert_distance(phi.apply(a), phi.apply(b))
        assert d.same_part

    @settings(max_examples=60)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           ridge=st.floats(1e-3, 10.0), scale=st.floats(1e-6, 1e6))
    def test_matches_generalized_eigenvalues(self, n, seed, ridge, scale):
        # ln(max/min) of the pencil A x = lam B x, which scipy solves through
        # a Cholesky factor of B rather than through eigendata of either
        rng = np.random.default_rng(seed)
        a = scale * well_conditioned_pd(n, rng, ridge)
        b = well_conditioned_pd(n, rng, ridge)
        w = scipy.linalg.eigh(a, b, eigvals_only=True)
        d = hilbert_distance(a, b)
        assert d.same_part
        assert d.value == pytest.approx(math.log(w[-1] / w[0]), rel=1e-9, abs=1e-9)


class TestSamePart:
    def test_examples(self):
        assert hilbert_distance(np.eye(2), 2 * np.eye(2)).same_part
        assert hilbert_distance(np.diag([1.0, 0.0]), np.diag([2.0, 0.0])).same_part
        assert not hilbert_distance(np.diag([1.0, 0.0]), np.eye(2)).same_part

    def test_validates_each_input_once(self, monkeypatch):
        validations = count_validations(monkeypatch)
        assert hilbert_distance(np.eye(2), 2 * np.eye(2)).same_part
        assert validations() == 2

    @pytest.mark.parametrize("fn", [hilbert_distance, m_ratio], ids=lambda fn: fn.__name__)
    def test_dimension_mismatch_names_the_function(self, fn):
        with pytest.raises(DimMismatch, match=fn.__name__):
            fn(np.eye(2), np.eye(3))

    def test_ill_conditioned_positive_definite_pair_shares_the_interior(self):
        # condition numbers near 1e9: B^{-1/2} A B^{-1/2} can read a
        # negative smallest eigenvalue, which leaves the distance unresolved
        # but not the part, since both matrices are positive definite
        rng = np.random.default_rng(5)

        def draw(vals):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = np.linalg.qr(g)[0]
            return hermitian_part((u * np.array(vals)) @ u.conj().T)

        a = draw([1.0, 0.4, 3e-3, 1e-9])
        b = draw([1.0, 0.3, 0.16, 4e-9])
        assert numerical_rank(a) == numerical_rank(b) == 4
        d = hilbert_distance(a, b)
        assert d.same_part
        stacked = hilbert._hilbert_distance(hilbert._psd_spectrum(np.stack([a, a])),
                                            hilbert._psd_spectrum(np.stack([b, b])))
        assert stacked.same_part.all() and (stacked.value == d.value).all()


def _rotation(n, i, j, angle):
    """The rotation by ``angle`` in the plane of basis vectors i and j."""
    r = np.eye(n)
    r[[i, j], [i, j]] = math.cos(angle)
    r[i, j], r[j, i] = -math.sin(angle), math.sin(angle)
    return r


class TestPartDecision:
    """Two PSD matrices share a part when each range lies in the other,
    tested with each matrix's own cutoff, whatever their scales."""

    def test_orthogonal_projectors_at_any_scale_ratio(self):
        a, b = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(-100, 101):
                d = hilbert_distance(math.ldexp(1.0, t) * a, b)
                assert (d.value, d.same_part) == (math.inf, False), t

    def test_tilted_range_of_equal_rank(self):
        # range(A) = span(e1, u) with u = e2 tilted 0.05 rad toward e3, and
        # range(B) = span(e1, e2): the tilt's weight in A, 2.5e-11, is below
        # A's cutoff, but B's weight off range(A), 2.5e-3, is far above B's
        u = _rotation(3, 1, 2, 0.05)[:, 1]
        a = np.diag([1.0, 0.0, 0.0]) + 1e-8 * np.outer(u, u)
        b = np.diag([1.0, 1.0, 0.0])
        assert numerical_rank(a) == numerical_rank(b) == 2
        for x, y in ((a, b), (b, a)):
            d = hilbert_distance(x, y)
            assert (d.value, d.same_part) == (math.inf, False)

    @settings(max_examples=150)
    @given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1),
           log_angle=st.floats(-7.0, -1.0))
    def test_same_part_is_symmetric(self, n, data, seed, log_angle):
        # two matrices of rank r on one random range, one of them rotated
        # out of it by an angle near where their cutoffs tell the ranges
        # apart, with spread eigenvalues so the two cutoffs differ
        r = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
        a, b = ((basis[:, :r] * 10.0 ** rng.uniform(-9.0, 0.0, r)) @ basis[:, :r].conj().T
                for _ in range(2))
        tilt = basis @ _rotation(n, r - 1, r, 10.0 ** log_angle) @ basis.conj().T
        b = hermitian_part(tilt @ b @ tilt.conj().T)
        a = hermitian_part(a)
        assert hilbert_distance(a, b).same_part == hilbert_distance(b, a).same_part


class TestPowersOfFour:
    """``hilbert_distance`` and ``m_ratio`` divide each input by the power of
    four at its largest entry, so their values follow the scales exactly."""

    def test_pair_at_opposite_extreme_scales(self):
        a, b = np.diag([1.0, 0.5]), np.diag([0.3, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sa, sb in ((1e-200, 1e200), (1e200, 1e-200)):
                for x, y in ((sa * a, sb * b), (sb * b, sa * a)):
                    d = hilbert_distance(x, y)
                    assert d.same_part
                    assert d.value == pytest.approx(math.log(1.0 / 0.15), rel=1e-14)
            assert m_ratio(1e200 * a, 1e-200 * b) == math.inf
            assert m_ratio(1e-200 * a, 1e200 * b) == 0.0

    @settings(max_examples=100)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           relation=st.sampled_from(["same", "nested", "different"]),
           ta=st.integers(-250, 250), tb=st.integers(-250, 250))
    def test_scaled_by_powers_of_four(self, n, seed, relation, ta, tb):
        rng = np.random.default_rng(seed)
        a, b = shared_range_pair(n, int(rng.integers(1, n + 1)), rng)
        if relation == "nested":
            b = b + random_psd(n, int(rng.integers(1, n + 1)), rng)
        elif relation == "different":
            b = random_psd(n, int(rng.integers(1, n + 1)), rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sa, sb = 4.0 ** ta, 4.0 ** tb
            assert repr(hilbert_distance(sa * a, sb * b)) == repr(hilbert_distance(a, b))
            ratio = m_ratio(sa * a, sb * b)
            try:
                expected = math.ldexp(m_ratio(a, b), 2 * (ta - tb))
            except OverflowError:
                expected = math.inf
            assert ratio == expected


class TestDiameterEstimate:
    def test_depolarizing_constant_direction(self):
        rep = estimate_diameter(depolarizing_channel(3), samples=32, seed=0)
        assert rep.diameter_lower_bound == pytest.approx(0.0, abs=1e-9)
        assert rep.kappa_lower == pytest.approx(0.0, abs=1e-9)
        assert rep.upper_source == "choi"
        assert rep.diameter_upper_bound == pytest.approx(0.0, abs=1e-12)
        assert rep.kappa_upper < 1.0

    def test_identity_unbounded_spread(self):
        rep = estimate_diameter(identity_channel(2), samples=64, seed=0)
        assert rep.diameter_lower_bound > 1.0
        assert 0.5 < rep.kappa_lower <= 1.0
        assert rep.diameter_upper_bound is None

    def test_kappa_matches_tanh(self):
        rep = estimate_diameter(random_cpmap(2, 2, 3, 0), samples=32, seed=1)
        if math.isfinite(rep.diameter_lower_bound):
            assert rep.kappa_lower == pytest.approx(
                math.tanh(rep.diameter_lower_bound / 4.0), abs=1e-12
            )
        assert 0.0 <= rep.kappa_lower <= 1.0

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidInput):
            estimate_diameter(identity_channel(2), samples=0)

    @pytest.mark.parametrize("samples", [2.5, True, -1, "8"])
    def test_rejects_non_count_samples(self, samples):
        with pytest.raises(InvalidInput):
            estimate_diameter(identity_channel(2), samples=samples)


def _near_rank_one_map(seed, eps=1e-4):
    """A rank-one Kraus operator plus a weak full one on C^3. The images'
    small eigenvalues sit near the rank cutoff, so a sampled pair can land
    in two parts, and the search stops there."""
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
    v2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return CPMap([v1, eps * v2])


DIAMETER_MAPS = {
    **{f"generic-{n}": (lambda n=n: generate_map(n, n, n, 40 + n).to_cpmap())
       for n in range(2, 9)},
    **{f"improving-{n}": (lambda n=n: generate_map(
        n, n, n, 50 + n, kind="positively_improving").to_cpmap())
       for n in range(2, 9)},
    "rectangular-3to5": lambda: random_cpmap(3, 5, 4, 1),
    "rectangular-5to2": lambda: random_cpmap(5, 2, 3, 2),
    "kraus1-4": lambda: random_cpmap(4, 4, 1, 3),
    "kraus1-3to2": lambda: random_cpmap(3, 2, 1, 4),
    "identity": lambda: identity_channel(3),
    "depolarizing": lambda: depolarizing_channel(4),
    "embedded": lambda: embed_nonnegative_matrix(
        [[1.0, 0.5, 0.0], [0.0, 2.0, 0.1], [0.3, 0.0, 1.0]]),
    "near-rank-one": lambda: _near_rank_one_map(10),
}


class TestStackedDiameter:
    """``_sampled_diameter`` against the per-sample loop it replaced
    (``helpers.sampled_diameter_reference``): the returned fields bitwise,
    with one pair per block and chunk, the default sizes, and one stack."""

    CHUNKINGS = (1, hilbert._CHUNK_BYTES, 1 << 40)

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @pytest.mark.parametrize("name", sorted(DIAMETER_MAPS))
    def test_matches_per_sample_loop_bitwise(self, monkeypatch, name):
        phi = DIAMETER_MAPS[name]()
        for side in (phi, phi.adjoint()):
            for samples, seed in ((1, 0), (7, 1), (64, 2)):
                expected = sampled_diameter_reference(side, samples, seed)
                for chunk_bytes in self.CHUNKINGS:
                    monkeypatch.setattr(hilbert, "_CHUNK_BYTES", chunk_bytes)
                    assert hilbert._sampled_diameter(side, samples, seed) == expected

    def test_stops_at_the_first_pair_in_two_parts(self, monkeypatch):
        phi = _near_rank_one_map(10)
        expected = sampled_diameter_reference(phi, 64, 0)
        assert expected["sample_count"] == 50
        assert expected["diameter_lower_bound"] == math.inf
        for chunk_bytes in self.CHUNKINGS:
            monkeypatch.setattr(hilbert, "_CHUNK_BYTES", chunk_bytes)
            assert hilbert._sampled_diameter(phi, 64, 0) == expected

    def test_not_psd_raised_where_the_loop_raises_it(self, monkeypatch):
        """Images are negated or collapsed by a rule on their input, so some
        searches stop at a pair in two parts before an image that is not PSD,
        in the same stack, and others raise ``NotPsd`` first."""
        real_apply = CPMap._apply

        def tampered(self, a):
            out = real_apply(self, a)
            tag = (np.abs(a[..., 0, 0]) * 1e6).astype(np.int64)[..., None, None] % 13
            collapsed = np.zeros_like(out)
            collapsed[..., 0, 0] = out[..., 0, 0]
            return np.where(tag == 0, -out, np.where(tag == 1, collapsed, out))

        monkeypatch.setattr(CPMap, "_apply", tampered)
        phi = random_cpmap(3, 3, 3, 5)
        raised = stopped_before_a_bad_image = 0
        for seed in range(12):
            try:
                expected = sampled_diameter_reference(phi, 64, seed)
            except NotPsd as exc:
                raised += 1
                with pytest.raises(NotPsd, match=f"^{re.escape(str(exc))}$"):
                    hilbert._sampled_diameter(phi, 64, seed)
                continue
            assert hilbert._sampled_diameter(phi, 64, seed) == expected
            if expected["sample_count"] < 64:
                stopped_before_a_bad_image += self._bad_image_after(
                    phi, seed, expected["sample_count"])
        assert raised and stopped_before_a_bad_image

    @staticmethod
    def _bad_image_after(phi, seed, stopped):
        """Whether a pair after the ``stopped``-th has an image that is not
        PSD. All 64 pairs of this map make one default block, whose images
        are decomposed as one stack."""
        pairs = hilbert._same_part_pairs(
            3, [1 + j % 3 for j in range(64)], subseed(seed, "diameter"))
        try:
            hilbert._psd_spectrum(phi._apply(pairs[stopped:]))
        except NotPsd:
            return True
        return False


@st.composite
def _dims_and_ranks(draw):
    """A dimension n in 1..8 and 1 to 24 ranks in 1..n, repeats allowed."""
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(1, n), min_size=1, max_size=24))


class TestSamePartPairs:
    """``_same_part_pairs`` against the pair-by-pair draws, QRs and products
    of ``helpers.same_part_pair_reference``, bitwise."""

    @staticmethod
    def _assert_matches_pair_by_pair(n, ranks, seed):
        rng = np.random.default_rng(seed)
        expected = np.array([same_part_pair_reference(n, r, rng) for r in ranks])
        stacked_rng = np.random.default_rng(seed)
        pairs = hilbert._same_part_pairs(n, ranks, stacked_rng)
        assert pairs.tobytes() == expected.tobytes()
        # both consumed the same normals, so a following block draws the same
        assert stacked_rng.standard_normal() == rng.standard_normal()

    @settings(max_examples=60, deadline=None)
    @given(dims_and_ranks=_dims_and_ranks(), seed=st.integers(0, 2**32 - 1))
    def test_matches_pair_by_pair_draws(self, dims_and_ranks, seed):
        self._assert_matches_pair_by_pair(*dims_and_ranks, seed)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_pairs_and_a_diameter_block(self, n):
        for r in range(1, n + 1):
            self._assert_matches_pair_by_pair(n, [r], n + r)
        self._assert_matches_pair_by_pair(n, [1 + j % n for j in range(64)], n)


@pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
@pytest.mark.parametrize("n, limit_mib", [(6, 1), (16, 4)])
def test_sampled_diameter_peak_memory(n, limit_mib):
    """Blocks and chunks bound the allocations of the search: one stacked map
    application on all 64 pairs of n = 6, k = 42 takes 3.3 MiB, and 138 MiB
    at n = 16, k = 272."""
    phi = generate_map(n, n, n, 3, kind="positively_improving").to_cpmap()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        hilbert._sampled_diameter(phi, 64, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


class TestStepContractionBound:
    def test_arithmetic(self):
        assert step_contraction_bound(1.0, 1.0, 4, 2) == pytest.approx(1.0 / 3.0)
        assert step_contraction_bound(0.0, 0.0, 3, 2) == 0.0
        assert step_contraction_bound(1.0, 1.0, 2, 2) == pytest.approx(1.0)

    def test_rejects_bad_kappa(self):
        with pytest.raises(InvalidInput):
            step_contraction_bound(1.5, 1.0, 3, 2)


class TestContractionReport:
    def test_depolarizing_certified(self):
        rep = contraction_report(depolarizing_channel(3), 3, 2, samples=16, seed=0)
        assert rep.step_certified
        assert rep.kappa_step_upper < 0.2
        assert rep.adjoint is not None
        assert rep.upper_source == rep.adjoint.upper_source == "choi"

    def test_identity_p_equals_q_not_certified(self):
        rep = contraction_report(identity_channel(2), 2, 2, samples=16, seed=0)
        assert rep.kappa_step_upper == pytest.approx(1.0)
        assert not rep.step_certified
        assert rep.upper_source == "trivial"

    def test_trivial_bound_certifies_p_greater_q(self):
        rep = contraction_report(identity_channel(2), 4, 2, samples=16, seed=0)
        assert rep.step_certified
        assert rep.kappa_step_upper == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_generated_improving_map_reaches_choi_tier(self, n):
        with pytest.warns(KrausRedundancyWarning):
            phi = generate_map(n, n, n, 5, kind="positively_improving").to_cpmap()
        rep = contraction_report(phi, 3, 2)
        for side in (rep, rep.adjoint):
            assert side.upper_source == "choi"
            assert math.isfinite(side.kappa_upper) and side.kappa_upper < 1.0
            assert side.diameter_lower_bound is None and side.sample_count == 0
        assert rep.step_certified

    def test_default_report_applies_the_map_zero_times(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KrausRedundancyWarning)
            phi = generate_map(3, 3, 3, 2, kind="positively_improving").to_cpmap()
        # the adjoint is a CPMap too, so this counts adjoint applications
        counts = count_calls(monkeypatch, CPMap, "_apply")
        real_report = hilbert.contraction_report

        def report(*args, **kwargs):
            before = counts["_apply"]
            rep = real_report(*args, **kwargs)
            counts["in_report"] = counts["_apply"] - before
            return rep

        monkeypatch.setattr(power, "contraction_report", report)
        result = run_power_method(phi, PowerConfig(p=3, q=2))
        assert result.contraction.upper_source == "choi"
        assert counts["_apply"] > 0 and counts["in_report"] == 0

    @pytest.mark.parametrize("samples", [True, -1, 1.5])
    def test_rejects_bad_samples(self, samples):
        with pytest.raises(InvalidInput, match="samples"):
            contraction_report(identity_channel(2), 3, 2, samples=samples)

    def test_zero_samples_sample_nothing(self):
        rep = contraction_report(identity_channel(2), 3, 2, samples=0)
        assert rep.sample_count == 0 and rep.diameter_lower_bound is None

    def test_singular_kraus_matrix_stays_trivial(self):
        # k = n m operators whose matrix is rank deficient: the last row is a
        # copy of the first
        ops = random_cpmap(2, 2, 4, 3).kraus.copy()
        ops[3] = ops[0]
        rep = contraction_report(CPMap(ops), 3, 2)
        assert rep.upper_source == rep.adjoint.upper_source == "trivial"
        assert rep.kappa_upper is None
        assert rep.kappa_step_upper == pytest.approx(0.5)


_SLACK = 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), extra=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_choi_tier_bounds_every_sample(n, m, extra, seed):
    """sigma_min(K)^2 <= every output eigenvalue <= sigma_max(K)^2 on the
    trace-one slice, the sampled diameter stays below the Choi bound, and the
    map and its adjoint get the same tier."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KrausRedundancyWarning)
        phi = random_cpmap(n, m, n * m + extra, seed)
    k = phi.kraus_count
    sigma = np.linalg.svd(phi.kraus.reshape(k, m * n), compute_uv=False)
    margin, peak = sigma[-1] ** 2, sigma[0] ** 2
    rng = np.random.default_rng(seed)
    for _ in range(16):
        x = random_unit_vector(n, rng)
        w = np.linalg.eigvalsh(phi.apply(np.outer(x, x.conj())))
        assert w[0] >= margin - _SLACK * peak
        assert w[-1] <= peak + _SLACK * peak
    rep = estimate_diameter(phi, samples=16, seed=seed % 1000)
    assert rep.upper_source == "choi"
    assert rep.diameter_upper_bound >= 2.0 * math.log(peak / margin)
    assert rep.diameter_lower_bound <= rep.diameter_upper_bound + _SLACK
    adj = estimate_diameter(phi.adjoint(), samples=16, seed=seed % 1000)
    assert adj.upper_source == "choi"
    assert adj.kappa_upper == pytest.approx(rep.kappa_upper, rel=1e-12, abs=1e-15)
    assert adj.diameter_upper_bound == pytest.approx(rep.diameter_upper_bound,
                                                     rel=1e-9, abs=1e-12)


class TestSampledContractionRatio:
    def test_strict_contraction_for_improving_map(self):
        base = random_cpmap(3, 3, 3, 0)
        ops = list(base.kraus)
        for i in range(3):
            for j in range(3):
                v = np.zeros((3, 3), dtype=complex)
                v[i, j] = 0.45
                ops.append(v)
        import warnings
        from cpnorm import CPMap

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi = CPMap(ops)
        ratio = sampled_contraction_ratio(phi, pairs=100, seed=0)
        assert 0.0 < ratio < 1.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("exponent", [3.0, 4.5, 5.0])
    def test_invertible_congruence_is_an_isometry(self, exponent, seed):
        # X -> D X D with D = diag(1, 10^-e) keeps every Hilbert distance, so
        # kappa = 1; an image pair that the rank cutoff splits into two parts
        # is skipped, not read as an infinite ratio
        phi = CPMap([np.diag([1.0, 10.0**-exponent])])
        assert sampled_contraction_ratio(phi, pairs=200, seed=seed) <= 1.0 + 1e-12

    @pytest.mark.parametrize("pairs", [2.5, -1, 0, True])
    def test_rejects_bad_pair_counts(self, pairs):
        with pytest.raises(InvalidInput):
            sampled_contraction_ratio(random_cpmap(2, 2, 2, 0), pairs=pairs)

    # n = 1, k = 1, m != n, the identity and depolarizing channels, a
    # diagonal embedding, positively improving maps, several blocks (n = 5)
    # and several chunks per block (k = 9)
    MAPS = {
        "scalar": lambda: random_cpmap(1, 1, 1, 0),
        "rank-one-kraus": lambda: random_cpmap(3, 3, 1, 1),
        "identity": lambda: identity_channel(3),
        "depolarizing": lambda: depolarizing_channel(3),
        "wide-output": lambda: random_cpmap(2, 4, 3, 2),
        "narrow-output": lambda: random_cpmap(4, 2, 2, 3),
        "five-blocks": lambda: random_cpmap(5, 5, 5, 4),
        "nine-kraus": lambda: random_cpmap(3, 3, 9, 5),
        "embedding": lambda: embed_nonnegative_matrix(
            np.random.default_rng(0).uniform(0.0, 1.0, (3, 3))),
        "improving-0": lambda: generate_map(3, 3, 3, 4200,
                                            kind="positively_improving").to_cpmap(),
        "improving-1": lambda: generate_map(3, 3, 3, 4201,
                                            kind="positively_improving").to_cpmap(),
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", list(MAPS))
    def test_matches_per_pair_reference_bitwise(self, name, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KrausRedundancyWarning)
            phi = self.MAPS[name]()
        assert (sampled_contraction_ratio(phi, pairs=200, seed=seed)
                == contraction_ratio_reference(phi, 200, seed))

    def test_runs_on_the_kernels(self, monkeypatch):
        phi = random_cpmap(3, 3, 3, 0)
        validations = count_validations(monkeypatch)
        sampled_contraction_ratio(phi, pairs=500, seed=0)
        assert validations() == 0


class TestDiagnostics:
    def test_depolarizing_report(self):
        report = run_diagnostics(depolarizing_channel(3), 3, 2, trials=8, samples=16)
        assert report.positively_improving.verdict is Verdict.CERTIFIED
        assert report.adjoint_positively_improving.verdict is Verdict.CERTIFIED
        assert report.fully_indecomposable.verdict is Verdict.CERTIFIED
        assert report.contraction.kappa_lower == pytest.approx(0.0, abs=1e-9)

    def test_choi_certified_map_runs_no_trials(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KrausRedundancyWarning)
            phi = generate_map(4, 4, 4, 1, kind="positively_improving").to_cpmap()
        ran = []
        for name in ("check_fully_indecomposable", "check_positively_improving"):
            real = getattr(hilbert, name)
            monkeypatch.setattr(hilbert, name,
                                lambda *a, real=real, **kw: ran.append(real(*a, **kw)))
        report = run_diagnostics(phi, 3, 2, trials=8, samples=16)
        assert ran == []
        for verdict in (report.fully_indecomposable, report.positively_improving,
                        report.adjoint_positively_improving):
            assert verdict.verdict is Verdict.CERTIFIED and verdict.trials == 0
        assert report.contraction.upper_source == "choi"
        assert report.contraction.sample_count == 16

    def test_identity_report(self):
        report = run_diagnostics(identity_channel(2), 3, 2, trials=4, samples=16)
        assert report.fully_indecomposable.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert report.positively_improving.verdict is Verdict.COUNTEREXAMPLE_FOUND

    def test_redundant_kraus_warns_only_at_construction(self):
        ops = [np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
               np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
        with pytest.warns(KrausRedundancyWarning):
            phi = CPMap(ops)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_diagnostics(phi, 3, 2, trials=2, samples=8)
            phi.adjoint().adjoint()
        assert caught == []

    @pytest.mark.parametrize("counts", [{"trials": 0}, {"trials": -1},
                                        {"trials": 2.0}, {"trials": True}])
    def test_rejects_bad_trial_counts(self, counts):
        # checked even where the Choi tier would skip the trials
        with pytest.raises(InvalidInput, match="trials"):
            run_diagnostics(depolarizing_channel(3), 3, 2, samples=4, **counts)

    def test_deterministic(self):
        phi = random_cpmap(2, 2, 4, 5)
        r1 = run_diagnostics(phi, 3, 2, trials=4, samples=16, seed=3)
        r2 = run_diagnostics(phi, 3, 2, trials=4, samples=16, seed=3)
        assert r1.contraction.kappa_step_upper == r2.contraction.kappa_step_upper
        assert r1.contraction.diameter_lower_bound == r2.contraction.diameter_lower_bound
        assert r1.fully_indecomposable.verdict is r2.fully_indecomposable.verdict
