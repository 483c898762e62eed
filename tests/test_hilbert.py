"""Hilbert projective metric, diameter estimation, contraction bounds."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnorm import (
    CPMap,
    InvalidInput,
    KrausRedundancyWarning,
    PowerConfig,
    Verdict,
    ZeroInput,
    contraction_report,
    depolarizing_channel,
    estimate_diameter,
    generate_map,
    hilbert_distance,
    identity_channel,
    m_ratio,
    random_cpmap,
    random_psd,
    random_unit_vector,
    run_diagnostics,
    run_power_method,
    same_part,
    sampled_contraction_ratio,
    step_contraction_bound,
)
from cpnorm import hilbert, power
from helpers import count_calls, shared_range_pair, well_conditioned_pd


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
        assert same_part(np.eye(2), 2 * np.eye(2))
        assert same_part(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        assert not same_part(np.diag([1.0, 0.0]), np.eye(2))


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


class TestDiagnostics:
    def test_depolarizing_report(self):
        report = run_diagnostics(
            depolarizing_channel(3), 3, 2, fi_trials=8, pi_trials=32, samples=16
        )
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
        report = run_diagnostics(phi, 3, 2, fi_trials=8, pi_trials=32, samples=16)
        assert ran == []
        for verdict in (report.fully_indecomposable, report.positively_improving,
                        report.adjoint_positively_improving):
            assert verdict.verdict is Verdict.CERTIFIED and verdict.trials == 0
        assert report.contraction.upper_source == "choi"
        assert report.contraction.sample_count == 16

    def test_identity_report(self):
        report = run_diagnostics(
            identity_channel(2), 3, 2, fi_trials=8, pi_trials=16, samples=16
        )
        assert report.fully_indecomposable.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert report.positively_improving.verdict is Verdict.COUNTEREXAMPLE_FOUND

    def test_redundant_kraus_warns_only_at_construction(self):
        ops = [np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
               np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
        with pytest.warns(KrausRedundancyWarning):
            phi = CPMap(ops)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_diagnostics(phi, 3, 2, fi_trials=4, pi_trials=8, samples=8)
            phi.adjoint().adjoint()
        assert caught == []

    def test_deterministic(self):
        phi = random_cpmap(2, 2, 4, 5)
        r1 = run_diagnostics(phi, 3, 2, fi_trials=8, pi_trials=16, samples=16, seed=3)
        r2 = run_diagnostics(phi, 3, 2, fi_trials=8, pi_trials=16, samples=16, seed=3)
        assert r1.contraction.kappa_step_upper == r2.contraction.kappa_step_upper
        assert r1.contraction.diameter_lower_bound == r2.contraction.diameter_lower_bound
        assert r1.fully_indecomposable.verdict is r2.fully_indecomposable.verdict
