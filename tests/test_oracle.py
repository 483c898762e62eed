"""Brute-force oracle tests: projected ascent, spectral grid, classical
power iteration, cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpnorm import (
    CPMap,
    DeskScaleExceeded,
    NotApplicable,
    OracleMethod,
    PowerConfig,
    classical_pq_norm,
    cross_validate,
    default_start,
    depolarizing_channel,
    embed_nonnegative_matrix,
    identity_channel,
    objective,
    oracle_max,
    random_cpmap,
    random_hermitian,
    run_power_method,
    spectral_grid_max,
)
from cpnorm.oracle import _herm_to_vec, _value_and_grad


def central_grad(g, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of g at x: the reference for the oracle's
    analytic gradient."""
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (g(xp) - g(xm)) / (2.0 * h)
    return grad


class CountingMap(CPMap):
    """A CP map that counts calls of its public ``apply``."""

    __slots__ = ("applies",)

    def __init__(self, kraus):
        super().__init__(kraus)
        self.applies = 0

    def apply(self, a):
        self.applies += 1
        return super().apply(a)


class TestGradient:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 2 + seed % 5, 1 + (seed * 5) % 6
        phi = random_cpmap(n, m, min(1 + seed % 4, n * m), seed)
        p, q = rng.uniform(1.2, 5.0, size=2)
        x = random_hermitian(n, seed)
        assert np.linalg.eigvalsh(x)[0] < 0 < np.linalg.eigvalsh(x)[-1]
        value, grad = _value_and_grad(phi, p, q, _herm_to_vec(x))
        reference = central_grad(lambda t: _value_and_grad(phi, p, q, t)[0],
                                 _herm_to_vec(x))
        assert value == pytest.approx(objective(phi, x, p, q), rel=1e-12)
        assert np.linalg.norm(grad - reference) <= 1e-6 * np.linalg.norm(reference)

    def test_zero_point_applies_no_map(self):
        phi = CountingMap(random_cpmap(2, 2, 2, 0).kraus)
        assert _value_and_grad(phi, 3.0, 2.0, np.zeros(4)) is None
        assert phi.applies == 0


class TestOracleMax:
    def test_identity_channel_flat_optimum(self):
        res = oracle_max(identity_channel(2), 4, 2, budget=2000, seed=0)
        assert res.best_value == pytest.approx(2**0.25, abs=1e-5)
        assert res.method is OracleMethod.PROJECTED_ASCENT

    def test_scalar_map_exact(self):
        res = oracle_max(CPMap([np.array([[2.0]])]), 3, 2, budget=100, seed=0)
        assert res.best_value == 4.0

    def test_depolarizing(self):
        res = oracle_max(depolarizing_channel(3), 3, 2, budget=3000, seed=1)
        assert res.best_value == pytest.approx(3 ** (1.0 / 6.0), abs=1e-5)

    def test_best_value_matches_best_point(self):
        phi = random_cpmap(3, 3, 3, 3)
        res = oracle_max(phi, 3, 2, budget=1500, seed=0)
        assert res.best_value == pytest.approx(
            objective(phi, res.best_point, 3, 2), abs=1e-12
        )

    def test_never_below_default_start(self):
        phi = random_cpmap(3, 3, 2, 4)
        res = oracle_max(phi, 2.5, 1.5, budget=400, seed=0)
        floor = objective(phi, default_start(3, 2.5), 2.5, 1.5)
        assert res.best_value >= floor - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_starts_never_beat_psd_starts(self, seed):
        phi = random_cpmap(2, 2, 3, seed)
        res = oracle_max(phi, 3, 2, budget=2500, seed=seed)
        assert res.best_from_hermitian_starts <= res.best_from_psd_starts + 1e-6

    def test_deterministic(self):
        phi = random_cpmap(2, 2, 3, 5)
        r1 = oracle_max(phi, 3, 2, budget=800, seed=9)
        r2 = oracle_max(phi, 3, 2, budget=800, seed=9)
        assert r1.best_value == r2.best_value
        assert r1.budget_used == r2.budget_used
        assert np.array_equal(r1.best_point, r2.best_point)

    @pytest.mark.parametrize("n, m, k, budget", [(1, 1, 1, 100), (2, 3, 2, 300),
                                                (3, 3, 3, 4000)])
    def test_budget_used_counts_map_applications(self, n, m, k, budget):
        phi = CountingMap(random_cpmap(n, m, k, n + m + k).kraus)
        res = oracle_max(phi, 3, 2, budget=budget, seed=1)
        assert phi.applies == res.budget_used

    def test_desk_scale_guard(self):
        with pytest.raises(DeskScaleExceeded):
            oracle_max(random_cpmap(7, 7, 1, 0), 3, 2)


@settings(max_examples=24, deadline=None)
@given(
    a=st.integers(2, 4).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(0.05, 1.0))
    ).filter(lambda a: not np.array_equal(a, a.T)),
    q=st.floats(1.2, 4.0),
    gap=st.floats(0.1, 3.0),
)
def test_oracle_matches_classical_on_asymmetric_matrices(a, q, gap):
    p = q + gap
    expected, _ = classical_pq_norm(a, p, q)
    res = oracle_max(embed_nonnegative_matrix(a), p, q)
    assert res.best_value == pytest.approx(expected, rel=1e-8)


class TestSpectralGrid:
    def test_identity_flat_spectrum_optimum(self):
        res = spectral_grid_max(identity_channel(2), 4, 2, grid=64)
        assert res.best_value == pytest.approx(2**0.25, abs=1e-7)
        assert res.method is OracleMethod.SPECTRAL_GRID

    def test_identity_spike_optimum_when_p_less_than_q(self):
        res = spectral_grid_max(identity_channel(2), 2, 4, grid=64)
        assert res.best_value == pytest.approx(1.0, abs=1e-7)

    def test_depolarizing_flat_optimum(self):
        res = spectral_grid_max(depolarizing_channel(3), 3, 2, grid=32)
        assert res.best_value == pytest.approx(3 ** (1.0 / 6.0), abs=1e-7)

    def test_not_applicable_for_generic_map(self):
        with pytest.raises(NotApplicable):
            spectral_grid_max(random_cpmap(2, 2, 3, 0), 3, 2)

    def test_scalar_dimension(self):
        res = spectral_grid_max(CPMap([np.array([[3.0]])]), 3, 2, grid=8)
        assert res.best_value == pytest.approx(9.0)


    def test_asymmetric_diagonal_maximizer(self):
        # the maximizer puts its weight on the largest diagonal entry, which
        # is not the first one
        a = np.diag([1.0, 2.0, 0.5])
        res = spectral_grid_max(embed_nonnegative_matrix(a), 3, 2)
        expected, _ = classical_pq_norm(a, 3, 2)
        assert res.best_value == pytest.approx(expected, rel=1e-9)
        assert res.best_value == pytest.approx(2.0052550726, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_nonnegative_matches_classical(self, seed):
        a = np.random.default_rng(seed).uniform(0.0, 1.0, (3, 3))
        res = spectral_grid_max(embed_nonnegative_matrix(a), 3, 2, grid=24)
        expected, _ = classical_pq_norm(a, 3, 2)
        assert res.best_value == pytest.approx(expected, rel=1e-8)


class TestClassicalIteration:
    def test_matches_embedded_map(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        value, x = classical_pq_norm(a, 4, 2)
        phi = embed_nonnegative_matrix(a)
        power = run_power_method(phi, PowerConfig(p=4, q=2, with_contraction=False))
        assert power.norm_estimate == pytest.approx(value, abs=1e-8)
        oracle = oracle_max(phi, 4, 2, budget=3000, seed=0)
        assert oracle.best_value == pytest.approx(value, abs=1e-6)

    def test_maximizer_is_unit(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 1.0, size=(3, 3))
        value, x = classical_pq_norm(a, 3, 2)
        assert np.linalg.norm(x, ord=3) == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(np.linalg.norm(a @ x, ord=2), abs=1e-12)


class TestCrossValidate:
    @pytest.fixture()
    def matched_pair(self):
        phi = random_cpmap(2, 2, 3, 21)
        power = run_power_method(phi, PowerConfig(p=3, q=2, contraction_samples=24))
        oracle = oracle_max(phi, 3, 2, budget=2000, seed=0)
        return power, oracle

    def test_pass_on_agreement(self, matched_pair):
        power, oracle = matched_pair
        report = cross_validate(power, oracle, tol=1e-4)
        assert report.status == "PASS"
        assert report.certified
        assert abs(report.difference) <= 1e-4

    def test_fail_when_oracle_beats_certified_run(self, matched_pair):
        import dataclasses

        power, oracle = matched_pair
        fake = dataclasses.replace(oracle, best_value=oracle.best_value + 0.5)
        report = cross_validate(power, fake, tol=1e-4)
        assert report.status == "FAIL"
        assert report.messages

    def test_warn_in_uncertified_regime(self):
        import dataclasses

        phi = identity_channel(2)
        power = run_power_method(phi, PowerConfig(p=2, q=2, contraction_samples=16))
        assert not power.contraction.step_certified
        oracle = oracle_max(phi, 2, 2, budget=500, seed=0)
        fake = dataclasses.replace(oracle, best_value=oracle.best_value + 0.5)
        report = cross_validate(power, fake, tol=1e-4)
        assert report.status == "WARN"

    def test_reports_maximizer_distance(self, matched_pair):
        power, oracle = matched_pair
        report = cross_validate(power, oracle, tol=1e-4)
        assert report.maximizer_distance is not None
        assert report.maximizer_distance < 1e-3
