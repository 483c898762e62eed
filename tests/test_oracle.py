"""Brute-force oracle tests: projected ascent, spectral grid, classical
power iteration, cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpnorm import (
    CPMap,
    DeskScaleExceeded,
    InvalidInput,
    NotApplicable,
    OracleMethod,
    PowerConfig,
    classical_pq_norm,
    cross_validate,
    default_start,
    depolarizing_channel,
    embed_nonnegative_matrix,
    generate_map,
    identity_channel,
    objective,
    oracle_max,
    random_cpmap,
    random_hermitian,
    random_psd,
    run_power_method,
    spectral_grid_max,
)
from cpnorm.config import subseed
from cpnorm.oracle import (
    _herm_to_vec,
    _lr_norm,
    _norm_and_grad,
    _project,
    _row_norms,
    _values_and_grads,
    _vec_to_herm,
)


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


def sequential_oracle_max(phi: CPMap, p: float, q: float, budget: int, seed: int):
    """Reference for ``oracle_max``: the seven projected quasi-Newton ascents
    one start at a time, each through ``_values_and_grads`` with B = 1 and
    capped at its own share of ``budget // 7`` evaluations. Returns
    (best_value, best_point, budget_used, psd family value, Hermitian family
    value)."""
    n = phi.input_dim
    used = 0

    def fg(theta):
        nonlocal used
        values, grads, applied = _values_and_grads(phi, p, q, theta[None])
        if not applied[0]:
            return 0.0, np.zeros_like(theta)
        used += 1
        return float(values[0]), grads[0]

    def project(theta):
        return _project(theta[None], n, p)[0]

    def ascend(x0, cap):
        x = project(x0)
        fx, gx = fg(x)
        eye = np.eye(x.size)
        h = eye * (0.25 / np.linalg.norm(gx) if gx.any() else 1.0)
        rescaled = False
        alpha = 1.0
        while cap - used > 1 and gx.any():
            step = alpha * (h @ gx)
            if np.linalg.norm(step) <= 1e-9:
                break
            cand = project(x + step)
            fc, gc = fg(cand)
            if fc <= fx:
                alpha *= 0.5
                continue
            s, y = cand - x, gx - gc
            sy = float(s @ y)
            if sy > 0.0:
                if not rescaled:
                    h = eye * (sy / float(y @ y))
                    rescaled = True
                # Nocedal and Wright, eq. 6.17, with rho = 1 / sy
                rho = 1.0 / sy
                h = (eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s)) \
                    + rho * np.outer(s, s)
            x, fx, gx = cand, fc, gc
            alpha = 1.0
        return x, fx

    starts = [("psd", default_start(n, p))]
    starts += [("psd", random_psd(n, n, subseed(seed, "oracle-psd", i))) for i in range(3)]
    starts += [("herm", random_hermitian(n, subseed(seed, "oracle-herm", i)))
               for i in range(3)]
    per_start = max(1, budget // len(starts))
    best = {"psd": (-math.inf, None), "herm": (-math.inf, None)}
    for family, a0 in starts:
        x, fx = ascend(_herm_to_vec(a0), used + per_start)
        if fx > best[family][0]:
            best[family] = (fx, x)
    winner = max(("psd", "herm"), key=lambda f: best[f][0])
    return (best[winner][0], _vec_to_herm(best[winner][1], n), used, best["psd"][0],
            best["herm"][0])


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
        values, grads, _ = _values_and_grads(phi, p, q, _herm_to_vec(x)[None])
        reference = central_grad(lambda t: _values_and_grads(phi, p, q, t[None])[0][0],
                                 _herm_to_vec(x))
        assert values[0] == pytest.approx(objective(phi, x, p, q), rel=1e-12)
        assert np.linalg.norm(grads[0] - reference) <= 1e-6 * np.linalg.norm(reference)

    def test_zero_point_applies_no_map(self):
        phi = CountingMap(random_cpmap(2, 2, 2, 0).kraus)
        values, grads, applied = _values_and_grads(phi, 3.0, 2.0, np.zeros((1, 4)))
        assert not applied[0] and values[0] == 0.0 and not grads[0].any()
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

    @pytest.mark.parametrize("budget", [True, 2.5, "100", None, 0, -3])
    def test_budget_must_be_a_positive_integer(self, budget):
        phi = CountingMap(random_cpmap(2, 2, 2, 0).kraus)
        with pytest.raises(InvalidInput, match="budget"):
            oracle_max(phi, 3, 2, budget=budget)
        assert phi.applies == 0

    def test_ill_conditioned_exponents_reach_the_power_estimate(self):
        phi = random_cpmap(6, 6, 1, subseed(0, "wide", 6, 1))
        power = run_power_method(phi, PowerConfig(p=1.1, q=1.05))
        res = oracle_max(phi, 1.1, 1.05, budget=4000, seed=0)
        assert res.best_value == pytest.approx(power.norm_estimate, rel=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(budget=st.integers(1, 300), n=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_budget_used_within_budget(self, budget, n, seed):
        # every start is evaluated once even when the budget is below 7
        res = oracle_max(random_cpmap(n, 2, 2, seed), 3, 2, budget=budget, seed=seed)
        assert res.budget_used <= max(budget, 7)
        if budget < 7:
            assert res.budget_used == 7

    def test_numpy_integer_budget_accepted(self):
        res = oracle_max(random_cpmap(2, 2, 2, 0), 3, 2, budget=np.int64(60))
        assert res.budget_used == oracle_max(random_cpmap(2, 2, 2, 0), 3, 2,
                                             budget=60).budget_used


@pytest.mark.parametrize("budget", [1, 7, 8, 60, 4000])
@settings(max_examples=8)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    pq=st.sampled_from([(3.0, 2.0), (2.0, 3.0), (2.5, 1.5), (1.5, 4.0)]),
    seed=st.integers(0, 2**16),
)
@example(n=4, m=4, pq=(2.0, 3.0), seed=7)
@example(n=6, m=3, pq=(1.5, 4.0), seed=11)
def test_lockstep_matches_sequential_ascent(budget, n, m, pq, seed):
    # every start keeps its own step, cap and stop rule, so running the
    # starts in lock-step changes no bit of the result
    p, q = pq
    phi = random_cpmap(n, m, 1 + seed % (n * m), seed)
    res = oracle_max(phi, p, q, budget=budget, seed=seed)
    value, point, used, psd, herm = sequential_oracle_max(phi, p, q, budget, seed)
    assert res.best_value == value
    assert res.best_point.tobytes() == point.tobytes()
    assert res.budget_used == used
    assert res.best_from_psd_starts == psd
    assert res.best_from_hermitian_starts == herm


class TestStackedHelpers:
    """Each helper on a stack of B matrices gives the bits of the per-matrix
    computation, so the lock-step ascent follows each start's own path."""

    @staticmethod
    def stacks(b, count=40):
        rng = np.random.default_rng(b)
        for _ in range(count):
            n = int(rng.integers(1, 7))
            yield n, np.stack([random_hermitian(n, rng) for _ in range(b)])

    @pytest.mark.parametrize("b", range(1, 9))
    def test_coordinates(self, b):
        for n, a in self.stacks(b):
            theta = _herm_to_vec(a)
            assert theta.shape == (b, n * n)
            for i in range(b):
                iu = np.triu_indices(n, 1)
                one = np.concatenate([a[i].diagonal().real, a[i][iu].real,
                                      a[i][iu].imag])
                assert theta[i].tobytes() == one.tobytes()
                assert _vec_to_herm(theta, n)[i].tobytes() == a[i].tobytes()

    @pytest.mark.parametrize("b", range(1, 9))
    def test_lr_norm_roots_each_spectrum_as_a_float(self, b):
        rng = np.random.default_rng(100 + b)
        for _, a in self.stacks(b):
            vals = np.linalg.eigvalsh(a)
            vals[rng.random(vals.shape) < 0.2] = 0.0
            vals[rng.random(b) < 0.2] = 0.0
            r = float(rng.uniform(1.1, 5.0))
            for row, got in zip(vals, _lr_norm(vals, r)):
                mag = np.abs(row)
                top = float(mag.max())
                one = top * float(np.sum((mag / top) ** r)) ** (1.0 / r) if top else 0.0
                assert got == one

    @pytest.mark.parametrize("b", range(1, 9))
    def test_norm_and_grad(self, b):
        for n, a in self.stacks(b):
            a[-1] = 0.0
            r = 1.5 + n / 4
            nrm, grad = _norm_and_grad(a, r)
            for i in range(b):
                vals, vecs = np.linalg.eigh(a[i])
                mag = np.abs(vals)
                top = float(mag.max())
                if top == 0.0:
                    assert nrm[i] == 0.0 and not grad[i].any()
                    continue
                one = top * float(np.sum((mag / top) ** r)) ** (1.0 / r)
                weights = np.sign(vals) * (mag / one) ** (r - 1.0)
                assert nrm[i] == one
                assert grad[i].tobytes() == ((vecs * weights) @ vecs.conj().T).tobytes()

    @pytest.mark.parametrize("b", range(1, 9))
    def test_project_and_row_norms(self, b):
        for n, a in self.stacks(b):
            theta = _herm_to_vec(a)
            out = _project(theta, n, 2.5)
            for i in range(b):
                one = _vec_to_herm(theta[i][None], n)[0]
                nrm = _lr_norm(np.linalg.eigvalsh(one)[None], 2.5)[0]
                assert out[i].tobytes() == _herm_to_vec(one / nrm).tobytes()
            assert _row_norms(out) == [np.linalg.norm(row) for row in out]

    def test_values_and_grads_skip_a_zero_row(self):
        phi = CountingMap(random_cpmap(3, 2, 2, 4).kraus)
        thetas = _herm_to_vec(np.stack([random_hermitian(3, s) for s in range(3)]))
        thetas[1] = 0.0
        values, grads, applied = _values_and_grads(phi, 3.0, 2.0, thetas)
        assert applied.tolist() == [True, False, True]
        assert phi.applies == 2
        assert values[1] == 0.0 and not grads[1].any()
        for i in (0, 2):
            value, grad, _ = _values_and_grads(phi, 3.0, 2.0, thetas[i][None])
            assert values[i] == value[0]
            assert grads[i].tobytes() == grad[0].tobytes()

    def test_project_keeps_a_zero_row(self):
        theta = np.zeros((2, 4))
        theta[0, 0] = 3.0
        out = _project(theta, 2, 3.0)
        assert out[0, 0] == 1.0
        assert not out[1].any()


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

    @pytest.mark.parametrize("scale", [1e-12, 1e-150])
    def test_not_applicable_for_scaled_generic_map(self, scale):
        # the diagonality probe is relative to the image, like every cutoff
        phi = CPMap(random_cpmap(2, 2, 3, 0).kraus * math.sqrt(scale))
        with pytest.raises(NotApplicable):
            spectral_grid_max(phi, 3, 2)

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
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
    def test_bad_tol_rejected(self, tol):
        phi = random_cpmap(2, 2, 3, 21)
        power = run_power_method(phi, PowerConfig(p=3, q=2))
        oracle = oracle_max(phi, 3, 2, budget=100, seed=0)
        with pytest.raises(InvalidInput, match="tol"):
            cross_validate(power, oracle, tol=tol)

    @pytest.fixture()
    def matched_pair(self):
        phi = random_cpmap(2, 2, 3, 21)
        power = run_power_method(phi, PowerConfig(p=3, q=2))
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
        power = run_power_method(phi, PowerConfig(p=2, q=2))
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

    @pytest.mark.parametrize("dims, seed", [((2, 2, 2), 3), ((5, 5, 5), 0)])
    def test_maximizer_distance_for_negated_best_point(self, dims, seed):
        # the settings of ``cpnorm verify`` at (3, 2)
        phi = generate_map(*dims, seed).to_cpmap()
        power = run_power_method(phi, PowerConfig(p=3, q=2, max_iter=3000))
        oracle = oracle_max(phi, 3, 2, budget=4000, seed=0)
        assert np.all(np.linalg.eigvalsh(oracle.best_point) < 0.0)
        distance = cross_validate(power, oracle).maximizer_distance
        assert distance is not None and distance < 1e-6
