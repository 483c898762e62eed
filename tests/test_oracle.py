"""Brute-force oracle tests: projected ascent, spectral grid, classical
power iteration, cross-validation."""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    schatten_norm,
    spectral_grid_max,
)
from cpnorm import oracle
from cpnorm.config import subseed
from helpers import (
    ascent_start,
    count_calls,
    count_validations,
    sequential_ascent,
    spectral_grid_reference,
)
from cpnorm.oracle import (
    _bfgs_update,
    _herm_to_vec,
    _lr_norm,
    _round,
    _spectral_grad,
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
    one start at a time (``sequential_ascent``), each capped at its own share
    of ``budget // 7`` evaluations. Returns (best_value, best_point,
    budget_used, psd family value, Hermitian family value)."""
    n = phi.input_dim
    starts = [("psd", default_start(n, p))]
    starts += [("psd", random_psd(n, n, subseed(seed, "oracle-psd", i))) for i in range(3)]
    starts += [("herm", random_hermitian(n, subseed(seed, "oracle-herm", i)))
               for i in range(3)]
    per_start = max(1, budget // len(starts))
    used = 0
    best = {"psd": (-math.inf, None), "herm": (-math.inf, None)}
    for family, a0 in starts:
        x, fx, applications = sequential_ascent(phi, phi.apply, p, q, _herm_to_vec(a0),
                                                per_start)
        used += applications
        if fx > best[family][0]:
            best[family] = (fx, x)
    winner = max(("psd", "herm"), key=lambda f: best[f][0])
    return (best[winner][0], _vec_to_herm(best[winner][1], n), used, best["psd"][0],
            best["herm"][0])


class CountingMap(CPMap):
    """A CP map that counts calls of its public ``apply`` and keeps the
    matrices they get."""

    __slots__ = ("applies", "handed")

    def __init__(self, kraus):
        super().__init__(kraus)
        self.applies = 0
        self.handed = []

    def apply(self, a):
        self.applies += 1
        self.handed.append(a)
        return super().apply(a)


class TestGradient:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_central_differences(self, seed):
        # at the projected point x, where the round evaluates the gradient
        rng = np.random.default_rng(seed)
        n, m = 2 + seed % 5, 1 + (seed * 5) % 6
        phi = random_cpmap(n, m, min(1 + seed % 4, n * m), seed)
        p, q = rng.uniform(1.2, 5.0, size=2)
        a = random_hermitian(n, seed)
        assert np.linalg.eigvalsh(a)[0] < 0 < np.linalg.eigvalsh(a)[-1]
        rows, values, grads, _ = _round(phi, phi.apply, p, q, _herm_to_vec(a)[None])
        x = rows[0]
        assert schatten_norm(_vec_to_herm(x, n), p) == pytest.approx(1.0, rel=1e-14)
        reference = central_grad(lambda t: _round(phi, phi.apply, p, q, t[None])[1][0], x)
        assert values[0] == pytest.approx(objective(phi, a, p, q), rel=1e-12)
        assert np.linalg.norm(grads[0] - reference) <= 1e-6 * np.linalg.norm(reference)

    @pytest.mark.parametrize("scale", [1e-200, 1e-3, 7.5, 1e200])
    def test_scaled_candidates_give_the_same_point_value_and_gradient(self, scale):
        # F and the spectral gradients are scale invariant
        phi = random_cpmap(3, 4, 2, 8)
        theta = _herm_to_vec(random_hermitian(3, 8))[None]
        rows, values, grads, _ = _round(phi, phi.apply, 2.5, 1.7, theta)
        s_rows, s_values, s_grads, _ = _round(phi, phi.apply, 2.5, 1.7, scale * theta)
        assert np.abs(s_rows - rows).max() <= 1e-14
        assert s_values[0] == pytest.approx(values[0], rel=1e-13)
        assert np.linalg.norm(s_grads - grads) <= 1e-13 * np.linalg.norm(grads)

    def test_zero_point_applies_no_map(self):
        phi = CountingMap(random_cpmap(2, 2, 2, 0).kraus)
        rows, values, grads, applied = _round(phi, phi.apply, 3.0, 2.0, np.zeros((1, 4)))
        assert not applied[0] and values[0] == 0.0 and not grads[0].any()
        assert not rows[0].any()
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

    def test_a_tie_goes_to_the_psd_start(self, monkeypatch):
        # rows 0-3 of the ascent are the PSD starts, rows 4-6 the Hermitian ones
        real = oracle._ascend
        ascended = []

        def tied(evaluate, thetas, per_start):
            out = real(evaluate, thetas, per_start)
            values = [0.5] * len(thetas)
            values[2] = values[5] = 2.0
            ascended.append(out[0])
            return (out[0], values) + out[2:]

        monkeypatch.setattr(oracle, "_ascend", tied)
        res = oracle_max(random_cpmap(2, 2, 3, 0), 3, 2, budget=70, seed=0)
        (points,) = ascended
        assert not np.array_equal(points[2], points[5])
        assert res.best_value == 2.0
        assert np.array_equal(res.best_point, _vec_to_herm(points[2], 2))
        assert res.best_from_psd_starts == res.best_from_hermitian_starts == 2.0

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
        # 3990 = 7 x 570 would mean that every start spent its whole share
        assert res.budget_used < 3990
        assert res.best_value == pytest.approx(power.norm_estimate, rel=1e-12)

    @pytest.mark.parametrize("k, seed", [(4, 4), (2, 1)])
    def test_budget_limited_near_one_exponents(self, k, seed):
        # 100 evaluations a start. Each part of the rule is needed here:
        # restarting the BFGS model at every rejection ends 3e-2 to 6e-2
        # short, resetting the step length to 1 on a gain 4e-4 to 7e-4, and
        # never restarting 1.3e-4 on the second map
        phi = random_cpmap(4, 4, k, seed)
        short = oracle_max(phi, 1.05, 1.1, budget=700, seed=0)
        full = oracle_max(phi, 1.05, 1.1, budget=4000, seed=0)
        assert short.best_value == pytest.approx(full.best_value, rel=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(budget=st.integers(1, 300), n=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_budget_used_within_budget(self, budget, n, seed):
        # every start is evaluated once even when the budget is below 7
        res = oracle_max(random_cpmap(n, 2, 2, seed), 3, 2, budget=budget, seed=seed)
        assert res.budget_used <= max(budget, 7)
        if budget < 7:
            assert res.budget_used == 7

    @pytest.mark.parametrize("seed", range(1050, 1054))
    def test_constant_ratio_stops_at_once(self, seed):
        # at n = 1, F is constant and its gradient is rounding noise, whose
        # first-order gain lies below the rounding floor of F
        res = oracle_max(random_cpmap(1, 5, 3, seed), 3, 2, budget=4000)
        assert res.budget_used <= 14

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-300, 300), n=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(k=300, n=3, seed=3)
    @example(k=-300, n=2, seed=2)
    def test_value_scales_with_the_map(self, k, n, seed):
        # Kraus operators times 2^k scale the map, and so its norm, by 4^k
        phi = random_cpmap(n, n, n, seed)
        base = oracle_max(phi, 3, 2, budget=700, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = oracle_max(CPMap(phi.kraus * 2.0**k), 3, 2, budget=700, seed=seed)
        assert res.best_value == pytest.approx(4.0**k * base.best_value, rel=1e-12, abs=0)

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
        # ||Y||_r and the gradient U sign(L) (|L|/||Y||_r)^(r-1) U^dag of a
        # stack, with the scale infinite where Y = 0
        for n, a in self.stacks(b):
            a[-1] = 0.0
            r = 1.5 + n / 4
            vals, vecs = np.linalg.eigh(a)
            nrm = _lr_norm(vals, r)
            grad = _spectral_grad(vals, vecs, np.where(nrm == 0.0, math.inf, nrm), r)
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
        # each row is scaled by the norm of its own matrix, to unit norm
        phi = random_cpmap(6, 2, 2, b)
        for n, a in self.stacks(b):
            if n != phi.input_dim:
                phi = random_cpmap(n, 2, 2, b)
            theta = _herm_to_vec(a)
            rows = _round(phi, phi._apply, 2.5, 2.0, theta)[0]
            for i in range(b):
                nrm = _lr_norm(np.linalg.eigh(a[i])[0][None], 2.5)[0]
                assert rows[i].tobytes() == (theta[i] / nrm).tobytes()
                assert schatten_norm(_vec_to_herm(rows[i], n), 2.5) == pytest.approx(
                    1.0, rel=1e-14)

    @pytest.mark.parametrize("b", range(1, 9))
    def test_pull_backs_match_the_public_adjoint(self, b):
        # one stacked adjoint kernel call gives the bits of a public
        # adjoint_apply per row, which symmetrizes each image gradient
        def spectral_grad(vals, vecs, nrm, r):
            weights = np.sign(vals) * (np.abs(vals) / nrm) ** (r - 1.0)
            return (vecs * weights) @ vecs.conj().T

        for n, m in ((3, 3), (3, 2), (2, 4)):
            phi = random_cpmap(n, m, 2, b)
            theta = _herm_to_vec(np.stack([random_hermitian(n, (b, n, m, i))
                                           for i in range(b)]))
            rows, values, grads, applied = _round(phi, phi.apply, 3.0, 2.0, theta)
            assert applied.all()
            a = _vec_to_herm(theta, n)
            vals, vecs = np.linalg.eigh(a)
            image_vals, image_vecs = np.linalg.eigh(np.stack([phi.apply(x) for x in a]))
            for i in range(b):
                nrm = _lr_norm(vals[i][None], 3.0)[0]
                image_nrm = _lr_norm(image_vals[i][None], 2.0)[0]
                pulled = phi.adjoint_apply(spectral_grad(image_vals[i], image_vecs[i],
                                                         image_nrm, 2.0))
                value = image_nrm / nrm
                ref = _herm_to_vec(pulled - value * spectral_grad(vals[i], vecs[i], nrm, 3.0))
                ref[n:] *= 2.0
                assert values[i] == value
                assert grads[i].tobytes() == ref.tobytes()

    @staticmethod
    def check_others(phi, theta, out, edge):
        for i in range(len(theta)):
            if i != edge:
                one = _round(phi, phi._apply, 3.0, 2.0, theta[i][None])
                for got, ref in zip(out, one):
                    assert got[i].tobytes() == ref[0].tobytes()

    @staticmethod
    def with_zero_row():
        phi = CountingMap(random_cpmap(3, 2, 2, 4).kraus)
        theta = _herm_to_vec(np.stack([random_hermitian(3, s) for s in range(3)]))
        theta[1] = 0.0
        theta[1, [2, 5, 7]] = -0.0
        return phi, theta, _round(phi, phi.apply, 3.0, 2.0, theta)

    def test_values_and_grads_skip_a_zero_row(self):
        # a zero candidate applies no map and gets F = 0 and a zero gradient;
        # the other rows get the bits of their own round
        phi, theta, out = self.with_zero_row()
        _, values, grads, applied = out
        assert applied.tolist() == [True, False, True]
        assert phi.applies == 2
        assert values[1] == 0.0 and not grads[1].any()
        self.check_others(phi, theta, out, 1)

    def test_project_keeps_a_zero_row(self):
        # a zero candidate keeps its row, signed zeros included
        _, theta, (rows, _, _, _) = self.with_zero_row()
        assert rows[1].tobytes() == theta[1].tobytes()
        for i in (0, 2):
            assert schatten_norm(_vec_to_herm(rows[i], 3), 3.0) == pytest.approx(
                1.0, rel=1e-14)

    def test_overflowing_row_becomes_the_zero_row(self):
        phi = CountingMap(random_cpmap(2, 3, 2, 5).kraus)
        theta = np.array([[1.0, 2.0, 0.5, -0.3], [1.5e308, 1.5e308, 0.0, 0.0]])
        assert _lr_norm(np.linalg.eigvalsh(_vec_to_herm(theta[1:], 2)), 3.0)[0] == math.inf
        rows, values, grads, applied = out = _round(phi, phi.apply, 3.0, 2.0, theta)
        assert applied.tolist() == [True, False]
        assert phi.applies == 1
        assert not rows[1].any()
        assert values[1] == 0.0 and not grads[1].any()
        self.check_others(phi, theta, out, 1)


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

    @pytest.mark.parametrize("grid", [2.5, 0, True])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(InvalidInput, match="grid"):
            spectral_grid_max(identity_channel(2), 4, 2, grid=grid)

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

    def test_dense_four_by_four_matches_classical(self):
        a = np.random.default_rng(9).uniform(0.0, 1.0, (4, 4))
        t0 = time.perf_counter()
        res = spectral_grid_max(embed_nonnegative_matrix(a), 3, 2)
        elapsed = time.perf_counter() - t0
        expected, _ = classical_pq_norm(a, 3, 2)
        assert res.best_value == pytest.approx(expected, rel=1e-8)
        assert elapsed < 1.0

    def test_not_applicable_when_one_projector_leaves_the_diagonal(self):
        # only phi(E_33) has off-diagonal entries, and they are 1e-12 of the
        # other images, so a probe on a random diagonal would read them as
        # rounding
        ops = list(embed_nonnegative_matrix(np.diag([1.0, 2.0, 0.0])).kraus)
        leak = np.zeros((3, 3), dtype=np.complex128)
        leak[0, 2] = leak[1, 2] = 1e-6
        with pytest.raises(NotApplicable):
            spectral_grid_max(CPMap(ops + [leak]), 3, 2)

    @pytest.mark.parametrize("p, q", [(3, 2), (2, 3)])
    def test_leaves_the_diagonal_for_an_off_diagonal_maximizer(self, p, q):
        # phi(X) = (1'X1) E_11 sends each E_jj to E_11, so it passes the
        # probe, but its norm ||11'||_{p*} = 2 is attained at 11'/2, off the
        # diagonal; diagonal X reach only 2^(1 - 1/p)
        phi = CPMap([[[1.0, 1.0], [0.0, 0.0]]])
        res = spectral_grid_max(phi, p, q)
        assert res.best_value == pytest.approx(2.0, rel=1e-12)
        assert np.abs(res.best_point[0, 1]) > 0.1
        assert objective(phi, res.best_point, p, q) == pytest.approx(res.best_value, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 4),
        m=st.integers(1, 3),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        q=st.floats(1.2, 3.0),
        gap=st.floats(0.5, 2.5),
    )
    def test_reaches_the_norm_of_measure_and_prepare_maps(self, n, m, k, seed, q, gap):
        """phi(X) = sum_l (w_l'X w_l) E_(i_l i_l) sends each E_jj to a
        diagonal image, and peaks off the diagonal. At p > q the power
        method's value is the norm, and the grid's ascent must reach it."""
        assume(k <= n * m)
        p = min(4.0, q + gap)
        rng = np.random.default_rng(seed)
        ops = np.zeros((k, m, n), dtype=np.complex128)
        ops[np.arange(k), rng.integers(0, m, k)] = (
            rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        phi = CPMap(ops)
        power = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        res = spectral_grid_max(phi, p, q, grid=16)
        assert res.best_value >= power.norm_estimate * (1.0 - 1e-9)
        assert objective(phi, res.best_point, p, q) == pytest.approx(res.best_value, rel=1e-12)

    # every case above, with the two of acceptance criterion 1
    REFERENCE_CASES = {
        "identity-4-2": (lambda: identity_channel(2), 4, 2, 64),
        "identity-2-4": (lambda: identity_channel(2), 2, 4, 64),
        "depolarizing": (lambda: depolarizing_channel(3), 3, 2, 32),
        "scalar": (lambda: CPMap([np.array([[3.0]])]), 3, 2, 8),
        "asymmetric-diagonal": (
            lambda: embed_nonnegative_matrix(np.diag([1.0, 2.0, 0.5])), 3, 2, 64),
        **{f"dense-{seed}": (
            lambda seed=seed: embed_nonnegative_matrix(
                np.random.default_rng(seed).uniform(0.0, 1.0, (3, 3))), 3, 2, 24)
           for seed in range(4)},
        **{f"off-diagonal-{p}-{q}": (lambda: CPMap([[[1.0, 1.0], [0.0, 0.0]]]), p, q, 64)
           for p, q in [(3, 2), (2, 3)]},
    }

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_picks_the_reference_grid_point(self, monkeypatch, case):
        make, p, q, grid = self.REFERENCE_CASES[case]
        phi = make()
        lam, best, _, _ = spectral_grid_reference(phi, p, q, grid)
        starts = ascent_start(monkeypatch)
        res = spectral_grid_max(phi, p, q, grid=grid)
        n = phi.input_dim
        picked = starts[0][0, :n] if n > 1 else np.diag(res.best_point).real
        np.testing.assert_array_equal(picked, lam)
        assert res.best_value == pytest.approx(best, rel=1e-12)

    def test_runs_on_the_kernels(self, monkeypatch):
        phi = embed_nonnegative_matrix(np.diag([1.0, 2.0, 0.5]))
        validations = count_validations(monkeypatch)
        applies = count_calls(monkeypatch, CPMap, "_apply")
        res = spectral_grid_max(phi, 3, 2, grid=64)
        assert validations() == 0
        # one stacked call on the three projectors, then one per evaluation
        assert res.budget_used == 3 + applies["_apply"] - 1


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


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(-600, 600),
    q=st.floats(1.2, 4.0),
    gap=st.floats(0.1, 3.0),
)
@example(shape=(2, 2), seed=0, t=500, q=2.0, gap=1.0)
@example(shape=(2, 2), seed=0, t=-600, q=2.0, gap=1.0)
def test_classical_value_scales_by_powers_of_two(shape, seed, t, q, gap):
    """The iteration runs on the matrix divided by the power of two at its
    largest entry, so 2^t A gives 2^t times the value of A, bit for bit, and
    the same vector. Unscaled, the l^3 norm of an iterate of 1e150 A at (3, 2)
    overflowed and the next iterate was zero."""
    a = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
    p = q + gap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, x = classical_pq_norm(a, p, q)
        scaled, y = classical_pq_norm(np.ldexp(a, t), p, q)
    assert scaled == math.ldexp(value, t)
    assert y.tobytes() == x.tobytes()


def test_classical_value_of_a_huge_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    value, _ = classical_pq_norm(a, 3, 2)
    assert classical_pq_norm(1e150 * a, 3, 2)[0] == pytest.approx(1e150 * value, rel=1e-15)


class TestCrossValidate:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf,
                                     True, "1e-4"])
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
        power, oracle = matched_pair
        fake = dataclasses.replace(oracle, best_value=oracle.best_value + 0.5)
        report = cross_validate(power, fake, tol=1e-4)
        assert report.status == "FAIL"
        assert report.messages

    def test_fail_when_oracle_trails_certified_run(self, matched_pair):
        power, oracle = matched_pair
        fake = dataclasses.replace(oracle, best_value=oracle.best_value - 0.5)
        report = cross_validate(power, fake, tol=1e-4)
        assert report.status == "FAIL"
        assert report.messages[0].startswith("oracle trails the power estimate by 5.")

    def test_indefinite_best_point_has_no_maximizer_distance(self, matched_pair):
        power, oracle = matched_pair
        fake = dataclasses.replace(oracle, best_point=np.diag([1.0, -1.0]))
        report = cross_validate(power, fake, tol=1e-4)
        assert report.status == "PASS"
        assert report.maximizer_distance is None

    def test_warn_in_uncertified_regime(self):
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
        # F(-X) = F(X): which twin the oracle returns depends on last bits,
        # so both signs are compared, one of them negative definite
        twins = [dataclasses.replace(oracle, best_point=sign * oracle.best_point)
                 for sign in (1.0, -1.0)]
        assert sum(np.all(np.linalg.eigvalsh(t.best_point) < 0.0) for t in twins) == 1
        for twin in twins:
            distance = cross_validate(power, twin).maximizer_distance
            assert distance is not None and distance < 1e-6


# Maps of the pinned oracle results: Gaussian, real Kraus operators (whose
# ascents meet off-diagonal entries with a zero imaginary part), and
# diagonal-preserving maps.
PINNED_MAPS = {
    "random_cpmap(2, 2, 2, 1)": lambda: random_cpmap(2, 2, 2, 1),
    "random_cpmap(3, 2, 3, 2)": lambda: random_cpmap(3, 2, 3, 2),
    "random_cpmap(4, 4, 4, 3)": lambda: random_cpmap(4, 4, 4, 3),
    "real-2x2-k2": lambda: CPMap([[[1.0, -0.5], [0.0, 1.0]], [[0.3, 1.0], [1.0, 0.0]]]),
    "real-2x2-k1": lambda: CPMap([[[1.0, -0.5], [0.0, 1.0]]]),
    "real-2x3-k2": lambda: CPMap([[[1.0, -0.5, 0.2], [0.0, 1.0, 0.1]],
                                  [[0.3, 1.0, -1.0], [1.0, 0.0, 0.5]]]),
    "embed_nonnegative_matrix(M3)":
        lambda: embed_nonnegative_matrix(np.arange(1.0, 10.0).reshape(3, 3) % 4),
    "depolarizing_channel(3)": lambda: depolarizing_channel(3),
    "identity_channel(2)": lambda: identity_channel(2),
}


class TestPinnedResults:
    """Both oracles give the value, point bytes and ``budget_used`` of their
    sequential references (``sequential_oracle_max``, and
    ``spectral_grid_reference`` for the spectral grid), and the pinned value
    to 1e-12.

    The parameters pin the results of the ascent before its candidates
    shared one ``eigh`` for projection and gradient, before its BFGS update
    took the rank-two form, before a start stopped at the rounding floor of
    F instead of at a step length of 1e-9 and before a start restarted its
    approximation after its first rejected step and kept its step length
    across gains, with OpenBLAS's SkylakeX kernels. These changes, and other
    kernels, round or stop the ascents differently: the best point may
    differ in its last bits or be the negated twin, and the budget used may
    differ too. So the pinned value is compared to 1e-12, and the point
    digest and ``budget_used`` only record the pinned run.
    """

    @staticmethod
    def _result(res):
        return float(res.best_value).hex(), res.best_point.tobytes(), res.budget_used

    @pytest.mark.parametrize("name, p, q, seed, value, point, used", [
    ("random_cpmap(2, 2, 2, 1)", 3.0, 2.0, 0, "0x1.fa85e303b9018p+0", "a8a62cd2904f9e9e", 126),
    ("random_cpmap(2, 2, 2, 1)", 3.0, 2.0, 5, "0x1.fa85e303b9018p+0", "a8a62cd2904f9e9e", 144),
    ("random_cpmap(2, 2, 2, 1)", 2.0, 3.0, 0, "0x1.f54fd5f15ef6fp+0", "c30b4d656fd88f8f", 86),
    ("random_cpmap(2, 2, 2, 1)", 2.0, 3.0, 5, "0x1.f54fd5f15ef6fp+0", "e969ea51d658ff92", 94),
    ("random_cpmap(3, 2, 3, 2)", 3.0, 2.0, 0, "0x1.291968a559a92p+3", "eaa4246f7cf4516a", 150),
    ("random_cpmap(3, 2, 3, 2)", 3.0, 2.0, 5, "0x1.291968a559a92p+3", "eaa4246f7cf4516a", 139),
    ("random_cpmap(3, 2, 3, 2)", 2.0, 3.0, 0, "0x1.0225aa314075ep+3", "70aa630346b125fb", 142),
    ("random_cpmap(3, 2, 3, 2)", 2.0, 3.0, 5, "0x1.0225aa314075ep+3", "70aa630346b125fb", 134),
    ("random_cpmap(4, 4, 4, 3)", 3.0, 2.0, 0, "0x1.d0c3b346b299bp+4", "e316ce9415fd636d", 174),
    ("random_cpmap(4, 4, 4, 3)", 3.0, 2.0, 5, "0x1.d0c3b346b2999p+4", "29a71cf9ce58b742", 182),
    ("random_cpmap(4, 4, 4, 3)", 2.0, 3.0, 0, "0x1.7817b2d74b96fp+4", "7be3e5613f3e2c67", 205),
    ("random_cpmap(4, 4, 4, 3)", 2.0, 3.0, 5, "0x1.7817b2d74b971p+4", "85e771e96245c52a", 156),
    ("real-2x2-k2", 3.0, 2.0, 0, "0x1.3fbd40e9dabf3p+1", "af3dc336c6d0f992", 92),
    ("real-2x2-k2", 3.0, 2.0, 5, "0x1.3fbd40e9dabf4p+1", "1b87996c57305555", 115),
    ("real-2x2-k2", 2.0, 3.0, 0, "0x1.31559e81a78e0p+1", "cc328f2f0691813a", 90),
    ("real-2x2-k2", 2.0, 3.0, 5, "0x1.31559e81a78e0p+1", "b3a18622f1b1c558", 172),
    ("embed_nonnegative_matrix(M3)", 3.0, 2.0, 0, "0x1.60fe5c31d6079p+2", "a9a84069b7537ce8", 121),
    ("embed_nonnegative_matrix(M3)", 3.0, 2.0, 5, "0x1.60fe5c31d6079p+2", "05043d94f9590c46", 129),
    ("embed_nonnegative_matrix(M3)", 2.0, 3.0, 0, "0x1.041a6230f5633p+2", "7359281fb846a6ad", 92),
    ("embed_nonnegative_matrix(M3)", 2.0, 3.0, 5, "0x1.041a6230f5632p+2", "daa4e1cdddbce7c2", 92),
    ("depolarizing_channel(3)", 3.0, 2.0, 0, "0x1.33709ab309ebbp+0", "4ad00a8cf4a68a2a", 112),
    ("depolarizing_channel(3)", 3.0, 2.0, 5, "0x1.33709ab309ebbp+0", "d54678a112aaba90", 120),
    ("depolarizing_channel(3)", 2.0, 3.0, 0, "0x1.aa55730feb9ccp-1", "b115998f6b4299fb", 94),
    ("depolarizing_channel(3)", 2.0, 3.0, 5, "0x1.aa55730feb9cdp-1", "2cf08bfef241cce5", 97),
    ("real-2x2-k1", 3.0, 2.0, 0, "0x1.a41fa06fbd21ap+0", "8ca177af2cda53cc", 119),
    ("real-2x2-k1", 2.0, 3.0, 0, "0x1.a3f07b357f685p+0", "e6abba64fcecdbf8", 100),
    ("real-2x3-k2", 3.0, 2.0, 0, "0x1.a2833e1ea9dc2p+1", "bf15df7df8b31f2a", 171),
    ("real-2x3-k2", 2.0, 3.0, 0, "0x1.8c55f930e747dp+1", "2ed40353b88a799d", 134),
    ])
    def test_oracle_max(self, name, p, q, seed, value, point, used):
        phi = PINNED_MAPS[name]()
        res = oracle_max(phi, p, q, budget=700, seed=seed)
        ref_value, ref_point, ref_used, _, _ = sequential_oracle_max(phi, p, q, 700, seed)
        assert self._result(res) == (ref_value.hex(), ref_point.tobytes(), ref_used)
        assert res.best_value == pytest.approx(float.fromhex(value), rel=1e-12, abs=0)

    @pytest.mark.parametrize("name, p, q, value, point, used", [
    ("embed_nonnegative_matrix(M3)", 3.0, 2.0, "0x1.60fe5c31d6076p+2", "cefdff327bdfacee", 14),
    ("embed_nonnegative_matrix(M3)", 2.0, 3.0, "0x1.041a6230f5632p+2", "63602b7ac36e42c0", 15),
    ("depolarizing_channel(3)", 3.0, 2.0, "0x1.33709ab309ebap+0", "b5eff16f4e668cb7", 7),
    ("depolarizing_channel(3)", 2.0, 3.0, "0x1.aa55730feb9ccp-1", "1ce781d032115d26", 32),
    ("identity_channel(2)", 3.0, 2.0, "0x1.1f59ac3c7d6c0p+0", "2a3ab6b10fd2854d", 3),
    ("identity_channel(2)", 2.0, 3.0, "0x1.0000000000000p+0", "193102fb2674025f", 3),
    ])
    def test_spectral_grid_max(self, name, p, q, value, point, used):
        phi = PINNED_MAPS[name]()
        res = spectral_grid_max(phi, p, q, grid=16)
        _, ref_value, ref_point, ref_used = spectral_grid_reference(phi, p, q, 16)
        assert self._result(res) == (float(ref_value).hex(), ref_point.tobytes(), ref_used)
        assert res.best_value == pytest.approx(float.fromhex(value), rel=1e-12, abs=0)


@st.composite
def candidate_stacks(draw):
    """A map and a (B, n^2) stack of candidates: normal floats from 2^-600 to
    2^600, spread over up to 400 binary orders of magnitude, zeros of both
    signs among them, and sometimes a zero row."""
    b, n, m = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([-400, 0, 400]))
    spread = draw(st.sampled_from([4, 60, 200]))
    theta = np.ldexp(rng.standard_normal((b, n * n)),
                     scale + rng.integers(-spread, spread, (b, n * n)))
    u = rng.random(theta.shape)
    theta[u < 0.15] = 0.0
    theta[(u >= 0.15) & (u < 0.3)] = -0.0
    if draw(st.booleans()):
        theta[rng.integers(b)] = 0.0
    return random_cpmap(n, m, 1 + int(rng.integers(n * m)), rng), theta


class TestProjectHandOff:
    """A round builds each candidate's matrix once, exactly Hermitian, and
    hands it to one stacked ``eigh`` for the projection and the gradient and
    to the map; every row gets the bits of its own round."""

    @settings(max_examples=150, deadline=None)
    @given(candidate_stacks())
    def test_rows_and_matrices_match_the_rebuild(self, stack):
        phi, theta = stack
        out = _round(phi, phi.apply, 2.5, 1.5, theta)
        for i in range(len(theta)):
            one = _round(phi, phi.apply, 2.5, 1.5, theta[i][None])
            for got, ref in zip(out, one):
                assert got[i].tobytes() == ref[0].tobytes()
        rows, _, _, applied = out
        assert applied.tolist() == [bool(row.any()) for row in theta]
        assert rows[~applied].tobytes() == theta[~applied].tobytes()

    @pytest.mark.parametrize("re, im", [(-1.0, 0.0), (-1.0, -0.0), (-0.0, -1.0)])
    def test_signed_zero_entries_are_rebuilt(self, re, im):
        # the map gets the matrix the candidate stands for, exactly
        # Hermitian, and the row keeps the signs of its zeros
        phi = CountingMap(random_cpmap(2, 2, 2, 6).kraus)
        theta = np.array([[1.0, 1.0, re, im]])
        rows = _round(phi, phi.apply, 2.5, 2.0, theta)[0]
        a = _vec_to_herm(theta, 2)
        assert len(phi.handed) == 1 and phi.handed[0].tobytes() == a[0].tobytes()
        assert a[0, 1, 0].tobytes() == a[0, 0, 1].conj().tobytes()
        nrm = _lr_norm(np.linalg.eigvalsh(a), 2.5)[0]
        assert rows.tobytes() == (theta / nrm).tobytes()
        assert np.signbit(rows).tolist() == np.signbit(theta).tolist()

    def test_one_candidate_and_one_image_eigh_and_no_eigvalsh(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def spy(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, a.shape))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        phi = random_cpmap(3, 2, 2, 4)
        theta = _herm_to_vec(np.stack([random_hermitian(3, s) for s in range(4)]))
        _round(phi, phi.apply, 3.0, 2.0, theta)
        assert calls == [("eigh", (4, 3, 3)), ("eigh", (4, 2, 2))]
        rounds = count_calls(monkeypatch, oracle, "_round")
        calls.clear()
        oracle_max(phi, 3.0, 2.0, budget=300, seed=2)
        assert rounds["_round"] > 1
        assert [name for name, _ in calls] == ["eigh"] * (2 * rounds["_round"])

    def test_whole_round_pulls_back_the_stack_once(self, monkeypatch):
        phi = random_cpmap(3, 2, 2, 4)
        theta = _herm_to_vec(np.stack([random_hermitian(3, s) for s in range(4)]))
        shapes = []
        real = CPMap._adjoint_apply

        def spy(self, mat):
            shapes.append(mat.shape)
            return real(self, mat)

        monkeypatch.setattr(CPMap, "_adjoint_apply", spy)
        _round(phi, phi.apply, 3.0, 2.0, theta)
        theta[2] = 0.0
        _round(phi, phi.apply, 3.0, 2.0, theta)
        assert shapes == [(4, 2, 2), (3, 2, 2)]


@settings(max_examples=200)
@given(d=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1.0, 1e8]))
def test_rank_two_update_matches_the_product_form(d, seed, scale):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, d))
    h = b @ b.T + 0.1 * np.eye(d)
    h = (h + h.T) / 2
    s, y = rng.standard_normal((2, d))
    y *= scale * np.sign(s @ y)
    # s'y > 0, with s and y no closer to orthogonal than 84 degrees
    sy = float(s @ y)
    assume(sy >= 0.1 * np.linalg.norm(s) * np.linalg.norm(y))
    rho = 1.0 / sy
    eye = np.eye(d)
    product = ((eye - rho * np.outer(s, y)) @ h @ (eye - rho * np.outer(y, s))
               + rho * np.outer(s, s))
    got = _bfgs_update(h, s, y, sy)
    # the update cancels H along y (at d = 1 it leaves s/y whatever H is),
    # so both forms round at the scale of the larger of H and its update
    bound = 1e-12 * max(np.linalg.norm(h), np.linalg.norm(product))
    assert np.linalg.norm(got - product) <= bound
    assert np.array_equal(got, got.T)
