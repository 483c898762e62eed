"""Power iteration tests: step map, convergence loop, residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpnorm import (
    CPMap,
    DegenerateMap,
    DimMismatch,
    InvalidInput,
    IterationStatus,
    NotPsd,
    PowerConfig,
    PowerStep,
    ZeroInput,
    TraceRow,
    critical_point_residual,
    default_start,
    depolarizing_channel,
    duality_map,
    hilbert_distance,
    identity_channel,
    numerical_rank,
    objective,
    oracle_max,
    power_step,
    psd_spectrum,
    random_cpmap,
    run_power_method,
    schatten_norm,
)
from cpnorm import power, schatten
from cpnorm.config import CRITICAL_RTOL
from cpnorm.hermitian import EigDecomp, _psd_spectrum
from cpnorm.hilbert import _hilbert_distance
from cpnorm.schatten import _duality_map, _spectrum_norm, as_exponent
from helpers import (
    count_calls,
    spectral_power_method,
    spectral_residuals,
    two_apply_power_method,
    well_conditioned_pd,
)


class TestPowerStep:
    def test_depolarizing_one_step(self):
        phi = depolarizing_channel(3)
        a = well_conditioned_pd(3, 1)
        out = power_step(phi, a, 3, 2).iterate
        np.testing.assert_allclose(out, np.eye(3) / 3 ** (1.0 / 3.0), atol=1e-12)

    def test_identity_p2_q2_every_point_fixed(self):
        phi = identity_channel(3)
        a = well_conditioned_pd(3, 2)
        out = power_step(phi, a, 2, 2).iterate
        np.testing.assert_allclose(out, a / np.linalg.norm(a), atol=1e-12)

    def test_output_is_unit_psd(self):
        phi = random_cpmap(3, 2, 3, 0)
        a = well_conditioned_pd(3, 3)
        for _ in range(10):
            a = power_step(phi, a, 2.5, 1.5).iterate
            assert np.linalg.eigvalsh(a)[0] >= -1e-12
            assert schatten_norm(a, 2.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 50.0])
    def test_scale_invariant(self, alpha):
        phi = random_cpmap(2, 2, 3, 1)
        a = well_conditioned_pd(2, 4)
        base = power_step(phi, a, 3, 2).iterate
        assert np.linalg.norm(power_step(phi, alpha * a, 3, 2).iterate - base) <= 1e-10

    def test_fixed_point_of_converged_run(self):
        phi = random_cpmap(3, 3, 3, 2)
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        again = power_step(phi, res.maximizer, 3, 2).iterate
        assert np.linalg.norm(again - res.maximizer) <= 1e-9

    def test_fields_give_objective_and_residual(self):
        phi = random_cpmap(3, 2, 3, 4)
        a = default_start(3, 3)
        step = power_step(phi, a, 3, 2)
        assert isinstance(step, PowerStep)
        assert step.image_norm == pytest.approx(objective(phi, a, 3, 2), rel=1e-14)
        np.testing.assert_allclose(step.pullback,
                                   phi.adjoint_apply(duality_map(phi.apply(a), 2)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(step.iterate, duality_map(step.pullback, 1.5),
                                   rtol=0, atol=1e-14)

    def test_frozen_and_slotted(self):
        step = power_step(identity_channel(2), np.eye(2), 3, 2)
        assert not hasattr(step, "__dict__")
        with pytest.raises(AttributeError):
            step.image_norm = 0.0

    def test_degenerate_start(self):
        corner = CPMap([np.array([[1.0, 0.0]])])
        with pytest.raises(DegenerateMap):
            power_step(corner, np.diag([0.0, 1.0]), 3, 2)

    def test_wrong_dimension_raises_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            power_step(random_cpmap(3, 3, 2, 0), default_start(4, 3), 3, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_image_raises_invalid_input(self):
        phi = random_cpmap(3, 3, 2, 1)
        huge = CPMap([1e160 * v for v in phi.kraus])
        with pytest.raises(InvalidInput, match="non-finite"):
            power_step(huge, default_start(3, 3), 3, 2)


class TestStepSpectrum:
    """``PowerStep.spectrum`` is the iterate's eigendecomposition, carried
    over from the pull-back's rather than computed from the iterate."""

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60)
    @given(
        live=st.integers(1, 6),
        dead=st.integers(0, 3),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(1.2, 6.0),
        q=st.floats(1.2, 6.0),
    )
    def test_spectrum_decomposes_the_iterate(self, live, dead, k, seed, p, q):
        # Kraus operators with `dead` zero columns: the pull-back vanishes on
        # those input directions, so its rank is at most `live`
        kraus = random_cpmap(live, live + dead, k, seed).kraus
        phi = CPMap(np.concatenate([kraus, np.zeros(kraus.shape[:2] + (dead,))], axis=2))
        step = power_step(phi, well_conditioned_pd(live + dead, seed), p, q)
        w = step.spectrum.eigenvalues
        assert np.all(np.diff(w) <= 0.0) and w[-1] >= 0.0
        assert np.sum(w**p) ** (1.0 / p) == pytest.approx(1.0, rel=0, abs=1e-14)
        size = np.linalg.norm(step.iterate)
        assert np.linalg.norm(step.spectrum.reconstruct() - step.iterate) <= 1e-14 * size
        np.testing.assert_allclose(w, psd_spectrum(step.iterate).eigenvalues,
                                   rtol=0, atol=1e-13 * w[0])
        assert np.count_nonzero(w == 0.0) >= dead


class TestRunPowerMethod:
    def test_identity_channel_flat_optimum(self):
        res = run_power_method(identity_channel(2), PowerConfig(p=4, q=2))
        assert res.norm_estimate == pytest.approx(2**0.25, abs=1e-9)
        np.testing.assert_allclose(
            res.maximizer, np.eye(2) / 2**0.25, atol=1e-8
        )
        assert res.status is IterationStatus.CONVERGED
        assert res.contraction.step_certified

    def test_depolarizing_converges_fast(self):
        res = run_power_method(
            depolarizing_channel(3), PowerConfig(p=3, q=2, with_contraction=False)
        )
        assert res.norm_estimate == pytest.approx(3 ** (1.0 / 6.0), abs=1e-9)
        assert res.iterations <= 2

    def test_degenerate_map_propagates(self):
        corner = CPMap([np.array([[1.0, 0.0]])])
        cfg = PowerConfig(
            p=3, q=2, start=np.diag([0.0, 1.0]), with_contraction=False
        )
        with pytest.raises(DegenerateMap):
            run_power_method(corner, cfg)

    def test_norm_estimate_matches_final_trace_row(self):
        phi = random_cpmap(2, 2, 3, 7)
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        assert res.norm_estimate == res.trace.rows[-1].objective
        assert schatten_norm(res.maximizer, 3) == pytest.approx(1.0, abs=1e-12)

    def test_norm_estimate_is_objective_at_maximizer(self):
        phi = random_cpmap(3, 3, 3, 14)
        res = run_power_method(phi, PowerConfig(p=4, q=2, with_contraction=False))
        assert abs(res.norm_estimate - objective(phi, res.maximizer, 4, 2)) <= 1e-12

    def test_custom_start_converges_to_same_point(self):
        phi = random_cpmap(3, 3, 3, 8)
        base = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        for seed in range(3):
            start = well_conditioned_pd(3, seed)
            res = run_power_method(
                phi, PowerConfig(p=3, q=2, start=start, with_contraction=False)
            )
            assert res.norm_estimate == pytest.approx(base.norm_estimate, abs=1e-8)
            assert np.linalg.norm(res.maximizer - base.maximizer) <= 1e-6

    def test_max_iter_status(self):
        phi = random_cpmap(3, 3, 3, 9)
        res = run_power_method(
            phi, PowerConfig(p=3, q=2, max_iter=1, with_contraction=False)
        )
        assert res.status is IterationStatus.MAX_ITER_REACHED
        assert res.trace.termination_reason is None

    def test_unproven_regime_warning(self):
        res = run_power_method(identity_channel(2), PowerConfig(p=2, q=2))
        assert any("unproven regime" in w for w in res.warnings)
        assert res.status is IterationStatus.CONVERGED
        assert not res.contraction.step_certified
        assert any("not certified" in w for w in res.warnings)

    def test_certified_p_le_q_run_carries_no_unproven_warning(self):
        res = run_power_method(depolarizing_channel(3), PowerConfig(p=2, q=3))
        assert res.contraction.upper_source == "choi"
        # kappa is 0 up to the SVD's slack: the channel's Choi matrix is I/3
        assert res.contraction.kappa_upper < 1e-12 and res.contraction.step_certified
        assert res.warnings == ()
        res = run_power_method(identity_channel(3), PowerConfig(p=2, q=3))
        assert not res.contraction.step_certified
        assert any("unproven regime" in w for w in res.warnings)
        # without the report nothing certifies the run
        cfg = PowerConfig(p=2, q=3, with_contraction=False)
        res = run_power_method(depolarizing_channel(3), cfg)
        assert any("unproven regime" in w for w in res.warnings)

    def test_at_most_three_eigensolves_per_full_rank_iteration(self, monkeypatch):
        phi = random_cpmap(4, 4, 3, 21)
        counts = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        res = run_power_method(phi, PowerConfig(p=3, q=1.5, with_contraction=False))
        assert res.iterations >= 5
        # the default start's spectrum is known; its image and pull-back are
        # decomposed, then each iteration decomposes an image and takes a
        # Hilbert step, and each but the last decomposes its pull-back
        assert sum(counts.values()) == 3 * res.iterations + 1

    def test_two_eigensolves_and_one_cholesky_per_q2_iteration(self, monkeypatch):
        phi = random_cpmap(4, 4, 3, 21)
        counts = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh", "cholesky")
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        k = res.iterations
        assert k >= 5
        # each positive definite image is factorised instead of decomposed
        assert counts["eigh"] + counts["eigvalsh"] == 2 * k
        assert counts["cholesky"] == k + 1

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (2.0, 3.0), (3.0, 1.5)])
    def test_last_successor_is_never_built(self, monkeypatch, p, q):
        steps = []
        real = power.power_step

        def recording(*args):
            steps.append(real(*args))
            return steps[-1]

        monkeypatch.setattr(power, "power_step", recording)
        res = run_power_method(random_cpmap(4, 4, 3, 21),
                               PowerConfig(p=p, q=q, with_contraction=False))
        assert len(steps) == res.iterations >= 5
        assert all(step._successor is not None for step in steps[:-1])
        assert steps[-1]._successor is None
        assert steps[-2].iterate is res.maximizer

    def test_exponents_are_validated_once(self, monkeypatch):
        config = PowerConfig(p=3, q=2.5, with_contraction=False)
        sp, sq = config._exponents
        assert (sp.p, sp.p_star, sq.p) == (3.0, 1.5, 2.5)
        counts = count_calls(monkeypatch, schatten, "dual_exponent")
        res = run_power_method(random_cpmap(3, 3, 3, 0), config)
        assert res.iterations >= 5
        assert counts["dual_exponent"] == 0

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (2.0, 3.0)])
    def test_one_apply_and_one_adjoint_per_iteration(self, monkeypatch, p, q):
        phi = random_cpmap(4, 4, 3, 21)
        counts = count_calls(monkeypatch, CPMap, "_apply", "_adjoint_apply")
        res = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        assert res.iterations >= 5
        # the start's evaluation, then the one power step of each iteration
        assert counts == {"_apply": res.iterations + 1,
                          "_adjoint_apply": res.iterations + 1}

    def test_trace_rows_are_ordered_and_positive(self):
        phi = random_cpmap(2, 2, 3, 10)
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        ks = [row.k for row in res.trace.rows]
        assert ks == list(range(len(ks)))
        assert all(row.objective > 0 for row in res.trace.rows)

    def test_banach_contraction_signature(self):
        phi = random_cpmap(3, 3, 3, 11)
        res = run_power_method(phi, PowerConfig(p=3, q=2))
        tau = res.contraction.kappa_step_upper
        assert res.contraction.step_certified
        rows = res.trace.rows
        for prev, cur in zip(rows[1:], rows[2:]):
            if math.isfinite(prev.hilbert_step) and math.isfinite(cur.hilbert_step):
                assert cur.hilbert_step <= tau * prev.hilbert_step + 1e-9

    def test_explicit_default_start_costs_one_eigh_more(self, monkeypatch):
        """The default start's spectrum is known. A given start is decomposed
        once, by PowerConfig, and the run reuses that spectrum, so passing
        the default start costs one eigh more and changes no result."""
        phi = random_cpmap(3, 3, 3, 0)
        runs = []
        for start in (None, default_start(3, 3)):
            counts = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
            res = run_power_method(phi, PowerConfig(p=3, q=2.5, start=start))
            runs.append((dict(counts), res))
        (default, base), (given, res) = runs
        assert given == {"eigh": default["eigh"] + 1, "eigvalsh": default["eigvalsh"]}
        assert base.iterations == res.iterations >= 5
        assert res.norm_estimate == base.norm_estimate
        assert res.maximizer.tobytes() == base.maximizer.tobytes()

    def test_start_validation(self):
        with pytest.raises(NotPsd):
            PowerConfig(p=3, q=2, start=np.diag([1.0, -1.0]))
        with pytest.raises(ZeroInput):
            PowerConfig(p=3, q=2, start=np.zeros((2, 2)))

    def test_start_dimension_mismatch(self):
        from cpnorm import DimMismatch

        cfg = PowerConfig(p=3, q=2, start=np.eye(3), with_contraction=False)
        with pytest.raises(DimMismatch):
            run_power_method(identity_channel(2), cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            PowerConfig(p=3, q=2, tol_fixed_point=0.0)
        with pytest.raises(InvalidInput):
            PowerConfig(p=3, q=2, max_iter=0)

    @pytest.mark.parametrize("field", ["tol_fixed_point", "tol_objective"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_tolerance_rejected(self, field, value):
        with pytest.raises(InvalidInput):
            PowerConfig(p=3, q=2, **{field: value})

    @pytest.mark.parametrize("field", ["tol_fixed_point", "tol_objective"])
    @pytest.mark.parametrize("value", [True, "1e-9", None])
    def test_non_real_tolerance_rejected(self, field, value):
        # a bool is not a tolerance, as it is not a count
        with pytest.raises(InvalidInput, match="tolerances"):
            PowerConfig(p=3, q=2, **{field: value})

    @pytest.mark.parametrize("value", [2.5, "5", True, None])
    def test_non_integer_max_iter_rejected(self, value):
        with pytest.raises(InvalidInput):
            PowerConfig(p=3, q=2, max_iter=value)

    def test_numpy_integer_max_iter_accepted(self):
        cfg = PowerConfig(p=3, q=2, max_iter=np.int64(4), with_contraction=False)
        assert run_power_method(identity_channel(2), cfg).iterations <= 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_map_raises_invalid_input(self):
        phi = random_cpmap(3, 3, 3, 5)
        huge = CPMap([1e160 * v for v in phi.kraus])
        with pytest.raises(InvalidInput, match="non-finite"):
            run_power_method(huge, PowerConfig(p=3, q=2, with_contraction=False))

    def test_trace_is_one_float_array(self):
        res = run_power_method(random_cpmap(3, 3, 3, 6),
                               PowerConfig(p=3, q=2, with_contraction=False))
        table = res.trace.table
        assert table.dtype == np.float64
        assert table.shape == (res.iterations + 1, 5)
        assert not table.flags.writeable
        rows = res.trace.rows
        assert all(isinstance(row, TraceRow) for row in rows)
        assert [row.k for row in rows] == list(range(res.iterations + 1))
        assert all(type(row.k) is int and type(row.residual) is float for row in rows)
        assert math.isnan(rows[0].hilbert_step) and math.isnan(rows[0].frobenius_step)
        assert rows[-1].objective == res.norm_estimate

    def test_default_start_is_unit_interior(self):
        a = default_start(3, 2.5)
        assert schatten_norm(a, 2.5) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(a)[0] > 0
        assert numerical_rank(a) == 3


class TestResidual:
    def test_depolarizing_closed_form_critical_point(self):
        phi = depolarizing_channel(3)
        value = critical_point_residual(phi, default_start(3, 3), 3, 2)
        assert value <= 1e-12

    def test_converged_maximizer_residual(self):
        phi = random_cpmap(3, 3, 3, 12)
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        value = critical_point_residual(phi, res.maximizer, 3, 2)
        assert value <= 1e-8

    def test_random_point_is_not_critical(self):
        phi = random_cpmap(3, 3, 3, 13)
        a = well_conditioned_pd(3, 99)
        a = a / schatten_norm(a, 3)
        assert critical_point_residual(phi, a, 3, 2) > 0.01

    def test_requires_unit_norm(self):
        phi = identity_channel(2)
        with pytest.raises(InvalidInput):
            critical_point_residual(phi, 2.0 * np.eye(2), 3, 2)

    def test_wrong_dimension_raises_dim_mismatch(self):
        phi = random_cpmap(3, 3, 2, 0)
        with pytest.raises(DimMismatch):
            critical_point_residual(phi, default_start(4, 3), 3, 2)


class TestScaleInvariance:
    """A run on c * phi takes the iterations of the run on phi and returns c
    times its estimate: every cutoff and the objective stall are relative."""

    @settings(max_examples=30)
    @given(st.floats(-150, 150))
    def test_norm_scales_and_iterations_hold(self, e):
        c = 10.0**e
        phi = random_cpmap(4, 4, 4, 3)
        config = PowerConfig(p=3.0, q=2.0, with_contraction=False)
        base = run_power_method(phi, config)
        res = run_power_method(CPMap(phi.kraus * math.sqrt(c)), config)
        assert res.iterations == base.iterations
        assert res.status is IterationStatus.CONVERGED
        assert res.norm_estimate == pytest.approx(c * base.norm_estimate, rel=1e-14)


class TestNearExponentOne:
    """Near p = 1 the duality weights mu^(1/(p-1)) of the iterate span
    hundreds of decades. A run reports ``CONVERGED`` only when its final
    critical-point residual is at most ``CRITICAL_RTOL`` of the estimate."""

    @pytest.mark.parametrize("p,q", [(1.001, 1.0005), (1.0001, 1.5)])
    def test_underflowing_weights_are_not_critical(self, p, q):
        # the weights underflow to 0, so J_p of the iterate cannot return
        # the pull-back and the run settles off a critical point
        phi = random_cpmap(4, 4, 4, 3)
        res = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        _, f, _, _, residual = res.trace.table[-1]
        assert res.status is IterationStatus.NOT_CRITICAL
        assert res.trace.termination_reason is not None
        assert residual > CRITICAL_RTOL * f
        assert any("not critical" in w for w in res.warnings)
        assert res.norm_estimate == pytest.approx(objective(phi, res.maximizer, p, q),
                                                  rel=1e-12)

    def test_carried_weights_resolve_a_collapsed_iterate(self):
        # Numerically rank 1, but the carried weights reach down to 1e-213,
        # so J_p of them returns the pull-back; decomposing the maximizer
        # instead gives a relative residual of 0.78.
        phi = random_cpmap(4, 4, 4, 3)
        res = run_power_method(phi, PowerConfig(p=1.01, q=100, with_contraction=False))
        _, f, _, _, residual = res.trace.table[-1]
        assert res.status is IterationStatus.CONVERGED
        assert numerical_rank(res.maximizer) == 1
        assert residual <= CRITICAL_RTOL * f
        assert not any("not critical" in w for w in res.warnings)

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=30)
    @given(
        n=st.integers(1, 5),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(1.0001, 1.05),
        q=st.floats(1.0001, 100.0),
    )
    def test_converged_means_critical(self, n, k, seed, p, q):
        res = run_power_method(random_cpmap(n, n, k, seed),
                               PowerConfig(p=p, q=q, max_iter=200, with_contraction=False))
        _, f, _, _, residual = res.trace.table[-1]
        critical = residual <= CRITICAL_RTOL * f
        if res.status is IterationStatus.CONVERGED:
            assert critical
        if res.status is IterationStatus.NOT_CRITICAL:
            assert not critical and any("not critical" in w for w in res.warnings)


class TestPullBackResidual:
    """For k >= 1 the loop takes J_p(X_k) = P_{k-1} / ||P_{k-1}||_{p*} from
    the pull-back that X_k = J_{p*}(P_{k-1}) was built from. Where J_p of
    the spectrum is well conditioned the two forms agree."""

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(1.2, 6.0),
        q=st.floats(1.2, 6.0),
    )
    def test_agrees_with_the_spectral_residual(self, n, k, seed, p, q):
        phi = random_cpmap(n, n, k, seed)
        res = run_power_method(phi, PowerConfig(p=p, q=q, max_iter=300,
                                                with_contraction=False))
        table = res.trace.table
        ref = spectral_residuals(phi, p, q, res.iterations)
        assert np.all(np.abs(table[:, 4] - ref) <= 1e-12 * table[:, 1])


class TestLargeExponent:
    """At p >= 1e12 J_p raises a nearly flat spectrum to the power p - 1, so
    a residual that took J_p from the iterate's spectrum read 3.8e-5 to 0.21
    of the estimate on this map, and the run ended ``NOT_CRITICAL``. The
    pull-back form is exact there. The norm lies in the bracket
    n^(-1/p) ||phi(I)||_q <= ||phi|| <= ||phi(I)||_q, since X <= I on the
    unit p-ball of PSD matrices and n^(-1/p) I is in it; the bracket is
    narrower than rounding at these p, so it is checked to 4 ulps."""

    @pytest.mark.parametrize("p", [1e12, 1e14, 1e15, 9e15])
    def test_converges_inside_the_endpoint_bracket(self, p):
        phi = random_cpmap(4, 4, 4, 3)
        res = run_power_method(phi, PowerConfig(p=p, q=2.0, with_contraction=False))
        _, f, _, _, residual = res.trace.table[-1]
        assert res.status is IterationStatus.CONVERGED
        assert residual <= CRITICAL_RTOL * f
        upper = schatten_norm(phi.apply(np.eye(4)), 2.0)
        slack = 4 * np.finfo(float).eps
        assert 4 ** (-1.0 / p) * upper * (1 - slack) <= f <= upper * (1 + slack)
        best = oracle_max(phi, p, 2.0, seed=0).best_value
        assert f == pytest.approx(best, rel=1e-12)


class TestRankDeficientPullBack:
    """Maps with k m < n pull back to a matrix of rank below n. Its noise
    eigenvalues, near 1e-17 of the largest, are zeroed before J_{p*}, which
    would raise them to 1/(p-1) and let the iterate's null space flicker
    above the fixed-point tolerance for all 1000 iterations."""

    @pytest.mark.parametrize("n, m, k, seed, p, q", [
        (4, 2, 1, 360264, 3.0, 2.0),
        (4, 2, 1, 360264, 4.0, 1.2),
        (6, 2, 2, 3, 4.0, 1.2),
    ])
    def test_converges_to_the_oracle_value(self, n, m, k, seed, p, q):
        phi = random_cpmap(n, m, k, seed)
        res = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        assert res.status is IterationStatus.CONVERGED
        assert res.iterations <= 64
        assert numerical_rank(res.maximizer) < n
        best = oracle_max(phi, p, q, seed=0).best_value
        assert res.norm_estimate == pytest.approx(best, rel=1e-9)


@st.composite
def q2_maps(draw):
    """Gaussian maps, rectangular maps with m > n k, whose images are
    singular, and the identity and depolarizing channels."""
    kind = draw(st.sampled_from(["gaussian", "rectangular", "identity", "depolarizing"]))
    n = draw(st.integers(1, 6))
    if kind == "identity":
        return identity_channel(n)
    if kind == "depolarizing":
        return depolarizing_channel(n)
    k = draw(st.integers(1, 4))
    m = n if kind == "gaussian" else n * k + draw(st.integers(1, 3))
    return random_cpmap(n, m, k, draw(st.integers(0, 2**32 - 1)))


class TestClosedFormAtQ2:
    """At q = 2 the image step takes J_2(B) = B / ||B||_F on positive
    definite images, which one Cholesky factorisation recognises. Singular,
    indefinite and zero images take the spectral path, with its errors."""

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=60, deadline=None)
    @given(phi=q2_maps(), p=st.floats(1.2, 6.0))
    def test_matches_the_spectral_path(self, phi, p):
        config = PowerConfig(p=p, q=2.0, max_iter=300, with_contraction=False)
        res = run_power_method(phi, config)
        ref = spectral_power_method(phi, config)
        assert (res.iterations, res.status) == (ref.iterations, ref.status)
        assert res.norm_estimate == pytest.approx(ref.norm_estimate, rel=1e-13)
        np.testing.assert_allclose(res.trace.table[:, 1], ref.trace.table[:, 1],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("n,m,k", [(4, 4, 3), (3, 7, 2)])
    def test_public_duality_map_is_the_loops(self, monkeypatch, q, n, m, k):
        phi = random_cpmap(n, m, k, 5)
        a = default_start(n, 3.0)
        pulled = []
        real = CPMap._adjoint_apply

        def recording(self, mat):
            pulled.append(mat)
            return real(self, mat)

        monkeypatch.setattr(CPMap, "_adjoint_apply", recording)
        power_step(phi, a, 3.0, q)
        assert duality_map(phi.apply(a), q).tobytes() == pulled[0].tobytes()

    @pytest.mark.parametrize("tamper", [
        lambda b: b - np.trace(b).real / len(b) * np.eye(len(b)),
        lambda b: -b,
    ], ids=["indefinite", "negative_definite"])
    def test_non_psd_image_raises_the_spectral_not_psd(self, monkeypatch, tamper):
        phi = random_cpmap(4, 4, 3, 8)
        real = CPMap._apply
        monkeypatch.setattr(CPMap, "_apply", lambda self, mat: tamper(real(self, mat)))
        with pytest.raises(NotPsd) as spectral:
            _psd_spectrum(phi._apply(default_start(4, 3.0)))
        with pytest.raises(NotPsd) as raised:
            run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        assert str(raised.value) == str(spectral.value)

    def test_zero_image_raises_degenerate_map(self, monkeypatch):
        monkeypatch.setattr(CPMap, "_apply", lambda self, mat: np.zeros_like(mat))
        with pytest.raises(DegenerateMap, match="annihilates"):
            run_power_method(random_cpmap(3, 3, 2, 0),
                             PowerConfig(p=3, q=2, with_contraction=False))


def test_results_keep_no_instance_dict():
    """A result is kept per run by callers that collect many; slots keep it small."""
    res = run_power_method(random_cpmap(2, 2, 2, 0), PowerConfig(p=3.0, q=2.0))
    assert not hasattr(res, "__dict__")
    assert not hasattr(res.trace, "__dict__")


def _replay(phi, p, q, iterations):
    """The iteration rebuilt from the public ``power_step``: trace rows and
    final iterate.

    Like the loop, it reads each iterate's spectrum off the step that built
    it and takes the row's objective and Hilbert step from that spectrum.
    The residual of row k >= 1 comes from two consecutive pull-backs,
    ||P_k - f_k P_{k-1} / ||P_{k-1}||_{p*}||_F, with the p*-norm from the
    spectrum of P_{k-1}; the start's is ||P_0 - f_0 J_p(X_0)||_F, with J_p
    from the start's closed-form spectrum (n^(-1/p), I), which is the one
    ``eigh`` gives. Each value is checked against the public calls, which
    decompose the iterate afresh: the objective and the Hilbert step to
    1e-12 relative, and the residual to 1e-12 of the objective.
    """
    sp = as_exponent(p)

    def ratio(a):
        image = psd_spectrum(phi.apply(a)).eigenvalues
        return _spectrum_norm(image, q) / _spectrum_norm(psd_spectrum(a).eigenvalues, p)

    def evaluated(a, dec, j_p):
        step = power_step(phi, a, p, q)
        value = step.image_norm / _spectrum_norm(dec.eigenvalues, p)
        residual = float(np.linalg.norm(step.pullback - value * j_p))
        assert value == pytest.approx(ratio(a), rel=1e-12)
        assert abs(residual - critical_point_residual(phi, a, p, q)) <= 1e-12 * value
        return step, value, residual

    n = phi.input_dim
    a = default_start(n, p)
    dec = EigDecomp(np.full(n, a[0, 0].real), np.eye(n, dtype=np.complex128))
    assert dec.eigenvalues.tobytes() == _psd_spectrum(a).eigenvalues.tobytes()
    step, value, residual = evaluated(a, dec, _duality_map(dec, sp))
    rows = [TraceRow(0, value, math.nan, math.nan, residual)]
    for k in range(1, iterations + 1):
        nxt, nxt_dec = step.iterate, step.spectrum
        hilbert_step = _hilbert_distance(nxt_dec, dec).value
        assert hilbert_step == pytest.approx(hilbert_distance(nxt, a).value,
                                             rel=1e-12, abs=1e-12)
        assert nxt_dec.eigenvalues[-1] >= np.finfo(float).tiny
        pullback_norm = _spectrum_norm(_psd_spectrum(step.pullback).eigenvalues, sp.p_star)
        step, value, residual = evaluated(nxt, nxt_dec, step.pullback / pullback_norm)
        rows.append(TraceRow(k, value, hilbert_step, float(np.linalg.norm(nxt - a)),
                             residual))
        a, dec = nxt, nxt_dec
    return rows, a


class TestReplay:
    """``run_power_method`` applies the map once per iteration and takes each
    iterate's spectrum from the step that built it; the values it records
    are bit for bit those of the public ``power_step`` calls, its residuals
    those of consecutive pull-backs. Its iterates,
    statuses and Frobenius steps are bit for bit those of the loop that
    applied the map twice and decomposed every iterate."""

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("n,k,seed", [(2, 3, 0), (3, 3, 1), (4, 2, 2), (5, 5, 3)])
    def test_rows_and_maximizer_bitwise(self, n, k, seed, p, q):
        phi = random_cpmap(n, n, k, seed)
        res = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        rows, a = _replay(phi, p, q, res.iterations)
        # repr is exact for floats, and unlike == it matches nan with nan
        assert repr(res.trace.rows) == repr(tuple(rows))
        assert res.maximizer.tobytes() == a.tobytes()

    @pytest.mark.filterwarnings("ignore::cpnorm.errors.KrausRedundancyWarning")
    @settings(max_examples=40)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        high=st.floats(1.5, 6.0),
        low=st.floats(1.2, 1.45),
        p_above_q=st.booleans(),
    )
    def test_matches_two_apply_loop_bitwise(self, n, k, seed, high, low, p_above_q):
        p, q = (high, low) if p_above_q else (low, high)
        phi = random_cpmap(n, n, k, seed)
        config = PowerConfig(p=p, q=q, max_iter=300, with_contraction=False)
        res = run_power_method(phi, config)
        table, maximizer, status, reason = two_apply_power_method(phi, config)
        ours = res.trace.table
        # the iteration counts and Frobenius steps are bitwise
        assert ours[:, [0, 3]].tobytes() == table[:, [0, 3]].tobytes()
        assert res.maximizer.tobytes() == maximizer.tobytes()
        assert (res.status, res.trace.termination_reason) == (status, reason)
        # The objectives, read off the carried spectra, agree with the
        # decomposed ones. The Hilbert steps and residuals need not: once an
        # iterate nearly loses rank, its decomposition resolves no eigenvalue
        # below about 1e-16 of the largest, and the log and J_p magnify that.
        np.testing.assert_allclose(ours[:, 1], table[:, 1], rtol=1e-12, atol=0)

