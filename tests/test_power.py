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
    ZeroInput,
    TraceRow,
    critical_point_residual,
    default_start,
    depolarizing_channel,
    hilbert_distance,
    identity_channel,
    numerical_rank,
    power_step,
    psd_spectrum,
    random_cpmap,
    run_power_method,
    schatten_norm,
)
from cpnorm.schatten import _spectrum_norm
from helpers import count_calls, well_conditioned_pd


class TestPowerStep:
    def test_depolarizing_one_step(self):
        phi = depolarizing_channel(3)
        a = well_conditioned_pd(3, 1)
        out = power_step(phi, a, 3, 2)
        np.testing.assert_allclose(out, np.eye(3) / 3 ** (1.0 / 3.0), atol=1e-12)

    def test_identity_p2_q2_every_point_fixed(self):
        phi = identity_channel(3)
        a = well_conditioned_pd(3, 2)
        out = power_step(phi, a, 2, 2)
        np.testing.assert_allclose(out, a / np.linalg.norm(a), atol=1e-12)

    def test_output_is_unit_psd(self):
        phi = random_cpmap(3, 2, 3, 0)
        a = well_conditioned_pd(3, 3)
        for _ in range(10):
            a = power_step(phi, a, 2.5, 1.5)
            assert np.linalg.eigvalsh(a)[0] >= -1e-12
            assert schatten_norm(a, 2.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 50.0])
    def test_scale_invariant(self, alpha):
        phi = random_cpmap(2, 2, 3, 1)
        a = well_conditioned_pd(2, 4)
        base = power_step(phi, a, 3, 2)
        assert np.linalg.norm(power_step(phi, alpha * a, 3, 2) - base) <= 1e-10

    def test_fixed_point_of_converged_run(self):
        phi = random_cpmap(3, 3, 3, 2)
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        again = power_step(phi, res.maximizer, 3, 2)
        assert np.linalg.norm(again - res.maximizer) <= 1e-9

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
        from cpnorm import objective

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

    def test_at_most_five_eigensolves_per_full_rank_iteration(self, monkeypatch):
        phi = random_cpmap(4, 4, 3, 21)
        counts = count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
        res = run_power_method(phi, PowerConfig(p=3, q=2, with_contraction=False))
        assert res.iterations >= 5
        # the start's decomposition and that of its image come first
        assert sum(counts.values()) <= 5 * res.iterations + 2

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


def test_results_keep_no_instance_dict():
    """A result is kept per run by callers that collect many; slots keep it small."""
    res = run_power_method(random_cpmap(2, 2, 2, 0), PowerConfig(p=3.0, q=2.0))
    assert not hasattr(res, "__dict__")
    assert not hasattr(res.trace, "__dict__")


def _replay(phi, p, q, iterations):
    """The iteration rebuilt from public functions: trace rows and final iterate."""

    def ratio(a):
        image = psd_spectrum(phi.apply(a)).eigenvalues
        return _spectrum_norm(image, q) / _spectrum_norm(psd_spectrum(a).eigenvalues, p)

    a = default_start(phi.input_dim, p)
    rows = [TraceRow(0, ratio(a), math.nan, math.nan,
                     critical_point_residual(phi, a, p, q))]
    for k in range(1, iterations + 1):
        nxt = power_step(phi, a, p, q)
        rows.append(TraceRow(k, ratio(nxt),
                             hilbert_distance(nxt, a).value,
                             float(np.linalg.norm(nxt - a)),
                             critical_point_residual(phi, nxt, p, q)))
        a = nxt
    return rows, a


class TestReplay:
    """``run_power_method`` shares decompositions between the steps of its
    loop; the values it records are bit for bit those of the public calls."""

    @pytest.mark.parametrize("p,q", [(3.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("n,k,seed", [(2, 3, 0), (3, 3, 1), (4, 2, 2), (5, 5, 3)])
    def test_rows_and_maximizer_bitwise(self, n, k, seed, p, q):
        phi = random_cpmap(n, n, k, seed)
        res = run_power_method(phi, PowerConfig(p=p, q=q, with_contraction=False))
        rows, a = _replay(phi, p, q, res.iterations)
        # repr is exact for floats, and unlike == it matches nan with nan
        assert repr(res.trace.rows) == repr(tuple(rows))
        assert res.maximizer.tobytes() == a.tobytes()
