"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -s``
to see the lines as the suite executes.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cpnorm as cp
from helpers import loewner_pair, shared_range_pair, well_conditioned_pd

PQ_GRID = [(3.0, 2.0), (4.0, 2.0), (2.5, 1.5)]
ORACLE_BUDGET = 3000
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


@dataclasses.dataclass(frozen=True)
class Instance:
    index: int
    n: int
    phi: cp.CPMap
    p: float
    q: float
    power: cp.NormResult
    oracle: cp.OracleResult
    certified: bool


@pytest.fixture(scope="session")
def instances():
    """The 20 seeded random maps at the three exponent pairs, with power
    runs, oracle runs, and contraction certificates."""
    out = []
    t0 = time.perf_counter()
    for i in range(20):
        n = 2 + (i % 2)
        phi = cp.random_cpmap(n, n, 3, cp.subseed(1000 + i, "acceptance-map"))
        for p, q in PQ_GRID:
            config = cp.PowerConfig(p=p, q=q)
            power = cp.run_power_method(phi, config)
            oracle = cp.oracle_max(phi, p, q, budget=ORACLE_BUDGET, seed=i)
            out.append(
                Instance(i, n, phi, p, q, power, oracle,
                         power.contraction.step_certified)
            )
    return out, time.perf_counter() - t0


def test_criterion_1_closed_form_norms():
    t0 = time.perf_counter()
    res_id = cp.run_power_method(cp.identity_channel(2), cp.PowerConfig(p=4, q=2))
    t_id = time.perf_counter() - t0
    t0 = time.perf_counter()
    res_dep = cp.run_power_method(cp.depolarizing_channel(3), cp.PowerConfig(p=3, q=2))
    t_dep = time.perf_counter() - t0
    grid_id = cp.spectral_grid_max(cp.identity_channel(2), 4, 2, grid=64)
    grid_dep = cp.spectral_grid_max(cp.depolarizing_channel(3), 3, 2, grid=32)
    err_id = abs(res_id.norm_estimate - 2**0.25)
    err_dep = abs(res_dep.norm_estimate - 3 ** (1.0 / 6.0))
    ok = (
        err_id <= 1e-6
        and err_dep <= 1e-6
        and abs(grid_id.best_value - 2**0.25) <= 1e-6
        and abs(grid_dep.best_value - 3 ** (1.0 / 6.0)) <= 1e-6
        and t_id < 1.0
        and t_dep < 1.0
    )
    report(
        "criterion 1 (closed-form norms)",
        ok,
        f"identity err {err_id:.2e} in {t_id:.2f}s, "
        f"depolarizing err {err_dep:.2e} in {t_dep:.2f}s",
    )


def test_criterion_2_power_vs_oracle(instances):
    runs, elapsed = instances
    worst_certified = 0.0
    worst_excess = -math.inf
    n_certified = 0
    for inst in runs:
        excess = inst.oracle.best_value - inst.power.norm_estimate
        worst_excess = max(worst_excess, excess)
        if inst.certified:
            n_certified += 1
            worst_certified = max(
                worst_certified, abs(inst.power.norm_estimate - inst.oracle.best_value)
            )
    ok = worst_certified <= 1e-4 and worst_excess <= 1e-4 and elapsed < 120.0
    report(
        "criterion 2 (power vs oracle, 20 maps x 3 exponent pairs)",
        ok,
        f"{n_certified}/{len(runs)} certified, worst |diff| {worst_certified:.2e}, "
        f"worst oracle excess {worst_excess:.2e}, total {elapsed:.1f}s",
    )


def test_criterion_3_critical_point_residuals(instances):
    runs, _ = instances
    worst = 0.0
    for inst in runs:
        assert inst.power.status is cp.IterationStatus.CONVERGED
        worst = max(worst, inst.power.trace.rows[-1].residual)
    controls_above = 0
    for i in range(20):
        n = 2 + (i % 2)
        phi = cp.random_cpmap(n, n, 3, cp.subseed(1000 + i, "acceptance-map"))
        point = well_conditioned_pd(n, cp.subseed(i, "negative-control"))
        point = point / cp.schatten_norm(point, 3)
        if cp.critical_point_residual(phi, point, 3, 2) > 1e-3:
            controls_above += 1
    ok = worst <= 1e-8 and controls_above >= 18
    report(
        "criterion 3 (critical-point residuals)",
        ok,
        f"worst converged residual {worst:.2e}, "
        f"negative controls above 1e-3: {controls_above}/20",
    )


def test_criterion_4_banach_contraction_signature(instances):
    runs, _ = instances
    checked = 0
    worst_excess = -math.inf
    for inst in runs:
        if not inst.certified:
            continue
        tau = inst.power.contraction.kappa_step_upper
        rows = inst.power.trace.rows
        for prev, cur in zip(rows[1:], rows[2:]):
            if math.isfinite(prev.hilbert_step) and math.isfinite(cur.hilbert_step):
                checked += 1
                worst_excess = max(
                    worst_excess, cur.hilbert_step - tau * prev.hilbert_step
                )
    ok = checked > 0 and worst_excess <= 1e-9
    report(
        "criterion 4 (Banach contraction signature)",
        ok,
        f"{checked} step pairs, worst excess over tau*d_prev {worst_excess:.2e}",
    )


def test_criterion_5_start_independence(instances):
    runs, _ = instances
    worst_norm_spread = 0.0
    worst_point_spread = 0.0
    for inst in runs:
        if not inst.certified:
            continue
        results = []
        for s in range(5):
            start = well_conditioned_pd(
                inst.n, cp.subseed(7000 + inst.index, "start", s)
            )
            config = cp.PowerConfig(
                p=inst.p, q=inst.q, start=start, with_contraction=False
            )
            results.append(cp.run_power_method(inst.phi, config))
        values = [r.norm_estimate for r in results]
        worst_norm_spread = max(worst_norm_spread, max(values) - min(values))
        for a in results:
            for b in results:
                worst_point_spread = max(
                    worst_point_spread,
                    float(np.linalg.norm(a.maximizer - b.maximizer)),
                )
    ok = worst_norm_spread <= 1e-8 and worst_point_spread <= 1e-6
    report(
        "criterion 5 (start independence, 5 PD starts per certified instance)",
        ok,
        f"norm spread {worst_norm_spread:.2e}, maximizer spread {worst_point_spread:.2e}",
    )


def test_criterion_6_duality_map_identities():
    worst_pairing = worst_unit = worst_involution = worst_gradient = 0.0
    exponents = [1.5, 2.0, 2.5, 3.0, 4.0]
    for i in range(200):
        rng = cp.subseed(i, "duality-suite")
        n = int(rng.integers(2, 5))
        p = exponents[i % len(exponents)]
        exp = cp.dual_exponent(p)
        a = cp.random_psd(n, n, rng)
        j = cp.duality_map(a, exp)
        pairing = abs(cp.frobenius_inner(a, j) - cp.schatten_norm(a, p))
        unit = abs(cp.schatten_norm(j, exp.p_star) - 1.0)
        back = cp.duality_map(j, cp.dual_exponent(exp.p_star))
        involution = float(
            np.linalg.norm(back - a / cp.schatten_norm(a, p))
        )
        ac = well_conditioned_pd(n, rng)
        h = cp.random_hermitian(n, rng)
        eps = 1e-6
        numeric = (
            cp.schatten_norm(ac + eps * h, p) - cp.schatten_norm(ac - eps * h, p)
        ) / (2 * eps)
        gradient = abs(numeric - cp.frobenius_inner(h, cp.duality_map(ac, p)))
        worst_pairing = max(worst_pairing, pairing)
        worst_unit = max(worst_unit, unit)
        worst_involution = max(worst_involution, involution)
        worst_gradient = max(worst_gradient, gradient)
    ok = (
        worst_pairing <= 1e-9
        and worst_unit <= 1e-9
        and worst_involution <= 1e-9
        and worst_gradient <= 1e-5
    )
    report(
        "criterion 6 (duality-map identities, 200 instances)",
        ok,
        f"pairing {worst_pairing:.2e}, unit dual norm {worst_unit:.2e}, "
        f"involution {worst_involution:.2e}, gradient {worst_gradient:.2e}",
    )


def test_criterion_7_hilbert_metric_suite():
    worst_scale = worst_symmetry = worst_triangle = worst_expansion = 0.0
    parts_preserved = True
    for i in range(200):
        rng = cp.subseed(i, "hilbert-suite")
        n = int(rng.integers(2, 5))
        a = well_conditioned_pd(n, rng)
        b = well_conditioned_pd(n, rng)
        c = well_conditioned_pd(n, rng)
        dab = cp.hilbert_distance(a, b).value
        worst_scale = max(
            worst_scale, abs(cp.hilbert_distance(1e-3 * a, 1e3 * b).value - dab)
        )
        worst_symmetry = max(
            worst_symmetry, abs(cp.hilbert_distance(b, a).value - dab)
        )
        worst_triangle = max(
            worst_triangle,
            dab
            - cp.hilbert_distance(a, c).value
            - cp.hilbert_distance(c, b).value,
        )
        phi = cp.random_cpmap(n, n, 3, rng)
        dout = cp.hilbert_distance(phi.apply(a), phi.apply(b)).value
        worst_expansion = max(worst_expansion, dout - dab)
        if n > 2:
            s, t = shared_range_pair(n, n - 1, int(rng.integers(2**31)))
            image = cp.hilbert_distance(phi.apply(s), phi.apply(t))
            parts_preserved = parts_preserved and image.same_part
    ok = (
        worst_scale <= 1e-9
        and worst_symmetry <= 1e-9
        and worst_triangle <= 1e-9
        and worst_expansion <= 1e-9
        and parts_preserved
    )
    report(
        "criterion 7 (Hilbert metric suite, 200 instances)",
        ok,
        f"scale {worst_scale:.2e}, symmetry {worst_symmetry:.2e}, "
        f"triangle {worst_triangle:.2e}, expansion {worst_expansion:.2e}, "
        f"parts preserved {parts_preserved}",
    )


def test_criterion_8_order_and_absolute_value_suites():
    worst_eig = -math.inf
    worst_abs = -math.inf
    for i in range(200):
        rng = cp.subseed(i, "order-suite")
        n = int(rng.integers(2, 5))
        a, b = loewner_pair(n, int(rng.integers(2**31)))
        gap = np.min(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b))
        worst_eig = max(worst_eig, -float(gap))
        phi = cp.random_cpmap(n, n, 3, rng)
        h = cp.random_hermitian(n, rng)
        worst_abs = max(
            worst_abs,
            cp.objective(phi, h, 3, 2) - cp.objective(phi, cp.abs_matrix(h), 3, 2),
        )
    ok = worst_eig <= 1e-9 and worst_abs <= 1e-9
    report(
        "criterion 8 (order monotonicity and |A| dominance, 200 instances)",
        ok,
        f"worst eigenvalue order violation {worst_eig:.2e}, "
        f"worst objective excess over |A| {worst_abs:.2e}",
    )


def test_criterion_9_positively_improving_contraction():
    worst = 0.0
    for s in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cp.KrausRedundancyWarning)
            phi = cp.generate_map(
                3, 3, 3, 4200 + s, kind="positively_improving"
            ).to_cpmap()
        worst = max(worst, cp.sampled_contraction_ratio(phi, pairs=500, seed=s))
    ok = worst <= 0.999
    report(
        "criterion 9 (positively improving maps contract, 10 maps x 500 pairs)",
        ok,
        f"max observed contraction ratio {worst:.6f}",
    )


def test_criterion_10_classical_embedding():
    worst = 0.0
    for s in range(10):
        rng = cp.subseed(900 + s, "classical")
        a = rng.uniform(0.1, 1.1, size=(3, 3))
        phi = cp.embed_nonnegative_matrix(a)
        power = cp.run_power_method(
            phi, cp.PowerConfig(p=4, q=2, with_contraction=False)
        )
        value, _ = cp.classical_pq_norm(a, 4, 2)
        worst = max(worst, abs(power.norm_estimate - value))
    ok = worst <= 1e-6
    report(
        "criterion 10 (classical embedding, 10 nonnegative 3x3 matrices)",
        ok,
        f"worst |embedded - classical| {worst:.2e}",
    )


def test_criterion_11_cli_reproducibility(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "cpnorm", *argv],
            capture_output=True,
            env=env,
            cwd=tmp_path,
        )
        return proc.returncode, proc.stdout

    map_path = tmp_path / "map.json"
    commands = [
        ["gen", "--n", "2", "--m", "2", "--k", "3", "--seed", "11",
         "--out", str(map_path)],
        ["compute", "--map", str(map_path), "--p", "3", "--q", "2", "--seed", "4"],
        ["diagnose", "--map", str(map_path), "--p", "3", "--q", "2",
         "--trials", "8", "--samples", "16", "--seed", "4"],
        ["verify", "--map", str(map_path), "--p", "3", "--q", "2",
         "--budget", "800", "--seed", "4"],
    ]
    identical = True
    for argv in commands:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        identical = identical and code1 == code2 == 0 and out1 == out2
        map_bytes = map_path.read_bytes() if argv[0] == "gen" else None
        if argv[0] == "gen":
            run(argv)
            identical = identical and map_path.read_bytes() == map_bytes
    report(
        "criterion 11 (CLI reproducibility, byte-identical reruns)",
        identical,
        f"{len(commands)} commands run twice each",
    )
