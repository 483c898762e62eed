"""Brute-force verification oracles for the p->q norm at desk scale.

The main oracle maximizes the defining ratio directly by projected ascent
over the real parameterization of Hermitian matrices, with gradients taken
by central finite differences of the objective. It never touches the
duality-map machinery, so its failures are independent of the power
iteration it cross-checks. A spectral-grid reduction handles maps that
preserve diagonality, and the classical nonnegative-matrix power iteration
is included for embedding cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import subseed
from .errors import DegenerateMap, DeskScaleExceeded, InvalidInput, NotApplicable, NotPsd
from .cpmap import CPMap
from .hermitian import random_hermitian, random_psd
from .hilbert import hilbert_distance
from .power import NormResult, default_start
from .schatten import as_exponent, schatten_norm

DESK_SCALE_LIMIT = 6


class OracleMethod(Enum):
    PROJECTED_ASCENT = "projected_ascent"
    SPECTRAL_GRID = "spectral_grid"


@dataclass(frozen=True, eq=False)
class OracleResult:
    best_value: float
    best_point: np.ndarray
    restarts: int
    budget_used: int
    method: OracleMethod
    best_from_psd_starts: float | None = None
    best_from_hermitian_starts: float | None = None


def _herm_to_vec(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    iu = np.triu_indices(n, 1)
    return np.concatenate([a.diagonal().real, a[iu].real, a[iu].imag])


def _vec_to_herm(theta: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(a, theta[:n])
    iu = np.triu_indices(n, 1)
    off = iu[0].size
    vals = theta[n : n + off] + 1j * theta[n + off :]
    a[iu] = vals
    a[(iu[1], iu[0])] = vals.conj()
    return a


def _central_grad(g, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (g(xp) - g(xm)) / (2.0 * h)
    return grad


def _hill_climb(g, project, x0, evals_left):
    x = project(x0)
    fx = g(x)
    step = 0.25
    dim = x.size
    while evals_left() > 2 * dim + 1 and step > 1e-9:
        grad = _central_grad(g, x)
        norm = np.linalg.norm(grad)
        if norm == 0:
            break
        cand = project(x + (step / norm) * grad)
        fc = g(cand)
        if fc > fx:
            x, fx = cand, fc
            step *= 1.4
        else:
            step *= 0.5
    return x, fx


def oracle_max(phi: CPMap, p, q, budget: int = 4000, seed=0) -> OracleResult:
    """Estimate the norm by direct maximization of the defining ratio.

    Multi-start projected ascent on the n^2 real coordinates of a Hermitian
    matrix, each accepted step re-projected to the unit Schatten-p sphere.
    Restarts are drawn from the PSD cone and from the full Hermitian space
    (the default start I/n^(1/p) is always evaluated), and the best candidate
    of each family gets a quasi-Newton polish with central-difference
    gradients. Deterministic for a fixed seed and budget.

    ``budget`` caps the number of objective evaluations, approximately; the
    actual count is reported in the result.
    """
    n = phi.input_dim
    if n > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"oracle is limited to n <= {DESK_SCALE_LIMIT}, got n = {n}"
        )
    if budget < 1:
        raise InvalidInput("budget must be at least 1")
    from scipy import optimize

    sp = as_exponent(p)
    sq = as_exponent(q)
    dim = n * n
    used = 0

    def ratio(a: np.ndarray) -> float:
        nonlocal used
        used += 1
        nrm = schatten_norm(a, sp.p)
        if nrm == 0.0:
            return 0.0
        return schatten_norm(phi.apply(a), sq.p) / nrm

    def g(theta: np.ndarray) -> float:
        return ratio(_vec_to_herm(theta, n))

    def project(theta: np.ndarray) -> np.ndarray:
        a = _vec_to_herm(theta, n)
        nrm = schatten_norm(a, sp.p)
        if nrm == 0.0:
            return theta
        return _herm_to_vec(a / nrm)

    starts = [("psd", default_start(n, sp))]
    for i in range(3):
        starts.append(("psd", random_psd(n, n, subseed(seed, "oracle-psd", i))))
    for i in range(3):
        starts.append(("herm", random_hermitian(n, subseed(seed, "oracle-herm", i))))

    best = {"psd": (-math.inf, None), "herm": (-math.inf, None)}
    per_start = max(1, int(0.4 * budget) // len(starts))
    for family, a0 in starts:
        cap = used + per_start
        x, fx = _hill_climb(g, project, _herm_to_vec(a0), lambda: cap - used)
        if fx > best[family][0]:
            best[family] = (fx, x)

    for family in ("psd", "herm"):
        fx, x = best[family]
        if x is None:
            continue
        remaining = max(0, budget - used) // 2
        maxiter = remaining // (2 * dim + 6)
        if maxiter >= 2:
            res = optimize.minimize(
                lambda t: -g(t),
                x,
                jac=lambda t: -_central_grad(g, t),
                method="BFGS",
                options={"maxiter": maxiter, "gtol": 1e-12},
            )
            cand = project(res.x)
            fc = g(cand)
            if fc > fx:
                best[family] = (fc, cand)

    family_values = {f: best[f][0] for f in ("psd", "herm")}
    winner = max(("psd", "herm"), key=lambda f: family_values[f])
    theta = best[winner][1]
    point = _vec_to_herm(theta, n)
    point = point / schatten_norm(point, sp.p)
    return OracleResult(
        best_value=ratio(point),
        best_point=point,
        restarts=len(starts),
        budget_used=used,
        method=OracleMethod.PROJECTED_ASCENT,
        best_from_psd_starts=family_values["psd"],
        best_from_hermitian_starts=family_values["herm"],
    )


def spectral_grid_max(phi: CPMap, p, q, grid: int = 64, seed=0) -> OracleResult:
    """Exact-reduction oracle for maps that send diagonals to diagonals.

    For such maps the maximizer can be taken diagonal with a nonnegative
    spectrum. Scaled so that its largest entry is 1, that spectrum lies on
    one of the n faces of the unit cube that touch the all-ones corner, so
    the grid covers each face in turn: n * grid^(n-1) points. The grid search
    is followed by a local simplex refinement. Raises ``NotApplicable`` if
    random diagonal probes produce non-diagonal images.
    """
    n = phi.input_dim
    if n > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"oracle is limited to n <= {DESK_SCALE_LIMIT}, got n = {n}"
        )
    sp = as_exponent(p)
    sq = as_exponent(q)
    rng = subseed(seed, "spectral-grid")
    for _ in range(3):
        d = rng.uniform(-1.0, 1.0, size=n)
        image = phi.apply(np.diag(d).astype(np.complex128))
        off = image - np.diag(np.diag(image))
        if np.linalg.norm(off) > 1e-10 * max(1.0, np.linalg.norm(image)):
            raise NotApplicable("map does not preserve diagonality")

    used = 0

    def value_of(x: np.ndarray):
        nonlocal used
        used += 1
        lam = np.abs(x)
        nrm = np.linalg.norm(lam, ord=sp.p)
        if nrm == 0.0:
            return -math.inf, lam
        lam = lam / nrm
        return schatten_norm(phi.apply(np.diag(lam).astype(np.complex128)), sq.p), lam

    best_value, best_lam = value_of(np.ones(n))
    best_x = np.ones(n)
    if n > 1:
        axes_count = n - 1
        grid = max(2, min(grid, int(round((200000 / n) ** (1.0 / axes_count)))))
        axis = np.linspace(0.0, 1.0, grid)
        for face in range(n):
            for idx in np.ndindex((grid,) * axes_count):
                x = np.insert(axis[list(idx)], face, 1.0)
                val, lam = value_of(x)
                if val > best_value:
                    best_value, best_x, best_lam = val, x, lam

        from scipy import optimize

        res = optimize.minimize(
            lambda t: -value_of(t)[0],
            best_x,
            method="Nelder-Mead",
            options={"maxiter": 400 * n, "xatol": 1e-12, "fatol": 1e-14},
        )
        val, lam = value_of(res.x)
        if val > best_value:
            best_value, best_lam = val, lam
    return OracleResult(
        best_value=best_value,
        best_point=np.diag(best_lam).astype(np.complex128),
        restarts=1,
        budget_used=used,
        method=OracleMethod.SPECTRAL_GRID,
        best_from_psd_starts=best_value,
    )


def classical_pq_norm(a, p, q, tol: float = 1e-12, max_iter: int = 10000):
    """Vector p->q norm of an entrywise nonnegative matrix by power iteration.

    Iterates x -> normalize( (A^T (A x)^(q-1))^(1/(p-1)) ) on nonnegative
    unit-l^p vectors and returns (norm value, maximizing vector).
    """
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2:
        raise InvalidInput(f"expected a 2-d matrix, got shape {mat.shape}")
    if np.any(mat < 0) or not np.all(np.isfinite(mat)):
        raise InvalidInput("matrix must be entrywise nonnegative and finite")
    sp = as_exponent(p)
    sq = as_exponent(q)
    n = mat.shape[1]
    x = np.ones(n) / n ** (1.0 / sp.p)
    for _ in range(max_iter):
        y = mat @ x
        if not np.any(y > 0):
            raise DegenerateMap("matrix annihilates the positive cone")
        z = (mat.T @ y ** (sq.p - 1.0)) ** (1.0 / (sp.p - 1.0))
        z = z / np.linalg.norm(z, ord=sp.p)
        if np.max(np.abs(z - x)) <= tol:
            x = z
            break
        x = z
    return float(np.linalg.norm(mat @ x, ord=sq.p)), x


@dataclass(frozen=True, eq=False)
class CrossValidation:
    """Agreement report between the power method and the oracle."""

    status: str
    certified: bool
    power_value: float
    oracle_value: float
    difference: float
    tol: float
    maximizer_distance: float | None
    messages: tuple[str, ...]


def cross_validate(
    power: NormResult, oracle: OracleResult, tol: float = 1e-4
) -> CrossValidation:
    """Compare a power-method result against an oracle result.

    PASS when the values agree within ``tol``. A disagreement is a FAIL when
    the power run carried a contraction certificate (the oracle must then
    neither beat nor trail the converged estimate) and a WARN otherwise,
    since without the certificate the power method is only a lower bound.
    """
    certified = bool(power.contraction is not None and power.contraction.step_certified)
    difference = float(oracle.best_value - power.norm_estimate)
    messages = []
    if abs(difference) <= tol:
        status = "PASS"
    elif certified:
        status = "FAIL"
        if difference > 0:
            messages.append(
                "oracle beat the certified power estimate by "
                f"{difference:.3e}; the power iteration missed the maximum"
            )
        else:
            messages.append(
                f"oracle trails the power estimate by {-difference:.3e}; "
                "the oracle budget is likely too small"
            )
    else:
        status = "WARN"
        messages.append(
            "estimates disagree in an uncertified regime "
            f"(difference {difference:.3e})"
        )

    maximizer_distance = None
    try:
        d = hilbert_distance(power.maximizer, oracle.best_point)
        if d.same_part:
            maximizer_distance = d.value
    except NotPsd:
        pass

    return CrossValidation(
        status=status,
        certified=certified,
        power_value=float(power.norm_estimate),
        oracle_value=float(oracle.best_value),
        difference=difference,
        tol=float(tol),
        maximizer_distance=maximizer_distance,
        messages=tuple(messages),
    )
