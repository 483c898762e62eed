"""Brute-force verification oracles for the p->q norm at desk scale.

The main oracle maximizes the defining ratio F(X) = ||phi(X)||_q / ||X||_p
directly, by projected gradient ascent and a BFGS polish over the real
parameterization of Hermitian matrices, indefinite ones included. Its
gradients are exact: the spectral gradients of the two Schatten norms,
combined through one map application and one adjoint application per
evaluation. It computes them on its own eigendecompositions and never
touches the duality-map machinery or the hermitian kernels, so its failures
are independent of the power iteration it cross-checks. A spectral-grid
reduction handles maps that preserve diagonality, and the classical
nonnegative-matrix power iteration is included for embedding cross-checks.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the strict upper triangle of an n x n matrix."""
    iu = np.triu_indices(n, 1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


def _herm_to_vec(a: np.ndarray) -> np.ndarray:
    iu = _upper(a.shape[0])
    return np.concatenate([a.diagonal().real, a[iu].real, a[iu].imag])


def _vec_to_herm(theta: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(a, theta[:n])
    iu = _upper(n)
    off = iu[0].size
    vals = theta[n : n + off] + 1j * theta[n + off :]
    a[iu] = vals
    a[(iu[1], iu[0])] = vals.conj()
    return a


def _lr_norm(vals: np.ndarray, r: float) -> float:
    """l^r norm of a spectrum, scaled by its largest magnitude against overflow."""
    mag = np.abs(vals)
    top = float(mag.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sum((mag / top) ** r)) ** (1.0 / r)


def _norm_and_grad(y: np.ndarray, r: float) -> tuple[float, np.ndarray]:
    """||Y||_r of Hermitian Y and its gradient U sign(L) (|L|/||Y||_r)^(r-1) U^dag.

    The gradient of a unitarily invariant norm is the same function applied
    to the spectrum, with the eigenvectors kept (Lewis, "Derivatives of
    spectral functions", Math. Oper. Res. 21, 1996); at Y = 0 both are 0.
    """
    vals, vecs = np.linalg.eigh(y)
    nrm = _lr_norm(vals, r)
    if nrm == 0.0:
        return 0.0, np.zeros_like(y)
    weights = np.sign(vals) * (np.abs(vals) / nrm) ** (r - 1.0)
    return nrm, (vecs * weights) @ vecs.conj().T


def _value_and_grad(phi: CPMap, p: float, q: float, theta: np.ndarray):
    """F = ||phi(X)||_q / ||X||_p at X = _vec_to_herm(theta) and dF/dtheta.

    With M = (phi^*(G_q(phi(X))) - F G_p(X)) / ||X||_p the gradient of F
    over Hermitian X, the theta-gradient is [diag M, 2 Re M_iu, 2 Im M_iu].
    Returns None at X = 0, where F is undefined, without applying the map.
    """
    n = phi.input_dim
    x = _vec_to_herm(theta, n)
    nrm, g_in = _norm_and_grad(x, p)
    if nrm == 0.0:
        return None
    image_nrm, g_out = _norm_and_grad(phi.apply(x), q)
    value = image_nrm / nrm
    m = (phi.adjoint_apply(g_out) - value * g_in) / nrm
    grad = _herm_to_vec(m)
    grad[n:] *= 2.0
    return value, grad


def _hill_climb(fg, project, x0, evals_left):
    """Projected gradient ascent; each step costs one evaluation of ``fg``."""
    x = project(x0)
    fx, gx = fg(x)
    step = 0.25
    while evals_left() > 1 and step > 1e-9:
        norm = np.linalg.norm(gx)
        if norm == 0:
            break
        cand = project(x + (step / norm) * gx)
        fc, gc = fg(cand)
        if fc > fx:
            x, fx, gx = cand, fc, gc
            step *= 1.4
        else:
            step *= 0.5
    return x, fx


def oracle_max(phi: CPMap, p, q, budget: int = 4000, seed=0) -> OracleResult:
    """Estimate the norm by direct maximization of the defining ratio.

    Multi-start projected gradient ascent on the n^2 real coordinates of a
    Hermitian matrix, each step re-projected to the unit Schatten-p sphere.
    Restarts are drawn from the PSD cone and from the full Hermitian space
    (the default start I/n^(1/p) is always evaluated), and the best candidate
    of each family gets a BFGS polish. Gradients are exact: the spectral
    gradients of both norms, pulled back through the adjoint map, on the
    oracle's own eigendecompositions. Deterministic for a fixed seed and
    budget.

    ``budget`` caps the number of map applications, approximately: 40% of it
    is shared among the starts, and each of the two polishes is sized to
    about half of what then remains. Adjoint applications, one per gradient,
    are not counted. ``budget_used`` is the exact number of applications.
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
    used = 0

    def fg(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal used
        out = _value_and_grad(phi, sp.p, sq.p, theta)
        if out is None:
            return 0.0, np.zeros_like(theta)
        used += 1
        return out

    def neg_fg(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = fg(theta)
        return -value, -grad

    def project(theta: np.ndarray) -> np.ndarray:
        a = _vec_to_herm(theta, n)
        nrm = _lr_norm(np.linalg.eigvalsh(a), sp.p)
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
        x, fx = _hill_climb(fg, project, _herm_to_vec(a0), lambda: cap - used)
        if fx > best[family][0]:
            best[family] = (fx, x)

    for family in ("psd", "herm"):
        fx, x = best[family]
        if x is None:
            continue
        remaining = max(0, budget - used) // 2
        maxiter = remaining // 3  # about 3 evaluations per BFGS iteration
        if maxiter >= 2:
            res = optimize.minimize(
                neg_fg,
                x,
                jac=True,
                method="BFGS",
                options={"maxiter": maxiter, "gtol": 1e-12},
            )
            cand = project(res.x)
            fc = fg(cand)[0]
            if fc > fx:
                best[family] = (fc, cand)

    family_values = {f: best[f][0] for f in ("psd", "herm")}
    winner = max(("psd", "herm"), key=lambda f: family_values[f])
    theta = project(best[winner][1])
    return OracleResult(
        best_value=fg(theta)[0],
        best_point=_vec_to_herm(theta, n),
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
