"""Brute-force verification oracles for the p->q norm at desk scale.

The main oracle maximizes the defining ratio F(X) = ||phi(X)||_q / ||X||_p
directly, by a projected quasi-Newton (BFGS) ascent over the real
parameterization of Hermitian matrices, indefinite ones included. Its
gradients are exact: the spectral gradients of the two Schatten norms,
combined through one map application and one adjoint application per
evaluation. It computes them on its own eigendecompositions and never
touches the duality-map machinery or the hermitian kernels, so its failures
are independent of the power iteration it cross-checks. The seven starts of
the ascent run in lock-step rounds: the candidates of one round are projected
with one stacked ``eigvalsh`` and evaluated with one stacked ``eigh`` of the
points and one of their images, while each start keeps its own
inverse-Hessian approximation, step, budget share and stop rule. The
projection builds each round's matrices once and hands them to the
evaluation with the coordinates (``_project``), bitwise the matrices the
coordinates stand for. Each evaluation makes one public ``phi.apply`` on its
matrix, and the round's pull-backs are one ``CPMap._adjoint_apply`` on the
stack of their symmetrized image gradients, the whole stack when every
candidate applied the map. Stacking changes no bit of any start's path. A
spectral-grid reduction handles maps that preserve diagonality, on the
vector map lam -> M lam that they restrict to, and the same ascent on the
map kernel refines it.
The classical nonnegative-matrix power iteration is included for
embedding cross-checks. The ascent is the module's only optimizer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import converted, require_count, require_tolerance, subseed
from .errors import DegenerateMap, DeskScaleExceeded, InvalidInput, NotApplicable, NotPsd
from .cpmap import CPMap
from .hermitian import hermitian_part, random_hermitian, random_psd
from .hilbert import hilbert_distance
from .power import NormResult, default_start
from .schatten import as_exponent

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
def _flat_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only positions, in a flattened n x n matrix, of the diagonal, of
    the strict upper triangle in row order, and of its mirror."""
    iu, ju = np.triu_indices(n, 1)
    out = (np.arange(n) * (n + 1), iu * n + ju, ju * n + iu)
    for idx in out:
        idx.setflags(write=False)
    return out


def _herm_to_vec(a: np.ndarray) -> np.ndarray:
    """Real coordinates [diag, Re upper, Im upper] of a (..., n, n) stack."""
    n = a.shape[-1]
    diag, upper, _ = _flat_index(n)
    flat = a.reshape(a.shape[:-2] + (n * n,))
    up = flat[..., upper]
    return np.concatenate([flat[..., diag].real, up.real, up.imag], axis=-1)


def _vec_to_herm(theta: np.ndarray, n: int) -> np.ndarray:
    """The (..., n, n) Hermitian stack with coordinates ``theta``."""
    diag, upper, lower = _flat_index(n)
    off = upper.size
    vals = theta[..., n : n + off] + 1j * theta[..., n + off :]
    a = np.empty(theta.shape[:-1] + (n * n,), dtype=np.complex128)
    a[..., diag] = theta[..., :n]
    a[..., upper] = vals
    a[..., lower] = vals.conj()
    return a.reshape(theta.shape[:-1] + (n, n))


def _lr_norm(vals: np.ndarray, r: float) -> np.ndarray:
    """l^r norms of a (B, n) stack of spectra, each scaled by its largest
    magnitude against overflow; 0 for an all-zero spectrum."""
    mag = np.abs(vals)
    top = mag.max(axis=-1)
    sums = ((mag / np.where(top == 0.0, 1.0, top)[:, None]) ** r).sum(axis=-1)
    # The root is a Python float power per spectrum: numpy's array power can
    # round differently in the last bit.
    return np.array([t * s ** (1.0 / r) if t else 0.0
                     for t, s in zip(top.tolist(), sums.tolist())])


def _norm_and_grad(y: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """||Y||_r of each Y of a Hermitian (B, n, n) stack and its gradient
    U sign(L) (|L|/||Y||_r)^(r-1) U^dag.

    The gradient of a unitarily invariant norm is the same function applied
    to the spectrum, with the eigenvectors kept (Lewis, "Derivatives of
    spectral functions", Math. Oper. Res. 21, 1996); at Y = 0 both are 0.
    """
    vals, vecs = np.linalg.eigh(y)
    nrm = _lr_norm(vals, r)
    zero = nrm == 0.0
    scale = np.where(zero, 1.0, nrm)[:, None]
    weights = np.sign(vals) * (np.abs(vals) / scale) ** (r - 1.0)
    grad = (vecs * weights[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    if zero.any():
        grad[zero] = 0.0
    return nrm, grad


def _values_and_grads(phi: CPMap, apply, p: float, q: float, x: np.ndarray):
    """F = ||phi(X)||_q / ||X||_p and dF/dtheta at each X of a Hermitian
    (B, n, n) stack, with one ``apply`` (``phi.apply`` or its kernel) per
    nonzero X and one ``phi._adjoint_apply`` on the stack of their image
    gradients, each made exactly Hermitian as ``adjoint_apply`` would.

    With M = (phi^*(G_q(phi(X))) - F G_p(X)) / ||X||_p the gradient of F
    over Hermitian X, the theta-gradient is [diag M, 2 Re M_iu, 2 Im M_iu].
    At X = 0, where F is undefined, the row gets F = 0 and a zero gradient
    without a map application. Returns (values, gradients, applied), where
    ``applied`` marks the rows that applied the map.
    """
    n, m = phi.input_dim, phi.output_dim
    nrm, g_in = _norm_and_grad(x, p)
    applied = nrm != 0.0
    # a zero X stands for a zero image and a zero pull-back, with F = 0
    image_nrm, g_out = _norm_and_grad(np.stack([
        apply(a) if ok else np.zeros((m, m), dtype=np.complex128)
        for a, ok in zip(x, applied)
    ]), q)
    if applied.all():
        pulled = phi._adjoint_apply(hermitian_part(g_out))
    else:
        pulled = np.zeros_like(x)
        pulled[applied] = phi._adjoint_apply(hermitian_part(g_out[applied]))
    scale = np.where(applied, nrm, 1.0)
    values = image_nrm / scale
    grads = _herm_to_vec((pulled - values[:, None, None] * g_in) / scale[:, None, None])
    grads[:, n:] *= 2.0
    return values, grads, applied


def _project(theta: np.ndarray, n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of a (B, n^2) stack to the unit Schatten-p sphere; a
    zero row stays as it is. Returns the scaled rows and their matrices,
    bitwise ``_vec_to_herm`` of the rows.

    The matrices are the scaled matrices themselves when every norm is
    positive and finite and no off-diagonal coordinate is zero, before or
    after the scaling. A zero part can leave the scaled lower triangle a
    signed zero away from the conjugate of the upper one, so the matrices
    are otherwise rebuilt from the rows.
    """
    a = _vec_to_herm(theta, n)
    nrm = _lr_norm(np.linalg.eigvalsh(a), p)
    if all(0.0 < v < math.inf for v in nrm.tolist()):
        scaled = a / nrm[:, None, None]
        rows = _herm_to_vec(scaled)
        if theta[:, n:].all() and rows[:, n:].all():
            return rows, scaled
    else:
        zero = nrm == 0.0
        scaled = a / np.where(zero, 1.0, nrm)[:, None, None]
        rows = np.where(zero[:, None], theta, _herm_to_vec(scaled))
    return rows, _vec_to_herm(rows, n)


def _row_norms(g: np.ndarray) -> list[float]:
    """The 2-norm of each row of ``g`` as the 1-D ``np.linalg.norm`` gives
    it; ``np.linalg.norm(g, axis=-1)`` rounds differently."""
    return [float(np.linalg.norm(row)) for row in g]


def _ascend(evaluate, project, thetas: np.ndarray, per_start: int):
    """Projected quasi-Newton ascent from each row of ``thetas``, all rows in
    lock-step, each capped at ``per_start`` evaluations.

    Every row keeps its own BFGS approximation H of the inverse Hessian of -F
    (Nocedal and Wright, Numerical Optimization, eqs. 6.17 and 6.20) and
    proposes project(x + alpha H g). H starts as (0.25/||g||) I, so the first
    trial step has length 0.25 along the gradient, and is rescaled once to
    (s'y/y'y) I at the first gain with s'y > 0, where y = g_old - g_new; an
    update with s'y <= 0 is skipped. alpha resets to 1 on a gain and halves
    on a loss. A row stays active while more than one of its evaluations is
    left, its gradient is nonzero and its proposed step exceeds 1e-9. Each
    round, the active rows propose one candidate each, evaluated as one
    stack, so every row follows the path it would follow alone. ``project``
    returns the projected rows and their matrices, and ``evaluate`` takes
    the matrices. Returns the final points and their values.
    """
    x, mats = project(thetas)
    fx, gx, applied = evaluate(mats)
    fx = fx.tolist()
    evals = applied.astype(int).tolist()
    eye = np.eye(x.shape[1])
    inv_hess = [eye * (0.25 / g if g else 1.0) for g in _row_norms(gx)]
    rescaled = [False] * len(x)
    alpha = [1.0] * len(x)
    active = list(range(len(x)))
    while True:
        steps = {}
        for i in active:
            if per_start - evals[i] > 1 and gx[i].any():
                step = alpha[i] * (inv_hess[i] @ gx[i])
                if np.linalg.norm(step) > 1e-9:
                    steps[i] = step
        active = list(steps)
        if not active:
            return x, fx
        cand, mats = project(x[active] + np.stack(list(steps.values())))
        fc, gc, applied = evaluate(mats)
        for j, i in enumerate(active):
            evals[i] += int(applied[j])
            if fc[j] <= fx[i]:
                alpha[i] *= 0.5
                continue
            s, y = cand[j] - x[i], gx[i] - gc[j]
            sy = float(s @ y)
            if sy > 0.0:
                if not rescaled[i]:
                    inv_hess[i] = eye * (sy / float(y @ y))
                    rescaled[i] = True
                rho = 1.0 / sy
                inv_hess[i] = ((eye - rho * np.outer(s, y)) @ inv_hess[i]
                               @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s))
            x[i], fx[i], gx[i] = cand[j], float(fc[j]), gc[j]
            alpha[i] = 1.0


def oracle_max(phi: CPMap, p, q, budget: int = 4000, seed=0) -> OracleResult:
    """Estimate the norm by direct maximization of the defining ratio.

    Multi-start projected quasi-Newton ascent (``_ascend``) on the n^2 real
    coordinates of a Hermitian matrix, each step re-projected to the unit
    Schatten-p sphere. Starts are drawn from the PSD cone and from the full
    Hermitian space (the default start I/n^(1/p) is always evaluated).
    Gradients are exact: the spectral gradients of both norms, pulled back
    through the adjoint map, on the oracle's own eigendecompositions.
    Deterministic for a fixed seed and budget.

    The seven ascents run in lock-step rounds: each round, every start that
    is still active proposes one candidate, and the candidates share one
    stacked projection and stacked eigendecompositions. Each start keeps its
    own inverse-Hessian approximation, step, budget share and stop rule, so
    it follows the path it would follow alone. Each evaluation makes one
    public ``phi.apply``, and each round one stacked adjoint application.

    ``budget`` caps the number of map applications: each start gets an equal
    share of ``budget // 7`` evaluations, and at least one, so that
    ``budget_used``, the exact number of applications, is at most
    ``max(budget, 7)``. Adjoint applications, one per gradient, are not
    counted.
    """
    n = phi.input_dim
    if n > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"oracle is limited to n <= {DESK_SCALE_LIMIT}, got n = {n}"
        )
    require_count(budget, "budget")

    sp = as_exponent(p)
    sq = as_exponent(q)
    used = 0

    def evaluate(x: np.ndarray):
        nonlocal used
        values, grads, applied = _values_and_grads(phi, phi.apply, sp.p, sq.p, x)
        used += int(np.count_nonzero(applied))
        return values, grads, applied

    starts = [("psd", default_start(n, sp))]
    for i in range(3):
        starts.append(("psd", random_psd(n, n, subseed(seed, "oracle-psd", i))))
    for i in range(3):
        starts.append(("herm", random_hermitian(n, subseed(seed, "oracle-herm", i))))

    points, values = _ascend(evaluate, lambda t: _project(t, n, sp.p),
                             _herm_to_vec(np.stack([a for _, a in starts])),
                             max(1, budget // len(starts)))
    best = {"psd": (-math.inf, None), "herm": (-math.inf, None)}
    for (family, _), x, fx in zip(starts, points, values):
        if fx > best[family][0]:
            best[family] = (fx, x)

    winner = max(("psd", "herm"), key=lambda f: best[f][0])
    return OracleResult(
        best_value=best[winner][0],
        best_point=_vec_to_herm(best[winner][1], n),
        restarts=len(starts),
        budget_used=used,
        method=OracleMethod.PROJECTED_ASCENT,
        best_from_psd_starts=best["psd"][0],
        best_from_hermitian_starts=best["herm"][0],
    )


def spectral_grid_max(phi: CPMap, p, q, grid: int = 64) -> OracleResult:
    """Exact-reduction oracle for maps that send diagonals to diagonals.

    Such a map sends each basis projector E_jj to a diagonal image (else
    ``NotApplicable``), and phi(diag(lam)) = diag(M lam) with M[i, j] =
    phi(E_jj)_ii. The maximizer can be taken diagonal with a nonnegative
    spectrum lam; scaled to largest entry 1, lam lies on one of the n faces
    of the unit cube that touch the all-ones corner. The grid takes the
    corner, then each face's grid^(n-1) points as one array expression
    ||M lam||_q / ||lam||_p; ties keep the earlier point. ``_ascend`` over
    diagonal X refines the best point with a share of 400 n evaluations.
    ``budget_used`` counts the n projectors and the ascent's evaluations.
    """
    require_count(grid, "grid")
    n = phi.input_dim
    if n > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"oracle is limited to n <= {DESK_SCALE_LIMIT}, got n = {n}"
        )
    sp = as_exponent(p)
    sq = as_exponent(q)
    projectors = np.zeros((n, n, n), dtype=np.complex128)
    projectors[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    images = phi._apply(projectors)
    diag = images.diagonal(axis1=1, axis2=2)
    off = np.abs(images - diag[:, :, None] * np.eye(phi.output_dim)).max(axis=(1, 2))
    if np.any(off > 1e-10 * np.abs(diag).max(axis=1)):
        raise NotApplicable("map does not preserve diagonality")

    def ratios(points: np.ndarray) -> np.ndarray:
        # each row holds a 1 and no larger entry, so ||x||_p lies in [1, n]
        image = points @ diag.real
        top = image.max(axis=1)
        scaled = image / np.where(top == 0.0, 1.0, top)[:, None]
        return (top * (scaled**sq.p).sum(axis=1) ** (1.0 / sq.p)
                / (points**sp.p).sum(axis=1) ** (1.0 / sp.p))

    best_value = float(ratios(np.ones((1, n)))[0])
    best_lam = np.ones(n) / np.linalg.norm(np.ones(n), ord=sp.p)
    used = n
    if n > 1:
        grid = max(2, min(grid, int(round((200000 / n) ** (1.0 / (n - 1))))))
        axis = np.linspace(0.0, 1.0, grid)
        face = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"),
                        axis=-1).reshape(-1, n - 1)
        for j in range(n):
            points = np.insert(face, j, 1.0, axis=1)
            values = ratios(points)
            i = int(np.argmax(values))
            if values[i] > best_value:
                best_value = float(values[i])
                best_lam = points[i] / np.linalg.norm(points[i], ord=sp.p)

        def evaluate(x: np.ndarray):
            # a zero off-diagonal gradient keeps the ascent on diagonal X
            nonlocal used
            values, grads, applied = _values_and_grads(phi, phi._apply, sp.p, sq.p, x)
            grads[:, n:] = 0.0
            used += int(np.count_nonzero(applied))
            return values, grads, applied

        points, values = _ascend(evaluate, lambda t: _project(t, n, sp.p),
                                 _herm_to_vec(np.diag(best_lam)[None]), 400 * n)
        if values[0] > best_value:
            best_value, best_lam = values[0], points[0, :n]
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
    require_tolerance(tol, "tol", zero_ok=True)
    require_count(max_iter, "max_iter")
    mat = converted(lambda v: np.asarray(v, dtype=np.float64), a, "matrix")
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
    Raises ``InvalidInput`` for a non-finite or negative ``tol``.
    """
    # a NaN or negative tolerance fails every pair, an infinite one passes all
    require_tolerance(tol, "tol", zero_ok=True)
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

    # F(-X) = F(X), and the oracle searches indefinite X too, so its best
    # point may be the negated maximizer.
    point = oracle.best_point
    if np.trace(point).real < 0.0:
        point = -point
    maximizer_distance = None
    try:
        d = hilbert_distance(power.maximizer, point)
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
