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
inverse-Hessian approximation, step, budget share and stop rule, and each
evaluation still makes one public ``phi.apply`` and ``phi.adjoint_apply``.
Stacking changes no bit of any start's path. A spectral-grid reduction,
refined by the same ascent, handles maps that preserve diagonality, and the
classical nonnegative-matrix power iteration is included for embedding
cross-checks. The ascent is the module's only optimizer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import require_count, subseed
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


def _values_and_grads(phi: CPMap, p: float, q: float, thetas: np.ndarray):
    """F = ||phi(X)||_q / ||X||_p and dF/dtheta at each X = _vec_to_herm(theta)
    of a (B, n^2) stack, with one ``phi.apply`` and one ``phi.adjoint_apply``
    per nonzero X.

    With M = (phi^*(G_q(phi(X))) - F G_p(X)) / ||X||_p the gradient of F
    over Hermitian X, the theta-gradient is [diag M, 2 Re M_iu, 2 Im M_iu].
    At X = 0, where F is undefined, the row gets F = 0 and a zero gradient
    without a map application. Returns (values, gradients, applied), where
    ``applied`` marks the rows that applied the map.
    """
    n, m = phi.input_dim, phi.output_dim
    x = _vec_to_herm(thetas, n)
    nrm, g_in = _norm_and_grad(x, p)
    applied = nrm != 0.0
    # a zero X stands for a zero image and a zero pull-back, with F = 0
    image_nrm, g_out = _norm_and_grad(np.stack([
        phi.apply(a) if ok else np.zeros((m, m), dtype=np.complex128)
        for a, ok in zip(x, applied)
    ]), q)
    pulled = np.stack([
        phi.adjoint_apply(g) if ok else np.zeros((n, n), dtype=np.complex128)
        for g, ok in zip(g_out, applied)
    ])
    scale = np.where(applied, nrm, 1.0)
    values = image_nrm / scale
    grads = _herm_to_vec((pulled - values[:, None, None] * g_in) / scale[:, None, None])
    grads[:, n:] *= 2.0
    return values, grads, applied


def _project(theta: np.ndarray, n: int, p: float) -> np.ndarray:
    """Scale each row of a (B, n^2) stack to the unit Schatten-p sphere; a
    zero row stays as it is."""
    a = _vec_to_herm(theta, n)
    nrm = _lr_norm(np.linalg.eigvalsh(a), p)
    zero = nrm == 0.0
    scaled = _herm_to_vec(a / np.where(zero, 1.0, nrm)[:, None, None])
    return np.where(zero[:, None], theta, scaled)


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
    stack, so every row follows the path it would follow alone. Returns the
    final points and their values.
    """
    x = project(thetas)
    fx, gx, applied = evaluate(x)
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
        cand = project(x[active] + np.stack(list(steps.values())))
        fc, gc, applied = evaluate(cand)
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
    it follows the path it would follow alone, and each evaluation makes one
    public ``phi.apply`` and one ``phi.adjoint_apply``.

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

    def evaluate(thetas: np.ndarray):
        nonlocal used
        values, grads, applied = _values_and_grads(phi, sp.p, sq.p, thetas)
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


def spectral_grid_max(phi: CPMap, p, q, grid: int = 64, seed=0) -> OracleResult:
    """Exact-reduction oracle for maps that send diagonals to diagonals.

    For such maps the maximizer can be taken diagonal with a nonnegative
    spectrum. Scaled so that its largest entry is 1, that spectrum lies on
    one of the n faces of the unit cube that touch the all-ones corner, so
    the grid covers each face in turn: n * grid^(n-1) points. The best grid
    point is refined by ``_ascend`` over diagonal X, with a share of 400 n
    evaluations. Raises ``NotApplicable`` if random diagonal probes produce
    non-diagonal images.
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
        if np.linalg.norm(off) > 1e-10 * np.linalg.norm(image):
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
    if n > 1:
        axes_count = n - 1
        grid = max(2, min(grid, int(round((200000 / n) ** (1.0 / axes_count)))))
        axis = np.linspace(0.0, 1.0, grid)
        for face in range(n):
            for idx in np.ndindex((grid,) * axes_count):
                val, lam = value_of(np.insert(axis[list(idx)], face, 1.0))
                if val > best_value:
                    best_value, best_lam = val, lam

        def evaluate(thetas: np.ndarray):
            # a zero off-diagonal gradient keeps the ascent on diagonal X
            nonlocal used
            values, grads, applied = _values_and_grads(phi, sp.p, sq.p, thetas)
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


def _require_tol(tol) -> None:
    """Raise ``InvalidInput`` unless the agreement tolerance is finite and
    nonnegative: a NaN or negative one fails every pair, an infinite one
    passes every pair."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInput(f"tol must be finite and nonnegative, got {tol!r}")


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
    _require_tol(tol)
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
