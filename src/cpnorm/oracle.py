"""Brute-force verification oracles for the p->q norm at desk scale.

The main oracle maximizes the defining ratio F(X) = ||phi(X)||_q / ||X||_p
directly, by a projected quasi-Newton (BFGS) ascent over the real
parameterization of Hermitian matrices, indefinite ones included. Its
gradients are exact: the spectral gradients of the two Schatten norms,
combined through one map application and one adjoint application per
evaluation. It computes them on its own eigendecompositions and never
touches the duality-map machinery or the hermitian kernels, so its failures
are independent of the power iteration it cross-checks. The seven starts of
the ascent run in lock-step rounds (``_round``). A round builds each
candidate's matrix once and makes three stacked calls: one ``eigh`` of the
matrices, which gives both the projection to the unit Schatten-p sphere and
the gradient of the p-norm, since F and the spectral gradients are scale
invariant; one ``eigh`` of their images; and one ``CPMap._adjoint_apply``
on their symmetrized image gradients, the whole stack when every candidate
applied the map. Each evaluation makes one public ``phi.apply``, on the
candidate's matrix itself. Each start keeps its own inverse-Hessian
approximation, updated in the O(d^2) rank-two form, step, budget share and
stop rule, and stacking changes no bit of any start's path. A start stops
when the first-order gain of its next step falls to the rounding floor of
F, 4 eps F, and the ascent runs on values and gradients times one exact
power of two, so its path and its stops do not depend on the scale of the
map. A spectral grid searches the diagonal inputs of maps that preserve
diagonality, on the vector map lam -> M lam that they restrict to, and the
same ascent over all Hermitian X, on the map kernel, refines it.
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
# a step of the ascent whose first-order gain g'step is at most this times F
# cannot raise F in floating point
_ROUNDING_FLOOR = 4.0 * np.finfo(float).eps
_CLASSICAL_TOL = 1e-12
_CLASSICAL_MAX_ITER = 10000


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


def require_desk_scale(n: int) -> None:
    """Raise ``DeskScaleExceeded`` for an input dimension n beyond the
    oracles' reach."""
    if n > DESK_SCALE_LIMIT:
        raise DeskScaleExceeded(
            f"oracle is limited to n <= {DESK_SCALE_LIMIT}, got n = {n}"
        )


def _spectral_grad(vals: np.ndarray, vecs: np.ndarray, scale: np.ndarray,
                   r: float) -> np.ndarray:
    """U sign(L) (|L|/s)^(r-1) U^dag for each Y = U L U^dag of a stack with
    its ``scale`` s: with s = ||Y||_r, the gradient of ||.||_r at Y.

    The gradient of a unitarily invariant norm is the same function applied
    to the spectrum, with the eigenvectors kept (Lewis, "Derivatives of
    spectral functions", Math. Oper. Res. 21, 1996). It is invariant under
    scaling Y, and an infinite s gives the zero matrix.
    """
    weights = np.sign(vals) * (np.abs(vals) / scale[:, None]) ** (r - 1.0)
    return (vecs * weights[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _round(phi: CPMap, apply, p: float, q: float, theta: np.ndarray):
    """Project each candidate of a round, a row of the (B, n^2) stack
    ``theta``, to the unit Schatten-p sphere, and evaluate F and dF/dtheta
    at the projected point.

    One stacked ``eigh`` of the candidates A gives ||A||_p, which scales the
    row to x = theta / ||A||_p, and the spectral gradient G_p(A). F and G_r
    are scale invariant, so F(x) = F(A) = ||phi(A)||_q / ||A||_p, and at x,
    where ||x||_p = 1, the gradient of F over Hermitian matrices is
    M = phi^*(G_q(phi(A))) - F(A) G_p(A); the theta-gradient is
    [diag M, 2 Re M_iu, 2 Im M_iu]. Each candidate makes one ``apply``
    (``phi.apply`` or its kernel) on A itself, which is exactly Hermitian,
    the images one stacked ``eigh``, and the round one ``phi._adjoint_apply``
    on the stack of their image gradients, each made exactly Hermitian as
    ``adjoint_apply`` would: the whole stack when every candidate applied
    the map.

    A zero candidate keeps its row, and one whose norm overflows becomes the
    zero row; both get F = 0 and a zero gradient without a map application.
    Returns (rows, values, gradients, applied), where ``applied`` marks the
    rows that applied the map.
    """
    n, m = phi.input_dim, phi.output_dim
    a = _vec_to_herm(theta, n)
    vals, vecs = np.linalg.eigh(a)
    nrm = _lr_norm(vals, p)
    applied = (0.0 < nrm) & (nrm < math.inf)
    rows = theta / np.where(nrm == 0.0, 1.0, nrm)[:, None]
    images = np.zeros((len(a), m, m), dtype=np.complex128)
    for i in np.flatnonzero(applied).tolist():
        images[i] = apply(a[i])
    image_vals, image_vecs = np.linalg.eigh(images)
    image_nrm = _lr_norm(image_vals, q)
    g_out = _spectral_grad(image_vals, image_vecs,
                           np.where(image_nrm == 0.0, math.inf, image_nrm), q)
    if applied.all():
        pulled = phi._adjoint_apply(hermitian_part(g_out))
    else:
        pulled = np.zeros_like(a)
        pulled[applied] = phi._adjoint_apply(hermitian_part(g_out[applied]))
    # an infinite scale gives the rows that applied no map F = 0 and G_p = 0
    scale = np.where(applied, nrm, math.inf)
    values = image_nrm / scale
    grads = _herm_to_vec(pulled - values[:, None, None] * _spectral_grad(vals, vecs, scale, p))
    grads[:, n:] *= 2.0
    return rows, values, grads, applied


def _bfgs_update(h: np.ndarray, s: np.ndarray, y: np.ndarray, sy: float) -> np.ndarray:
    """The BFGS update of the inverse-Hessian approximation ``h`` for the
    step ``s``, the gradient change ``y`` and their product ``sy`` > 0.

    (I - rho s y') H (I - rho y s') + rho s s' (Nocedal and Wright, eq. 6.17)
    with rho = 1/sy, in the rank-two form H + s u' + u s' with
    u = rho (1 + rho y'Hy) s / 2 - rho H y: O(d^2) where the product form is
    O(d^3). The result is exactly symmetric when ``h`` is.
    """
    rho = 1.0 / sy
    hy = h @ y
    u = (0.5 * rho * (1.0 + rho * float(y @ hy))) * s - rho * hy
    w = np.outer(s, u)
    return h + (w + w.T)


def _ascend(evaluate, thetas: np.ndarray, per_start: int):
    """Projected quasi-Newton ascent from each row of ``thetas``, all rows in
    lock-step, each capped at ``per_start`` evaluations.

    The ascent runs on the values and gradients of ``evaluate`` times 2^e,
    one power of two that brings the largest value of the first round into
    [0.5, 1). That scaling is exact, so it changes no bit of the path, and
    g'g, y'y and g'step neither overflow nor underflow at any map scale.
    Every row keeps its own BFGS approximation H of the inverse Hessian of -F
    (``_bfgs_update``) and proposes project(x + alpha H g). H starts as
    (0.25/||g||) I, so the first trial step has length 0.25 along the
    gradient, and is rescaled to (s'y/y'y) I at the first gain with s'y > 0
    (Nocedal and Wright, eq. 6.20), where y = g_old - g_new; an update with
    s'y <= 0 is skipped. alpha halves on a loss and doubles, up to 1, on a
    gain. The first loss of a row also restarts H: its next gain with
    s'y > 0 rescales H to (s'y/y'y) I again, which discards the model of the
    early steps. Later losses only halve alpha; restarting at each of them
    would throw away the model that a slowly converging row needs. A row
    stays active while more than one of its evaluations is left and the
    first-order gain g'step of its proposed step exceeds 4 eps F(x): below
    that rounding floor no step can raise F, and a zero gradient never
    steps. Each round, the active rows propose one candidate each, which
    ``evaluate`` projects and evaluates as one stack (``_round``), so every
    row follows the path it would follow alone.
    Returns the final points, their values and the number of map
    applications made, counted from the ``applied`` flags of ``evaluate``:
    the only count of evaluations behind either oracle's ``budget_used``.
    """
    x, fx, gx, applied = evaluate(thetas)
    shift = -math.frexp(float(fx.max()))[1]
    fx = [math.ldexp(f, shift) for f in fx.tolist()]
    # C order: a dot product of a strided row rounds differently
    gx = np.ldexp(gx, shift, order="C")
    evals = applied.astype(int).tolist()
    eye = np.eye(x.shape[1])
    # math.sqrt(g @ g) has the bits of np.linalg.norm(g) on a real vector
    inv_hess = [eye * (0.25 / g if g else 1.0) for g in (math.sqrt(r @ r) for r in gx)]
    rescaled = [False] * len(x)
    rejected = [False] * len(x)
    alpha = [1.0] * len(x)
    active = list(range(len(x)))
    while True:
        steps = {}
        for i in active:
            if per_start - evals[i] > 1:
                step = alpha[i] * (inv_hess[i] @ gx[i])
                if float(gx[i] @ step) > _ROUNDING_FLOOR * fx[i]:
                    steps[i] = step
        active = list(steps)
        if not active:
            return x, [math.ldexp(f, -shift) for f in fx], sum(evals)
        cand, fc, gc, applied = evaluate(x[active] + np.array(list(steps.values())))
        fc = [math.ldexp(f, shift) for f in fc.tolist()]
        gc = np.ldexp(gc, shift, order="C")
        for j, (i, ok) in enumerate(zip(active, applied.tolist())):
            evals[i] += ok
            if fc[j] <= fx[i]:
                alpha[i] *= 0.5
                if not rejected[i]:
                    rejected[i] = True
                    rescaled[i] = False
                continue
            s, y = cand[j] - x[i], gx[i] - gc[j]
            sy = float(s @ y)
            if sy > 0.0:
                if not rescaled[i]:
                    inv_hess[i] = eye * (sy / float(y @ y))
                    rescaled[i] = True
                inv_hess[i] = _bfgs_update(inv_hess[i], s, y, sy)
            x[i], fx[i], gx[i] = cand[j], fc[j], gc[j]
            alpha[i] = min(1.0, 2.0 * alpha[i])


def oracle_max(phi: CPMap, p, q, budget: int = 4000, seed=0) -> OracleResult:
    """Estimate the norm by direct maximization of the defining ratio.

    Multi-start projected quasi-Newton ascent (``_ascend``) on the n^2 real
    coordinates of a Hermitian matrix, each step re-projected to the unit
    Schatten-p sphere. Starts are drawn from the PSD cone and from the full
    Hermitian space (the default start I/n^(1/p) is always evaluated); the
    best start wins, a PSD one on a tie.
    Gradients are exact: the spectral gradients of both norms, pulled back
    through the adjoint map, on the oracle's own eigendecompositions.
    Deterministic for a fixed seed and budget.

    The seven ascents run in lock-step rounds: each round, every start that
    is still active proposes one candidate, and the candidates share one
    stacked ``eigh``, which projects them and gives the gradient of the
    p-norm, one stacked ``eigh`` of their images and one stacked adjoint
    application (``_round``). Each start keeps its own inverse-Hessian
    approximation, step, budget share and stop rule, so it follows the path
    it would follow alone. A start restarts its approximation once, at the
    next gain after its first rejected step, and keeps its step length
    across gains, doubling it up to 1 instead of resetting it. Each
    evaluation makes one public ``phi.apply``.

    ``budget`` caps the number of map applications: each start gets an equal
    share of ``budget // 7`` evaluations, and at least one, so that
    ``budget_used``, the exact number of applications, which ``_ascend``
    counts, is at most ``max(budget, 7)``. A start that reaches the rounding
    floor of F stops early and leaves the rest of its share unused. Adjoint
    applications, one per gradient, are not counted. The steps and the stop
    rule do not depend on the scale of the map, so scaling the map by c
    scales ``best_value`` by c, to rounding, across the float range.
    """
    n = phi.input_dim
    require_desk_scale(n)
    require_count(budget, "budget")

    sp = as_exponent(p)
    sq = as_exponent(q)
    # the four PSD starts come first, so a tie goes to a PSD point
    starts = [default_start(n, sp)]
    starts += [random_psd(n, n, subseed(seed, "oracle-psd", i)) for i in range(3)]
    starts += [random_hermitian(n, subseed(seed, "oracle-herm", i)) for i in range(3)]
    points, values, used = _ascend(functools.partial(_round, phi, phi.apply, sp.p, sq.p),
                                   _herm_to_vec(np.stack(starts)),
                                   max(1, budget // len(starts)))
    best = int(np.argmax(values))
    return OracleResult(
        best_value=values[best],
        best_point=_vec_to_herm(points[best], n),
        restarts=len(starts),
        budget_used=used,
        method=OracleMethod.PROJECTED_ASCENT,
        best_from_psd_starts=max(values[:4]),
        best_from_hermitian_starts=max(values[4:]),
    )


def spectral_grid_max(phi: CPMap, p, q, grid: int = 64) -> OracleResult:
    """Spectral-grid oracle for maps that send diagonals to diagonals.

    Such a map sends each basis projector E_jj to a diagonal image (else
    ``NotApplicable``), and phi(diag(lam)) = diag(M lam) with M[i, j] =
    phi(E_jj)_ii. Scaled to largest entry 1, a nonnegative lam lies on one
    of the n faces of the unit cube that touch the all-ones corner. The grid
    takes the corner, then each face's grid^(n-1) points as one array
    expression ||M lam||_q / ||lam||_p; ties keep the earlier point.
    ``oracle_max``'s ascent, over all Hermitian X, refines the best point
    with 400 n evaluations; ``budget_used`` counts them and the n projectors.
    Diagonal X suffice when phi(E_jk) = 0 for j != k (pinching does not
    raise ||X||_p) and for unitarily covariant maps; otherwise, as for
    phi(X) = (1'X1) E_11, the ascent leaves the diagonal, and the result of
    its one start is a lower bound, as ``oracle_max``'s is.
    """
    require_count(grid, "grid")
    n = phi.input_dim
    require_desk_scale(n)
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
    lam = np.ones(n) / np.linalg.norm(np.ones(n), ord=sp.p)
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
                lam = points[i] / np.linalg.norm(points[i], ord=sp.p)
    best = _herm_to_vec(np.diag(lam)[None])[0]
    if n > 1:
        points, values, evals = _ascend(functools.partial(_round, phi, phi._apply, sp.p, sq.p),
                                        best[None], 400 * n)
        used += evals
        if values[0] > best_value:
            best_value, best = values[0], points[0]
    return OracleResult(
        best_value=best_value,
        best_point=_vec_to_herm(best, n),
        restarts=1,
        budget_used=used,
        method=OracleMethod.SPECTRAL_GRID,
        best_from_psd_starts=best_value,
    )


def classical_pq_norm(a, p, q):
    """Vector p->q norm of an entrywise nonnegative matrix by power iteration.

    Iterates x -> normalize( (A^T (A x)^(q-1))^(1/(p-1)) ) on nonnegative
    unit-l^p vectors, from the flat vector, until no entry moves by more
    than 1e-12 or for at most 10000 steps, and returns (norm value,
    maximizing vector). It iterates on A / 2^e, whose largest entry lies in
    [1/2, 1), so no power of an iterate overflows or underflows, and scales
    the value back by 2^e: both steps are exact, so the value of 2^t A is
    2^t times that of A, with the same vector. A value beyond the float
    range raises ``InvalidInput``.
    """
    mat = converted(lambda v: np.asarray(v, dtype=np.float64), a, "matrix")
    if mat.ndim != 2:
        raise InvalidInput(f"expected a 2-d matrix, got shape {mat.shape}")
    if np.any(mat < 0) or not np.all(np.isfinite(mat)):
        raise InvalidInput("matrix must be entrywise nonnegative and finite")
    sp = as_exponent(p)
    sq = as_exponent(q)
    shift = math.frexp(float(mat.max(initial=0.0)))[1]
    mat = np.ldexp(mat, -shift)
    n = mat.shape[1]
    x = np.ones(n) / n ** (1.0 / sp.p)
    for _ in range(_CLASSICAL_MAX_ITER):
        y = mat @ x
        if not np.any(y > 0):
            raise DegenerateMap("matrix annihilates the positive cone")
        z = (mat.T @ y ** (sq.p - 1.0)) ** (1.0 / (sp.p - 1.0))
        z = z / np.linalg.norm(z, ord=sp.p)
        if np.max(np.abs(z - x)) <= _CLASSICAL_TOL:
            x = z
            break
        x = z
    try:
        return math.ldexp(float(np.linalg.norm(mat @ x, ord=sq.p)), shift), x
    except OverflowError:
        raise InvalidInput("the norm of this matrix overflows") from None


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

    PASS when the values agree within ``tol`` relative to the power
    estimate, |oracle - power| <= tol |power|, so the check means the same
    at every map scale. A disagreement is a FAIL when
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
    if abs(difference) <= tol * abs(power.norm_estimate):
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
