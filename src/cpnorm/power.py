"""The duality-map power iteration for the Schatten p->q norm.

One step sends A to J_{p*}( adjoint(phi)( J_q( phi(A) ) ) ), where J_r is
the gradient of the Schatten r-norm. Fixed points of the step map are
exactly the critical points of the ratio ||phi(A)||_q / ||A||_p, and the
iteration converges to the unique maximizer whenever the step map is a
contraction in the Hilbert projective metric.

``power_step`` applies the map once and returns, with the next iterate
and its spectrum, the image's norm and the pull-back it computed on the
way; with the decomposition of A they give the objective and the
critical-point residual at A. So ``run_power_method`` applies the map once
per iteration, in its one ``power_step`` call, and once more for the start.
J_{p*} is a spectral function, so the step decomposes the pull-back once
and the next iterate's spectrum comes with it: the duality weights and the
pull-back's eigenvectors. Only the start is decomposed on its own. J_q of
the image comes from ``schatten._norm_and_duality``: at q = 2 a Cholesky
factorisation of a positive definite image and the closed form
B / ||B||_F, otherwise an eigensolve. So at full rank an iteration makes
three eigensolves at q != 2, the image and the pull-back inside
``power_step`` and the Hilbert step into the iterate, and two eigensolves
and one factorisation at q = 2. The loop runs on the private kernels,
whose eigenvectors keep ``eigh``'s phases: every matrix it builds from them
(duality maps, reconstructions, ranges) is the same for any choice of
phases. Its cutoffs and its objective stall are relative, so a run on
c * phi takes the same iterations as one on phi and returns c times its
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import CRITICAL_RTOL, require_count, require_tolerance
from .errors import DegenerateMap, DimMismatch, InvalidInput, ZeroInput
from .cpmap import CPMap, _require_dim
from .hermitian import (
    EigDecomp,
    _psd_spectrum,
    _require_finite,
    _spectral_cutoff,
    hermitian_part,
    require_hermitian,
)
from .hilbert import ContractionReport, _hilbert_distance, contraction_report
from .schatten import (
    SchattenExponent,
    _duality_map,
    _duality_weights,
    _norm_and_duality,
    _spectrum_norm,
    as_exponent,
)


class IterationStatus(Enum):
    """How a run ended. ``NOT_CRITICAL``: both convergence criteria held,
    but the critical-point residual exceeds ``CRITICAL_RTOL`` times the
    estimate, so the run settled at a point that is not critical."""

    CONVERGED = "converged"
    NOT_CRITICAL = "not_critical"
    MAX_ITER_REACHED = "max_iter_reached"


@dataclass(frozen=True, eq=False)
class PowerConfig:
    """Parameters of one power-method run.

    Convergence requires both criteria at once: the Frobenius displacement
    of the iterate below ``tol_fixed_point`` and the objective stall
    |f_k - f_{k-1}| below ``tol_objective * |f_k|``. The objective is
    quadratically flat near the maximizer, so it stalls long before the
    iterate settles; requiring both keeps the returned maximizer accurate to
    the displacement tolerance. The trace records which criterion was
    binding. A run that meets both reports ``CONVERGED`` only if its final
    critical-point residual is at most ``config.CRITICAL_RTOL`` times the
    estimate, else ``NOT_CRITICAL``. The default start is I/n^(1/p),
    positive definite and therefore in the same part of the cone as the
    positive definite fixed point whenever one exists. A given start is
    validated and decomposed once, here, and the run reuses both.
    """

    p: float
    q: float
    tol_fixed_point: float = 1e-10
    tol_objective: float = 1e-12
    max_iter: int = 1000
    start: np.ndarray | None = None
    with_contraction: bool = True
    # Not a field, so records and repr leave it out: the validated start and
    # its psd_spectrum, which __post_init__ sets when a start is given.
    _start = None

    def __post_init__(self):
        as_exponent(self.p)
        as_exponent(self.q)
        for tol in (self.tol_fixed_point, self.tol_objective):
            require_tolerance(tol, "tolerances")
        require_count(self.max_iter, "max_iter")
        if self.start is not None:
            mat = require_hermitian(self.start)
            dec = _psd_spectrum(mat)
            if dec.eigenvalues[0] <= 0:
                raise ZeroInput("start matrix must be nonzero")
            object.__setattr__(self, "_start", (mat, dec))


@dataclass(frozen=True)
class TraceRow:
    k: int
    objective: float
    hilbert_step: float
    frobenius_step: float
    residual: float


@dataclass(frozen=True, eq=False, slots=True)
class PowerTrace:
    """Per-iteration rows of one run, held as one read-only (rows, 5) float64
    array whose columns follow the ``TraceRow`` fields; a kept result costs
    one small array rather than a tuple of row objects."""

    table: np.ndarray
    status: IterationStatus
    termination_reason: str | None

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        """The table as ``TraceRow``s of Python ints and floats."""
        return tuple(TraceRow(int(k), *rest) for k, *rest in self.table.tolist())


@dataclass(frozen=True, eq=False, slots=True)
class NormResult:
    norm_estimate: float
    maximizer: np.ndarray
    iterations: int
    trace: PowerTrace
    contraction: ContractionReport | None
    warnings: tuple[str, ...]

    @property
    def status(self) -> IterationStatus:
        return self.trace.status


def default_start(n: int, p) -> np.ndarray:
    """I/n^(1/p): positive definite with unit Schatten-p norm."""
    sp = as_exponent(p)
    return np.eye(n, dtype=np.complex128) / n ** (1.0 / sp.p)


@dataclass(frozen=True, eq=False, slots=True)
class PowerStep:
    """One power step at A.

    ``pullback`` is adjoint(phi)(J_q(phi(A))), ``image_norm`` is
    ||phi(A)||_q, and ``iterate`` is J_{p*}(pullback), the next iterate. With
    the Schatten-p norm of A they give the objective at A,
    ``image_norm / ||A||_p``, and the critical-point residual
    ||pullback - f(A) * J_p(A)||_F, without a second application of the map.
    ``spectrum`` is the iterate's eigendecomposition: the duality weights,
    descending and nonnegative with unit l^p norm, and the pull-back's
    eigenvectors. Unlike ``psd_spectrum``, it keeps ``eigh``'s eigenvector
    phases.
    """

    iterate: np.ndarray
    spectrum: EigDecomp
    image_norm: float
    pullback: np.ndarray


def power_step(phi: CPMap, a, p, q) -> PowerStep:
    """One update of the fixed-point iteration, with the pull-back it computes.

    Makes one application of the map and of its adjoint and decomposes the
    pull-back, which also gives the iterate's spectrum. The image is
    decomposed too, except at q = 2, where one Cholesky factorisation of a
    positive definite image replaces its eigensolve. The iterate is a PSD
    matrix of unit Schatten-p norm, scale invariant in the input. Raises
    ``DegenerateMap`` when the map annihilates the input, since no
    information about the norm can be extracted from that start.
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    image_norm, pullback = _pull_back(phi, phi.apply(a), sq)
    return PowerStep(*_next_iterate(pullback, sp), image_norm, pullback)


def critical_point_residual(phi: CPMap, a, p, q) -> float:
    """Frobenius norm of adjoint(phi)(J_q(phi(A))) - f(A) * J_p(A).

    Zero exactly at critical points of the objective; the input must be PSD
    with unit Schatten-p norm.
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    mat = _require_dim(a, phi.input_dim, "map")
    dec = _psd_spectrum(mat)
    if abs(_spectrum_norm(dec.eigenvalues, sp.p) - 1.0) > 1e-9:
        raise InvalidInput("residual is defined on unit Schatten-p norm matrices")
    return _evaluate(phi, mat, dec, sp, sq)[1]


def _pull_back(phi: CPMap, image: np.ndarray, sq: SchattenExponent
               ) -> tuple[float, np.ndarray]:
    """The Schatten-q norm of an image under the map and its pull-back
    adjoint(phi)(J_q(image)), with J_q from ``schatten._norm_and_duality``:
    one Cholesky factorisation of a positive definite image at q = 2, else
    one ``psd_spectrum``.

    A map with huge Kraus operators overflows to inf, which the kernels
    would not notice, so both matrices are checked for finiteness.
    """
    try:
        image_norm, grad = _norm_and_duality(_require_finite(image), sq)
    except ZeroInput:
        raise DegenerateMap("the map annihilates this point") from None
    return image_norm, _require_finite(phi._adjoint_apply(grad))


def _next_iterate(pullback: np.ndarray, sp: SchattenExponent
                  ) -> tuple[np.ndarray, EigDecomp]:
    """J_{p*} of a pull-back, the iterate that follows the point it was
    pulled back from, and its spectrum: the duality weights with the
    pull-back's eigenvectors, which the iterate is built from.

    Eigenvalues at or below ``_spectral_cutoff`` are zeroed first. Below
    full rank they are rounding noise, which J_{p*} raises to 1/(p-1) < 1
    for p > 2 and so magnifies: the iterate's null space would flicker
    from step to step above the fixed-point tolerance.
    """
    dec = _psd_spectrum(pullback)
    vals = dec.eigenvalues
    cutoff = _spectral_cutoff(vals)
    if vals[-1] <= cutoff:
        vals = np.where(vals > cutoff, vals, 0.0)
    w = _duality_weights(vals, SchattenExponent(sp.p_star, sp.p))
    spectrum = EigDecomp(w, dec.eigenvectors)
    return hermitian_part(spectrum.reconstruct()), spectrum


def _value_and_residual(image_norm: float, pullback: np.ndarray, dec: EigDecomp,
                        sp: SchattenExponent) -> tuple[float, float]:
    """Objective and critical-point residual at a PSD point with spectrum
    ``dec``, from the norm of its image and its pull-back."""
    value = image_norm / _spectrum_norm(dec.eigenvalues, sp.p)
    return value, float(np.linalg.norm(pullback - value * _duality_map(dec, sp)))


def _evaluate(phi: CPMap, a: np.ndarray, dec: EigDecomp, sp: SchattenExponent,
              sq: SchattenExponent) -> tuple[float, float, np.ndarray]:
    """Objective, critical-point residual and pull-back at a trusted PSD
    point ``a`` with ``psd_spectrum`` ``dec``: one application of the map,
    one decomposition of the image and one pull-back serve all three."""
    image_norm, pullback = _pull_back(phi, phi._apply(a), sq)
    return (*_value_and_residual(image_norm, pullback, dec, sp), pullback)


def run_power_method(phi: CPMap, config: PowerConfig) -> NormResult:
    """Iterate the power step until both convergence criteria hold.

    The returned estimate is the objective at the final iterate, so it is
    always a valid lower bound on the norm; it equals the norm when the
    contraction report certifies the step map as a contraction. Runs in the
    p <= q regime carry an explicit warning unless the report certifies the
    step, since no other convergence certificate exists there. Every
    iterate is PSD by construction; an image or pull-back that leaves the
    PSD cone raises ``NotPsd``. A run that settles off a critical point
    (``NOT_CRITICAL``) carries a warning.
    """
    sp = as_exponent(config.p)
    sq = as_exponent(config.q)
    n = phi.input_dim

    # Each iterate's spectrum gives its Schatten-p norm, J_p in the residual
    # and both ends of the Hilbert steps into and out of it. Only the start is
    # decomposed and evaluated privately, a given start by PowerConfig; every
    # later iterate comes with its spectrum from the step that builds it, and
    # is evaluated by the power step that also yields its successor.
    if config._start is None:
        a = default_start(n, sp)
        dec = _psd_spectrum(a)
    else:
        # only the size of a validated start depends on the map
        mat, dec = config._start
        if mat.shape[0] != n:
            raise DimMismatch(f"start must be {n}x{n}, got {mat.shape}")
        norm = _spectrum_norm(dec.eigenvalues, sp.p)
        a = mat / norm
        dec = EigDecomp(dec.eigenvalues / norm, dec.eigenvectors)
    f_prev, residual, pullback = _evaluate(phi, a, dec, sp, sq)
    nxt, nxt_dec = _next_iterate(pullback, sp)
    rows = [(0, f_prev, math.nan, math.nan, residual)]
    status = IterationStatus.MAX_ITER_REACHED
    reason = None
    iterations = 0
    prev_settled = prev_stalled = False

    for k in range(1, config.max_iter + 1):
        frobenius_step = float(np.linalg.norm(nxt - a))
        hilbert_step = _hilbert_distance(nxt_dec, dec).value
        step = power_step(phi, nxt, sp, sq)
        f_cur, residual = _value_and_residual(step.image_norm, step.pullback,
                                              nxt_dec, sp)
        rows.append((k, f_cur, hilbert_step, frobenius_step, residual))
        a, dec, nxt, nxt_dec = nxt, nxt_dec, step.iterate, step.spectrum
        iterations = k
        settled = frobenius_step <= config.tol_fixed_point
        stalled = abs(f_cur - f_prev) <= config.tol_objective * abs(f_cur)
        if settled and stalled:
            status = (IterationStatus.CONVERGED
                      if residual <= CRITICAL_RTOL * f_cur
                      else IterationStatus.NOT_CRITICAL)
            if prev_stalled and not prev_settled:
                reason = "fixed_point"
            elif prev_settled and not prev_stalled:
                reason = "objective_stall"
            else:
                reason = "both"
            break
        prev_settled, prev_stalled = settled, stalled
        f_prev = f_cur

    contraction = None
    if config.with_contraction:
        contraction = contraction_report(phi, sp, sq)
    run_warnings = []
    if status is IterationStatus.NOT_CRITICAL:
        run_warnings.append(
            "settled at a point that is not critical: relative residual "
            f"{residual / f_cur:.3g} > {CRITICAL_RTOL:g}; the estimate is a "
            "lower bound on the norm"
        )
    if contraction is None or not contraction.step_certified:
        if sp.p <= sq.p:
            run_warnings.append(
                f"unproven regime p={sp.p} <= q={sq.p}: convergence to the "
                "global maximum is not certified"
            )
        if contraction is not None:
            run_warnings.append(
                "step contraction bound "
                f"{contraction.kappa_step_upper:.6g} >= 1: the estimate is a "
                "lower bound on the norm but uniqueness of the limit is not "
                "certified"
            )

    table = np.array(rows, dtype=np.float64)
    table.setflags(write=False)
    return NormResult(
        norm_estimate=rows[-1][1],
        maximizer=a,
        iterations=iterations,
        trace=PowerTrace(table, status, reason),
        contraction=contraction,
        warnings=tuple(run_warnings),
    )
