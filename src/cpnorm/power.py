"""The duality-map power iteration for the Schatten p->q norm.

One step sends A to J_{p*}( adjoint(phi)( J_q( phi(A) ) ) ), where J_r is
the gradient of the Schatten r-norm. Fixed points of the step map are
exactly the critical points of the ratio ||phi(A)||_q / ||A||_p, and the
iteration converges to the unique maximizer whenever the step map is a
contraction in the Hilbert projective metric.

``run_power_method`` holds each matrix of an iteration as one
``psd_spectrum`` and takes every eigenvalue from it. At full rank an
iteration makes five eigensolves: the image and the pull-back inside the
public ``power_step``, the new iterate, the Hilbert step, and the new
iterate's image for the objective and residual. The loop runs on the
private kernels, whose eigenvectors keep ``eigh``'s phases: every matrix it
builds from them (duality maps, reconstructions, ranges) is the same for
any choice of phases. Its cutoffs and its objective stall are relative, so
a run on c * phi takes the same iterations as one on phi and returns c times
its estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import require_count
from .errors import DegenerateMap, DimMismatch, InvalidInput, ZeroInput
from .cpmap import CPMap, _require_dim
from .hermitian import (
    EigDecomp,
    _psd_spectrum,
    _rank,
    _require_finite,
    hermitian_part,
    require_hermitian,
)
from .hilbert import ContractionReport, _hilbert_distance, contraction_report
from .schatten import (
    SchattenExponent,
    _duality_map,
    _spectrum_norm,
    as_exponent,
    schatten_norm,
)


class IterationStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"


@dataclass(frozen=True, eq=False)
class PowerConfig:
    """Parameters of one power-method run.

    Convergence requires both criteria at once: the Frobenius displacement
    of the iterate below ``tol_fixed_point`` and the objective stall
    |f_k - f_{k-1}| below ``tol_objective * |f_k|``. The objective is quadratically flat near the
    maximizer, so it stalls long before the iterate settles; requiring both
    keeps the returned maximizer accurate to the displacement tolerance.
    The trace records which criterion was binding. The default start is
    I/n^(1/p), positive definite and therefore in the same part of the cone
    as the positive definite fixed point whenever one exists.
    """

    p: float
    q: float
    tol_fixed_point: float = 1e-10
    tol_objective: float = 1e-12
    max_iter: int = 1000
    start: np.ndarray | None = None
    with_contraction: bool = True

    def __post_init__(self):
        as_exponent(self.p)
        as_exponent(self.q)
        for tol in (self.tol_fixed_point, self.tol_objective):
            if not (math.isfinite(tol) and tol > 0):
                raise InvalidInput("tolerances must be positive and finite")
        require_count(self.max_iter, "max_iter")
        if self.start is not None:
            dec = _psd_spectrum(require_hermitian(self.start))
            if dec.eigenvalues[0] <= 0:
                raise ZeroInput("start matrix must be nonzero")


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


def power_step(phi: CPMap, a, p, q) -> np.ndarray:
    """One update of the fixed-point iteration.

    Returns a PSD matrix of unit Schatten-p norm; scale invariant in the
    input. Raises ``DegenerateMap`` when the map annihilates the input,
    since no information about the norm can be extracted from that start.
    """
    sp = as_exponent(p)
    _, pulled_back = _pull_back(phi, phi.apply(a), as_exponent(q))
    return _duality_map(_psd_spectrum(pulled_back),
                        SchattenExponent(sp.p_star, sp.p))


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
               ) -> tuple[EigDecomp, np.ndarray]:
    """The ``psd_spectrum`` of an image under the map and its pull-back
    adjoint(phi)(J_q(image)), the half of a step that the power step and the
    residual share.

    A map with huge Kraus operators overflows to inf, which the kernels
    would not notice, so both matrices are checked for finiteness.
    """
    dec = _psd_spectrum(_require_finite(image))
    if _rank(dec.eigenvalues) == 0:
        raise DegenerateMap("the map annihilates this point")
    return dec, _require_finite(phi._adjoint_apply(_duality_map(dec, sq)))


def _evaluate(phi: CPMap, a: np.ndarray, dec: EigDecomp,
              sp: SchattenExponent, sq: SchattenExponent) -> tuple[float, float]:
    """Objective and critical-point residual at a trusted PSD iterate ``a``
    with ``psd_spectrum`` ``dec``: one application of the map, one
    decomposition of the image and one pull-back serve both values."""
    image, lhs = _pull_back(phi, phi._apply(a), sq)
    value = _spectrum_norm(image.eigenvalues, sq.p) / _spectrum_norm(dec.eigenvalues, sp.p)
    return value, float(np.linalg.norm(lhs - value * _duality_map(dec, sp)))


def run_power_method(phi: CPMap, config: PowerConfig) -> NormResult:
    """Iterate the power step until both convergence criteria hold.

    The returned estimate is the objective at the final iterate, so it is
    always a valid lower bound on the norm; it equals the norm when the
    contraction report certifies the step map as a contraction. Runs in the
    p <= q regime carry an explicit warning unless the report certifies the
    step, since no other convergence certificate exists there. An iterate
    that leaves the PSD cone raises ``NotPsd``.
    """
    sp = as_exponent(config.p)
    sq = as_exponent(config.q)
    n = phi.input_dim

    if config.start is None:
        a = default_start(n, sp)
    else:
        # PowerConfig validated the start; only its size depends on the map
        mat = hermitian_part(np.asarray(config.start, dtype=np.complex128))
        if mat.shape[0] != n:
            raise DimMismatch(f"start must be {n}x{n}, got {mat.shape}")
        a = mat / schatten_norm(mat, sp.p)

    # Each iterate is decomposed once: its PSD spectrum gives its Schatten-p
    # norm, J_p in the residual and both ends of the Hilbert steps into and
    # out of it.
    dec = _psd_spectrum(a)
    f_prev, residual = _evaluate(phi, a, dec, sp, sq)
    rows = [(0, f_prev, math.nan, math.nan, residual)]
    status = IterationStatus.MAX_ITER_REACHED
    reason = None
    iterations = 0
    prev_settled = prev_stalled = False

    for k in range(1, config.max_iter + 1):
        nxt = power_step(phi, a, sp, sq)
        frobenius_step = float(np.linalg.norm(nxt - a))
        nxt_dec = _psd_spectrum(nxt)
        hilbert_step = _hilbert_distance(nxt_dec, dec).value
        f_cur, residual = _evaluate(phi, nxt, nxt_dec, sp, sq)
        rows.append((k, f_cur, hilbert_step, frobenius_step, residual))
        a, dec = nxt, nxt_dec
        iterations = k
        settled = frobenius_step <= config.tol_fixed_point
        stalled = abs(f_cur - f_prev) <= config.tol_objective * abs(f_cur)
        if settled and stalled:
            status = IterationStatus.CONVERGED
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
