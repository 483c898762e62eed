"""The duality-map power iteration for the Schatten p->q norm.

One step sends A to J_{p*}( adjoint(phi)( J_q( phi(A) ) ) ), where J_r is
the gradient of the Schatten r-norm. Fixed points of the step map are
exactly the critical points of the ratio ||phi(A)||_q / ||A||_p, and the
iteration converges to the unique maximizer whenever the step map is a
contraction in the Hilbert projective metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import DegenerateMap, DimMismatch, InvalidInput, ZeroInput
from .cpmap import CPMap, _require_dim
from .hermitian import (
    EigDecomp,
    _eig_decompose,
    _psd_spectrum,
    _rank,
    _require_finite,
    hermitian_part,
    psd_spectrum,
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

# Eigenvalues of an iterate may drift this far below zero before the run is
# flagged as having left the cone.
_CONE_DRIFT_TOL = 1e-12


class IterationStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"
    LEFT_CONE = "left_cone"


@dataclass(frozen=True, eq=False)
class PowerConfig:
    """Parameters of one power-method run.

    Convergence requires both criteria at once: the Frobenius displacement
    of the iterate below ``tol_fixed_point`` and the objective stall below
    ``tol_objective``. The objective is quadratically flat near the
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
    seed: int = 0
    with_contraction: bool = True

    def __post_init__(self):
        as_exponent(self.p)
        as_exponent(self.q)
        for tol in (self.tol_fixed_point, self.tol_objective):
            if not (math.isfinite(tol) and tol > 0):
                raise InvalidInput("tolerances must be positive and finite")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, Integral):
            raise InvalidInput(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be at least 1")
        if self.start is not None:
            dec = psd_spectrum(self.start)
            if dec.eigenvalues[0] <= 0:
                raise ZeroInput("start matrix must be nonzero")


@dataclass(frozen=True)
class TraceRow:
    k: int
    objective: float
    hilbert_step: float
    frobenius_step: float
    residual: float


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    sq = as_exponent(q)
    # A map with huge Kraus operators overflows to inf; the kernels below
    # would not notice.
    image = _require_finite(phi.apply(a))
    if _rank(np.linalg.eigvalsh(image)) == 0:
        raise DegenerateMap("the map annihilates this starting point")
    pulled_back = phi._adjoint_apply(_duality_map(_psd_spectrum(image), sq))
    return _duality_map(_psd_spectrum(_require_finite(pulled_back)),
                        SchattenExponent(sp.p_star, sp.p))


def critical_point_residual(phi: CPMap, a, p, q) -> float:
    """Frobenius norm of adjoint(phi)(J_q(phi(A))) - f(A) * J_p(A).

    Zero exactly at critical points of the objective; the input must be PSD
    with unit Schatten-p norm.
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    mat = require_hermitian(a)
    vals = np.linalg.eigvalsh(mat)
    if abs(_spectrum_norm(vals, sp.p) - 1.0) > 1e-9:
        raise InvalidInput("residual is defined on unit Schatten-p norm matrices")
    return _evaluate(phi, _require_dim(mat, phi.input_dim, "map"), vals, None, sp, sq)[1]


def _evaluate(phi: CPMap, a: np.ndarray, vals: np.ndarray, dec: EigDecomp | None,
              sp: SchattenExponent, sq: SchattenExponent
              ) -> tuple[float, float, EigDecomp]:
    """Objective and critical-point residual at a trusted Hermitian iterate.

    ``vals`` are the ``eigvalsh`` eigenvalues of ``a`` and ``dec`` its
    ``psd_spectrum``; when None, ``dec`` is computed after the image's checks,
    as the public calls order them, and is returned either way. One
    application of the map, one ``eigvalsh`` of the image and one pull-back
    serve both values.
    """
    image = _require_finite(phi._apply(a))
    image_vals = np.linalg.eigvalsh(image)
    if _rank(image_vals) == 0:
        raise DegenerateMap("the map annihilates this point")
    value = _spectrum_norm(image_vals, sq.p) / _spectrum_norm(vals, sp.p)
    lhs = phi._adjoint_apply(_duality_map(_psd_spectrum(image), sq))
    if dec is None:
        dec = _psd_spectrum(a)
    return value, float(np.linalg.norm(lhs - value * _duality_map(dec, sp))), dec


def _repair_cone(a: np.ndarray):
    """Clamp tiny negative drift of a trusted iterate.

    Returns the iterate and its eigenvalues, or None when it has really left
    the cone.
    """
    vals = np.linalg.eigvalsh(a)
    if vals[0] < -_CONE_DRIFT_TOL:
        return None
    if vals[0] < 0.0:
        dec = _eig_decompose(a)
        clipped = np.clip(dec.eigenvalues, 0.0, None)
        a = hermitian_part((dec.eigenvectors * clipped) @ dec.eigenvectors.conj().T)
        vals = np.linalg.eigvalsh(a)
    return a, vals


def run_power_method(phi: CPMap, config: PowerConfig) -> NormResult:
    """Iterate the power step until both convergence criteria hold.

    The returned estimate is the objective at the final iterate, so it is
    always a valid lower bound on the norm; it equals the norm when the
    contraction report certifies the step map as a contraction. Runs in the
    p <= q regime carry an explicit warning because no convergence
    certificate exists there.
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

    run_warnings: list[str] = []
    if sp.p <= sq.p:
        run_warnings.append(
            f"unproven regime p={sp.p} <= q={sq.p}: convergence to the global "
            "maximum is not certified"
        )

    # Each iterate is decomposed once: its eigenvalues give its Schatten-p
    # norm, and its PSD spectrum serves J_p in the residual and both ends of
    # the Hilbert steps into and out of it.
    f_prev, residual, dec = _evaluate(phi, a, np.linalg.eigvalsh(a), None, sp, sq)
    rows = [(0, f_prev, math.nan, math.nan, residual)]
    status = IterationStatus.MAX_ITER_REACHED
    reason = None
    iterations = 0
    prev_settled = prev_stalled = False

    for k in range(1, config.max_iter + 1):
        repaired = _repair_cone(power_step(phi, a, sp, sq))
        if repaired is None:
            status = IterationStatus.LEFT_CONE
            reason = None
            run_warnings.append(
                f"iterate left the PSD cone at step {k}; this signals a bug, "
                "the run was aborted"
            )
            break
        nxt, vals = repaired
        frobenius_step = float(np.linalg.norm(nxt - a))
        nxt_dec = _psd_spectrum(nxt)
        hilbert_step = _hilbert_distance(nxt_dec, dec).value
        f_cur, residual, dec = _evaluate(phi, nxt, vals, nxt_dec, sp, sq)
        rows.append((k, f_cur, hilbert_step, frobenius_step, residual))
        a = nxt
        iterations = k
        settled = frobenius_step <= config.tol_fixed_point
        stalled = abs(f_cur - f_prev) <= config.tol_objective
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
        if not contraction.step_certified:
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
