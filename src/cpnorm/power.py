"""The duality-map power iteration for the Schatten p->q norm.

One step sends A to J_{p*}( adjoint(phi)( J_q( phi(A) ) ) ), where J_r is
the gradient of the Schatten r-norm. Fixed points of the step map are
exactly the critical points of the ratio ||phi(A)||_q / ||A||_p, and the
iteration converges to the unique maximizer whenever the step map is a
contraction in the Hilbert projective metric.

``power_step`` applies the map once and returns the image's norm and the
pull-back it computed on the way; with the spectrum of A they give the
objective and the critical-point residual at A. So ``run_power_method``
applies the map once per iteration, in its one ``power_step`` call, and
once more for the start. J_{p*} is a spectral function, so one
decomposition of the pull-back gives the next iterate and its spectrum: the
duality weights and the pull-back's eigenvectors. The loop keeps the
current pull-back and builds the successor from it, with ``_next_iterate``,
only when it goes on to the next iteration, so the successor of a run's
last step is never built. The default start I/n^(1/p) has the known
spectrum (n^(-1/p), I); only a given start is decomposed, once, by
``PowerConfig``. J_q of the image comes from
``schatten._norm_and_duality``: at q = 2 a Cholesky factorisation of a
positive definite image and the closed form B / ||B||_F, otherwise an
eigensolve. So at full rank an iteration makes three eigensolves at q != 2,
the image inside ``power_step``, the pull-back for the successor and the
Hilbert step into the iterate, and two eigensolves and one factorisation at
q = 2. A run of K iterations makes K + 1 map applications and 3K + 1
eigensolves at q != 2, or 2K eigensolves and K + 1 factorisations at q = 2;
an iterate of rank below n adds two eigensolves to its Hilbert step.
Pull-back eigenvalues at the rank cutoff are zeroed before J_{p*}
(``_next_iterate``). The residual of an iterate X = J_{p*}(P) takes J_p(X)
= P / ||P||_{p*} from the pull-back P it was built from, with no matrix
function of X, which keeps it accurate at p >= 1e12; ``TraceRow`` says
where that identity holds. The loop runs on the private kernels, whose
eigenvectors keep ``eigh``'s phases: every matrix it builds from them
(duality maps, reconstructions, ranges) is the same for any choice of
phases. Its cutoffs and its objective stall are relative, so a run on c *
phi takes the same iterations as one on phi and returns c times its
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .hilbert import (
    ContractionReport,
    _hilbert_distance,
    _interior_distance,
    contraction_report,
)
from .schatten import (
    SchattenExponent,
    _duality_map,
    _duality_weights,
    _norm_and_duality,
    _spectrum_norm,
    as_exponent,
)

# The smallest positive normal float: an iterate whose duality weights all
# reach it takes J_p from its pull-back (see ``TraceRow``).
_TINY = float(np.finfo(float).tiny)


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
    estimate, else ``NOT_CRITICAL``; ``TraceRow`` defines the residual. The
    default start is I/n^(1/p), positive definite and therefore in the same
    part of the cone as the positive definite fixed point whenever one
    exists. The exponents, and a given start, are validated once, here, and
    a given start is decomposed once too; the run reuses all of them.
    """

    p: float
    q: float
    tol_fixed_point: float = 1e-10
    tol_objective: float = 1e-12
    max_iter: int = 1000
    start: np.ndarray | None = None
    with_contraction: bool = True
    # Not fields, so records and repr leave them out: the validated exponent
    # pair, and the validated start with its psd_spectrum, which
    # __post_init__ sets when a start is given.
    _start = None

    def __post_init__(self):
        object.__setattr__(self, "_exponents", (as_exponent(self.p), as_exponent(self.q)))
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
    """One iterate X_k of a run, k = 0 for the start: the objective f_k, the
    Hilbert and Frobenius steps from X_{k-1} (nan at k = 0) and the
    critical-point residual ||P_k - f_k J_p(X_k)||_F, where P_k is the
    pull-back at X_k.

    For k >= 1, X_k = J_{p*}(P_{k-1}), so J_p(X_k) = P_{k-1} / ||P_{k-1}||_{p*}
    and the residual is ||P_k - f_k P_{k-1} / ||P_{k-1}||_{p*}||_F. No power
    of X_k's spectrum enters, which keeps the residual accurate where J_p
    of the spectrum is ill-conditioned, as at p >= 1e12. The identity holds
    only while every duality weight of X_k is a positive normal float: a
    pull-back eigenvalue zeroed at the rank cutoff, or a weight that
    underflows near p = 1, breaks it. Such a row, and the start, take J_p
    from the spectrum of X_k instead.
    """

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
    phases. Each access to ``iterate`` or ``spectrum`` decomposes the
    pull-back.
    """

    image_norm: float
    pullback: np.ndarray
    _exponent: SchattenExponent = field(repr=False)

    @property
    def iterate(self) -> np.ndarray:
        return _next_iterate(self.pullback, self._exponent)[0]

    @property
    def spectrum(self) -> EigDecomp:
        return _next_iterate(self.pullback, self._exponent)[2]


def power_step(phi: CPMap, a, p, q) -> PowerStep:
    """One update of the fixed-point iteration, with the pull-back it computes.

    Makes one application of the map and of its adjoint. The image is
    decomposed, except at q = 2, where one Cholesky factorisation of a
    positive definite image replaces its eigensolve. Each access to the
    step's iterate or spectrum decomposes the pull-back. The iterate is a
    PSD matrix of unit Schatten-p norm, scale invariant in the input. Raises
    ``DegenerateMap`` when the map annihilates the input, since no
    information about the norm can be extracted from that start.
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    return PowerStep(*_pull_back(phi, phi.apply(a), sq), sp)


def critical_point_residual(phi: CPMap, a, p, q) -> float:
    """Frobenius norm of adjoint(phi)(J_q(phi(A))) - f(A) * J_p(A).

    Zero exactly at critical points of the objective; the input must be PSD
    with unit Schatten-p norm. It decomposes A and takes J_p(A) from that
    spectrum, which is ill-conditioned near p = 1, where eigenvalues below
    about 1e-16 of the largest come back as rounding noise raised to the
    power p - 1, and at large p, where J_p raises a nearly flat spectrum to
    the power p - 1. A run's own residual (``TraceRow``) is neither: it
    takes J_p of each iterate from the pull-back the iterate was built from.
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    mat = _require_dim(a, phi.input_dim, "map")
    dec = _psd_spectrum(mat)
    if abs(_spectrum_norm(dec.eigenvalues, sp.p) - 1.0) > 1e-9:
        raise InvalidInput("residual is defined on unit Schatten-p norm matrices")
    image_norm, pullback = _pull_back(phi, phi._apply(mat), sq)
    value = image_norm / _spectrum_norm(dec.eigenvalues, sp.p)
    return float(np.linalg.norm(pullback - value * _duality_map(dec, sp)))


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
                  ) -> tuple[np.ndarray, np.ndarray, EigDecomp, float]:
    """J_{p*} of a pull-back P, the iterate that follows the point P was
    pulled back from, with what the loop reads off the same decomposition:
    the iterate; its reconstruction V w V^dag before symmetrisation, the
    input of the Hilbert step; its spectrum, the duality weights w with P's
    eigenvectors; and ||P||_{p*}, which gives J_p(iterate) = P / ||P||_{p*}.

    Eigenvalues at or below ``_spectral_cutoff`` are zeroed first. Below
    full rank they are rounding noise, which J_{p*} raises to 1/(p-1) < 1
    for p > 2 and so magnifies: the iterate's null space would flicker
    from step to step above the fixed-point tolerance. A zeroed eigenvalue
    gives a zero weight, where the identity for J_p no longer holds.
    """
    dec = _psd_spectrum(pullback)
    vals = dec.eigenvalues
    cutoff = _spectral_cutoff(vals)
    if vals[-1] <= cutoff:
        vals = np.where(vals > cutoff, vals, 0.0)
    spectrum = EigDecomp(_duality_weights(vals, sp.dual), dec.eigenvectors)
    raw = spectrum.reconstruct()
    return hermitian_part(raw), raw, spectrum, _spectrum_norm(vals, sp.p_star)


def _residual(pullback: np.ndarray, value: float, j_p: np.ndarray) -> float:
    """||pullback - value * j_p||_F, the critical-point residual, computed in
    the buffer of ``j_p``, which the loop builds for it and which it
    overwrites."""
    np.multiply(value, j_p, j_p)
    return float(np.linalg.norm(np.subtract(pullback, j_p, j_p)))


def _hilbert_step(raw: np.ndarray, new: EigDecomp, old: EigDecomp) -> float:
    """Hilbert distance between two iterates from their spectra and the
    successor's unsymmetrised reconstruction ``raw``, which the step built:
    bitwise ``_hilbert_distance(new, old).value``. Both spectra are sorted
    and nonnegative, so each is full rank when its last eigenvalue exceeds
    the cutoff; then the pair shares the interior part."""
    w, v = new.eigenvalues, old.eigenvalues
    if w.item(-1) > _spectral_cutoff(w) and v.item(-1) > _spectral_cutoff(v):
        return _interior_distance(raw, old)
    return _hilbert_distance(new, old).value


def run_power_method(phi: CPMap, config: PowerConfig) -> NormResult:
    """Iterate the power step until both convergence criteria hold.

    The returned estimate is the objective at the final iterate, so it is
    always a valid lower bound on the norm; it equals the norm when the
    contraction report certifies the step map as a contraction. Runs in the
    p <= q regime carry an explicit warning unless the report certifies the
    step, since no other convergence certificate exists there. Every
    iterate is PSD by construction; an image, or a pull-back that yields a
    successor, that leaves the PSD cone raises ``NotPsd``. A run that settles off a critical point
    (``NOT_CRITICAL``) carries a warning.
    """
    sp, sq = config._exponents
    n = phi.input_dim

    # Each iterate's spectrum gives its Schatten-p norm and both ends of the
    # Hilbert steps into and out of it. The default start's spectrum is
    # known, and a given start comes decomposed by PowerConfig; J_p of the
    # start comes from that spectrum. Every later iterate comes with its
    # spectrum from the pull-back it is built from.
    if config._start is None:
        a = default_start(n, sp)
        dec = EigDecomp(np.full(n, a[0, 0].real), np.eye(n, dtype=np.complex128))
    else:
        # only the size of a validated start depends on the map
        mat, dec = config._start
        if mat.shape[0] != n:
            raise DimMismatch(f"start must be {n}x{n}, got {mat.shape}")
        norm = _spectrum_norm(dec.eigenvalues, sp.p)
        a = mat / norm
        dec = EigDecomp(dec.eigenvalues / norm, dec.eigenvectors)
    image_norm, pullback = _pull_back(phi, phi._apply(a), sq)
    f_prev = image_norm / _spectrum_norm(dec.eigenvalues, sp.p)
    residual = _residual(pullback, f_prev, _duality_map(dec, sp))
    rows = [(0, f_prev, math.nan, math.nan, residual)]
    status = IterationStatus.MAX_ITER_REACHED
    reason = None
    iterations = 0
    prev_settled = prev_stalled = False

    for k in range(1, config.max_iter + 1):
        nxt, raw, nxt_dec, pullback_norm = _next_iterate(pullback, sp)
        frobenius_step = float(np.linalg.norm(nxt - a))
        hilbert_step = _hilbert_step(raw, nxt_dec, dec)
        step = power_step(phi, nxt, sp, sq)
        f_cur = step.image_norm / _spectrum_norm(nxt_dec.eigenvalues, sp.p)
        if nxt_dec.eigenvalues.item(-1) >= _TINY:
            j_p = pullback / pullback_norm
        else:
            j_p = _duality_map(nxt_dec, sp)
        residual = _residual(step.pullback, f_cur, j_p)
        rows.append((k, f_cur, hilbert_step, frobenius_step, residual))
        a, dec, pullback = nxt, nxt_dec, step.pullback
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
