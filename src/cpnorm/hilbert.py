"""Hilbert projective metric on the PSD cone and Birkhoff contraction bounds.

The metric d(A,B) = ln(M(A/B) M(B/A)) is finite exactly when A and B share
a part of the cone (equal ranges, for PSD matrices); it is a metric on rays
within each part. CP maps never expand it, and a map whose projective
diameter is finite contracts it strictly, with ratio tanh(diameter/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DISTANCE_OVERFLOW, subseed
from .errors import DimMismatch, InvalidInput, ZeroInput
from .cpmap import (
    CPMap,
    StructuralVerdict,
    Verdict,
    _projector,
    _rank_one_extreme,
    check_fully_indecomposable,
    check_positively_improving,
)
from .hermitian import (
    _psd_spectrum,
    _rank,
    _spectral_cutoff,
    hermitian_part,
    psd_spectrum,
    random_psd,
    random_unit_vector,
)
from .schatten import as_exponent

# Best samples from which the slice-peak search starts; from the best sample
# alone it ends at a lower local maximum on about 2% of generated maps.
_PEAK_STARTS = 8

# Random unit vectors sampled by the positively-improving check and by the
# slice-peak search when ``estimate_diameter`` builds its upper bound.
_REFINE_TRIALS = 128


@dataclass(frozen=True)
class HilbertDistance:
    """Distance value (possibly inf) plus the part relation of the inputs."""

    value: float
    same_part: bool


def same_part(a, b) -> bool:
    """True when the PSD inputs have equal ranges at the rank cutoff.

    For PSD matrices the two-sided sandwich cB <= A <= CB is equivalent to
    range equality, which is decided by comparing the numerical ranks of A,
    B, and A + B.
    """
    da = psd_spectrum(a)
    db = psd_spectrum(b)
    if da.eigenvalues.size != db.eigenvalues.size:
        raise DimMismatch("same_part needs matrices of equal dimension")
    ds = psd_spectrum(da.reconstruct() + db.reconstruct())
    return _rank(da.eigenvalues) == _rank(db.eigenvalues) == _rank(ds.eigenvalues)


def _inv_sqrt_conjugate(a_mat: np.ndarray, dec_b) -> np.ndarray:
    """B^{-1/2} A B^{-1/2} from the (positive definite) eigendata of B."""
    q = dec_b.eigenvectors
    s = q * (1.0 / np.sqrt(dec_b.eigenvalues))
    return s.conj().T @ a_mat @ s


def m_ratio(a, b) -> float:
    """inf { lam > 0 : A <= lam B } on the PSD cone; inf when unbounded.

    Finite exactly when range(A) is contained in range(B); singular B is
    handled by compressing both matrices to an orthonormal basis of its
    range.
    """
    da = psd_spectrum(a)
    db = psd_spectrum(b)
    if da.eigenvalues.size != db.eigenvalues.size:
        raise DimMismatch("m_ratio needs matrices of equal dimension")
    rb = _rank(db.eigenvalues)
    if rb == 0:
        raise ZeroInput("m_ratio denominator must be a nonzero PSD matrix")
    if _rank(da.eigenvalues) == 0:
        return 0.0
    n = da.eigenvalues.size
    a_mat = da.reconstruct()
    if rb < n:
        null_basis = db.eigenvectors[:, rb:]
        leak = np.linalg.eigvalsh(null_basis.conj().T @ a_mat @ null_basis)[-1]
        if leak > _spectral_cutoff(da.eigenvalues):
            return math.inf
        basis = db.eigenvectors[:, :rb]
        a_mat = basis.conj().T @ a_mat @ basis
        db = psd_spectrum(basis.conj().T @ db.reconstruct() @ basis)
    w = np.linalg.eigvalsh(_inv_sqrt_conjugate(a_mat, db))
    return float(w[-1])


def hilbert_distance(a, b) -> HilbertDistance:
    """d(A,B) = ln( M(A/B) * M(B/A) ), computed on the common range.

    Scale invariant in both arguments, zero when both inputs are zero, and
    infinite across parts. On a shared range the value reduces to the log
    of the spectral spread of B^{-1/2} A B^{-1/2}.
    """
    da = psd_spectrum(a)
    db = psd_spectrum(b)
    if da.eigenvalues.size != db.eigenvalues.size:
        raise DimMismatch("hilbert_distance needs matrices of equal dimension")
    return _hilbert_distance(da, db)


def _hilbert_distance(da, db) -> HilbertDistance:
    """``hilbert_distance`` from the ``psd_spectrum`` of two same-size matrices."""
    ra = _rank(da.eigenvalues)
    rb = _rank(db.eigenvalues)
    if ra == 0 and rb == 0:
        return HilbertDistance(0.0, True)
    if ra == 0 or rb == 0:
        return HilbertDistance(math.inf, False)
    a_mat = da.reconstruct()
    b_mat = db.reconstruct()
    ds = _psd_spectrum(hermitian_part(a_mat + b_mat))
    if not ra == rb == _rank(ds.eigenvalues):
        return HilbertDistance(math.inf, False)
    n = da.eigenvalues.size
    if ra < n:
        basis = ds.eigenvectors[:, :ra]
        a_mat = basis.conj().T @ a_mat @ basis
        b_mat = basis.conj().T @ b_mat @ basis
        db = _psd_spectrum(hermitian_part(b_mat))
    w = np.linalg.eigvalsh(_inv_sqrt_conjugate(a_mat, db))
    if w[0] <= 0.0:
        return HilbertDistance(math.inf, False)
    return HilbertDistance(float(np.log(w[-1] / w[0])), True)


@dataclass(frozen=True)
class ContractionReport:
    """Contraction evidence for one CP map, optionally merged with its adjoint.

    ``diameter_lower_bound`` and ``kappa_lower`` come from Monte Carlo
    sampling, so they bound the true quantities from below. The upper
    bounds are only populated when the positively-improving diagnostic
    passes; they are built from sampled spectral extremes on the trace-one
    slice with a safety factor of 2, and that sampled provenance is recorded
    in ``upper_source``. ``kappa_step_upper`` bounds the contraction ratio
    of the full power-iteration step map; the trivial inputs kappa <= 1 are
    always valid for CP maps, so the bound is available for every map.
    """

    diameter_lower_bound: float
    kappa_lower: float
    sample_count: int
    diameter_upper_bound: float | None = None
    kappa_upper: float | None = None
    improving: Verdict | None = None
    adjoint: "ContractionReport | None" = None
    kappa_step_upper: float | None = None
    step_certified: bool = False
    upper_source: str = "trivial"


def step_contraction_bound(kappa: float, kappa_adjoint: float, p, q) -> float:
    """Upper bound kappa * kappa_adjoint * (q-1)/(p-1) for the step map.

    The step map composes the forward map, a duality map at q, the adjoint
    map, and a duality map at the dual of p; duality maps at exponent r have
    contraction ratio r - 1 in the Hilbert metric, which gives the factor
    (q-1)/(p-1).
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    for name, k in (("kappa", kappa), ("kappa_adjoint", kappa_adjoint)):
        if not 0.0 <= k <= 1.0:
            raise InvalidInput(f"{name} must lie in [0, 1], got {k}")
    return kappa * kappa_adjoint * (sq.p - 1.0) / (sp.p - 1.0)


def _slice_peak(phi: CPMap, samples: int, rng) -> float:
    """Largest output eigenvalue over trace-one rank-one inputs.

    The maximum of lambda_max(phi(A)) over the trace-one slice is attained
    at a rank-one extreme point because the function is convex in A. The
    function has several local maxima, so the alternating eigenvector search
    ``_rank_one_extreme`` runs from each of the best ``_PEAK_STARTS`` of
    ``samples`` random unit vectors; it only ever raises its start.
    """
    n = phi.input_dim
    scored = []
    for _ in range(samples):
        x = random_unit_vector(n, rng)
        scored.append((float(np.linalg.eigvalsh(phi._apply(_projector(x)))[-1]), x))
    scored.sort(key=lambda s: -s[0])
    refined = (_rank_one_extreme(phi, x, top=True)[0] for _, x in scored[:_PEAK_STARTS])
    return max(scored[0][0], *refined)


def _same_part_pair(n: int, r: int, rng):
    if r == n:
        return random_psd(n, n, rng), random_psd(n, n, rng)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    basis, _ = np.linalg.qr(g)
    a = basis @ random_psd(r, r, rng) @ basis.conj().T
    b = basis @ random_psd(r, r, rng) @ basis.conj().T
    return hermitian_part(a), hermitian_part(b)


def estimate_diameter(
    phi: CPMap,
    samples: int = 64,
    seed=0,
    improving: StructuralVerdict | None = None,
) -> ContractionReport:
    """Monte Carlo bounds on the projective diameter of a CP map.

    Sampling same-part input pairs (full rank plus every deficient rank on
    a shared random range) gives a lower bound on the diameter, hence on
    the contraction ratio tanh(diameter/4). The bound is reported as
    infinite if any sampled image pair lands in different parts or exceeds
    the overflow threshold.

    When the positively-improving check passes, a finite upper bound is
    added: the diameter is at most twice the log-ratio of the extreme
    output eigenvalues over the trace-one slice, estimated from samples
    refined by alternating eigenvector updates, with a safety factor of 2
    on the ratio.
    """
    if samples < 1:
        raise InvalidInput("samples must be at least 1")
    n = phi.input_dim
    rng = subseed(seed, "diameter")
    worst = 0.0
    unbounded = False
    drawn = 0
    for j in range(samples):
        a, b = _same_part_pair(n, 1 + j % n, rng)
        d = _hilbert_distance(_psd_spectrum(phi._apply(a)),
                              _psd_spectrum(phi._apply(b)))
        drawn += 1
        if not d.same_part or d.value > DISTANCE_OVERFLOW:
            unbounded = True
            break
        worst = max(worst, d.value)

    diameter_lower = math.inf if unbounded else worst
    kappa_lower = 1.0 if unbounded else math.tanh(worst / 4.0)

    if improving is None:
        improving = check_positively_improving(phi, trials=_REFINE_TRIALS, seed=seed)

    diameter_upper = None
    kappa_upper = None
    source = "trivial"
    if (
        improving.verdict is Verdict.PROBABLY_TRUE
        and improving.margin is not None
        and improving.margin > 0.0
    ):
        peak = _slice_peak(phi, _REFINE_TRIALS, subseed(seed, "slice-peak"))
        diameter_upper = 2.0 * math.log(2.0 * peak / improving.margin)
        kappa_upper = math.tanh(diameter_upper / 4.0)
        source = "improving-slice"

    return ContractionReport(
        diameter_lower_bound=diameter_lower,
        kappa_lower=kappa_lower,
        sample_count=drawn,
        diameter_upper_bound=diameter_upper,
        kappa_upper=kappa_upper,
        improving=improving.verdict,
        upper_source=source,
    )


def contraction_report(
    phi: CPMap,
    p,
    q,
    samples: int = 64,
    seed=0,
    improving: StructuralVerdict | None = None,
    adjoint_improving: StructuralVerdict | None = None,
) -> ContractionReport:
    """Full contraction analysis of the power-iteration step map.

    Runs the diameter estimate on the map and on its adjoint, then combines
    the per-map contraction-ratio upper bounds (the sampled ones when the
    positively-improving diagnostic passes, the always-valid trivial bound 1
    otherwise) into the step bound kappa * kappa_adjoint * (q-1)/(p-1).
    The bound is flagged certified when it is below 1.
    """
    fwd = estimate_diameter(
        phi, samples=samples, seed=subseed(seed, "forward-map").integers(2**32),
        improving=improving,
    )
    adj = estimate_diameter(
        phi.adjoint(), samples=samples,
        seed=subseed(seed, "adjoint-map").integers(2**32),
        improving=adjoint_improving,
    )
    kappa_fwd = 1.0 if fwd.kappa_upper is None else fwd.kappa_upper
    kappa_adj = 1.0 if adj.kappa_upper is None else adj.kappa_upper
    bound = step_contraction_bound(kappa_fwd, kappa_adj, p, q)
    if fwd.upper_source == adj.upper_source:
        source = fwd.upper_source
    else:
        source = "mixed"
    return replace(
        fwd,
        adjoint=adj,
        kappa_step_upper=bound,
        step_certified=bound < 1.0,
        upper_source=source,
    )


def sampled_contraction_ratio(phi: CPMap, pairs: int = 500, seed=0) -> float:
    """Largest observed d(phi(A), phi(B)) / d(A, B) over random PD pairs.

    A lower bound on the true contraction ratio; reported, never asserted
    as a universal bound.
    """
    n = phi.input_dim
    rng = subseed(seed, "contraction-ratio")
    worst = 0.0
    for _ in range(pairs):
        a = random_psd(n, n, rng)
        b = random_psd(n, n, rng)
        d_in = hilbert_distance(a, b)
        if not d_in.same_part or d_in.value < 1e-9:
            continue
        d_out = hilbert_distance(phi.apply(a), phi.apply(b))
        if not d_out.same_part:
            return math.inf
        worst = max(worst, d_out.value / d_in.value)
    return worst


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """Structural verdicts and contraction bounds for one map at fixed (p, q)."""

    fully_indecomposable: StructuralVerdict
    positively_improving: StructuralVerdict
    adjoint_positively_improving: StructuralVerdict
    contraction: ContractionReport
    p: float
    q: float


def run_diagnostics(
    phi: CPMap,
    p,
    q,
    fi_trials: int = 64,
    pi_trials: int = 256,
    samples: int = 64,
    seed=0,
) -> DiagnosticsReport:
    """Run all structural checks plus the contraction analysis."""
    sp = as_exponent(p)
    sq = as_exponent(q)
    fi = check_fully_indecomposable(phi, trials=fi_trials, seed=seed)
    pi = check_positively_improving(phi, trials=pi_trials, seed=seed)
    pi_adj = check_positively_improving(phi.adjoint(), trials=pi_trials, seed=seed)
    contraction = contraction_report(
        phi, sp, sq, samples=samples, seed=seed,
        improving=pi, adjoint_improving=pi_adj,
    )
    return DiagnosticsReport(
        fully_indecomposable=fi,
        positively_improving=pi,
        adjoint_positively_improving=pi_adj,
        contraction=contraction,
        p=sp.p,
        q=sq.p,
    )
