"""Hilbert projective metric on the PSD cone and Birkhoff contraction bounds.

The metric d(A,B) = ln(M(A/B) M(B/A)) is finite exactly when A and B share
a part of the cone (equal ranges, for PSD matrices); it is a metric on rays
within each part. CP maps never expand it, and a map whose projective
diameter is finite contracts it strictly, with ratio tanh(diameter/4).
From the spectra of two positive definite matrices the distance costs one
eigensolve, and for a stack of such pairs one stacked eigensolve; a pair of
rank below n adds one of A+B to decide the part, and takes that branch on
its own. The sampled diameter search and the sampled contraction ratio
stack their sample pairs: one draw of normals, stacked ``qr``, ``eigh``
and ``eigvalsh`` calls per block of pairs and one map application per
chunk of a block, with blocks and chunks sized to bound their memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DISTANCE_OVERFLOW, require_count, subseed
from .errors import DimMismatch, InvalidInput, NotPsd, ZeroInput
from .cpmap import (
    CPMap,
    StructuralProperty,
    StructuralVerdict,
    Verdict,
    check_fully_indecomposable,
    check_positively_improving,
)
from .hermitian import (
    _gram,
    _psd_spectrum,
    _rank,
    _spectral_cutoff,
    hermitian_part,
    require_hermitian,
)
from .schatten import as_exponent

# Bytes that the complex (2B, n, n) inputs and (2B, m, m) images of a block
# of B sample pairs may take together in ``_sampled_diameter``, and so may
# the (2B, m, k n) intermediate of one stacked map application on a chunk
# of them: 32 bytes per entry of a pair.
_CHUNK_BYTES = 128 * 1024


@dataclass(frozen=True)
class HilbertDistance:
    """Distance value (possibly inf) plus the part relation of the inputs;
    arrays of both from ``_hilbert_distance`` on stacks."""

    value: float
    same_part: bool


def _psd_pair(a, b, what: str):
    """``psd_spectrum`` of two validated inputs of equal dimension."""
    da = _psd_spectrum(require_hermitian(a))
    db = _psd_spectrum(require_hermitian(b))
    if da.eigenvalues.size != db.eigenvalues.size:
        raise DimMismatch(f"{what} needs matrices of equal dimension")
    return da, db


def same_part(a, b) -> bool:
    """True when the PSD inputs have equal ranges at the rank cutoff.

    For PSD matrices the two-sided sandwich cB <= A <= CB is equivalent to
    range equality. This is the part flag of ``hilbert_distance``, which
    decides it from the numerical ranks of A, B and A + B.
    """
    return _hilbert_distance(*_psd_pair(a, b, "same_part")).same_part


def _inv_sqrt_conjugate(a_mat: np.ndarray, dec_b) -> np.ndarray:
    """B^{-1/2} A B^{-1/2} from the (positive definite) eigendata of B, for
    one pair or for each pair of two stacks."""
    q = dec_b.eigenvectors
    s = q * (1.0 / np.sqrt(dec_b.eigenvalues))[..., None, :]
    return s.conj().swapaxes(-1, -2) @ a_mat @ s


def m_ratio(a, b) -> float:
    """inf { lam > 0 : A <= lam B } on the PSD cone; inf when unbounded.

    Finite exactly when range(A) is contained in range(B); singular B is
    handled by compressing both matrices to an orthonormal basis of its
    range.
    """
    da, db = _psd_pair(a, b, "m_ratio")
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
        db = _psd_spectrum(hermitian_part(basis.conj().T @ db.reconstruct() @ basis))
    w = np.linalg.eigvalsh(_inv_sqrt_conjugate(a_mat, db))
    return float(w[-1])


def hilbert_distance(a, b) -> HilbertDistance:
    """d(A,B) = ln( M(A/B) * M(B/A) ), computed on the common range.

    Scale invariant in both arguments, zero when both inputs are zero, and
    infinite across parts. On a shared range the value reduces to the log
    of the spectral spread of B^{-1/2} A B^{-1/2}.
    """
    return _hilbert_distance(*_psd_pair(a, b, "hilbert_distance"))


def _hilbert_distance(da, db) -> HilbertDistance:
    """``hilbert_distance`` from the ``psd_spectrum`` of two same-size matrices.

    Two full-rank inputs share the interior part without a test, since
    lambda_min(A+B) >= lambda_min(A) + lambda_min(B) exceeds the sum of their
    cutoffs, which bounds the cutoff of A+B; otherwise the part is decided
    from the rank of A+B and both matrices are compressed to its range. A
    pair whose conjugated spectrum reads lambda_min <= 0, which rounding can
    give near condition number 1e10, keeps its part at infinite distance.

    On two stacks of spectra, (..., n) and (..., n, n), the value and the
    part flag are arrays. The full-rank pairs share one stacked eigensolve;
    each pair of lower rank takes the compression branch on its own.
    """
    if da.eigenvalues.ndim > 1:
        n = da.eigenvalues.shape[-1]
        full = (_rank(da.eigenvalues) == n) & (_rank(db.eigenvalues) == n)
        value = np.full(full.shape, math.inf)
        same = np.zeros(full.shape, dtype=bool)
        for i in zip(*np.nonzero(~full)):
            d = _hilbert_distance(da[i], db[i])
            value[i], same[i] = d.value, d.same_part
        if full.any():
            w = np.linalg.eigvalsh(_inv_sqrt_conjugate(da[full].reconstruct(), db[full]))
            inside = full.copy()
            inside[full] = w[:, 0] > 0.0
            w = w[inside[full]]
            value[inside] = np.log(w[:, -1] / w[:, 0])
            same[full] = True
        return HilbertDistance(value, same)
    ra = _rank(da.eigenvalues)
    rb = _rank(db.eigenvalues)
    if ra == 0 and rb == 0:
        return HilbertDistance(0.0, True)
    if ra == 0 or rb == 0:
        return HilbertDistance(math.inf, False)
    a_mat = da.reconstruct()
    if min(ra, rb) < da.eigenvalues.size:
        b_mat = db.reconstruct()
        ds = _psd_spectrum(hermitian_part(a_mat + b_mat))
        if not ra == rb == _rank(ds.eigenvalues):
            return HilbertDistance(math.inf, False)
        basis = ds.eigenvectors[:, :ra]
        a_mat = basis.conj().T @ a_mat @ basis
        b_mat = basis.conj().T @ b_mat @ basis
        db = _psd_spectrum(hermitian_part(b_mat))
    return HilbertDistance(_interior_distance(a_mat, db), True)


def _interior_distance(a_mat: np.ndarray, db) -> float:
    """d(A, B) of two positive definite matrices, from A and the eigendata of
    B: the log of the spectral spread of B^{-1/2} A B^{-1/2}, or inf when
    that spectrum reads lambda_min <= 0."""
    w = np.linalg.eigvalsh(_inv_sqrt_conjugate(a_mat, db))
    if w[0] <= 0.0:
        return math.inf
    return float(np.log(w[-1] / w[0]))


@dataclass(frozen=True)
class ContractionReport:
    """Contraction evidence for one CP map, optionally merged with its adjoint.

    Two tiers bound the Birkhoff contraction ratio ``kappa_upper`` of the
    map, and ``upper_source`` names the one that holds:

    * ``trivial``: kappa <= 1, valid for every CP map, recorded as None;
    * ``choi``: when the k x (m n) Kraus matrix K has full column rank,
      sigma_min(K)^2 I <= phi(rho) <= sigma_max(K)^2 I on the trace-one
      slice, so the projective diameter is at most
      2 ln(sigma_max^2 / sigma_min^2) (Choi 1975). The bound is rigorous up
      to the floating-point slack of one SVD, and the adjoint, whose Kraus
      matrix has the same singular values, gets the same one.

    ``kappa_step_upper`` bounds the contraction ratio of the full
    power-iteration step map and is flagged ``step_certified`` below 1.
    The sampled ``diameter_lower_bound`` and ``kappa_lower`` (from
    ``sample_count`` same-part pairs) bound the true quantities from below;
    they are None unless sampling was asked for.
    """

    diameter_lower_bound: float | None = None
    kappa_lower: float | None = None
    sample_count: int = 0
    diameter_upper_bound: float | None = None
    kappa_upper: float | None = None
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


def _choi_tier(phi: CPMap) -> ContractionReport:
    """The Choi tier of ``phi`` and of its adjoint, from one SVD.

    For unit x and u, u^dag phi(x x^dag) u = ||K (conj(u) kron x)||^2, where
    the rows of K are the row-major flattened Kraus operators, so every
    output eigenvalue on the trace-one slice lies in [sigma_min^2,
    sigma_max^2]. The singular values are accurate to about
    eps sigma_max sqrt(m n); both ends are widened by that slack, and the
    tier is not claimed unless sigma_min exceeds it. Below k = m n Kraus
    operators K cannot have full column rank and no SVD runs.
    """
    k, m, n = phi.kraus.shape
    if k < m * n:
        return ContractionReport()
    s = np.linalg.svd(phi.kraus.reshape(k, m * n), compute_uv=False)
    slack = np.finfo(np.float64).eps * s[0] * math.sqrt(m * n)
    if s[-1] <= slack:
        return ContractionReport()
    diameter = 4.0 * math.log((s[0] + slack) / (s[-1] - slack))
    return ContractionReport(diameter_upper_bound=diameter,
                             kappa_upper=math.tanh(diameter / 4.0),
                             upper_source="choi")


def _same_part_pairs(n: int, ranks, rng) -> np.ndarray:
    """A (B, 2, n, n) stack of same-part PSD pairs, pair j of rank ranks[j].

    Both matrices of a pair are ``random_psd(r, r)`` draws; below full rank
    they are moved onto the range of one random n x r isometry, the Q of a
    QR. The normals of all pairs come from one draw, read in the order of a
    pair-by-pair loop: the isometry's real then imaginary part when r < n,
    then the real and imaginary parts of both factors. Each rank takes one
    stacked QR and one stack of products.
    """
    ranks = np.asarray(ranks)
    sizes = 4 * ranks ** 2 + np.where(ranks < n, 2 * n * ranks, 0)
    offsets = np.cumsum(sizes) - sizes
    normals = rng.standard_normal(int(sizes.sum()))
    pairs = np.empty((len(ranks), 2, n, n), dtype=np.complex128)
    # a set, not np.unique, whose first call imports numpy.ma (1.6 MB)
    for r in set(ranks.tolist()):
        idx = np.flatnonzero(ranks == r)
        draws = normals[offsets[idx, None] + np.arange(sizes[idx[0]])]
        head = 2 * n * r if r < n else 0
        f = draws[:, head:].reshape(-1, 2, 2, r, r)
        psd = _gram(f[:, :, 0] + 1j * f[:, :, 1])
        if head:
            g = draws[:, :head].reshape(-1, 2, n, r)
            basis = np.linalg.qr(g[:, 0] + 1j * g[:, 1])[0][:, None]
            psd = hermitian_part(basis @ psd @ basis.conj().swapaxes(-1, -2))
        pairs[idx] = psd
    return pairs


def _pair_distances(pairs: np.ndarray):
    """(distance, same part) of each pair of a (B, 2, m, m) stack, in order.
    If a matrix is not PSD, the pairs are taken one at a time, so that
    ``NotPsd`` comes at that pair, after the outcomes before it."""
    try:
        spectra = _psd_spectrum(pairs)
    except NotPsd:
        if len(pairs) == 1:
            raise
        return itertools.chain.from_iterable(
            _pair_distances(pairs[j:j + 1]) for j in range(len(pairs)))
    d = _hilbert_distance(spectra[:, 0], spectra[:, 1])
    return zip(d.value.tolist(), d.same_part.tolist())


def _sampled_blocks(phi: CPMap, ranks: list, rng):
    """(index of the first pair, pairs, images) per block of the
    ``_same_part_pairs`` of the given ranks. A block's (2B, n, n) inputs and
    (2B, m, m) images, and a chunk's (2B, m, k n) intermediate of its one
    stacked map application, each fit in ``_CHUNK_BYTES`` or hold one pair.
    """
    n, m, k = phi.input_dim, phi.output_dim, phi.kraus_count
    block = max(1, _CHUNK_BYTES // (32 * (n * n + m * m)))
    chunk = max(1, _CHUNK_BYTES // (32 * m * k * n))
    for start in range(0, len(ranks), block):
        pairs = _same_part_pairs(n, ranks[start:start + block], rng)
        yield start, pairs, np.concatenate([phi._apply(pairs[lo:lo + chunk])
                                            for lo in range(0, len(pairs), chunk)])


def _sampled_diameter(phi: CPMap, samples: int, seed) -> dict:
    """Sampled lower bounds, as ``ContractionReport`` fields.

    Same-part input pairs (full rank plus every deficient rank on a shared
    random range) give a lower bound on the diameter, hence on the
    contraction ratio tanh(diameter/4). The bound is infinite if any sampled
    image pair lands in different parts or exceeds the overflow threshold;
    the search stops at the first such pair.

    The pairs come from ``_sampled_blocks``, with one ``eigh`` and one
    ``eigvalsh`` per block, and their outcomes are read in sample order.
    """
    ranks = [1 + j % phi.input_dim for j in range(samples)]
    worst = 0.0
    for start, _, images in _sampled_blocks(phi, ranks, subseed(seed, "diameter")):
        for j, (value, same) in enumerate(_pair_distances(images), start):
            if not same or value > DISTANCE_OVERFLOW:
                return {"diameter_lower_bound": math.inf, "kappa_lower": 1.0,
                        "sample_count": j + 1}
            worst = max(worst, value)
    return {"diameter_lower_bound": worst, "kappa_lower": math.tanh(worst / 4.0),
            "sample_count": samples}


def estimate_diameter(phi: CPMap, samples: int = 64, seed=0) -> ContractionReport:
    """Bounds on the projective diameter of a CP map from both sides.

    The lower bound comes from ``samples`` (at least 1) sampled same-part
    input pairs; the upper bound is the Choi tier when it holds (see
    ``ContractionReport``), and the trivial tier otherwise.
    """
    require_count(samples, "samples")
    return replace(_choi_tier(phi), **_sampled_diameter(phi, samples, seed))


def contraction_report(
    phi: CPMap,
    p,
    q,
    samples: int = 0,
    seed=0,
) -> ContractionReport:
    """Contraction evidence for the power-iteration step map.

    One SVD gives the Choi tier of the map and of its adjoint; without it
    both take the trivial bound 1. Their ratios combine into the step bound
    kappa * kappa_adjoint * (q-1)/(p-1), flagged certified below 1. With
    ``samples`` > 0 each side also carries sampled diameter lower bounds;
    ``samples`` = 0 samples nothing.
    """
    require_count(samples, "samples", minimum=0)
    fwd = adj = _choi_tier(phi)
    if samples:
        fwd = replace(fwd, **_sampled_diameter(
            phi, samples, subseed(seed, "forward-map").integers(2**32)))
        adj = replace(adj, **_sampled_diameter(
            phi.adjoint(), samples, subseed(seed, "adjoint-map").integers(2**32)))
    kappa = 1.0 if fwd.kappa_upper is None else fwd.kappa_upper
    bound = step_contraction_bound(kappa, kappa, p, q)
    return replace(fwd, adjoint=adj, kappa_step_upper=bound, step_certified=bound < 1.0)


def sampled_contraction_ratio(phi: CPMap, pairs: int = 500, seed=0) -> float:
    """Largest observed d(phi(A), phi(B)) / d(A, B) over random PD pairs.

    A lower bound on the true contraction ratio; reported, never asserted
    as a universal bound. The pairs are full-rank ``random_psd`` draws,
    sampled and mapped in blocks by ``_sampled_blocks``. Pairs closer than
    1e-9, or too ill-conditioned for their distance to resolve, are
    skipped; an image pair in different parts gives inf.
    """
    require_count(pairs, "pairs")
    n = phi.input_dim
    worst = 0.0
    for _, inputs, images in _sampled_blocks(phi, [n] * pairs,
                                             subseed(seed, "contraction-ratio")):
        for (d, _), (d_out, same_out) in zip(_pair_distances(inputs),
                                             _pair_distances(images)):
            if not 1e-9 <= d < math.inf:
                continue
            if not same_out:
                return math.inf
            worst = max(worst, d_out / d)
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
    """Run the contraction analysis plus the structural checks.

    When the Choi tier holds, every output of the map and of its adjoint is
    positive definite, so both are positively improving and adjoint(phi) o
    phi raises every rank: all three verdicts are ``CERTIFIED`` and no trial
    runs. Otherwise the sampled checks search for counterexamples. The trial
    counts must be at least 1 either way; ``samples`` = 0 samples no
    diameters.
    """
    require_count(fi_trials, "fi_trials")
    require_count(pi_trials, "pi_trials")
    sp = as_exponent(p)
    sq = as_exponent(q)
    contraction = contraction_report(phi, sp, sq, samples=samples, seed=seed)
    if contraction.upper_source == "choi":
        fi = StructuralVerdict(StructuralProperty.FULLY_INDECOMPOSABLE,
                               Verdict.CERTIFIED, trials=0)
        pi = pi_adj = StructuralVerdict(StructuralProperty.POSITIVELY_IMPROVING,
                                        Verdict.CERTIFIED, trials=0)
    else:
        fi = check_fully_indecomposable(phi, trials=fi_trials, seed=seed)
        pi = check_positively_improving(phi, trials=pi_trials, seed=seed)
        pi_adj = check_positively_improving(phi.adjoint(), trials=pi_trials, seed=seed)
    return DiagnosticsReport(
        fully_indecomposable=fi,
        positively_improving=pi,
        adjoint_positively_improving=pi_adj,
        contraction=contraction,
        p=sp.p,
        q=sq.p,
    )
