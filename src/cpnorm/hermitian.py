"""Hermitian and positive semidefinite matrix algebra.

All operations work on plain complex ndarrays and are pure functions of
their inputs. Public functions validate their arguments through
``require_hermitian``; the private kernels behind them (``_eig_decompose``,
``_psd_spectrum``, ``_spectral_cutoff``, ``_rank`` and
``EigDecomp.reconstruct``) trust theirs, so hot loops that already hold
validated Hermitian matrices call the kernels directly. The kernels take one
matrix (n, n) or spectrum (n,), or a stack (..., n, n) or (..., n) of them,
and give each matrix of a stack the bits it gets on its own; a single
matrix keeps scalar results (a float cutoff, an int rank). Eigenvalues come
in descending order everywhere. Eigenvector phases are canonical (each
column's first significant component real positive) only where the public
API returns eigenvectors, in ``eig_decompose`` and ``psd_spectrum``; the
kernels return ``eigh``'s own phases, which no product V f(Lambda) V^dag,
range or rank built from them can see. One public result is the exception:
``power.PowerStep.spectrum`` returns eigenvectors with ``eigh``'s phases.

``require_hermitian`` validates on two paths. A short one accepts ordinary
matrices from two ``np.vdot`` squared norms, with a threshold 0.1 % inside
the rule; the full test (``_require_hermitian_full``) takes every other
input, so both give the same bits, decisions and messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import HERMITIZE_RTOL, RANK_RTOL, as_rng, converted, require_count
from .errors import DimMismatch, InvalidInput, NotPsd


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2 of a square matrix, or of each matrix of a stack.

    A float or complex M gets one new array, M^dag in C order, to which M is
    added and which is then divided by 2 in place. Float addition commutes,
    so the bits are those of the formula (halving by ``* 0.5`` would flip
    the sign of some zeros). Any other dtype, such as an integer one, takes
    the formula itself and gives float64.
    """
    if m.dtype.kind not in "fc":
        return (m + m.conj().swapaxes(-1, -2)) / 2
    h = np.conjugate(m.swapaxes(-1, -2), order="C")
    h += m
    h /= 2
    return h


def frobenius_inner(a, b) -> float:
    """Real inner product tr(a^dag b) of two Hermitian matrices."""
    return float(np.real(np.sum(np.conj(np.asarray(a)) * np.asarray(b))))


def _require_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InvalidInput("matrix contains non-finite entries")
    return a


# The short path's window: the rule's threshold less 0.1 %, squared, and
# squared norms far from overflow and from subnormal rounding.
_LEAN_RTOL2 = (HERMITIZE_RTOL * (1 - 1e-3)) ** 2
_LEAN_MIN, _LEAN_MAX = 1e-290, 1e290


def require_hermitian(m) -> np.ndarray:
    """Validate a square matrix and return its finite symmetrized copy.

    Deviation from M^dag below ``HERMITIZE_RTOL * ||M||_F`` is symmetrized
    away; anything larger is rejected because it usually signals an IO bug.
    When ||M||_F overflows, the test is redone on M scaled by a power of two,
    which is exact. A finite ||M||_F bounds every entry far below where the
    symmetrization overflows; otherwise the copy itself is checked for
    finiteness.

    Most calls take a short path that can only accept: squared norms from
    two ``np.vdot`` calls, a threshold 0.1 % inside the rule, and ||M||_F^2
    within [1e-290, 1e290]. Rounding moves those squares by far less than
    the margin, so the path accepts only matrices the full test accepts, and
    returns the same copy. Every other input, rejections, non-finite entries
    and deviations near the threshold included, takes the full test.
    """
    a = converted(lambda v: np.asarray(v, dtype=np.complex128), m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("matrix dimension must be at least 1")
    ah = a.conj().T
    size2 = np.vdot(a, a).real
    if _LEAN_MIN < size2 < _LEAN_MAX:  # false for NaN and inf too
        d = a - ah
        if np.vdot(d, d).real < _LEAN_RTOL2 * size2:
            sym = a + ah
            sym /= 2
            return sym
    return _require_hermitian_full(a, ah)


def _require_hermitian_full(a: np.ndarray, ah: np.ndarray) -> np.ndarray:
    """``require_hermitian``'s full test of a square complex matrix ``a``
    and its conjugate transpose ``ah``, valid on every input."""
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.linalg.norm(a - ah)
        size = np.linalg.norm(a)
        if np.isinf(size) and np.isfinite(a).all():
            # both norms can overflow, and inf > inf is false
            top = max(np.abs(a.real).max(), np.abs(a.imag).max())
            s = a * np.ldexp(1.0, -int(np.frexp(top)[1]))
            rejected = (np.linalg.norm(s - s.conj().T)
                        > HERMITIZE_RTOL * np.linalg.norm(s))
        else:
            rejected = deviation > HERMITIZE_RTOL * size
        if rejected:
            raise InvalidInput(
                f"matrix is not Hermitian: ||M - M^dag||_F = {deviation:.3e}"
            )
        sym = (a + ah) / 2  # hermitian_part(a), reusing the adjoint
    return sym if np.isfinite(size) else _require_finite(sym)


@dataclass(frozen=True, eq=False)
class EigDecomp:
    """Descending eigenvalues with matching orthonormal eigenvector columns,
    of one matrix, or of each matrix of a stack: (..., n) eigenvalues and
    (..., n, n) eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __getitem__(self, index) -> "EigDecomp":
        """The decompositions that ``index`` selects from the stack axes."""
        return EigDecomp(self.eigenvalues[index], self.eigenvectors[index])

    def reconstruct(self) -> np.ndarray:
        """Q diag(lambda) Q^dag, of each matrix of a stack."""
        q = self.eigenvectors
        return (q * self.eigenvalues[..., None, :]) @ q.conj().swapaxes(-1, -2)


def eig_decompose(a) -> EigDecomp:
    """Canonical eigendecomposition of a Hermitian matrix.

    Deterministic for a fixed input: eigenvalues sorted descending, and each
    eigenvector's first significant component rotated to be real positive.
    """
    return _canonical_phases(_eig_decompose(require_hermitian(a)))


def _eig_decompose(m: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a trusted Hermitian matrix, or of each matrix of
    a stack: ``eigh`` reversed to descending order, as views, with ``eigh``'s
    eigenvector phases."""
    vals, vecs = np.linalg.eigh(m)
    return EigDecomp(vals[..., ::-1], vecs[..., ::-1])


def _canonical_phases(dec: EigDecomp) -> EigDecomp:
    """``dec`` with each eigenvector rotated so that its pivot is real positive.

    The first component above 1e-8 of its column's largest magnitude is the
    pivot. Its magnitude comes from ``np.hypot``, which rounds like the
    scalar ``abs`` and so keeps the phases those of a column-by-column loop.
    """
    vecs = dec.eigenvectors
    mag = np.abs(vecs)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    pivot = vecs[first, np.arange(vecs.shape[1])]
    return EigDecomp(dec.eigenvalues,
                     vecs * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag)))


def _spectral_cutoff(vals: np.ndarray):
    """RANK_RTOL * |lambda|_max of a sorted, nonempty spectrum: the one
    cutoff behind every rank, PSD and part-of-the-cone decision. It scales
    with the spectrum, so every such decision is invariant under A -> cA.
    A float for one spectrum, an array of cutoffs for a (..., n) stack."""
    if vals.ndim == 1:  # Python floats cost a third of 0-d arrays
        return RANK_RTOL * max(abs(vals.item(0)), abs(vals.item(-1)))
    return RANK_RTOL * np.maximum(abs(vals[..., 0]), abs(vals[..., -1]))


def _rank(vals: np.ndarray):
    """Count of eigenvalues above ``_spectral_cutoff`` in magnitude: an int
    for one spectrum, an array of counts for a (..., n) stack."""
    cutoff = _spectral_cutoff(vals)
    if vals.ndim == 1:
        return int(np.count_nonzero(np.abs(vals) > cutoff))
    return np.count_nonzero(np.abs(vals) > cutoff[..., None], axis=-1)


def psd_spectrum(a) -> EigDecomp:
    """Canonical eigendecomposition of a PSD matrix with small negatives
    clamped to 0.

    Eigenvalues below ``-_spectral_cutoff`` raise ``NotPsd``.
    """
    return _canonical_phases(_psd_spectrum(require_hermitian(a)))


def _psd_spectrum(m: np.ndarray) -> EigDecomp:
    """``psd_spectrum`` of a trusted Hermitian matrix, or of each matrix of a
    stack, with ``eigh``'s eigenvector phases. On a stack, ``NotPsd`` names
    the first matrix, in C order, that is not PSD."""
    dec = _eig_decompose(m)
    vals = dec.eigenvalues
    stack = vals.ndim > 1
    smallest = vals[..., -1] if stack else vals[-1]
    low = smallest < -_spectral_cutoff(vals)
    if low.any() if stack else low:
        raise NotPsd(
            f"matrix is not PSD: smallest eigenvalue {np.extract(low, smallest)[0]:.3e}"
        )
    return EigDecomp(np.maximum(vals, 0.0), dec.eigenvectors)


def matrix_power(a, t: float) -> np.ndarray:
    """A**t for PSD A through the spectral calculus Q diag(lambda**t) Q^dag."""
    t = converted(float, t, "exponent")
    if not np.isfinite(t) or t <= 0:
        raise InvalidInput(f"exponent must be a positive real, got {t}")
    dec = _psd_spectrum(require_hermitian(a))
    return hermitian_part(EigDecomp(dec.eigenvalues**t, dec.eigenvectors).reconstruct())


def abs_matrix(a) -> np.ndarray:
    """|A|: flip negative eigenvalues, keep eigenvectors."""
    dec = _eig_decompose(require_hermitian(a))
    flipped = EigDecomp(np.abs(dec.eigenvalues), dec.eigenvectors)
    return hermitian_part(flipped.reconstruct())


def loewner_geq(a, b) -> bool:
    """True when A - B is PSD: lambda_min(A - B) >= -cutoff, with the larger
    ``_spectral_cutoff`` of A and of B.

    The cutoff comes from the operands, not from A - B, whose spectrum
    shrinks with the gap: A >= A (1 + eps) holds for eps up to about RANK_RTOL.
    """
    am = require_hermitian(a)
    bm = require_hermitian(b)
    if am.shape != bm.shape:
        raise DimMismatch(f"shapes {am.shape} and {bm.shape} differ")
    cutoff = max(_spectral_cutoff(np.linalg.eigvalsh(am)),
                 _spectral_cutoff(np.linalg.eigvalsh(bm)))
    return bool(np.linalg.eigvalsh(am - bm)[0] >= -cutoff)


def numerical_rank(a) -> int:
    """Count of eigenvalues above ``_spectral_cutoff`` in magnitude."""
    return _rank(np.linalg.eigvalsh(require_hermitian(a)))


class PsdKind(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PsdClass:
    kind: PsdKind
    rank: int


def classify_psd(a) -> PsdClass:
    """Classify a Hermitian matrix against the PSD cone at ``_spectral_cutoff``."""
    vals = np.linalg.eigvalsh(require_hermitian(a))
    cutoff = _spectral_cutoff(vals)
    rank = _rank(vals)
    if vals[0] < -cutoff:
        kind = PsdKind.INDEFINITE
    elif rank == vals.size and vals[0] > cutoff:
        kind = PsdKind.POSITIVE_DEFINITE
    else:
        kind = PsdKind.POSITIVE_SEMIDEFINITE_SINGULAR
    return PsdClass(kind, rank)


def random_hermitian(n: int, seed) -> np.ndarray:
    """Seeded Hermitian matrix with complex Gaussian entries."""
    require_count(n, "n")
    rng = as_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def random_psd(n: int, rank: int, seed) -> np.ndarray:
    """Seeded PSD matrix of exactly the requested numerical rank.

    Built as G G^dag with G an n x rank matrix of i.i.d. standard complex
    normal entries, so the rank is ``rank`` with probability 1.
    """
    require_count(n, "n")
    require_count(rank, "rank")
    if rank > n:
        raise InvalidInput(f"rank must lie in [1, {n}], got {rank}")
    rng = as_rng(seed)
    return _gram(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))


def _gram(g: np.ndarray) -> np.ndarray:
    """G G^dag / 2 of a complex Gaussian n x r factor, or of each factor of a
    stack: the PSD matrix that ``random_psd`` builds from its draw."""
    g = g / np.sqrt(2)
    return hermitian_part(g @ g.conj().swapaxes(-1, -2))


def random_unit_vector(n: int, seed) -> np.ndarray:
    """Seeded complex unit vector, uniform on the sphere."""
    require_count(n, "n")
    rng = as_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)
