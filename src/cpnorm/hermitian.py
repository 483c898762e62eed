"""Hermitian and positive semidefinite matrix algebra.

All operations work on plain complex ndarrays and are pure functions of
their inputs. Public functions validate their arguments through
``require_hermitian``; the private kernels behind them (``_eig_decompose``,
``_psd_spectrum``, ``_rank``) trust theirs, so hot loops that already hold
validated Hermitian matrices call the kernels directly. Eigenvalues come in
descending order everywhere. Eigenvector phases are canonical (each
column's first significant component real positive) only where the public
API returns eigenvectors, in ``eig_decompose`` and ``psd_spectrum``; the
kernels return ``eigh``'s own phases, which no product V f(Lambda) V^dag,
range or rank built from them can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import HERMITIZE_RTOL, RANK_RTOL, as_rng
from .errors import DimMismatch, InvalidInput, NotPsd


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def frobenius_inner(a, b) -> float:
    """Real inner product tr(a^dag b) of two Hermitian matrices."""
    return float(np.real(np.sum(np.conj(np.asarray(a)) * np.asarray(b))))


def _require_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise InvalidInput("matrix contains non-finite entries")
    return a


def require_hermitian(m) -> np.ndarray:
    """Validate a square matrix and return its finite symmetrized copy.

    Deviation from M^dag below ``HERMITIZE_RTOL * ||M||_F`` is symmetrized
    away; anything larger is rejected because it usually signals an IO bug.
    When ||M||_F overflows, the test is redone on M scaled by a power of two,
    which is exact. A finite ||M||_F bounds every entry far below where the
    symmetrization overflows; otherwise the copy itself is checked for
    finiteness.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("matrix dimension must be at least 1")
    ah = a.conj().T
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
    """Descending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.conj().T


def eig_decompose(a) -> EigDecomp:
    """Canonical eigendecomposition of a Hermitian matrix.

    Deterministic for a fixed input: eigenvalues sorted descending, and each
    eigenvector's first significant component rotated to be real positive.
    """
    return _canonical_phases(_eig_decompose(require_hermitian(a)))


def _eig_decompose(m: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a trusted Hermitian matrix: ``eigh`` reversed to
    descending order, as views, with ``eigh``'s eigenvector phases."""
    vals, vecs = np.linalg.eigh(m)
    return EigDecomp(vals[::-1], vecs[:, ::-1])


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


def _spectral_cutoff(vals: np.ndarray) -> float:
    """RANK_RTOL * |lambda|_max of a sorted, nonempty spectrum: the one
    cutoff behind every rank, PSD and part-of-the-cone decision. It scales
    with the spectrum, so every such decision is invariant under A -> cA."""
    return RANK_RTOL * max(abs(vals.item(0)), abs(vals.item(-1)))


def _rank(vals: np.ndarray) -> int:
    """Count of eigenvalues above ``_spectral_cutoff`` in magnitude."""
    return int(np.count_nonzero(np.abs(vals) > _spectral_cutoff(vals)))


def psd_spectrum(a) -> EigDecomp:
    """Canonical eigendecomposition of a PSD matrix with small negatives
    clamped to 0.

    Eigenvalues below ``-_spectral_cutoff`` raise ``NotPsd``.
    """
    return _canonical_phases(_psd_spectrum(require_hermitian(a)))


def _psd_spectrum(m: np.ndarray) -> EigDecomp:
    """``psd_spectrum`` of a trusted Hermitian matrix, with ``eigh``'s
    eigenvector phases."""
    dec = _eig_decompose(m)
    cutoff = _spectral_cutoff(dec.eigenvalues)
    if dec.eigenvalues[-1] < -cutoff:
        raise NotPsd(
            f"matrix is not PSD: smallest eigenvalue {dec.eigenvalues[-1]:.3e}"
        )
    return EigDecomp(np.maximum(dec.eigenvalues, 0.0), dec.eigenvectors)


def matrix_power(a, t: float) -> np.ndarray:
    """A**t for PSD A through the spectral calculus Q diag(lambda**t) Q^dag."""
    t = float(t)
    if not np.isfinite(t) or t <= 0:
        raise InvalidInput(f"exponent must be a positive real, got {t}")
    dec = _psd_spectrum(require_hermitian(a))
    return hermitian_part(
        (dec.eigenvectors * dec.eigenvalues**t) @ dec.eigenvectors.conj().T
    )


def abs_matrix(a) -> np.ndarray:
    """|A|: flip negative eigenvalues, keep eigenvectors."""
    dec = _eig_decompose(require_hermitian(a))
    return hermitian_part(
        (dec.eigenvectors * np.abs(dec.eigenvalues)) @ dec.eigenvectors.conj().T
    )


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
    rng = as_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def random_psd(n: int, rank: int, seed) -> np.ndarray:
    """Seeded PSD matrix of exactly the requested numerical rank.

    Built as G G^dag with G an n x rank matrix of i.i.d. standard complex
    normal entries, so the rank is ``rank`` with probability 1.
    """
    if not 1 <= rank <= n:
        raise InvalidInput(f"rank must lie in [1, {n}], got {rank}")
    rng = as_rng(seed)
    g = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    g /= np.sqrt(2)
    return hermitian_part(g @ g.conj().T)


def random_unit_vector(n: int, seed) -> np.ndarray:
    """Seeded complex unit vector, uniform on the sphere."""
    rng = as_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)
