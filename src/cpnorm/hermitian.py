"""Hermitian and positive semidefinite matrix algebra.

All operations work on plain complex ndarrays and are pure functions of
their inputs; ``require_hermitian`` validates matrices at IO boundaries.
Eigendecompositions are canonicalized (descending eigenvalues,
fixed eigenvector phases) so repeated runs produce identical output.
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


def require_hermitian(m, rtol: float = HERMITIZE_RTOL) -> np.ndarray:
    """Validate a square matrix and return its symmetrized copy.

    Deviation from M^dag below ``rtol * ||M||_F`` is symmetrized away;
    anything larger is rejected because it usually signals an IO bug.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    deviation = np.linalg.norm(a - a.conj().T)
    if deviation > rtol * np.linalg.norm(a):
        raise InvalidInput(
            f"matrix is not Hermitian: ||M - M^dag||_F = {deviation:.3e}"
        )
    return hermitian_part(a)


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
    m = require_hermitian(a)
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        significant = np.flatnonzero(np.abs(col) > 1e-8 * np.abs(col).max())
        pivot = col[significant[0]]
        vecs[:, j] = col * (np.conj(pivot) / abs(pivot))
    return EigDecomp(vals, vecs)


def _spectral_cutoff(vals: np.ndarray, tol: float) -> float:
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return tol * max(1.0, scale)


def psd_spectrum(a, tol: float = RANK_RTOL) -> EigDecomp:
    """Eigendecomposition of a PSD matrix with small negatives clamped to 0.

    Eigenvalues below ``-tol * max(1, |lambda|_max)`` raise ``NotPsd``.
    """
    dec = eig_decompose(a)
    cutoff = _spectral_cutoff(dec.eigenvalues, tol)
    if dec.eigenvalues[-1] < -cutoff:
        raise NotPsd(
            f"matrix is not PSD: smallest eigenvalue {dec.eigenvalues[-1]:.3e}"
        )
    return EigDecomp(np.clip(dec.eigenvalues, 0.0, None), dec.eigenvectors)


def matrix_power(a, t: float, tol: float = RANK_RTOL) -> np.ndarray:
    """A**t for PSD A through the spectral calculus Q diag(lambda**t) Q^dag."""
    t = float(t)
    if not np.isfinite(t) or t <= 0:
        raise InvalidInput(f"exponent must be a positive real, got {t}")
    dec = psd_spectrum(a, tol)
    return hermitian_part(
        (dec.eigenvectors * dec.eigenvalues**t) @ dec.eigenvectors.conj().T
    )


def abs_matrix(a) -> np.ndarray:
    """|A|: flip negative eigenvalues, keep eigenvectors."""
    dec = eig_decompose(a)
    return hermitian_part(
        (dec.eigenvectors * np.abs(dec.eigenvalues)) @ dec.eigenvectors.conj().T
    )


def loewner_geq(a, b, tol: float = 1e-9) -> bool:
    """True when A - B is PSD at tolerance, i.e. lambda_min(A - B) >= -tol."""
    am = require_hermitian(a)
    bm = require_hermitian(b)
    if am.shape != bm.shape:
        raise DimMismatch(f"shapes {am.shape} and {bm.shape} differ")
    return bool(np.linalg.eigvalsh(am - bm)[0] >= -tol)


def numerical_rank(a, tol: float = RANK_RTOL) -> int:
    """Count of eigenvalues with |lambda_i| > tol * max(1, |lambda|_max)."""
    vals = np.linalg.eigvalsh(require_hermitian(a))
    return int(np.count_nonzero(np.abs(vals) > _spectral_cutoff(vals, tol)))


class PsdKind(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_SINGULAR = "positive_semidefinite_singular"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class PsdClass:
    kind: PsdKind
    rank: int


def classify_psd(a, tol: float = RANK_RTOL) -> PsdClass:
    """Classify a Hermitian matrix against the PSD cone at rank tolerance."""
    vals = np.linalg.eigvalsh(require_hermitian(a))
    cutoff = _spectral_cutoff(vals, tol)
    rank = int(np.count_nonzero(np.abs(vals) > cutoff))
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
