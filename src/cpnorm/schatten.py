"""Schatten norms and the norm's gradient (duality) map on the PSD cone.

J_q is a spectral function of its argument for every q but one: at q = 2
the gradient of the Frobenius norm is linear, J_2(B) = B / ||B||_F for PSD
B. ``_norm_and_duality`` takes that closed form on positive definite
matrices, which a Cholesky factorisation recognises at a fraction of the
cost of an eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import converted
from .errors import InvalidExponent, ZeroInput
from .hermitian import EigDecomp, _psd_spectrum, hermitian_part, require_hermitian

# Largest dimension at which a successful Cholesky factorisation proves that
# the PSD test of ``_psd_spectrum`` passes; see ``_norm_and_duality``.
_CHOLESKY_MAX_DIM = 256


@dataclass(frozen=True)
class SchattenExponent:
    """Exponent p in (1, inf) paired with its dual p/(p-1)."""

    p: float
    p_star: float

    @cached_property
    def dual(self) -> SchattenExponent:
        """The pair (p_star, p), the exponent of J_{p*}; built once per pair."""
        return SchattenExponent(self.p_star, self.p)


def dual_exponent(p) -> SchattenExponent:
    """Build the validated exponent pair with 1/p + 1/p_star = 1.

    Above about 2^53, p / (p - 1) rounds to 1; the duality map at the
    dual would then raise the spectrum to the power p_star - 1 = 0 and send
    every positive definite iterate to the same point. Such p are rejected.
    """
    p = converted(float, p, "exponent", InvalidExponent)
    if not math.isfinite(p) or p <= 1.0:
        raise InvalidExponent(f"exponent must lie in the open interval (1, inf), got {p}")
    p_star = p / (p - 1.0)
    if p_star == 1.0:
        raise InvalidExponent(f"exponent {p} is too large: its dual rounds to 1")
    return SchattenExponent(p, p_star)


def as_exponent(p) -> SchattenExponent:
    if isinstance(p, SchattenExponent):
        return p
    return dual_exponent(p)


def schatten_norm(a, p) -> float:
    """tr(|A|^p)^(1/p), the l^p norm of the eigenvalue vector of Hermitian A.

    The endpoints are meaningful here: p=1 is the trace norm and p=inf the
    operator norm. The duality map below requires 1 < p < inf.
    """
    if isinstance(p, SchattenExponent):
        p = p.p
    p = converted(float, p, "exponent", InvalidExponent)
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"Schatten norms need p >= 1, got {p}")
    return _spectrum_norm(np.linalg.eigvalsh(require_hermitian(a)), p)


def _spectrum_norm(eigenvalues: np.ndarray, p: float) -> float:
    """``schatten_norm`` from the eigenvalues of a trusted matrix, p >= 1."""
    vals = np.abs(eigenvalues)
    top = float(vals.max())
    if top == 0.0:
        return 0.0
    if math.isinf(p):
        return top
    if p == 1.0:
        return float(vals.sum())
    return float(top * ((vals / top) ** p).sum() ** (1.0 / p))


def duality_map(a, p) -> np.ndarray:
    """Gradient of the Schatten p-norm at a nonzero PSD matrix.

    Returns the unique PSD matrix B with <A, B> = ||A||_p and ||B||_{p*} = 1,
    obtained by raising the spectrum to the power p-1 and normalizing in the
    dual norm. Zero eigenvalues map to zero (the continuous extension valid
    for p > 1), and the result is invariant under positive scaling of A.
    """
    exp = as_exponent(p)
    return _norm_and_duality(require_hermitian(a), exp)[1]


def _norm_and_duality(b: np.ndarray, exp: SchattenExponent) -> tuple[float, np.ndarray]:
    """(||B||_q, J_q(B)) of a trusted, finite Hermitian matrix B: the one
    kernel behind ``duality_map`` and the power loop's image step.

    At q = 2 and n <= ``_CHOLESKY_MAX_DIM``, a successful ``cholesky`` shows
    B positive definite, and the result is ||B||_F and B / ||B||_F. B is
    first divided by the power of two at its largest diagonal entry, which
    bounds every entry of a PSD matrix, so the norm neither overflows nor
    underflows. The factorisation cannot pass a matrix that
    ``_psd_spectrum`` rejects: it succeeds only on B + E with E Hermitian
    and ||E||_2 <= c n^2 u ||B||_2, for a small constant c and the unit
    roundoff u (Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 10.3), so lambda_min(B) >= -c n^2 u ||B||_2. The constant c is
    about 1 in real and a few units in complex arithmetic; for n <= 256,
    n^2 u <= 7.3e-12, inside the ``RANK_RTOL`` = 1e-10 cutoff for any c up
    to 13. Every other B, singular, indefinite and zero ones included, takes
    the spectral path: ``_psd_spectrum``, which raises ``NotPsd``, then J_q
    of the spectrum, which raises ``ZeroInput`` at B = 0.
    """
    if exp.p == 2.0 and b.shape[0] <= _CHOLESKY_MAX_DIM:
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            pass
        else:
            scale = math.ldexp(1.0, math.frexp(float(b.real.diagonal().max()))[1] - 1)
            unit = b / scale
            fro = float(np.linalg.norm(unit))
            unit /= fro
            return fro * scale, unit
    dec = _psd_spectrum(b)
    return _spectrum_norm(dec.eigenvalues, exp.p), _duality_map(dec, exp)


def _duality_map(dec: EigDecomp, exp: SchattenExponent) -> np.ndarray:
    """``duality_map`` from the ``psd_spectrum`` of a trusted matrix."""
    w = _duality_weights(dec.eigenvalues, exp)
    return hermitian_part((dec.eigenvectors * w) @ dec.eigenvectors.conj().T)


def _duality_weights(eigenvalues: np.ndarray, exp: SchattenExponent) -> np.ndarray:
    """The eigenvalues of ``_duality_map``, which keeps the eigenvectors:
    descending and nonnegative like ``eigenvalues``, since mu -> mu^(p-1) is
    increasing, with unit l^{p*} norm. Zero eigenvalues give exact zeros."""
    top = eigenvalues[0]
    if top <= 0.0:
        raise ZeroInput("duality map is undefined at the zero matrix")
    w = (eigenvalues / top) ** (exp.p - 1.0)
    return w / (w**exp.p_star).sum() ** (1.0 / exp.p_star)
