"""Schatten norms and the norm's gradient (duality) map on the PSD cone."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, ZeroInput
from .hermitian import EigDecomp, _psd_spectrum, hermitian_part, require_hermitian


@dataclass(frozen=True)
class SchattenExponent:
    """Exponent p in (1, inf) paired with its dual p/(p-1)."""

    p: float
    p_star: float


def dual_exponent(p) -> SchattenExponent:
    """Build the validated exponent pair with 1/p + 1/p_star = 1.

    Above about 2^53, p / (p - 1) rounds to 1; the duality map at the
    dual would then raise the spectrum to the power p_star - 1 = 0 and send
    every positive definite iterate to the same point. Such p are rejected.
    """
    p = float(p)
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
    p = float(p)
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
    return _duality_map(_psd_spectrum(require_hermitian(a)), exp)


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
