"""Shared numerical tolerances, the argument checks and conversion, and
deterministic seed derivation."""

import math
import zlib
from numbers import Integral, Real

import numpy as np

from .errors import InvalidInput

# Single rank/PSD knob: eigenvalues with magnitude below
# RANK_RTOL * |lambda|_max count as zero everywhere in the package.
# Its only reader is hermitian._spectral_cutoff.
RANK_RTOL = 1e-10

# Constructor gate: matrices whose Hermitian deviation ||M - M^dag||_F exceeds
# HERMITIZE_RTOL * ||M||_F are rejected; smaller drift is symmetrized away.
HERMITIZE_RTOL = 1e-8

# A power run reports CONVERGED only when its final critical-point residual
# ||adjoint(phi)(J_q(phi(A))) - f(A) J_p(A)||_F is at most CRITICAL_RTOL * f(A);
# a run that settles elsewhere, as iterates that collapse near p = 1 do, gets
# a status of its own.
CRITICAL_RTOL = 1e-6

# Hilbert distances beyond this are reported as infinite; tanh(d/4) is already
# 1.0 in float64 long before this point.
DISTANCE_OVERFLOW = 1e6


def require_count(value, name: str, minimum: int = 1) -> None:
    """Raise ``InvalidInput`` unless ``value`` is an integer of at least
    ``minimum``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInput(f"{name} must be at least {minimum}")


def require_tolerance(value, name: str, zero_ok: bool = False) -> None:
    """Raise ``InvalidInput`` unless ``value`` is a real number, finite and
    positive, or zero with ``zero_ok``; a bool is not a tolerance."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
        bound = "nonnegative" if zero_ok else "positive"
        raise InvalidInput(f"{name} must be finite and {bound}, got {value!r}")


def converted(convert, value, what: str, error=InvalidInput):
    """``convert(value)``, raising ``error`` in place of the ``TypeError`` or
    ``ValueError`` of a value it cannot convert, such as a string."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise error(f"invalid {what}: {exc}") from None


def as_rng(seed):
    """Accept an integer seed or an existing numpy Generator, which
    ``default_rng`` returns as it is."""
    return converted(np.random.default_rng, seed, "seed")


def subseed(seed, *path):
    """Derive a child generator from a root seed and a path of labels.

    String labels are hashed with crc32 so the derivation is stable across
    runs and platforms; integer labels are used as-is. All randomness in the
    package flows through this function, keyed by one root seed.
    """
    entropy = [converted(int, seed, "seed") & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))
