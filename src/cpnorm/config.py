"""Shared numerical tolerances, the count-argument check and deterministic
seed derivation."""

import zlib
from numbers import Integral

import numpy as np

from .errors import InvalidInput

# Single rank/PSD knob: eigenvalues with magnitude below
# RANK_RTOL * |lambda|_max count as zero everywhere in the package.
# Its only reader is hermitian._spectral_cutoff.
RANK_RTOL = 1e-10

# Constructor gate: matrices whose Hermitian deviation ||M - M^dag||_F exceeds
# HERMITIZE_RTOL * ||M||_F are rejected; smaller drift is symmetrized away.
HERMITIZE_RTOL = 1e-8

# Hilbert distances beyond this are reported as infinite; tanh(d/4) is already
# 1.0 in float64 long before this point.
DISTANCE_OVERFLOW = 1e6


def require_count(value, name: str) -> None:
    """Raise ``InvalidInput`` unless ``value`` is an integer of at least 1;
    a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidInput(f"{name} must be at least 1")


def as_rng(seed):
    """Accept an integer seed or an existing numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def subseed(seed, *path):
    """Derive a child generator from a root seed and a path of labels.

    String labels are hashed with crc32 so the derivation is stable across
    runs and platforms; integer labels are used as-is. All randomness in the
    package flows through this function, keyed by one root seed.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode("utf-8")))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))
