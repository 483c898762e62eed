"""Shared sample generators and record comparisons for the test suite."""

import math
import re

import numpy as np

from cpnorm import hermitian_part, random_psd, schatten_norm


def well_conditioned_pd(n, seed, ridge=0.1):
    """Full-rank PSD sample with bounded condition number."""
    a = random_psd(n, n, seed)
    scale = float(np.trace(a).real) / n
    return a + ridge * scale * np.eye(n)


def loewner_pair(n, seed):
    """Pair (a, b) with a >= b >= 0 in the Loewner order."""
    rng = np.random.default_rng(seed)
    b = random_psd(n, n, rng)
    return b + random_psd(n, n, rng), b


def shared_range_pair(n, r, seed):
    """Two rank-r PSD matrices with identical range (same part of the cone)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    basis, _ = np.linalg.qr(g)
    a = basis @ well_conditioned_pd(r, rng) @ basis.conj().T
    b = basis @ well_conditioned_pd(r, rng) @ basis.conj().T
    return a, b


def unit_sp(a, p):
    return a / schatten_norm(a, p)


def loop_apply(ops, a):
    """Reference: the per-operator sum over a tuple of separate operators."""
    out = np.zeros((ops[0].shape[0],) * 2, dtype=np.complex128)
    for v in ops:
        out += v @ a @ v.conj().T
    return hermitian_part(out)


# A JSON string, or a JSON number; strings come first so that digits inside
# them are never read as numbers.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')


def _numbers(text):
    """``text`` with every number replaced by ``#``, and the numbers."""
    numbers = []

    def mask(match):
        token = match.group()
        if token.startswith('"'):
            return token
        numbers.append(token)
        return "#"

    return _TOKEN.sub(mask, text), numbers


def _is_float(token):
    return any(c in token for c in ".eE")


def records_close(text_a, text_b, rtol):
    """True when two record texts agree field by field: layout, keys, strings
    and integers exactly, floats to ``rtol`` relative to the larger magnitude."""
    layout_a, numbers_a = _numbers(text_a)
    layout_b, numbers_b = _numbers(text_b)
    if layout_a != layout_b:
        return False
    for a, b in zip(numbers_a, numbers_b):
        if _is_float(a) != _is_float(b):
            return False
        if _is_float(a):
            if not math.isclose(float(a), float(b), rel_tol=rtol):
                return False
        elif a != b:
            return False
    return True
