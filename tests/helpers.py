"""Shared sample generators, call counters and record comparisons for the
test suite."""

import json
import math
import re

import numpy as np
import pytest

from cpnorm import (
    IterationStatus,
    default_start,
    hermitian_part,
    hilbert_distance,
    power,
    random_psd,
    run_power_method,
    schatten_norm,
)
from cpnorm import cpmap, fileio, hermitian, hilbert, oracle, schatten
from cpnorm.config import DISTANCE_OVERFLOW, subseed
from cpnorm.hermitian import _psd_spectrum
from cpnorm.hilbert import _hilbert_distance
from cpnorm.schatten import (
    SchattenExponent,
    _duality_map,
    _norm_and_duality,
    _spectrum_norm,
    as_exponent,
)


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
    """Reference: the per-operator sum over a tuple of separate operators, on
    one matrix or on each matrix of a stack."""
    out = np.zeros(a.shape[:-2] + (ops[0].shape[0],) * 2, dtype=np.complex128)
    for v in ops:
        out += v @ a @ v.conj().T
    return hermitian_part(out)


ENTRY_KINDS = ("integer", "sparse", "real", "gaussian")


def random_entries(rng, kind, shape):
    """Entries of one kind: complex small integers, complex small integers
    with about 70 % exact zeros, real Gaussians (float64), or complex
    Gaussians."""
    if kind == "integer":
        return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
    if kind == "sparse":
        ints = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
        return ints * (rng.random(shape) < 0.3)
    if kind == "real":
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian_part_formula(m):
    """Reference: (M + M^dag) / 2 as written, with a temporary for M^dag,
    one for the sum and one for the quotient."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def stack_copy_apply(phi, mat):
    """Reference: ``CPMap._apply`` as it was before it conjugated its own
    product, taking X S^dag with a conjugated copy of the whole Kraus stack."""
    m, k, n = phi._stack.shape
    x = (phi._stack.reshape(m * k, n) @ mat).reshape(mat.shape[:-2] + (m, k * n))
    return hermitian_part_formula(x @ phi._stack.reshape(m, k * n).conj().T)


def stack_copy_adjoint_apply(phi, mat):
    """Reference: ``CPMap._adjoint_apply`` as it was before it conjugated its
    own product, taking S^dag U with a conjugated copy of the whole stack."""
    m, k, n = phi._stack.shape
    u = (mat @ phi._stack.reshape(m, k * n)).reshape(mat.shape[:-2] + (m * k, n))
    return hermitian_part_formula(phi._stack.reshape(m * k, n).conj().T @ u)


def count_calls(monkeypatch, owner, *names):
    """Wrap each named attribute of ``owner`` so that it counts its calls.

    Returns the dict of counts, keyed by name, that the wrappers increment
    for as long as the monkeypatch lasts. A wrapped method still binds, since
    the wrapper is a plain function.
    """
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def count_validations(monkeypatch):
    """Count ``require_hermitian`` calls wherever a ``cpnorm`` module binds
    it; returns a function that reads the running total."""
    counts = [count_calls(monkeypatch, module, "require_hermitian")
              for module in (hermitian, cpmap, hilbert, power, schatten)]
    return lambda: sum(c["require_hermitian"] for c in counts)


def two_apply_power_method(phi, config):
    """Reference: the power loop from the default start as it ran before its
    step was fused, applying the map twice per iteration, once in the step to
    the next iterate and once to evaluate that iterate.

    Returns the trace table, the maximizer, the status and the termination
    reason; the loop has no input checks. It takes J_q of each image from the
    loop's own kernel, ``schatten._norm_and_duality``.
    """
    sp, sq = as_exponent(config.p), as_exponent(config.q)

    def evaluate(a, dec):
        image_norm, grad = _norm_and_duality(phi._apply(a), sq)
        pullback = phi._adjoint_apply(grad)
        value = image_norm / _spectrum_norm(dec.eigenvalues, sp.p)
        return value, float(np.linalg.norm(pullback - value * _duality_map(dec, sp)))

    def step(a):
        pullback = phi._adjoint_apply(_norm_and_duality(phi.apply(a), sq)[1])
        return _duality_map(_psd_spectrum(pullback), SchattenExponent(sp.p_star, sp.p))

    a = default_start(phi.input_dim, sp)
    dec = _psd_spectrum(a)
    f_prev, residual = evaluate(a, dec)
    rows = [(0, f_prev, math.nan, math.nan, residual)]
    status, reason = IterationStatus.MAX_ITER_REACHED, None
    prev_settled = prev_stalled = False
    for k in range(1, config.max_iter + 1):
        nxt = step(a)
        frobenius_step = float(np.linalg.norm(nxt - a))
        nxt_dec = _psd_spectrum(nxt)
        hilbert_step = _hilbert_distance(nxt_dec, dec).value
        f_cur, residual = evaluate(nxt, nxt_dec)
        rows.append((k, f_cur, hilbert_step, frobenius_step, residual))
        a, dec = nxt, nxt_dec
        settled = frobenius_step <= config.tol_fixed_point
        stalled = abs(f_cur - f_prev) <= config.tol_objective * abs(f_cur)
        if settled and stalled:
            status = IterationStatus.CONVERGED
            if prev_stalled and not prev_settled:
                reason = "fixed_point"
            elif prev_settled and not prev_stalled:
                reason = "objective_stall"
            else:
                reason = "both"
            break
        prev_settled, prev_stalled = settled, stalled
        f_prev = f_cur
    return np.array(rows, dtype=np.float64), a, status, reason


def spectral_norm_and_duality(b, exp):
    """Reference: (||B||_q, J_q(B)) from one ``psd_spectrum`` of B at every q,
    as the power loop took them before the closed form at q = 2."""
    dec = _psd_spectrum(b)
    return _spectrum_norm(dec.eigenvalues, exp.p), _duality_map(dec, exp)


def spectral_power_method(phi, config):
    """Reference: ``run_power_method`` with J_q of every image taken from its
    spectrum, through ``spectral_norm_and_duality``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "_norm_and_duality", spectral_norm_and_duality)
        return run_power_method(phi, config)


def spectral_residuals(phi, p, q, iterations):
    """Reference: the residual column of a run from the default start as the
    loop computed it before it took J_p of each iterate from the previous
    pull-back, ||P_k - f_k J_p(X_k)||_F with J_p(X_k) from the spectrum that
    the step to X_k carries (the start's from ``psd_spectrum``)."""
    sp = as_exponent(p)
    a = default_start(phi.input_dim, sp)
    dec = _psd_spectrum(a)
    residuals = []
    for _ in range(iterations + 1):
        step = power.power_step(phi, a, sp, q)
        value = step.image_norm / _spectrum_norm(dec.eigenvalues, sp.p)
        residuals.append(float(np.linalg.norm(step.pullback
                                              - value * _duality_map(dec, sp))))
        a, dec = step.iterate, step.spectrum
    return np.array(residuals)


def same_part_pair_reference(n, r, rng):
    """Reference: one same-part pair of rank r as ``hilbert._same_part_pairs``
    drew it before its draws were stacked: below full rank the normals of an
    n x r isometry first and one QR, then two ``random_psd(r, r)`` factors,
    each moved onto the isometry's range on its own."""
    if r == n:
        return random_psd(n, n, rng), random_psd(n, n, rng)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    basis, _ = np.linalg.qr(g)
    return tuple(hermitian_part(basis @ random_psd(r, r, rng) @ basis.conj().T)
                 for _ in range(2))


def sampled_diameter_reference(phi, samples, seed):
    """Reference: the sampled diameter search as it ran before it was stacked,
    one pair at a time with one QR, two map applications, two ``eigh`` and
    one Hilbert distance each. Returns the ``ContractionReport`` fields of
    ``hilbert._sampled_diameter``; the loop has no input checks."""
    n = phi.input_dim
    rng = subseed(seed, "diameter")
    worst = 0.0
    for j in range(samples):
        a, b = same_part_pair_reference(n, 1 + j % n, rng)
        d = _hilbert_distance(_psd_spectrum(phi._apply(a)),
                              _psd_spectrum(phi._apply(b)))
        if not d.same_part or d.value > DISTANCE_OVERFLOW:
            return {"diameter_lower_bound": math.inf, "kappa_lower": 1.0,
                    "sample_count": j + 1}
        worst = max(worst, d.value)
    return {"diameter_lower_bound": worst, "kappa_lower": math.tanh(worst / 4.0),
            "sample_count": samples}


def contraction_ratio_reference(phi, pairs, seed):
    """Reference: ``sampled_contraction_ratio`` as it ran before it shared
    the blocked sampler, one pair at a time with two public
    ``hilbert_distance`` and two public ``phi.apply`` calls each."""
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


def sequential_ascent(phi, apply, p, q, theta, cap, diagonal=False):
    """Reference for one row of ``oracle._ascend``: the projected quasi-Newton
    ascent from the coordinates ``theta`` alone, through ``oracle._round``
    with B = 1, on values and gradients times the power of two that brings
    its own first value into [0.5, 1), with its BFGS update written out in
    the rank-two form, stopping when the first-order gain g'step falls to
    4 eps F and capped at ``cap`` map applications; ``diagonal`` zeroes the
    off-diagonal gradient, as ``spectral_grid_max`` does. Returns (point,
    value, applications)."""
    n = phi.input_dim
    used = 0
    scale = None

    def fg(t):
        nonlocal used, scale
        rows, values, grads, applied = oracle._round(phi, apply, p, q, t[None])
        if diagonal:
            grads[:, n:] = 0.0
        used += int(applied[0])
        if scale is None:
            scale = 2.0 ** -math.frexp(values[0])[1]
        return rows[0], float(values[0]) * scale, grads[0] * scale

    x, fx, gx = fg(theta)
    eye = np.eye(x.size)
    h = eye * (0.25 / np.linalg.norm(gx) if gx.any() else 1.0)
    rescaled = False
    alpha = 1.0
    while cap - used > 1:
        step = alpha * (h @ gx)
        if float(gx @ step) <= 4.0 * np.finfo(float).eps * abs(fx):
            break
        cand, fc, gc = fg(x + step)
        if fc <= fx:
            alpha *= 0.5
            continue
        s, y = cand - x, gx - gc
        sy = float(s @ y)
        if sy > 0.0:
            if not rescaled:
                h = eye * (sy / float(y @ y))
                rescaled = True
            # Nocedal and Wright, eq. 6.17, as H + s u' + u s'
            rho = 1.0 / sy
            hy = h @ y
            u = (0.5 * rho * (1.0 + rho * float(y @ hy))) * s - rho * hy
            w = np.outer(s, u)
            h = h + (w + w.T)
        x, fx, gx = cand, fc, gc
        alpha = 1.0
    return x, fx / scale, used


def spectral_grid_reference(phi, p, q, grid):
    """Reference: ``spectral_grid_max`` as it ran before its grid became an
    array expression, one public ``phi.apply`` and ``schatten_norm`` per
    grid point, then ``sequential_ascent`` with one public ``phi.apply`` per
    evaluation. Returns the best grid point, scaled to unit l^p norm (the
    start of the ascent), the best value and point, and the number of map
    applications; the loop has no input checks."""
    sp, sq = as_exponent(p), as_exponent(q)
    n = phi.input_dim

    def value_of(x):
        lam = np.abs(x) / np.linalg.norm(np.abs(x), ord=sp.p)
        return schatten_norm(phi.apply(np.diag(lam).astype(np.complex128)), sq.p), lam

    best_value, best_lam = value_of(np.ones(n))
    if n == 1:
        return best_lam, best_value, np.diag(best_lam).astype(np.complex128), n
    grid = max(2, min(grid, int(round((200000 / n) ** (1.0 / (n - 1))))))
    axis = np.linspace(0.0, 1.0, grid)
    for face in range(n):
        for idx in np.ndindex((grid,) * (n - 1)):
            val, lam = value_of(np.insert(axis[list(idx)], face, 1.0))
            if val > best_value:
                best_value, best_lam = val, lam

    point, value, used = sequential_ascent(
        phi, phi.apply, sp.p, sq.p, oracle._herm_to_vec(np.diag(best_lam)), 400 * n,
        diagonal=True)
    best = (value, point[:n]) if value > best_value else (best_value, best_lam)
    return best_lam, best[0], np.diag(best[1]).astype(np.complex128), n + used


def ascent_start(monkeypatch):
    """Record the starts that ``oracle._ascend`` receives; returns the list
    they are appended to."""
    starts = []
    real = oracle._ascend

    def spy(evaluate, thetas, per_start):
        starts.append(thetas.copy())
        return real(evaluate, thetas, per_start)

    monkeypatch.setattr(oracle, "_ascend", spy)
    return starts


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


def canonical_json_reference(obj) -> str:
    """Reference: ``fileio.canonical_json`` as it encoded records before each
    matrix became one inline encoding, one ``JSONEncoder.encode`` call per
    line of a matrix. A matrix breaks into one item per line while its
    first two axes are nonempty."""

    def is_row(x, shape):
        if shape is not None:
            return len(shape) < 2 or 0 in shape[:2]
        return not any(
            isinstance(v, dict)
            or isinstance(v, list) and any(isinstance(w, (list, dict)) for w in v)
            for v in x
        )

    def encode(x, indent, shape=None):
        inner = indent + "  "
        if isinstance(x, dict) and x:
            items = (f"{inner}{fileio._INLINE(k)}: {encode(x[k], inner)}" for k in sorted(x))
            return "{\n" + ",\n".join(items) + "\n" + indent + "}"
        if isinstance(x, fileio._Pairs):
            shape = x.shape
        if isinstance(x, list) and not is_row(x, shape):
            sub = None if shape is None else shape[1:]
            items = (inner + encode(v, inner, sub) for v in x)
            return "[\n" + ",\n".join(items) + "\n" + indent + "]"
        return fileio._INLINE(x)

    return encode(fileio._jsonable(obj), "") + "\n"


def kraus_reference(text: str, source: str = "<string>") -> np.ndarray:
    """Reference: the Kraus stack of a valid map file as ``parse_map`` built
    it before the whole list became one conversion, entry by entry."""
    obj = json.loads(text)
    return np.stack([
        fileio.decode_complex_matrix(entry, obj["m"], obj["n"], f"{source}: kraus[{i}]")
        for i, entry in enumerate(obj["kraus"])
    ])


# Files no loader can decode: bytes that are not UTF-8, and JSON nested far
# past the interpreter's recursion limit.
UNDECODABLE_FILES = {
    "not-utf8": b"\xff\xfe[1]",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
}

# JSON numbers that give no finite float: json reads NaN, -Infinity and
# 1e999 as floats, and null becomes nan in a float array.
NON_FINITE_NUMBERS = ("null", "NaN", "-Infinity", "1e999")


def non_finite_file(kind: str, number: str) -> str:
    """A map ("map"), start-matrix ("start") or nonnegative-matrix
    ("matrix") file whose second entry holds ``number``."""
    return {
        "map": '{"version": 1, "n": 1, "m": 1, "kraus": [[[[1, 0]]], [[[%s, 0]]]]}',
        "start": "[[[1, 0], [%s, 0]], [[0, 0], [1, 0]]]",
        "matrix": "[[1, %s], [0, 1]]",
    }[kind] % number
