"""Completely positive maps in Kraus form.

Application and adjoint, the norm-ratio objective, named channel
constructors, and probabilistic structural diagnostics (fully
indecomposable, positively improving).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import RANK_RTOL, as_rng, subseed
from .errors import DimMismatch, InvalidInput, KrausRedundancyWarning, ZeroInput
from .hermitian import (
    hermitian_part,
    numerical_rank,
    random_psd,
    random_unit_vector,
    require_hermitian,
)
from .schatten import as_exponent, schatten_norm

# Gain, relative to the output's largest eigenvalue, below which the
# rank-one eigenvector search stops.
_SEARCH_RTOL = 1e-13


class CPMap:
    """Completely positive map A -> sum_i V_i A V_i^dag.

    The Kraus operators V_i are m x n complex matrices, so the map sends
    n x n Hermitian matrices to m x m Hermitian matrices. Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("_kraus", "_n", "_m")

    def __init__(self, kraus):
        ops = tuple(np.asarray(v, dtype=np.complex128) for v in kraus)
        if not ops:
            raise InvalidInput("a CP map needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2:
            raise InvalidInput(f"Kraus operators must be 2-d, got shape {shape}")
        for v in ops:
            if v.shape != shape:
                raise InvalidInput(
                    f"Kraus operators disagree in shape: {v.shape} vs {shape}"
                )
            if not np.all(np.isfinite(v)):
                raise InvalidInput("Kraus operator contains non-finite entries")
        if not any(np.any(v != 0) for v in ops):
            raise InvalidInput("all Kraus operators are zero")
        m, n = shape
        if len(ops) > n * m:
            warnings.warn(
                f"{len(ops)} Kraus operators exceed input_dim*output_dim = {n * m}; "
                "the list is redundant but the map is unaffected",
                KrausRedundancyWarning,
                stacklevel=2,
            )
        for v in ops:
            v.setflags(write=False)
        self._kraus = ops
        self._n = n
        self._m = m

    @property
    def kraus(self) -> tuple:
        return self._kraus

    @property
    def input_dim(self) -> int:
        return self._n

    @property
    def output_dim(self) -> int:
        return self._m

    @property
    def kraus_count(self) -> int:
        return len(self._kraus)

    def apply(self, a) -> np.ndarray:
        """Evaluate the map on an n x n Hermitian matrix."""
        mat = require_hermitian(a)
        if mat.shape[0] != self._n:
            raise DimMismatch(
                f"map expects {self._n}x{self._n} input, got {mat.shape}"
            )
        out = np.zeros((self._m, self._m), dtype=np.complex128)
        for v in self._kraus:
            out += v @ mat @ v.conj().T
        return hermitian_part(out)

    def adjoint_apply(self, b) -> np.ndarray:
        """Evaluate the adjoint map B -> sum_i V_i^dag B V_i."""
        mat = require_hermitian(b)
        if mat.shape[0] != self._m:
            raise DimMismatch(
                f"adjoint expects {self._m}x{self._m} input, got {mat.shape}"
            )
        out = np.zeros((self._n, self._n), dtype=np.complex128)
        for v in self._kraus:
            out += v.conj().T @ mat @ v
        return hermitian_part(out)

    def adjoint(self) -> "CPMap":
        """The adjoint as a CP map in its own right (Kraus operators V_i^dag).

        Built from the already-validated operators, so the constructor's
        checks and its redundancy warning do not run a second time.
        """
        adj = object.__new__(CPMap)
        adj._kraus = tuple(v.conj().T for v in self._kraus)
        for v in adj._kraus:
            v.setflags(write=False)
        adj._n, adj._m = self._m, self._n
        return adj

    def __repr__(self):
        return f"CPMap(n={self._n}, m={self._m}, k={self.kraus_count})"


def identity_channel(n: int) -> CPMap:
    return CPMap([np.eye(n, dtype=np.complex128)])


def depolarizing_channel(n: int) -> CPMap:
    """The map A -> tr(A)/n * I, with Kraus operators e_i e_j^dag / sqrt(n)."""
    ops = []
    for i in range(n):
        for j in range(n):
            v = np.zeros((n, n), dtype=np.complex128)
            v[i, j] = 1.0 / np.sqrt(n)
            ops.append(v)
    return CPMap(ops)


def embed_nonnegative_matrix(a) -> CPMap:
    """Embed an entrywise nonnegative matrix as a CP map on diagonals.

    With Kraus operators sqrt(a_ij) e_i e_j^dag the map sends diag(x) to
    diag(a @ x), so its Schatten p->q norm equals the vector p->q norm of
    the matrix.
    """
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2:
        raise InvalidInput(f"expected a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInput("matrix contains non-finite entries")
    if np.any(mat < 0):
        raise InvalidInput("matrix must be entrywise nonnegative")
    m, n = mat.shape
    ops = []
    for i in range(m):
        for j in range(n):
            if mat[i, j] > 0:
                v = np.zeros((m, n), dtype=np.complex128)
                v[i, j] = np.sqrt(mat[i, j])
                ops.append(v)
    if not ops:
        raise InvalidInput("matrix is identically zero")
    return CPMap(ops)


def _gaussian_kraus(rng, n: int, m: int, k: int) -> list:
    """k complex Gaussian m x n Kraus operators drawn from ``rng``."""
    return [
        (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
        for _ in range(k)
    ]


def random_cpmap(n: int, m: int, k: int, seed) -> CPMap:
    """Seeded CP map with k complex Gaussian Kraus operators of shape m x n."""
    if n < 1 or m < 1 or k < 1:
        raise InvalidInput(f"dimensions must be positive, got n={n} m={m} k={k}")
    return CPMap(_gaussian_kraus(as_rng(seed), n, m, k))


def objective(phi: CPMap, a, p, q) -> float:
    """The ratio ||phi(A)||_q / ||A||_p maximized by the norm computation.

    Scale invariant in A; both exponents must lie in (1, inf).
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    mat = require_hermitian(a)
    denom = schatten_norm(mat, sp.p)
    if denom == 0.0:
        raise ZeroInput("objective is undefined at the zero matrix")
    return schatten_norm(phi.apply(mat), sq.p) / denom


class StructuralProperty(Enum):
    FULLY_INDECOMPOSABLE = "fully_indecomposable"
    POSITIVELY_IMPROVING = "positively_improving"


class Verdict(Enum):
    CERTIFIED = "certified"
    PROBABLY_TRUE = "probably_true"
    COUNTEREXAMPLE_FOUND = "counterexample_found"


@dataclass(frozen=True, eq=False)
class StructuralVerdict:
    """Outcome of a probabilistic structural check.

    ``margin`` is the worst slack observed (smallest output eigenvalue for
    the positively-improving check). A counterexample always carries the
    violating witness matrix.
    """

    property: StructuralProperty
    verdict: Verdict
    trials: int
    witness: np.ndarray | None = None
    margin: float | None = None


def check_fully_indecomposable(phi: CPMap, trials: int = 64, seed=0) -> StructuralVerdict:
    """Sample singular PSD inputs and test that the composite adjoint(phi) o phi
    strictly increases numerical rank.

    For each rank r in 1..n-1 the check draws ``trials`` random PSD matrices
    of rank r and compares ranks before and after the composite map. The
    method is probabilistic: it can find counterexamples but never certifies,
    so the positive outcome is ``PROBABLY_TRUE``.
    """
    n = phi.input_dim
    total = 0
    for r in range(1, n):
        for t in range(trials):
            a = random_psd(n, r, subseed(seed, "fully-indecomposable", r, t))
            total += 1
            out = phi.adjoint_apply(phi.apply(a))
            if numerical_rank(out) <= r:
                return StructuralVerdict(
                    StructuralProperty.FULLY_INDECOMPOSABLE,
                    Verdict.COUNTEREXAMPLE_FOUND,
                    trials=total,
                    witness=a,
                )
    return StructuralVerdict(
        StructuralProperty.FULLY_INDECOMPOSABLE, Verdict.PROBABLY_TRUE, trials=total
    )


def _rank_one_extreme(phi: CPMap, x: np.ndarray, top: bool) -> tuple[float, np.ndarray]:
    """Extreme output eigenvalue over rank-one inputs, by alternating eigenvectors.

    The extreme of u^dag phi(xx^dag) u over unit u and x is the extreme of
    sum_i |u^dag V_i x|^2, which is bilinear in the pair, so exact updates
    u <- extreme eigenvector of phi(xx^dag) and x <- extreme eigenvector of
    phi^*(uu^dag) never move the value the wrong way. ``top`` selects the
    largest eigenvalue (slice peak), otherwise the smallest (positivity
    margin). Starts from unit ``x`` and stops once the value improves by less
    than 1e-13 of the output's largest eigenvalue, or not at all, or after
    200 n rounds; returns (value, x).
    """
    pick = -1 if top else 0
    sign = 1.0 if top else -1.0
    w, vecs = np.linalg.eigh(phi.apply(np.outer(x, x.conj())))
    value = float(w[pick])
    for _ in range(200 * phi.input_dim):
        u = vecs[:, pick]
        cand = np.linalg.eigh(phi.adjoint_apply(np.outer(u, u.conj())))[1][:, pick]
        w, cand_vecs = np.linalg.eigh(phi.apply(np.outer(cand, cand.conj())))
        gain = sign * (float(w[pick]) - value)
        if gain <= 0.0:
            break
        x, value, vecs = cand, float(w[pick]), cand_vecs
        if gain <= _SEARCH_RTOL * abs(w[-1]):
            break
    return value, x


def check_positively_improving(phi: CPMap, trials: int = 256, seed=0) -> StructuralVerdict:
    """Test whether every nonzero PSD input maps to a positive definite output.

    Rank-one inputs suffice: any nonzero PSD A dominates a positive multiple
    of a rank-one projector, and the map is order preserving, so positive
    definiteness on projectors implies it everywhere. The check samples unit
    vectors, then refines the worst sample by alternating eigenvector updates
    (``_rank_one_extreme``). Probabilistic: never certifies.
    """
    n = phi.input_dim
    rng = subseed(seed, "positively-improving")
    worst_val = np.inf
    worst_x = None
    for _ in range(trials):
        x = random_unit_vector(n, rng)
        rho = np.outer(x, x.conj())
        vals = np.linalg.eigvalsh(phi.apply(rho))
        cutoff = RANK_RTOL * max(1.0, float(vals[-1]))
        if vals[0] <= cutoff:
            return StructuralVerdict(
                StructuralProperty.POSITIVELY_IMPROVING,
                Verdict.COUNTEREXAMPLE_FOUND,
                trials=trials,
                witness=rho,
                margin=float(vals[0]),
            )
        if vals[0] < worst_val:
            worst_val = float(vals[0])
            worst_x = x

    value, x = _rank_one_extreme(phi, worst_x, top=False)
    refined = min(worst_val, value)
    rho = np.outer(x, x.conj())
    vals = np.linalg.eigvalsh(phi.apply(rho))
    cutoff = RANK_RTOL * max(1.0, float(vals[-1]))
    if refined <= cutoff:
        return StructuralVerdict(
            StructuralProperty.POSITIVELY_IMPROVING,
            Verdict.COUNTEREXAMPLE_FOUND,
            trials=trials + 1,
            witness=rho,
            margin=refined,
        )
    return StructuralVerdict(
        StructuralProperty.POSITIVELY_IMPROVING,
        Verdict.PROBABLY_TRUE,
        trials=trials + 1,
        margin=refined,
    )
