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

from .config import as_rng, converted, require_count, subseed
from .errors import DimMismatch, InvalidInput, KrausRedundancyWarning, ZeroInput
from .hermitian import (
    _rank,
    _spectral_cutoff,
    hermitian_part,
    random_psd,
    random_unit_vector,
    require_hermitian,
)
from .schatten import _spectrum_norm, as_exponent

# Gain, relative to the output's largest eigenvalue, below which the
# rank-one eigenvector search stops.
_SEARCH_RTOL = 1e-13


def _require_dim(a, dim: int, what: str) -> np.ndarray:
    """Validated dim x dim Hermitian input of the map or its adjoint."""
    mat = require_hermitian(a)
    if mat.shape[0] != dim:
        raise DimMismatch(f"{what} expects {dim}x{dim} input, got {mat.shape}")
    return mat


class CPMap:
    """Completely positive map A -> sum_i V_i A V_i^dag.

    The k Kraus operators V_i are m x n complex matrices, held as one
    read-only, C-contiguous (m, k, n) array S, so the map sends n x n
    Hermitian matrices to m x m Hermitian matrices, and the map and its
    adjoint are each two matrix products on free reshapes of that array. The
    kernels conjugate their own first product in place rather than S, so no
    call copies the stack. Instances are immutable and safe to share between
    threads.
    """

    __slots__ = ("_stack",)

    def __init__(self, kraus):
        ops = converted(lambda ks: [np.asarray(v, dtype=np.complex128) for v in ks],
                        kraus, "Kraus operators")
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
        stack = np.stack(ops, axis=1)
        if not np.all(np.isfinite(stack)):
            raise InvalidInput("Kraus operator contains non-finite entries")
        if not np.any(stack):
            raise InvalidInput("all Kraus operators are zero")
        m, k, n = stack.shape
        if k > n * m:
            warnings.warn(
                f"{k} Kraus operators exceed input_dim*output_dim = {n * m}; "
                "the list is redundant but the map is unaffected",
                KrausRedundancyWarning,
                stacklevel=2,
            )
        stack.setflags(write=False)
        self._stack = stack

    @property
    def kraus(self) -> np.ndarray:
        """The read-only (k, m, n) stack of Kraus operators."""
        return self._stack.transpose(1, 0, 2)

    @property
    def input_dim(self) -> int:
        return self._stack.shape[2]

    @property
    def output_dim(self) -> int:
        return self._stack.shape[0]

    @property
    def kraus_count(self) -> int:
        return self._stack.shape[1]

    def apply(self, a) -> np.ndarray:
        """Evaluate the map on an n x n Hermitian matrix."""
        return self._apply(_require_dim(a, self.input_dim, "map"))

    def _apply(self, mat: np.ndarray) -> np.ndarray:
        """``apply`` on a trusted n x n Hermitian matrix, or on each matrix of
        a (..., n, n) stack of them.

        Row (i, j) of the (m k, n) reshape is row i of V_j, so the first
        product X stacks the rows of every V_j A, and the second contracts
        them with the matching rows of every V_j over (j, column), the
        (m, k n) reshape S. The kernel never copies the stack: it takes
        X S^dag as conj(conj(X) S^T), conjugating its own product X in place
        and reading S^T as a view. The two forms make the same real products
        with the signs of the imaginary parts flipped, so they give the same
        bits. X lives until the call returns: freed before the output is
        made, it merged more often into the top of the heap, which the
        allocator gave back to the system, and runs at n = 64 took three
        times the page faults.
        """
        m, k, n = self._stack.shape
        x = (self._stack.reshape(m * k, n) @ mat).reshape(mat.shape[:-2] + (m, k * n))
        y = np.conjugate(x, x) @ self._stack.reshape(m, k * n).T
        return hermitian_part(np.conjugate(y, y))

    def adjoint_apply(self, b) -> np.ndarray:
        """Evaluate the adjoint map B -> sum_i V_i^dag B V_i."""
        return self._adjoint_apply(_require_dim(b, self.output_dim, "adjoint"))

    def _adjoint_apply(self, mat: np.ndarray) -> np.ndarray:
        """``adjoint_apply`` on a trusted m x m Hermitian matrix, or on each
        matrix of a (..., m, m) stack of them. As in ``_apply``, the kernel
        conjugates its own first product U in place and never copies the
        stack: it takes S^dag U as conj(S^T conj(U)), with S the (m k, n)
        reshape."""
        m, k, n = self._stack.shape
        u = (mat @ self._stack.reshape(m, k * n)).reshape(mat.shape[:-2] + (m * k, n))
        y = self._stack.reshape(m * k, n).T @ np.conjugate(u, u)
        return hermitian_part(np.conjugate(y, y))

    def adjoint(self) -> "CPMap":
        """The adjoint as a CP map in its own right (Kraus operators V_i^dag).

        Built from the already-validated stack, so the constructor's checks
        and its redundancy warning do not run a second time.
        """
        adj = object.__new__(CPMap)
        stack = np.conjugate(self._stack.transpose(2, 1, 0), order="C")
        stack.setflags(write=False)
        adj._stack = stack
        return adj

    def __repr__(self):
        return f"CPMap(n={self.input_dim}, m={self.output_dim}, k={self.kraus_count})"


def identity_channel(n: int) -> CPMap:
    require_count(n, "n")
    return CPMap([np.eye(n, dtype=np.complex128)])


def depolarizing_channel(n: int) -> CPMap:
    """The map A -> tr(A)/n * I, with Kraus operators e_i e_j^dag / sqrt(n)."""
    require_count(n, "n")
    rows, cols = np.divmod(np.arange(n * n), n)
    ops = np.zeros((n * n, n, n), dtype=np.complex128)
    ops[np.arange(n * n), rows, cols] = 1.0 / np.sqrt(n)
    return CPMap(ops)


def embed_nonnegative_matrix(a) -> CPMap:
    """Embed an entrywise nonnegative matrix as a CP map on diagonals.

    With Kraus operators sqrt(a_ij) e_i e_j^dag the map sends diag(x) to
    diag(a @ x), so its Schatten p->q norm equals the vector p->q norm of
    the matrix.
    """
    mat = converted(lambda v: np.asarray(v, dtype=np.float64), a, "matrix")
    if mat.ndim != 2:
        raise InvalidInput(f"expected a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInput("matrix contains non-finite entries")
    if np.any(mat < 0):
        raise InvalidInput("matrix must be entrywise nonnegative")
    rows, cols = np.nonzero(mat > 0)
    if rows.size == 0:
        raise InvalidInput("matrix is identically zero")
    ops = np.zeros((rows.size, *mat.shape), dtype=np.complex128)
    ops[np.arange(rows.size), rows, cols] = np.sqrt(mat[rows, cols])
    return CPMap(ops)


def _gaussian_kraus(rng, n: int, m: int, k: int) -> np.ndarray:
    """(k, m, n) complex Gaussian Kraus stack, drawn one operator at a time."""
    ops = np.stack([
        rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for _ in range(k)
    ])
    ops /= np.sqrt(2)
    return ops


def random_cpmap(n: int, m: int, k: int, seed) -> CPMap:
    """Seeded CP map with k complex Gaussian Kraus operators of shape m x n."""
    for count, name in ((n, "n"), (m, "m"), (k, "k")):
        require_count(count, name)
    return CPMap(_gaussian_kraus(as_rng(seed), n, m, k))


def objective(phi: CPMap, a, p, q) -> float:
    """The ratio ||phi(A)||_q / ||A||_p maximized by the norm computation.

    Scale invariant in A; both exponents must lie in (1, inf).
    """
    sp = as_exponent(p)
    sq = as_exponent(q)
    mat = _require_dim(a, phi.input_dim, "map")
    denom = _spectrum_norm(np.linalg.eigvalsh(mat), sp.p)
    if denom == 0.0:
        raise ZeroInput("objective is undefined at the zero matrix")
    return _spectrum_norm(np.linalg.eigvalsh(phi._apply(mat)), sq.p) / denom


class StructuralProperty(Enum):
    FULLY_INDECOMPOSABLE = "fully_indecomposable"
    POSITIVELY_IMPROVING = "positively_improving"


class Verdict(Enum):
    PROBABLY_TRUE = "probably_true"
    COUNTEREXAMPLE_FOUND = "counterexample_found"
    CERTIFIED = "certified"


@dataclass(frozen=True, eq=False)
class StructuralVerdict:
    """Outcome of a structural check.

    The sampled checks return ``PROBABLY_TRUE`` or ``COUNTEREXAMPLE_FOUND``;
    ``margin`` is the worst slack observed (smallest output eigenvalue for
    the positively-improving check), and a counterexample always carries the
    violating witness matrix. ``CERTIFIED`` comes only from the Choi tier of
    ``hilbert.run_diagnostics``, after zero trials.
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
    require_count(trials, "trials")
    n = phi.input_dim
    total = 0
    for r in range(1, n):
        for t in range(trials):
            a = random_psd(n, r, subseed(seed, "fully-indecomposable", r, t))
            total += 1
            out = phi._adjoint_apply(phi._apply(a))
            if _rank(np.linalg.eigvalsh(out)) <= r:
                return StructuralVerdict(
                    StructuralProperty.FULLY_INDECOMPOSABLE,
                    Verdict.COUNTEREXAMPLE_FOUND,
                    trials=total,
                    witness=a,
                )
    return StructuralVerdict(
        StructuralProperty.FULLY_INDECOMPOSABLE, Verdict.PROBABLY_TRUE, trials=total
    )


def _projector(x: np.ndarray) -> np.ndarray:
    """x x^dag symmetrized exactly, as ``require_hermitian`` returns it."""
    return hermitian_part(np.outer(x, x.conj()))


def _rank_one_extreme(phi: CPMap, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest output eigenvalue over rank-one inputs, by alternating eigenvectors.

    The minimum of u^dag phi(xx^dag) u over unit u and x is the minimum of
    sum_i |u^dag V_i x|^2, which is bilinear in the pair, so exact updates
    u <- bottom eigenvector of phi(xx^dag) and x <- bottom eigenvector of
    phi^*(uu^dag) never raise the value. Starts from unit ``x`` and stops
    once the value falls by less than 1e-13 of the output's largest
    eigenvalue, or not at all, or after 200 n rounds; returns (value, x).
    """
    w, vecs = np.linalg.eigh(phi._apply(_projector(x)))
    value = float(w[0])
    for _ in range(200 * phi.input_dim):
        u = vecs[:, 0]
        cand = np.linalg.eigh(phi._adjoint_apply(_projector(u)))[1][:, 0]
        w, cand_vecs = np.linalg.eigh(phi._apply(_projector(cand)))
        gain = value - float(w[0])
        if gain <= 0.0:
            break
        x, value, vecs = cand, float(w[0]), cand_vecs
        if gain <= _SEARCH_RTOL * abs(w[-1]):
            break
    return value, x


def check_positively_improving(phi: CPMap, trials: int = 256, seed=0) -> StructuralVerdict:
    """Test whether every nonzero PSD input maps to a positive definite output.

    Rank-one inputs suffice: any nonzero PSD A dominates a positive multiple
    of a rank-one projector, and the map is order preserving, so positive
    definiteness on projectors implies it everywhere. The check samples unit
    vectors, then refines the worst sample by alternating eigenvector updates
    (``_rank_one_extreme``). Probabilistic: never certifies. Its witnesses
    are rigorous, and it is the search that runs on maps whose Kraus matrix
    has no Choi tier (``hilbert.run_diagnostics``).
    """
    require_count(trials, "trials")
    n = phi.input_dim
    rng = subseed(seed, "positively-improving")
    worst_val = np.inf
    worst_x = found = None
    for _ in range(trials):
        x = random_unit_vector(n, rng)
        vals = np.linalg.eigvalsh(phi._apply(_projector(x)))
        if vals[0] <= _spectral_cutoff(vals):
            count, margin, found = trials, float(vals[0]), x
            break
        if vals[0] < worst_val:
            worst_val = float(vals[0])
            worst_x = x
    else:
        value, x = _rank_one_extreme(phi, worst_x)
        count, margin = trials + 1, min(worst_val, value)
        if margin <= _spectral_cutoff(np.linalg.eigvalsh(phi._apply(_projector(x)))):
            found = x
    return StructuralVerdict(
        StructuralProperty.POSITIVELY_IMPROVING,
        Verdict.PROBABLY_TRUE if found is None else Verdict.COUNTEREXAMPLE_FOUND,
        trials=count,
        witness=None if found is None else _projector(found),
        margin=margin,
    )
