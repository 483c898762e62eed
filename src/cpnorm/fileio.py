"""On-disk formats and seeded map generation.

Map files and run records are canonical JSON: sorted keys, two-space
indent, complex entries as [re, im] pairs, non-finite floats as strings.
Any list nested at most two deep prints on one line, so a complex matrix
prints one row of [re, im] pairs per line and a real matrix on one line.
Records are derived from the package's dataclasses, one key per field;
only the power-method result is reshaped (``encode_norm_result``).
Parsing followed by serialization is byte-identical on canonical input.

The encoder writes each matrix with one inline ``JSONEncoder.encode`` call
and then breaks that text into lines at its bracket boundaries
(``_encode_matrix``), which gives the layout of encoding it row by row. The
parser converts a map file's whole Kraus list with one ``np.asarray`` and
decodes entry by entry only to name a bad entry. Files that are not UTF-8
or nest JSON past the recursion limit raise ``InvalidInput``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import __about__
from .config import require_count, subseed
from .errors import InvalidInput
from .cpmap import CPMap, _gaussian_kraus, embed_nonnegative_matrix
from .power import NormResult, PowerTrace

FORMAT_VERSION = 1

GENERATOR_KINDS = ("generic", "positively_improving", "diagonal_from_matrix")


@dataclass(frozen=True, eq=False)
class MapFile:
    """Parsed map file: the (k, m, n) Kraus stack plus free-form metadata."""

    version: int
    n: int
    m: int
    kraus: np.ndarray
    metadata: dict

    def to_cpmap(self) -> CPMap:
        return CPMap(self.kraus)

    @classmethod
    def from_cpmap(cls, phi: CPMap, metadata: dict | None = None) -> "MapFile":
        return cls(
            version=FORMAT_VERSION,
            n=phi.input_dim,
            m=phi.output_dim,
            kraus=phi.kraus,
            metadata=dict(metadata or {}),
        )


def decode_complex_matrix(entries, rows: int, cols: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{where}: entries must be [re, im] number pairs ({exc})")
    if arr.shape != (rows, cols, 2):
        raise InvalidInput(
            f"{where}: expected shape {rows}x{cols} of [re, im] pairs, "
            f"got {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _require_field(obj: dict, name: str, where: str):
    if name not in obj:
        raise InvalidInput(f"{where}: missing required field '{name}'")
    return obj[name]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _read_text(path) -> str:
    """The UTF-8 text of the file ``path``; bytes that are not UTF-8 raise
    ``InvalidInput`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")


def _read_json(source, text: str | None = None):
    """Decode ``text``, or the file ``source`` when no text is given.

    Syntax errors become ``InvalidInput`` naming the source, line and column;
    nesting deeper than the interpreter's recursion limit, ``InvalidInput``
    naming the source.
    """
    if text is None:
        text = _read_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise InvalidInput(f"{source}: JSON nested too deeply") from None


def _decode_kraus(entries: list, m: int, n: int, source: str) -> np.ndarray:
    """The (k, m, n) Kraus stack of a map file's entries, from one conversion
    of the whole list. A list that does not convert to k m x n matrices of
    [re, im] pairs is decoded entry by entry, which names the first bad
    entry."""
    try:
        arr = np.asarray(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (len(entries), m, n, 2):
        return np.stack([
            decode_complex_matrix(entry, m, n, f"{source}: kraus[{i}]")
            for i, entry in enumerate(entries)
        ])
    return arr[..., 0] + 1j * arr[..., 1]


def parse_map(text: str, source: str = "<string>") -> MapFile:
    """Parse a map file, reporting the offending line or field on failure."""
    obj = _read_json(source, text)
    if not isinstance(obj, dict):
        raise InvalidInput(f"{source}: top level must be an object")
    version = _require_field(obj, "version", source)
    if not _is_int(version) or version != FORMAT_VERSION:
        raise InvalidInput(f"{source}: unsupported version {version!r}")
    n = _require_field(obj, "n", source)
    m = _require_field(obj, "m", source)
    if not (_is_int(n) and _is_int(m) and n >= 1 and m >= 1):
        raise InvalidInput(f"{source}: fields 'n' and 'm' must be positive integers")
    kraus_raw = _require_field(obj, "kraus", source)
    if not isinstance(kraus_raw, list) or not kraus_raw:
        raise InvalidInput(f"{source}: field 'kraus' must be a nonempty list")
    kraus = _decode_kraus(kraus_raw, m, n, source)
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InvalidInput(f"{source}: field 'metadata' must be an object")
    return MapFile(version=version, n=n, m=m, kraus=kraus, metadata=metadata)


def serialize_map(mapfile: MapFile) -> str:
    return canonical_json(mapfile)


def load_map(path) -> MapFile:
    return parse_map(_read_text(path), source=str(path))


def save_map(mapfile: MapFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_map(mapfile))


def load_matrix(path) -> np.ndarray:
    """Read a plain 2-d JSON array of reals (nonnegative-matrix input files)."""
    obj = _read_json(path)
    try:
        mat = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{path}: expected a 2-d array of numbers ({exc})")
    if mat.ndim != 2:
        raise InvalidInput(f"{path}: expected a 2-d array, got shape {mat.shape}")
    return mat


def load_hermitian(path) -> np.ndarray:
    """Read an n x n matrix of [re, im] pairs (start-matrix files)."""
    obj = _read_json(path)
    arr = np.asarray(obj, dtype=object)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise InvalidInput(f"{path}: expected an n x n matrix of [re, im] pairs")
    return decode_complex_matrix(obj, arr.shape[0], arr.shape[1], str(path))


def generate_map(n: int, m: int, k: int, seed: int, kind: str = "generic",
                 matrix=None) -> MapFile:
    """Deterministically generate a map file of the requested kind.

    ``generic`` draws k Gaussian Kraus operators (k <= n*m enforced).
    ``positively_improving`` adds a scaled depolarizing block to k generic
    operators so every nonzero PSD input maps to a positive definite output.
    ``diagonal_from_matrix`` embeds a nonnegative matrix, ignoring n, m, k.
    """
    if kind not in GENERATOR_KINDS:
        raise InvalidInput(f"unknown kind {kind!r}; expected one of {GENERATOR_KINDS}")

    if kind == "diagonal_from_matrix":
        if matrix is None:
            raise InvalidInput("kind 'diagonal_from_matrix' requires a matrix")
        phi = embed_nonnegative_matrix(matrix)
        metadata = {
            "kind": kind,
            "name": f"diagonal-embedding-{phi.output_dim}x{phi.input_dim}",
            "matrix": [[float(x) for x in row] for row in np.asarray(matrix)],
        }
        return MapFile.from_cpmap(phi, metadata)

    for count, name in ((n, "n"), (m, "m"), (k, "k")):
        require_count(count, name)
    if kind == "generic" and k > n * m:
        raise InvalidInput(f"generic kind requires k <= n*m = {n * m}, got k={k}")

    ops = _gaussian_kraus(subseed(seed, "generate", kind), n, m, k)
    if kind == "positively_improving":
        # eps-scaled depolarizing block: adds eps * tr(A) * I to every output
        ops = np.concatenate([ops, embed_nonnegative_matrix(np.full((m, n), 0.2)).kraus])
    metadata = {"kind": kind, "name": f"{kind}-n{n}-m{m}-k{k}-seed{seed}", "seed": seed}
    return MapFile(version=FORMAT_VERSION, n=n, m=m, kraus=ops, metadata=metadata)


class _Pairs(list):
    """A matrix as nested [re, im] lists, with the shape of the matrix."""

    __slots__ = ("shape",)

    def __init__(self, pairs: list, shape: tuple):
        super().__init__(pairs)
        self.shape = shape


def _jsonable(x):
    """Plain-JSON form of a record value.

    Dataclasses become objects keyed by their fields, matrices nested lists
    of [re, im] pairs, enums their values, non-finite floats strings.
    """
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        f = float(x)
        if math.isfinite(f):
            return f
        if math.isnan(f):
            return "nan"
        return "inf" if f > 0 else "-inf"
    if x is None or isinstance(x, str):
        return x
    if isinstance(x, np.ndarray):
        mat = np.asarray(x, dtype=np.complex128)
        pairs = np.stack([mat.real, mat.imag], axis=-1).tolist()
        # only non-finite entries need the per-float pass, to become strings
        return _Pairs(pairs if np.all(np.isfinite(mat)) else _jsonable(pairs),
                      mat.shape)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    raise TypeError(f"cannot serialize {type(x)!r}")


_INLINE = json.JSONEncoder(allow_nan=False).encode


def _is_row(x: list) -> bool:
    """True for a list nested at most two deep: scalars, or lists of scalars."""
    return not any(
        isinstance(v, dict)
        or isinstance(v, list) and any(isinstance(w, (list, dict)) for w in v)
        for v in x
    )


def _encode_matrix(x: _Pairs, indent: str) -> str:
    """``_encode`` of a matrix: one inline encoding, then line breaks at the
    bracket boundaries of the levels that break.

    A level breaks, one item per line, while it and the next axis are both
    nonempty, as in the row-by-row layout; the items of the deepest broken
    level stay inline. Those items are lists nested ``depth`` deep, so two
    of them meet at ']' * depth + ', ' + '[' * depth, and where the meeting
    also closes and reopens t broken levels there are t more brackets on
    each side. Such boundaries are replaced longest first.
    """
    text = _INLINE(x)
    shape = x.shape
    broken = 0
    while broken + 1 < len(shape) and shape[broken] and shape[broken + 1]:
        broken += 1
    if not broken:
        return text
    full = shape + (2,)  # the [re, im] axis
    depth = (full.index(0) + 1 if 0 in full else len(full)) - broken
    ind = [indent + "  " * j for j in range(broken + 1)]
    for t in range(broken - 1, -1, -1):
        closes = "".join("\n" + ind[j] + "]" for j in range(broken - 1, broken - 1 - t, -1))
        opens = "".join("[\n" + ind[j + 1] for j in range(broken - t, broken))
        text = text.replace("]" * (depth + t) + ", " + "[" * (depth + t),
                            "]" * depth + closes + ",\n" + ind[broken - t] + opens
                            + "[" * depth)
    head = "".join("[\n" + ind[j + 1] for j in range(broken))
    tail = "".join("\n" + ind[j] + "]" for j in range(broken - 1, -1, -1))
    return head + text[broken:len(text) - broken] + tail


def _encode(x, indent: str) -> str:
    inner = indent + "  "
    if isinstance(x, dict) and x:
        items = (f"{inner}{_INLINE(k)}: {_encode(x[k], inner)}" for k in sorted(x))
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(x, _Pairs):
        return _encode_matrix(x, indent)
    if isinstance(x, list) and not _is_row(x):
        items = (inner + _encode(v, inner) for v in x)
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return _INLINE(x)


def canonical_json(obj) -> str:
    """Canonical text of a record: objects indented by two spaces with sorted
    keys, and each list nested at most two deep on one line."""
    return _encode(_jsonable(obj), "") + "\n"


def encode_norm_result(result: NormResult) -> dict:
    """The result section: ``NormResult`` with its trace status lifted to the
    top and the trace rows summarised by their count and final row."""
    trace = result.trace
    _, objective, hilbert_step, frobenius_step, residual = trace.table[-1].tolist()
    return {
        "norm_estimate": result.norm_estimate,
        "maximizer": result.maximizer,
        "iterations": result.iterations,
        "status": trace.status,
        "termination_reason": trace.termination_reason,
        "warnings": result.warnings,
        "trace": {
            "rows": len(trace.table),
            "status": trace.status,
            "termination_reason": trace.termination_reason,
            "final_objective": objective,
            "final_frobenius_step": frobenius_step,
            "final_hilbert_step": hilbert_step,
            "final_residual": residual,
        },
        "contraction": result.contraction,
    }


def build_run_record(mapfile: MapFile, command: str, inputs: dict, **sections) -> dict:
    """Assemble a self-contained record: tool version, input echo, results.

    Values may be dataclasses or matrices; ``canonical_json`` encodes them.
    """
    record = {
        "version": FORMAT_VERSION,
        "tool": {"name": "cpnorm", "version": __about__.__version__},
        "command": command,
        "input": {"map": mapfile, **inputs},
    }
    record.update(sections)
    return record


def write_trace(path, trace: PowerTrace) -> None:
    """Emit per-iteration rows as tab-delimited text for direct plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# k\tobjective\thilbert_step\tfrobenius_step\tresidual\n")
        for row in trace.rows:
            fh.write(
                f"{row.k}\t{row.objective!r}\t{row.hilbert_step!r}"
                f"\t{row.frobenius_step!r}\t{row.residual!r}\n"
            )
