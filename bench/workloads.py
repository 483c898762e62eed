"""The benchmark's workloads: seeded instances, one timed call each, and checks.

Each workload is a closed loop with one client: instances run one at a time
in this process, the next starting when the previous returns. The instance
list is a sequence of cycles; every cycle holds each parameter combination
of the workload once, so any stretch of the loop sees the same mix.

Why these four:

* ``iterate-small`` - ``run_power_method`` without the contraction report on
  Gaussian, identity and depolarizing maps at n <= 8. LAPACK work is small, so
  per-call overhead in ``hermitian``, ``cpmap`` and ``schatten`` dominates;
  the p <= q instances exercise the iteration count.
* ``iterate-large`` - the same call on Gaussian maps at n = 32, 64, p > q only.
  Time is O(n^3) eigensolve and GEMM work: cutting Python overhead leaves it
  flat, kernel changes show here.
* ``certify`` - ``cpnorm compute`` (contraction report on) and ``cpnorm
  diagnose`` through the in-process CLI. Sampled diameters and Nelder-Mead
  positivity searches dominate; ``positively_improving`` maps are the only
  ones that reach the sampled ``improving-slice`` tier.
* ``verify`` - ``cpnorm verify``; the finite-difference oracle dominates, and
  this is the only workload that runs the ``oracle`` layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cpnorm as cp
from cpnorm import cli, fileio

PQ_BOTH = ((3.0, 2.0), (2.0, 3.0))
# Relative tolerance of closed-form and classical references.
REFERENCE_RTOL = 1e-9
# A CONVERGED result must be a critical point: its residual, relative to the
# norm estimate, stays below this.
RESIDUAL_RTOL = 1e-7
# Cycles generated at set-up. A run goes through all of them once, so every
# run checks the same instances whatever the machine's speed, then starts over
# until its time is up. One pass takes about 12 s of a 25 s run for the
# iterate workloads, 16-27 s for certify and verify, whose maps vary most in
# cost and need two and three cycles of them.
POOL_CYCLES = {"iterate-small": 24, "iterate-large": 10, "certify": 2, "verify": 3}
# Speed reference (speed.py) per workload: the matrix size that resembles its
# work (BLAS-sized for iterate-large), and how a run's samples are summarised
# (median where instances are short, mean where they last seconds).
REFERENCE = {"iterate-small": (6, "median"), "iterate-large": (48, "median"),
             "certify": (6, "mean"), "verify": (6, "mean")}

WORKLOADS = tuple(POOL_CYCLES)


@dataclass(frozen=True, eq=False)
class Instance:
    """One unit of work: a map, exponents and the call that evaluates them."""

    index: int
    kind: str          # gaussian, identity, depolarizing, or a generator kind
    command: str       # "api" for run_power_method, else a CLI subcommand
    n: int
    m: int
    k: int
    p: float
    q: float
    phi: cp.CPMap
    path: str | None = None          # map file of CLI instances
    seed: int = 0                    # --seed of CLI instances
    matrix: np.ndarray | None = None  # nonnegative matrix of embedded maps

    def params(self) -> dict:
        return {"index": self.index, "kind": self.kind, "command": self.command,
                "n": self.n, "m": self.m, "k": self.k, "p": self.p, "q": self.q}

    def label(self) -> str:
        return (f"{self.command} kind={self.kind} n={self.n} "
                f"m={self.m} k={self.k} p={self.p:g} q={self.q:g}")


@dataclass
class Outcome:
    """What one instance returned, and what its check found."""

    latency_s: float
    value: object = None        # NormResult, or (exit code, stdout) for the CLI
    error: str | None = None    # exception raised by the call
    ok: bool = True
    violation: bool = False     # contradicts a guarantee the program states
    reason: str = ""
    iterations: int = 0
    evaluations: int = 0
    record_bytes: int = 0
    tier: str | None = None
    residual: float | None = None  # critical-point residual / estimate


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _map_seed(rng) -> int:
    return int(rng.integers(2**31))


def build_instances(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """All instances of a workload, generated from the workload seed.

    CLI workloads write their map files into ``workdir``.
    """
    rng = _rng(seed, workload)
    cycles = POOL_CYCLES[workload]
    out: list[Instance] = []

    def add(**fields):
        out.append(Instance(index=len(out), **fields))

    if workload == "iterate-small":
        fixed = {(kind, n): ctor(n) for n in (2, 4, 8)
                 for kind, ctor in (("identity", cp.identity_channel),
                                    ("depolarizing", cp.depolarizing_channel))}
        for _ in range(cycles):
            for n in (2, 4, 8):
                gauss = cp.random_cpmap(n, n, n, _map_seed(rng))
                for p, q in PQ_BOTH:
                    add(kind="gaussian", command="api", n=n, m=n, k=n, p=p, q=q,
                        phi=gauss)
                    for kind in ("identity", "depolarizing"):
                        phi = fixed[(kind, n)]
                        add(kind=kind, command="api", n=n, m=n,
                            k=phi.kraus_count, p=p, q=q, phi=phi)
    elif workload == "iterate-large":
        for _ in range(cycles):
            for n in (32, 64):
                for k in (4, 8):
                    add(kind="gaussian", command="api", n=n, m=n, k=k, p=3.0,
                        q=2.0, phi=cp.random_cpmap(n, n, k, _map_seed(rng)))
    elif workload == "certify":
        maps = [("generic", n) for n in (4, 8)]
        maps += [("positively_improving", n) for n in (3, 4, 6)]
        # Each command gets a map of its own: a map's cost varies by up to
        # 1.6x within a class, and independent maps average it out faster.
        for c in range(cycles):
            for j, (kind, n) in enumerate(maps):
                for i, command in enumerate(("compute", "diagnose")):
                    mapfile = fileio.generate_map(n, n, n, _map_seed(rng), kind=kind)
                    path = workdir / f"c{c}-{command}-{kind}-{n}.json"
                    fileio.save_map(mapfile, path)
                    phi = mapfile.to_cpmap()
                    p, q = PQ_BOTH[(j + i) % 2]
                    add(kind=kind, command=command, n=n, m=n,
                        k=phi.kraus_count, p=p, q=q, phi=phi, path=str(path),
                        seed=_map_seed(rng))
    elif workload == "verify":
        for c in range(cycles):
            files = []
            for n in range(2, 7):
                files.append(("generic", fileio.generate_map(n, n, n, _map_seed(rng)), None))
            for size in (3, 4):
                matrix = rng.uniform(0.0, 1.0, (size, size))
                files.append(("diagonal_from_matrix",
                              fileio.generate_map(size, size, size, 0,
                                                  kind="diagonal_from_matrix",
                                                  matrix=matrix), matrix))
            for j, (kind, mapfile, matrix) in enumerate(files):
                path = workdir / f"v{c}-{kind}-{mapfile.n}.json"
                fileio.save_map(mapfile, path)
                phi = mapfile.to_cpmap()
                p, q = PQ_BOTH[(c + j) % 2]
                add(kind=kind, command="verify", n=mapfile.n, m=mapfile.m,
                    k=phi.kraus_count, p=p, q=q, phi=phi, path=str(path),
                    seed=_map_seed(rng), matrix=matrix)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return out


# -- one timed call ------------------------------------------------------------

def run_instance(inst: Instance, clock) -> Outcome:
    """Evaluate one instance; only the call into the program is timed."""
    if inst.command == "api":
        t0 = clock()
        try:
            value = cp.run_power_method(
                inst.phi, cp.PowerConfig(p=inst.p, q=inst.q, with_contraction=False)
            )
        except Exception as exc:  # a crash on valid input is a result to report
            return Outcome(clock() - t0, error=f"{type(exc).__name__}: {exc}")
        return Outcome(clock() - t0, value=value)

    argv = [inst.command, "--map", inst.path, "--p", repr(inst.p),
            "--q", repr(inst.q), "--seed", str(inst.seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:
        return Outcome(clock() - t0, error=f"{type(exc).__name__}: {exc}")
    return Outcome(clock() - t0, value=(code, stdout.getvalue()))


# -- checks (run after the timed loop) ------------------------------------------

def _closed_form(kind: str, n: int, p: float, q: float) -> float:
    """||id||_{p->q} = max(1, n^(1/q-1/p)); the depolarizing channel attains
    n^(1/q-1/p) at the identity matrix for every (p, q)."""
    scale = n ** (1.0 / q - 1.0 / p)
    return max(1.0, scale) if kind == "identity" else scale


def _decode(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def fail(out: Outcome, reason: str, violation: bool) -> Outcome:
    out.ok = False
    out.violation = out.violation or violation
    out.reason = f"{out.reason}; {reason}" if out.reason else reason
    return out


def _check_reference(out, inst, estimate, reference, exact, warned_uncertified):
    """Compare an estimate with a reference norm.

    For p > q the iteration provably reaches the maximum, so a miss
    contradicts the program. For p <= q the program only claims a lower bound
    and warns: an estimate below the reference is a failed instance, and one
    above it contradicts the program only when the reference is the exact
    norm (closed forms), not another iteration's value.
    """
    rel = abs(estimate - reference) / reference
    if rel <= REFERENCE_RTOL:
        return
    detail = f"estimate {estimate:.12g} vs reference {reference:.12g} (rel {rel:.2e})"
    if inst.p > inst.q or not warned_uncertified:
        fail(out, detail, violation=True)
    elif estimate < reference:
        fail(out, f"uncertified p<=q run stopped below the reference: {detail}",
              violation=False)
    else:
        fail(out, detail, violation=exact)


def _check_critical_point(out, inst, status, estimate, maximizer):
    """A CONVERGED result must have a small relative critical-point residual."""
    if status != "converged":
        fail(out, f"status {status}", violation=(status == "left_cone"))
        return
    out.residual = cp.critical_point_residual(inst.phi, maximizer, inst.p, inst.q) / estimate
    if out.residual > RESIDUAL_RTOL:
        fail(out, f"CONVERGED with relative residual {out.residual:.2e}", violation=True)


def check(inst: Instance, out: Outcome) -> Outcome:
    """Check an outcome against a reference that does not depend on the seed."""
    if out.error is not None:
        return fail(out, f"raised {out.error}", violation=True)
    if inst.command == "api":
        res = out.value
        out.iterations = res.iterations
        uncertified = any("unproven regime" in w for w in res.warnings)
        if inst.kind == "gaussian":
            _check_critical_point(out, inst, res.status.value, res.norm_estimate,
                                  res.maximizer)
        else:
            _check_reference(out, inst, res.norm_estimate,
                             _closed_form(inst.kind, inst.n, inst.p, inst.q),
                             True, uncertified)
        return out

    code, text = out.value
    out.record_bytes = len(text.encode())
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return fail(out, f"exit {code}, stdout is not a record ({exc})", violation=True)

    if inst.command == "diagnose":
        diag = record["diagnostics"]
        out.tier = diag["contraction"]["upper_source"]
        if code != 0:
            fail(out, f"exit code {code}", violation=True)
        if (inst.kind == "positively_improving"
                and diag["positively_improving"]["verdict"] == "counterexample_found"):
            fail(out, "positively improving map reported a counterexample",
                  violation=True)
        return out

    result = record["result"]
    out.iterations = result["iterations"]
    uncertified = any("unproven regime" in w for w in result["warnings"])
    if result["contraction"] is not None:
        out.tier = result["contraction"]["upper_source"]
    if inst.command == "compute":
        if code not in (0, 2):
            fail(out, f"exit code {code}", violation=True)
        _check_critical_point(out, inst, result["status"], result["norm_estimate"],
                              _decode(result["maximizer"]))
        return out

    # verify: exit 0 and a verdict other than FAIL, plus the power estimate.
    cv = record["cross_validation"]
    out.evaluations = record["oracle"]["budget_used"]
    if code != 0 or cv["status"] == "FAIL":
        # The oracle beating a certified estimate means the iteration missed
        # the maximum; the oracle trailing it is the oracle's shortfall.
        beaten = cv["certified"] and cv["difference"] > cv["tol"]
        fail(out, f"exit {code}, verdict {cv['status']}: oracle - power = "
                   f"{cv['difference']:.3e} against tol {cv['tol']:g}",
              violation=beaten)
    if inst.kind == "diagonal_from_matrix":
        reference, _ = cp.classical_pq_norm(inst.matrix, inst.p, inst.q)
        _check_reference(out, inst, result["norm_estimate"], reference, False,
                         uncertified)
    else:
        _check_critical_point(out, inst, result["status"], result["norm_estimate"],
                              _decode(result["maximizer"]))
    return out


def quiet_warnings():
    """The positively-improving generator always over-counts Kraus operators;
    that warning is expected and is not a failure."""
    warnings.simplefilter("ignore", cp.KrausRedundancyWarning)


def cost_class(inst: Instance) -> tuple:
    """The parameters that set an instance's cost; each class occurs once per
    cycle. In ``verify`` the oracle's fixed budget dominates, so the exponent
    pair, which alternates between cycles, is left out."""
    if inst.command == "verify":
        return (inst.kind, inst.command, inst.n, inst.k)
    return (inst.kind, inst.command, inst.n, inst.k, inst.p, inst.q)


def by_class(done, values) -> list[list[float]]:
    """``values`` (one per run in ``done``) grouped by cost class."""
    classes: dict[tuple, list[float]] = {}
    for (_, inst, _), value in zip(done, values):
        classes.setdefault(cost_class(inst), []).append(value)
    return list(classes.values())


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the 11th largest sample, which has exactly
    ten samples above it; with eleven samples or fewer, the smallest.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100.0 * i / max(1, n - 1)


def median(values):
    return float(np.median(values)) if len(values) else math.nan
