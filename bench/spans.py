"""In-memory span tracer that wraps the package's layer functions from outside.

Modules import functions by name, so a function is replaced at every
``cpnorm`` module that binds it, not only where it is defined.
``CPMap.apply`` and ``CPMap.adjoint_apply`` are replaced on the class, and
``numpy.linalg.eigh`` / ``numpy.linalg.eigvalsh`` stand for the ``linalg``
layer. A wrapper records nothing unless an instance is open, so the
benchmark's own checks run untraced.

Spans are kept in flat arrays (name, start, end, parent, instance, work) and
written out when the run ends; self times, phases and per-instance counts are
derived from those arrays afterwards, which keeps the wrapper cheap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function names) per layer; the layer is the module's last name.
LAYER_FUNCTIONS = {
    "cpnorm.cpmap": ("objective", "check_positively_improving",
                     "check_fully_indecomposable"),
    "cpnorm.hermitian": ("require_hermitian", "eig_decompose", "psd_spectrum",
                         "numerical_rank"),
    "cpnorm.schatten": ("duality_map", "schatten_norm"),
    "cpnorm.hilbert": ("hilbert_distance", "estimate_diameter",
                       "contraction_report", "run_diagnostics"),
    "cpnorm.power": ("run_power_method", "power_step", "critical_point_residual"),
    "cpnorm.oracle": ("oracle_max", "cross_validate"),
    "cpnorm.fileio": ("load_map", "canonical_json"),
    "cpnorm.cli": ("main",),
}
CPMAP_METHODS = ("apply", "adjoint_apply")
LINALG_FUNCTIONS = ("eigh", "eigvalsh")

# A span of one of these names starts a phase; every span below it belongs to
# that phase until another phase span opens.
PHASES = {
    "power.run_power_method": "iterate",
    "hilbert.contraction_report": "contraction",
    "oracle.oracle_max": "oracle",
}
PHASE_NAMES = ("none", *PHASES.values())


def _eig_work(args, kwargs, result):
    """Σ n³ of one eigensolve: the operation count the kernel scales with."""
    shape = np.shape(args[0])
    return float(np.prod(shape[:-2], dtype=float) * shape[-1] ** 3)


def _trials(args, kwargs, result):
    return float(result.trials)


WORK = {
    "linalg.eigh": _eig_work,
    "linalg.eigvalsh": _eig_work,
    "cpmap.check_positively_improving": _trials,
}


class Tracer:
    """Records one span per call of a wrapped function while an instance is open."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance = array("l")
        self.work = array("d")
        self._stack: list[int] = []
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer function at each module and class that binds it."""
        from cpnorm.cpmap import CPMap

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cpnorm" or name.startswith("cpnorm."))]
        for module_name, functions in LAYER_FUNCTIONS.items():
            layer = module_name.rsplit(".", 1)[1]
            home = sys.modules[module_name]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapper)
        for method in CPMAP_METHODS:
            self._set(CPMap, method, self._wrap(vars(CPMap)[method], f"cpmap.{method}"))
        for fname in LINALG_FUNCTIONS:
            self._set(np.linalg, fname, self._wrap(getattr(np.linalg, fname), f"linalg.{fname}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        clock = time.perf_counter
        stack = self._stack
        name_of, start, end = self.name_of, self.start, self.end
        parent, instance, work_done = self.parent, self.instance, self.work
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inst = tracer._current
            if inst < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            instance.append(inst)
            work_done.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                work_done[idx] = work(args, kwargs, result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def open(self, instance_id: int):
        self._current = instance_id

    def close(self):
        self._current = -1

    def span_count(self) -> int:
        return len(self.start)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with self time and phase derived."""
        name = np.asarray(self.name_of, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        inst = np.asarray(self.instance, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        own_phase = np.array(
            [PHASE_NAMES.index(PHASES[n]) if n in PHASES else -1 for n in self.names],
            dtype=np.int64,
        )
        # A span without a phase of its own inherits its nearest ancestor's;
        # pointer jumping up the parent links resolves every span in
        # O(log depth) passes.
        phase = own_phase[name]
        ancestor = parent.copy()
        while True:
            todo = np.flatnonzero((phase < 0) & (ancestor >= 0))
            if todo.size == 0:
                break
            up = ancestor[todo]
            phase[todo] = phase[up]
            ancestor[todo] = np.where(phase[todo] < 0, ancestor[up], -1)
        phase[phase < 0] = 0
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "instance": inst, "work": np.asarray(self.work, dtype=np.float64),
            "dur": dur, "self": dur - covered, "phase": phase,
        }

    def counts_by_instance(self, spans: dict) -> dict[int, dict[str, int]]:
        """Calls of every traced function, per instance id."""
        ids, row = np.unique(spans["instance"], return_inverse=True)
        table = np.zeros((ids.size, len(self.names)), dtype=np.int64)
        np.add.at(table, (row, spans["name"]), 1)
        return {int(i): dict(zip(self.names, counts))
                for i, counts in zip(ids, table.tolist())}

    def save(self, path, spans: dict):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            phase_names=np.array(PHASE_NAMES),
            **{k: spans[k] for k in ("name", "start", "end", "parent", "instance",
                                     "work", "phase")},
        )


def _select(spans: dict, ids) -> dict:
    keep = np.isin(spans["instance"], np.fromiter(ids, dtype=np.int64))
    remap = np.cumsum(keep) - 1
    out = {k: v[keep] for k, v in spans.items()}
    out["parent"] = np.where(out["parent"] >= 0, remap[out["parent"]], -1)
    return out


def consistency(tracer: Tracer, spans: dict, counts: dict, traced, repeat) -> list[str]:
    """Cross-checks that fail when a layer function was called through a
    binding the tracer missed."""
    names = tracer.names
    ids = [run_id for run_id, _, _ in traced]
    sub = _select(spans, ids)
    problems = []

    step = np.count_nonzero(sub["name"] == names.index("power.power_step"))
    iterations = sum(out.iterations for _, _, out in traced)
    if step != iterations:
        problems.append(f"power.power_step spans {step} != sum of iterations {iterations}")

    oracle = PHASE_NAMES.index("oracle")
    evals = np.count_nonzero((sub["name"] == names.index("cpmap.apply"))
                             & (sub["phase"] == oracle))
    budget = sum(out.evaluations for _, _, out in traced)
    if evals != budget:
        problems.append(f"oracle-phase map applications {evals} != sum of budget_used {budget}")

    roots = sub["parent"] < 0
    for run_id, inst, _ in traced:
        entry = "power.run_power_method" if inst.command == "api" else "cli.main"
        top = sub["name"][roots & (sub["instance"] == run_id)]
        if top.tolist() != [names.index(entry)]:
            got = [names[i] for i in top]
            problems.append(f"instance {run_id}: top-level spans {got}, expected [{entry}]")
            break

    for (first, inst, _), (again, _, _) in zip(traced, repeat):
        a, b = counts.get(first, {}), counts.get(again, {})
        if a != b:
            diff = [n for n in names if a.get(n) != b.get(n)]
            problems.append(f"#{inst.index} {inst.label()}: counts differ between "
                            f"traced runs in {diff}")
    return problems


def layer_metrics(tracer: Tracer, spans: dict, traced) -> dict:
    """Per-layer metrics over the traced pass, per instance unless stated."""
    names = tracer.names
    sub = _select(spans, [run_id for run_id, _, _ in traced])
    per = 1.0 / len(traced)
    name, phase = sub["name"], sub["phase"]

    def sel(fn):
        return name == names.index(fn)

    def calls(fn):
        return (np.count_nonzero(sel(fn)) * per, "calls/inst", "")

    def self_ms(*fns):
        mask = np.isin(name, [names.index(f) for f in fns])
        return (float(sub["self"][mask].sum()) * 1e3 * per, "ms/inst", "")

    def incl_ms(fn):
        return (float(sub["dur"][sel(fn)].sum()) * 1e3 * per, "ms/inst", "inclusive")

    def layer(prefix):
        return tuple(n for n in names if n.startswith(prefix + "."))

    iterations = sum(out.iterations for _, _, out in traced)
    iterate = phase == PHASE_NAMES.index("iterate")
    eig = np.isin(name, [names.index("linalg.eigh"), names.index("linalg.eigvalsh")])

    def per_iter(mask, note):
        value = np.count_nonzero(mask & iterate) / iterations if iterations else 0.0
        return (value, "calls/iter", note)

    contraction = sel("hilbert.contraction_report")
    parents = sub["parent"][contraction]
    in_run = np.zeros(parents.size, dtype=bool)
    in_run[parents >= 0] = phase[parents[parents >= 0]] == PHASE_NAMES.index("iterate")
    run_s = float(sub["dur"][sel("power.run_power_method")].sum())
    oracle_s = float(sub["dur"][sel("oracle.oracle_max")].sum())
    oracle_evals = np.count_nonzero(sel("cpmap.apply")
                                    & (phase == PHASE_NAMES.index("oracle")))

    return {
        "cpmap.apply.calls": calls("cpmap.apply"),
        "cpmap.apply.self_ms": self_ms("cpmap.apply"),
        "cpmap.adjoint_apply.calls": calls("cpmap.adjoint_apply"),
        "cpmap.adjoint_apply.self_ms": self_ms("cpmap.adjoint_apply"),
        "cpmap.apply_per_iter": per_iter(sel("cpmap.apply"), "inside run_power_method, "
                                         "outside the contraction report"),
        "cpmap.adjoint_per_iter": per_iter(sel("cpmap.adjoint_apply"), ""),
        "cpmap.objective.calls": calls("cpmap.objective"),
        "cpmap.check_positively_improving.self_ms":
            self_ms("cpmap.check_positively_improving"),
        "cpmap.check_positively_improving.trials": (
            float(sub["work"][sel("cpmap.check_positively_improving")].sum()) * per,
            "trials/inst", ""),
        "cpmap.check_fully_indecomposable.self_ms":
            self_ms("cpmap.check_fully_indecomposable"),
        "cpmap.self_ms": self_ms(*layer("cpmap")),
        "hermitian.require_hermitian.calls": calls("hermitian.require_hermitian"),
        "hermitian.require_hermitian.self_ms": self_ms("hermitian.require_hermitian"),
        "hermitian.eig_decompose.calls": calls("hermitian.eig_decompose"),
        "hermitian.eig_decompose.self_ms": self_ms("hermitian.eig_decompose"),
        "hermitian.psd_spectrum.calls": calls("hermitian.psd_spectrum"),
        "hermitian.numerical_rank.calls": calls("hermitian.numerical_rank"),
        "hermitian.self_ms": self_ms(*layer("hermitian")),
        "linalg.eigh.calls": calls("linalg.eigh"),
        "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
        "linalg.self_ms": self_ms(*layer("linalg")),
        "linalg.eig_per_iter": per_iter(eig, "eigh + eigvalsh"),
        "linalg.n3_sum": (float(sub["work"][eig].sum()) * per, "n3/inst",
                          "sum of n^3 over eigensolves"),
        "schatten.duality_map.calls": calls("schatten.duality_map"),
        "schatten.duality_map.self_ms": self_ms("schatten.duality_map"),
        "schatten.schatten_norm.calls": calls("schatten.schatten_norm"),
        "schatten.schatten_norm.self_ms": self_ms("schatten.schatten_norm"),
        "hilbert.hilbert_distance.calls": calls("hilbert.hilbert_distance"),
        "hilbert.hilbert_distance.self_ms": self_ms("hilbert.hilbert_distance"),
        "hilbert.estimate_diameter.self_ms": self_ms("hilbert.estimate_diameter"),
        "hilbert.contraction_report.ms": incl_ms("hilbert.contraction_report"),
        "hilbert.self_ms": self_ms(*layer("hilbert")),
        "hilbert.run_diagnostics.ms": incl_ms("hilbert.run_diagnostics"),
        "hilbert.contraction_share": (
            float(sub["dur"][contraction][in_run].sum()) / run_s if run_s else 0.0,
            "ratio", "contraction report time / run_power_method time"),
        "power.run_power_method.ms": incl_ms("power.run_power_method"),
        "power.power_step.calls": calls("power.power_step"),
        "power.power_step.self_ms": self_ms("power.power_step"),
        "power.critical_point_residual.calls": calls("power.critical_point_residual"),
        "power.critical_point_residual.self_ms": self_ms("power.critical_point_residual"),
        "power.iterations": (iterations * per, "iters/inst", ""),
        "power.self_ms": self_ms(*layer("power")),
        "oracle.oracle_max.ms": incl_ms("oracle.oracle_max"),
        "oracle.self_ms": self_ms(*layer("oracle")),
        "oracle.evaluations": (oracle_evals * per, "evals/inst",
                               "map applications inside oracle_max"),
        "oracle.evals_per_s": (oracle_evals / oracle_s if oracle_s else 0.0, "1/s", ""),
        "oracle.cross_validate.ms": incl_ms("oracle.cross_validate"),
        "fileio.load_map.ms": incl_ms("fileio.load_map"),
        "fileio.canonical_json.ms": incl_ms("fileio.canonical_json"),
        "fileio.record_bytes": (sum(out.record_bytes for _, _, out in traced) * per,
                                "B/inst", "stdout record size"),
        "fileio.self_ms": self_ms(*layer("fileio")),
        "cli.main.self_ms": self_ms("cli.main"),
    }
