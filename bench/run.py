"""cpnorm benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload iterate-small --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout and imports ``cpnorm`` from its
``src`` directory. With ``--trace 0`` it times a closed loop over the seed's
pool of instances, covering the pool once and going on for ``--seconds``, and
reports the end-to-end metrics, bounded times rescaled to the speed of a
reference kernel timed between instances (speed.py); with ``--trace 1`` it
runs half the time untraced and half traced, then re-runs the first
instances traced, and reports the per-layer metrics. Every run is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``
and ``failed`` (pool instances) and the metrics that BENCHMARK.json names for
the mode. The environment, every metric and one row per run are also written
to ``bench/out/``.
"""

import time

# Set-up time counts from here; the program and the modules that import it
# (workloads, spans) are imported inside the functions that need them.
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"

# Set-ups per end-to-end run: this process plus fresh interpreters.
SETUP_PROBES = 2
# Speed-reference samples a set-up probe takes after its set-up.
SETUP_SPEED_SAMPLES = 15
# Share of --seconds spent re-running traced instances to compare counts.
REPEAT_SHARE = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up times and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import cpnorm from this checkout's src directory, and nowhere else."""
    if not (SRC / "cpnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no cpnorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpnorm

    if Path(cpnorm.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported cpnorm from {cpnorm.__file__}, not {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and build the workload's maps; returns timings."""
    import_program()
    import workloads

    t_imported = time.perf_counter()
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
    workloads.quiet_warnings()
    workdir.mkdir(parents=True, exist_ok=True)
    instances = workloads.build_instances(workload, seed, workdir)
    t_ready = time.perf_counter()
    times = {"setup_s": t_ready - T_START, "import_s": t_imported - T_START,
             "maps_s": t_ready - t_imported}
    return instances, times


def speed_probe(workload: str):
    import speed
    import workloads

    return speed.SpeedProbe(*workloads.REFERENCE[workload])


def probe_setups(args) -> list[tuple[float, float]]:
    """(set-up time, speed factor) of fresh interpreters running the same set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["speed_factor"]))
    return samples


def timed_loop(instances, seconds, probe, tracer=None, first_id=0, limit=None,
               cover=True):
    """Closed loop, one client: run instances in order, starting over at the
    end, until time is up and (with ``cover``) every instance has run once,
    or until ``limit`` instances have run. The speed reference is sampled
    between instances, outside their timed calls."""
    import workloads

    clock = time.perf_counter
    done = []
    first_sample = len(probe.durations)
    t0 = clock()
    i = 0
    while True:
        probe.keep_share(clock() - t0, first_sample)
        inst = instances[i % len(instances)]
        if tracer is not None:
            tracer.open(first_id + i)
        out = workloads.run_instance(inst, clock)
        if tracer is not None:
            tracer.close()
        done.append((first_id + i, inst, out))
        i += 1
        if i == limit or (clock() - t0 >= seconds
                          and (not cover or i >= len(instances))):
            break
    return done


def check_all(done):
    """Check every outcome; a check that cannot read a result fails the instance."""
    import traceback

    import workloads

    for _, inst, out in done:
        try:
            workloads.check(inst, out)
        except Exception:
            detail = traceback.format_exc(limit=2).strip().splitlines()[-1]
            workloads.fail(out, f"result could not be checked: {detail}", violation=True)


def adjusted_latencies(done, factor: float) -> list[float]:
    """Latencies rescaled to the reference speed (see speed.py)."""
    return [out.latency_s * factor for _, _, out in done]


def end_to_end(done, probe, setups, failed):
    """The end-to-end metrics of an untraced loop.

    Throughput is that of a typical cost class: 1 / the geometric mean over
    classes of each class's median latency. Every class weighs the same, so a
    cycle cut short by the deadline does not tilt it, and the median and the
    geometric mean keep the few maps that need many iterations (p <= q) from
    setting it. Every completed run
    counts; failures are reported apart, in ``fail_frac``. The bounded times
    (``instances_per_s``, ``setup_s``) are rescaled to the reference speed
    (see speed.py); the measured values are printed beside them.
    """
    import workloads

    raw = [out.latency_s for _, _, out in done]
    adjusted = adjusted_latencies(done, probe.factor())
    classes = workloads.by_class(done, raw)

    def class_rate(latencies):
        medians = [workloads.median(c) for c in workloads.by_class(done, latencies)]
        return 1.0 / math.exp(sum(math.log(m) for m in medians) / len(medians))

    latencies_ms = [t * 1e3 for t in raw]
    tail, pct = workloads.percentile_tail(latencies_ms)
    attempted = len({inst.index for _, inst, _ in done})
    setup_raw = [s for s, _ in setups]
    setup_adj = [s * f for s, f in setups]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "instances_per_s": (class_rate(adjusted), "1/s",
                            f"at reference speed: 1 / geometric mean of "
                            f"{len(classes)} class medians"),
        "instances_per_s.raw": (class_rate(raw), "1/s",
                                f"as measured; {len(done)} runs in {sum(raw):.2f} s "
                                f"of calls = {len(done) / sum(raw):.4g}/s"),
        "latency_ms.p50": (workloads.median([workloads.median(c) for c in classes]) * 1e3,
                           "ms", f"median of {len(classes)} class medians; raw median "
                           f"of {len(raw)} samples {workloads.median(latencies_ms):.4g}"),
        "latency_ms.tail": (tail, "ms",
                            f"p{pct:.2f}: 11th largest of {len(raw)} samples"),
        "fail_frac": (failed / attempted, "ratio",
                      f"{failed} of {attempted} distinct instances failed"),
        "setup_s": (workloads.median(setup_adj), "s",
                    f"at reference speed, median of {len(setups)} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setup_adj)),
        "setup_s.raw": (workloads.median(setup_raw), "s",
                        "as measured: " + ", ".join(f"{s:.3f}" for s in setup_raw)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "ru_maxrss of this process"),
        "machine.speed": (probe.factor(), "ratio",
                          f"nominal / measured reference time, {probe.summary} of "
                          f"{len(probe.durations)} samples "
                          f"(range {probe.nominal / max(probe.durations):.3f}"
                          f"-{probe.nominal / min(probe.durations):.3f})"),
    }


def run_traced(args, instances, times, probe):
    """Untraced and traced halves, a traced repeat, and the trace's self-checks."""
    import spans as spanmod

    half = args.seconds / 2.0
    plain = timed_loop(instances, half, probe)
    traced_from = len(probe.durations)
    tracer = spanmod.Tracer()
    tracer.install()
    try:
        traced = timed_loop(instances, half, probe, tracer=tracer, first_id=len(plain))
        traced_to = len(probe.durations)
        repeat_from = traced[0][0] + len(traced)
        repeat = timed_loop([inst for _, inst, _ in traced],
                            args.seconds * REPEAT_SHARE, probe, tracer=tracer,
                            first_id=repeat_from, limit=len(traced), cover=False)
    finally:
        tracer.uninstall()
    check_all(plain + traced + repeat)

    spans = tracer.arrays()
    counts = tracer.counts_by_instance(spans)
    problems = spanmod.consistency(tracer, spans, counts, traced, repeat)
    common = min(len(plain), len(traced))
    # Each half is rescaled by the reference speed measured during it.
    overhead = (sum(adjusted_latencies(traced[:common],
                                       probe.factor(traced_from, traced_to)))
                / sum(adjusted_latencies(plain[:common], probe.factor(0, traced_from)))
                ) - 1.0
    metrics = spanmod.layer_metrics(tracer, spans, traced)
    metrics["setup.import_s"] = (times["import_s"], "s", "")
    metrics["setup.maps_s"] = (times["maps_s"], "s", "")
    metrics["trace.overhead_frac"] = (
        overhead, "ratio",
        f"traced vs untraced time at reference speed over the first {common} instances",
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans_{args.workload}_seed{args.seed}.npz", spans)
    rows = instance_rows(plain + traced + repeat, counts)
    return plain + traced + repeat, metrics, problems, rows, tracer.span_count()


def instance_rows(done, counts=None):
    """One row per instance; traced rows carry their apply and eigensolve counts."""
    rows = []
    for run_id, inst, out in done:
        traced = (counts or {}).get(run_id)
        rows.append({
            "run_id": run_id, **inst.params(),
            "latency_ms": out.latency_s * 1e3, "iterations": out.iterations,
            "applies": traced and traced["cpmap.apply"],
            "adjoint_applies": traced and traced["cpmap.adjoint_apply"],
            "eigensolves": traced and traced["linalg.eigh"] + traced["linalg.eigvalsh"],
            "oracle_evaluations": out.evaluations, "tier": out.tier,
            "relative_residual": out.residual,
            "ok": out.ok, "violation": out.violation, "reason": out.reason,
        })
    return rows


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        pass
    return None


def declared_metrics(trace: int, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, in its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit, _ = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"error: {entry['name']} is in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def first_failures(done):
    """Each distinct instance that failed in any of its runs, with that run."""
    first = {}
    for _, inst, out in done:
        if not out.ok and inst.index not in first:
            first[inst.index] = (inst, out)
    return list(first.values())


def failure_lines(workload: str, failed) -> list[tuple[str, int]]:
    """One line per distinct failure; instances of a fixed map that fail the
    same way in every cycle share a line, with their count."""
    lines: dict[str, int] = {}
    for inst, out in failed:
        text = (f"{workload} {inst.label()}"
                f"{' [contradicts the program]' if out.violation else ''}: {out.reason}")
        lines[text] = lines.get(text, 0) + 1
    return list(lines.items())


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / str(os.getpid())
    try:
        instances, times = setup(args.workload, args.seed, workdir)
        probe = speed_probe(args.workload)
        if args.setup_probe:
            for _ in range(SETUP_SPEED_SAMPLES):
                probe.sample()
            print(json.dumps({**times, "speed_factor": probe.factor(summary="mean")}))
            return 0

        problems = []
        if args.trace:
            done, metrics, problems, rows, span_count = run_traced(
                args, instances, times, probe)
            failed = first_failures(done)
        else:
            done = timed_loop(instances, args.seconds, probe)
            check_all(done)
            failed = first_failures(done)
            # Set-up is one stretch of about a second, so it takes the mean.
            setups = [(times["setup_s"], probe.factor(summary="mean"))]
            setups += probe_setups(args)
            metrics = end_to_end(done, probe, setups, len(failed))
            rows = instance_rows(done)
            span_count = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len({inst.index for _, inst, _ in done})
    correct = not problems and not any(out.violation for _, _, out in done)
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit:10s} {note}")
    if args.trace:
        print(f"spans recorded: {span_count}")
        for problem in problems:
            print(f"TRACE CHECK FAILED: {problem}")
    print(f"attempted {attempted} distinct instances in {len(done)} runs  "
          f"failed {len(failed)}  correct {str(correct).lower()}")
    for text, count in failure_lines(args.workload, failed):
        print(f"  failed{f' ({count} instances)' if count > 1 else ''}: {text}")

    OUT.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}_seed{args.seed}{'_trace' if args.trace else ''}"
    (OUT / f"BENCH_{label}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "trace_problems": problems, "correct": correct,
        "attempted": attempted, "failed": len(failed), "instances": rows,
        "speed_samples": {"size": probe.size, "summary": probe.summary,
                          "nominal_s": probe.nominal, "duration": probe.durations},
    }, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": declared_metrics(args.trace, metrics),
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
