"""Runs one workload in a fresh process and prints its measurements as one
JSON line.  ``run.py`` starts it; ``--probe`` only times the import.

The workload's invocation list is repeated until ``--seconds`` have passed.
Each repetition calls ``portcap.cli.main`` in-process for every invocation,
with stdout captured; outputs are checked after the repetition, outside the
timed region.  With ``--trace 1`` untraced and traced repetitions alternate,
so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# Counts that must repeat exactly within a seed and stay within 1% across seeds.
COUNT_KEYS = (
    "cli.rows",
    "performance.fidelity_qubit.log.terms",
    "asymptotics.psucc_largeN.terms",
    "simulate.srm_signal_traces.outcomes",
    "simulate.eigh.dim3",
)
COUNT_TOLERANCE = 0.01

# Spans that must fire on a workload, and layers that must stay idle on it.
ACTIVE = {
    "figure-grid": ("performance.fidelity_qubit.exact", "performance.fidelity_qubit.log",
                    "exactmath.square_of_radical_sum", "exactmath.logsumexp",
                    "asymptotics.psucc_largeN", "bounds"),
    "critical-largeN": ("performance.fidelity_qubit.log", "exactmath.logsumexp",
                        "asymptotics.psucc_largeN", "protocols"),
    "qudit-exact": ("performance.fidelity_exact", "performance.psucc_exact",
                    "exactmath.square_of_radical_sum", "tableaux.add_boxes",
                    "tableaux.syt_count", "tableaux.ssyt_count", "tableaux.enumerate_diagrams"),
    "certify-dense": ("cli.povm_check", "simulate.signal_sum", "simulate.eigh",
                      "simulate.srm_signal_traces", "simulate.rho_and_srm", "bounds"),
}
IDLE = {
    "figure-grid": ("tableaux", "simulate"),
    "critical-largeN": ("tableaux", "simulate", "performance.fidelity_qubit.exact",
                        "exactmath.square_of_radical_sum"),
    "qudit-exact": ("simulate", "performance.fidelity_qubit.exact",
                    "performance.fidelity_qubit.log", "asymptotics.psucc_largeN"),
    "certify-dense": (),
}


def import_portcap() -> float:
    """Put the checkout's ``src`` first on the path and time ``import portcap.cli``."""
    src = ROOT / "src"
    if not (src / "portcap" / "__init__.py").is_file():
        raise SystemExit(f"error: no portcap package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import portcap.cli  # noqa: F401

    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), cpu_model)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "PORTCAP_THREADS_unset": "PORTCAP_THREADS" not in os.environ,
    }


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    libdir = Path(np.__file__).parent
    for lib in sorted((libdir.parent / "numpy.libs").glob("*openblas*")) + sorted(
            (libdir / ".libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_rep(main, invs: list[list[str]]) -> tuple[dict, list[tuple[int, str]]]:
    """One pass over the invocation list: per-invocation wall and CPU seconds,
    and each invocation's (exit code, stdout)."""
    walls, cpus, outputs = [], [], []
    gc.collect()
    for argv in invs:
        out, err = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed op, not a dead benchmark
                traceback.print_exc()
                code = -1
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if code:
            sys.stderr.write(err.getvalue())
        outputs.append((code, out.getvalue()))
    return {"wall_s": walls, "cpu_s": cpus}, outputs


def mean_list_time(reps: list[dict], key: str) -> float:
    """Time of one pass over the invocation list, averaged over the run's passes.

    Other tenants of the machine slow each vCPU by up to 1.9 times, in
    fluctuations from under a second to a minute long.  The mean over a whole
    run averages the short ones out; taking each invocation's fastest pass
    instead left the result to whichever short dip a run happened to catch,
    and spread about twice as wide across runs.
    """
    return statistics.fmean(sum(r[key]) for r in reps)


def check_counts(workload: str, seed: int, counts: dict, golden: dict) -> list[str]:
    expected = golden["counts"][workload]
    problems = []
    for key in COUNT_KEYS:
        want, got = expected[key], counts[key]
        if seed == workloads.DEFAULT_SEED and got != want:
            problems.append(f"{key} = {got}, recorded {want} at the default seed")
        elif abs(got - want) > COUNT_TOLERANCE * want:
            problems.append(f"{key} = {got}, more than 1% from the default seed's {want}")
    return problems


def check_coverage(workload: str, layers: dict) -> list[str]:
    problems = [f"span {name} never fired" for name in ACTIVE[workload]
                if layers[f"{name}.calls"] < 1]
    problems += [f"layer {name} should be idle but recorded {layers[f'{name}.calls']} calls"
                 for name in IDLE[workload] if layers[f"{name}.calls"] != 0]
    return problems


def run(args: argparse.Namespace) -> dict:
    setup_s = import_portcap()
    import portcap.cli

    golden = json.loads((HERE / "golden.json").read_text())
    invs = workloads.invocations(args.workload, args.seed)
    checker = workloads.Checker(golden["digests"])
    tracer = tracing.Tracer() if args.trace else None
    modes = (False, True) if args.trace else (False,)

    reps, problems, spans = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        traced = modes[i % len(modes)]
        if traced:
            tracer.install()
            rep, outputs = run_rep(tracer.main, invs)
            tracer.uninstall()
            spans = list(tracer.spans)
        else:
            rep, outputs = run_rep(portcap.cli.main, invs)
        rep["traced"] = traced
        rows_this_rep = 0
        for argv, (code, stdout) in zip(invs, outputs):
            rows, bad, messages = checker.check(argv, code, stdout)
            rows_this_rep += rows
            attempted += rows
            failed += bad
            problems += [f"{' '.join(argv)}: {m}" for m in messages[:5]]
        if traced:
            layers = tracing.summarize(spans)
            layers["cli.rows"] = rows_this_rep
            rep["layers"] = layers
        reps.append(rep)
        i += 1
        if i % len(modes) == 0 and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        plain_reps = [r for r in reps if not r["traced"]]
        layers = {key: statistics.median_low(r["layers"][key] for r in traced_reps)
                  for key in traced_reps[0]["layers"]}
        layers["trace_overhead_s"] = (mean_list_time(traced_reps, "wall_s")
                                      - mean_list_time(plain_reps, "wall_s"))
        # spans must account for the traced wall time up to what tracing itself costs
        for r in traced_reps:
            gap = sum(r["wall_s"]) - r["layers"]["cli.main.wall_s"]
            if gap > abs(layers["trace_overhead_s"]) + 1e-3:
                problems.append(f"{gap:.4f} s of traced wall time outside every span")
        counts = [{key: r["layers"][key] for key in COUNT_KEYS} for r in traced_reps]
        if any(c != counts[0] for c in counts):
            problems.append(f"counts differ between repetitions: {counts}")
        problems += check_counts(args.workload, args.seed, counts[0], golden)
        problems += check_coverage(args.workload, traced_reps[0]["layers"])
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        # counts must also repeat across runs of one seed in this checkout
        count_file = OUT_DIR / f"counts-{args.workload}-seed{args.seed}.json"
        if count_file.exists() and json.loads(count_file.read_text()) != counts[0]:
            problems.append(f"counts differ from an earlier run of this seed: {counts[0]}")
        count_file.write_text(json.dumps(counts[0]))
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_file, "w") as fh:
            for name, t0, t1, parent, _ in spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
    result["problems"] = list(dict.fromkeys(problems))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="only time the import")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"setup_s": import_portcap()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
