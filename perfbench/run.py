"""portcap benchmark: times one workload's CLI invocations end to end, or
traces them per layer, and prints the result as JSON on the last line.

    python3 perfbench/run.py --workload figure-grid --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json and
``--trace 1`` the per-layer ones.  Set-up time is the trimmed mean import time
over several fresh processes.  See README.md in this directory for the metrics,
the workloads and the baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import worker
import workloads

WORKER = worker.HERE / "worker.py"
SETUP_PROBES = 6


def child_env() -> dict[str, str]:
    """Environment for every child: no PORTCAP_THREADS, BLAS threads <= nproc."""
    env = dict(os.environ)
    env.pop("PORTCAP_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and the lowest value, so one stray probe
    cannot move it far."""
    return statistics.fmean(sorted(values)[1:-1])


def run_child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=worker.ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    src = worker.ROOT / "src"
    if not (src / "portcap" / "__init__.py").is_file():
        print(f"error: no portcap package under {src}", file=sys.stderr)
        return 2

    env = child_env()
    # half the import probes run before the workload and half after it, so
    # the mean samples the machine at both ends of the run
    probes = [run_child(["--probe"], env, timeout=60)["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_child(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, timeout=60 + 2 * args.seconds)
    probes += [run_child(["--probe"], env, timeout=60)["setup_s"] for _ in range(SETUP_PROBES)]

    if args.trace:
        wanted, measured = spec["per_layer"], res["layers"]
    else:
        wanted, measured = spec["end_to_end"], {
            "wall_s": worker.mean_list_time(res["reps"], "wall_s"),
            "cpu_s": worker.mean_list_time(res["reps"], "cpu_s"),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": trimmed_mean(probes + [res["setup_s"]]),
        }
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    env_info = res["env"]
    problems = list(res["problems"])
    if env_info["blas_threads"] is not None and env_info["blas_threads"] > env_info["nproc"]:
        problems.append(f"BLAS uses {env_info['blas_threads']} threads on {env_info['nproc']} CPUs")
    if not env_info["PORTCAP_THREADS_unset"]:
        problems.append("PORTCAP_THREADS reached the workload process")
    fail_ratio = res["failed"] / res["attempted"]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "invocations": [" ".join(a) for a in
                                             workloads.invocations(args.workload, args.seed)],
        "env": env_info, "setup_probes_s": probes, "reps": res["reps"],
        "fail_ratio": fail_ratio, "problems": problems, "metrics": metrics,
    }
    worker.OUT_DIR.mkdir(exist_ok=True)
    (worker.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")

    print("env " + json.dumps(env_info))
    print(f"{args.workload} seed={args.seed}: {len(res['reps'])} repetitions, "
          f"fail_ratio={fail_ratio:.6g} ({res['failed']}/{res['attempted']} rows)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not problems and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
